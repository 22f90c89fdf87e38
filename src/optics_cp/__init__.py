"""Confidence sets for the number of change-points in a sequence.

The package turns model-specific change problems into mean changes on a
score sequence, splits the scores by temporal parity, scores every
candidate count out of sample, and inverts studentized bootstrap tests
into a confidence set.  Robust (Huber), multiple-splitting, and
m-dependent variants share the same pipeline, and a simulation harness
reports Monte Carlo coverage and cardinality.
"""

from .core import (
    CandidateSet,
    Segmentation,
    SplitPair,
    TimeSeries,
    odd_even_split,
    order_preserving_l_split,
)
from .detectors import (
    BINARY_SEGMENTATION,
    SEGMENT_NEIGHBORHOOD,
    CostCache,
    DetectorKind,
    fit_all_candidates,
)
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleError,
    LengthError,
    OpticsError,
    ParseError,
    ShapeError,
    SpecError,
)
from .ext import HuberConfig, cauchy_combine, h_optics, optics
from .inference import (
    BootstrapConfig,
    ConfidenceSet,
    PValueTable,
    XiMatrix,
    bootstrap_pvalue,
    confidence_set,
    copss_estimate,
    criterion,
    run_on_scores,
    test_statistic,
    xi_matrix,
)
from .scores import ScoreModel, ScoreSeries, transform
from .sim import (
    PRESETS,
    ExperimentReport,
    GeneratorSpec,
    RunRecord,
    default_k_max,
    diagnostics,
    generate,
    run_experiment,
)

__version__ = "0.1.0"
