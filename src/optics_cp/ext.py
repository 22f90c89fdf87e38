"""Extensions of the base procedure: multiple splitting, Huber robustness,
and m-dependent data.

All three are one construction, run by a single function: the base
pipeline on L order-preserving subsamples, with an optional change of
the per-point fit measure, and the per-candidate p-values fused by
equal-weight Cauchy combination, which stays valid under arbitrary
dependence between the splits.  Multiple splitting picks L; the m-dependent
variant is L = m + 1, so that observations within each subsample are at
least m + 1 apart and hence independent; the Huber variant keeps L = 1
and swaps the squared-norm fit for a coordinatewise Huber loss.  The
public entry points are thin wrappers around that function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import CandidateSet, TimeSeries, order_preserving_l_split, parity_split, split_like
from .detectors import DetectorKind
from .errors import ConfigError
from .inference import (
    BootstrapConfig,
    ConfidenceSet,
    PValueTable,
    _sq_rows,
    confidence_set,
    run_on_scores,
)
from .scores import ScoreModel, transform


@dataclass(frozen=True)
class HuberConfig:
    """Huber threshold; ``adaptive`` rescales it from the even-half spread."""

    kappa: float = 1.5
    adaptive: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError(f"kappa must be finite and positive, got {self.kappa}")


def _cauchy(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise equal-weight Cauchy combination of an (L, K) p-value
    matrix: the statistics sum_r tan((0.5 - p_r) * pi) / L and the combined
    p-values 0.5 - arctan(T) / pi."""
    stat = np.sum((1.0 / len(p)) * np.tan((0.5 - p) * np.pi), axis=0)
    return stat, 0.5 - np.arctan(stat) / np.pi


def cauchy_combine(pvals) -> float:
    """Combine p-values through the equal-weight Cauchy transform.

    T = mean_r tan((0.5 - p_r) * pi), mapped back through
    0.5 - arctan(T) / pi.  Valid under arbitrary dependence; strictly
    increasing in every input.  Inputs should lie strictly inside (0, 1).
    """
    p = np.asarray(pvals, dtype=np.float64).ravel()
    if p.size == 0:
        raise ConfigError("no p-values to combine")
    return float(_cauchy(p[:, None])[1][0])


def huber_loss(u, kappa: float):
    """Huber loss: quadratic inside [-kappa, kappa], linear outside.

    Scalars map to floats; vectors are summed over coordinates.
    """
    if kappa <= 0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    arr = np.asarray(u, dtype=np.float64)
    vals = _huber_elem(arr, kappa)
    if arr.ndim == 0:
        return float(vals)
    return float(vals.sum())


def _huber_elem(x: np.ndarray, kappa: float) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax <= kappa, 0.5 * (x * x), kappa * ax - 0.5 * (kappa * kappa))


def _huber_rows(resid: np.ndarray, kappa: float) -> np.ndarray:
    return _huber_elem(resid, kappa).sum(axis=1)


def _adaptive_kappa(even: np.ndarray, fallback: float) -> float:
    centered = even - np.median(even, axis=0)
    mad = float(np.median(np.abs(centered)))
    if mad <= 0:
        return fallback
    return 1.345 * mad / 0.6745


def _run_variant(
    ts: TimeSeries,
    model: ScoreModel,
    kind: DetectorKind,
    m: CandidateSet,
    alpha: float,
    cfg: BootstrapConfig,
    L: int = 1,
    huber: HuberConfig | None = None,
    covariates: np.ndarray | None = None,
) -> tuple[ConfidenceSet, PValueTable]:
    """The one pipeline behind every variant.

    L = 1 transforms the series and runs the split-fit-bootstrap pipeline
    with the squared-norm fit, or with the Huber fit when ``huber`` is
    given (an adaptive threshold is set from the parity split's even
    half).  L > 1 runs that on each order-preserving subsample r, with
    its covariate rows and seed XOR r, and fuses the per-candidate
    p-values by equal-weight Cauchy combination.
    """
    if L == 1:
        scores = transform(ts, model, covariates)
        row_fit = _sq_rows
        if huber is not None:
            kappa = huber.kappa
            if huber.adaptive:
                kappa = _adaptive_kappa(parity_split(scores.data)[1], huber.kappa)
            row_fit = partial(_huber_rows, kappa=kappa)
        return run_on_scores(scores, kind, m, alpha, cfg, row_fit)

    subs = order_preserving_l_split(ts, L)
    cov_subs = split_like(np.asarray(covariates), L) if covariates is not None else [None] * L
    tables = [
        _run_variant(sub, model, kind, m, alpha, replace(cfg, seed=cfg.seed ^ r),
                     huber=huber, covariates=cov_subs[r])[1]
        for r, sub in enumerate(subs)
    ]
    # clip to keep tan finite at the discrete bootstrap endpoints 0 and 1
    lo = 1.0 / (2.0 * cfg.b_reps)
    clipped = np.clip(np.stack([t.p_hat for t in tables]), lo, 1.0 - lo)
    stat, combined_p = _cauchy(clipped)
    table = PValueTable(
        candidates=tables[0].candidates,
        p_hat=combined_p,
        t_stat=stat,
        criterion=np.mean([t.criterion for t in tables], axis=0),
        segmentations=tables[0].segmentations,
        delta_hat=np.mean([t.delta_hat for t in tables], axis=0),
        n=tables[0].n,
        splits=tuple(tables),
    )
    return confidence_set(table, alpha), table


def h_optics(
    ts: TimeSeries,
    model: ScoreModel,
    kind: DetectorKind,
    m: CandidateSet,
    alpha: float = 0.1,
    cfg: BootstrapConfig | None = None,
    h: HuberConfig | None = None,
    covariates: np.ndarray | None = None,
) -> tuple[ConfidenceSet, PValueTable]:
    """Huber-robust variant: per-point fits use the coordinatewise Huber
    loss of the residuals instead of their squared norm.

    With kappa above every residual magnitude the loss is half the
    squared norm, the factor cancels in studentization, and the result
    matches the plain pipeline exactly.
    """
    return _run_variant(ts, model, kind, m, alpha, cfg or BootstrapConfig(),
                        huber=h or HuberConfig(), covariates=covariates)


def ms_optics(
    ts: TimeSeries,
    model: ScoreModel,
    kind: DetectorKind,
    m: CandidateSet,
    alpha: float = 0.1,
    cfg: BootstrapConfig | None = None,
    L: int = 2,
    covariates: np.ndarray | None = None,
) -> tuple[ConfidenceSet, PValueTable]:
    """Multiple-splitting variant.

    The series is divided into L order-preserving subsamples, the base
    pipeline runs on each with its own parity split (subsample r derives
    its seed as seed XOR r), and the per-candidate p-values are fused by
    equal-weight Cauchy combination before thresholding.  L = 1 is the
    base procedure itself.
    """
    return _run_variant(ts, model, kind, m, alpha, cfg or BootstrapConfig(),
                        L=L, covariates=covariates)


def m_optics(
    ts: TimeSeries,
    model: ScoreModel,
    kind: DetectorKind,
    m_set: CandidateSet,
    alpha: float = 0.1,
    cfg: BootstrapConfig | None = None,
    m_dep: int = 0,
    covariates: np.ndarray | None = None,
) -> tuple[ConfidenceSet, PValueTable]:
    """Variant for m-dependent data: order-preserving (m+1)-way splitting
    with uniform Cauchy combination.  m_dep = 0 reduces to the base
    procedure."""
    if m_dep < 0:
        raise ConfigError(f"m_dep must be >= 0, got {m_dep}")
    return _run_variant(ts, model, kind, m_set, alpha, cfg or BootstrapConfig(),
                        L=m_dep + 1, covariates=covariates)
