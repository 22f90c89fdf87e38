"""Score transformations turning model-specific change problems into mean changes.

Each family maps an observation z to the gradient of a fitting loss at a
fixed reference parameter, so a change in the family's parameter becomes
a change in the mean of the score sequence:

    mean        s = z
    variance    s = log(z^2)            (scalar model)
    regression  s = y * (1, x')'        (response y, covariates x)
    covariance  s = vech(z z')
    network     s = vech(Z)             (Z a symmetric d x d adjacency, one
                                         row-major flattened matrix per row)

vech stacks the lower triangle of a symmetric matrix column by column,
diagonal included; both vech families fill their scores that way, one
column at a time.  Every transform returns a ScoreSeries: a TimeSeries
whose values are all finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, _as_matrix
from .errors import ConfigError, DomainError, ShapeError

MEAN = "mean"
VARIANCE = "variance"
REGRESSION = "regression"
COVARIANCE = "covariance"
NETWORK = "network"

FAMILIES = (MEAN, VARIANCE, REGRESSION, COVARIANCE, NETWORK)


@dataclass(frozen=True)
class ScoreModel:
    """A model family; its scores are gradients at the zero reference parameter."""

    family: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class ScoreSeries(TimeSeries):
    """A series of finite score vectors; all inference runs on these."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("score series contains non-finite values")

    d_p = TimeSeries.d


def _formed_scores(scores: np.ndarray, model: ScoreModel, *inputs: np.ndarray) -> ScoreSeries:
    """Wrap scores formed from ``inputs`` by products; a product that
    overflowed finite inputs is a DomainError."""
    try:
        return ScoreSeries(scores)
    except ValueError:
        if all(np.isfinite(a).all() for a in inputs):
            raise DomainError(f"{model.family} scores overflow float64") from None
        raise


def transform(ts: TimeSeries, model: ScoreModel, covariates: np.ndarray | None = None) -> ScoreSeries:
    """Compute the score sequence for a series under the given model family.

    Parameters
    ----------
    ts : TimeSeries
        Raw observations.  For the regression family these are the
        responses (d must be 1) and ``covariates`` must supply one row
        per observation.  For the network family each observation is a
        flattened symmetric d x d adjacency matrix (length d*d).
    model : ScoreModel
        Selected family.
    covariates : array, optional
        (n, d) design matrix, d >= 1; regression only, the others refuse it.
    """
    if covariates is not None and model.family != REGRESSION:
        raise ShapeError(f"the {model.family} family takes no covariates")
    z = ts.data
    if model.family == MEAN:
        return ScoreSeries(z)

    if model.family == VARIANCE:
        with np.errstate(over="ignore"):
            sq = np.sum(z * z, axis=1)
        if np.any(sq == 0.0):
            raise DomainError("variance scores are undefined at zero observations")
        return _formed_scores(np.log(sq).reshape(-1, 1), model, z)

    if model.family == REGRESSION:
        if ts.d != 1:
            raise ShapeError(f"regression expects scalar responses, got d={ts.d}")
        if covariates is None:
            raise ShapeError("regression requires a covariate matrix")
        x = _as_matrix(covariates)
        if x.shape[1] < 1:
            raise ShapeError("regression requires at least one covariate column, got 0")
        if x.shape[0] != ts.n:
            raise ShapeError(
                f"covariates have {x.shape[0]} rows for {ts.n} observations"
            )
        y = z[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            products = y[:, None] * x
        return _formed_scores(np.column_stack([y, products]), model, z, x)

    # covariance and network rows become vech of a symmetric d x d matrix, one
    # column of its lower triangle at a time straight into the output: no
    # (n, d, d) outer products and no gathered copies of z
    if model.family == COVARIANCE:
        d = ts.d
        if d < 2:
            raise ShapeError(f"covariance scores require d >= 2, got d={d}")

        def column(j, out):
            np.multiply(z[:, j:], z[:, j : j + 1], out=out)
    else:  # network: each row is a flattened symmetric d x d matrix
        d = int(round(np.sqrt(ts.d)))
        if d * d != ts.d or d < 2:
            raise ShapeError(
                f"network observations must be flattened square matrices with side >= 2, "
                f"got row length {ts.d}"
            )
        mats = z.reshape(ts.n, d, d)
        if not np.allclose(mats, np.transpose(mats, (0, 2, 1)), atol=1e-8):
            raise ShapeError("network adjacency matrices must be symmetric")

        def column(j, out):
            out[...] = mats[:, j:, j]
    out = np.empty((ts.n, d * (d + 1) // 2))
    pos = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            column(j, out[:, pos : pos + d - j])
            pos += d - j
    return _formed_scores(out, model, z)
