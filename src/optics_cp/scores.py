"""Score transformations turning model-specific change problems into mean changes.

Each family maps an observation z to the gradient of a fitting loss at a
fixed reference parameter, so a change in the family's parameter becomes
a change in the mean of the score sequence:

    mean        s = z
    variance    s = log(z^2)            (scalar model)
    regression  s = y * (1, x')'        (response y, covariates x)
    covariance  s = vech(z z')
    network     s = vech(Z)             (Z a symmetric d x d adjacency)

vech stacks the lower triangle of a symmetric matrix column by column,
diagonal included.
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

    def score_dim(self, d: int) -> int:
        """Score dimension produced from d-dimensional input."""
        if self.family == MEAN:
            return d
        if self.family == VARIANCE:
            return 1
        if self.family == REGRESSION:
            return d + 1
        # covariance and network both emit vech of a symmetric d x d matrix
        return d * (d + 1) // 2


@dataclass(frozen=True)
class ScoreSeries:
    """A sequence of score vectors; all inference runs on these."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.data)
        if not np.all(np.isfinite(arr)):
            raise ConfigError("score series contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d_p(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.n


def vech(mat: np.ndarray) -> np.ndarray:
    """Column-stacked lower triangle of a square matrix, diagonal included."""
    mat = np.asarray(mat, dtype=np.float64)
    d = mat.shape[0]
    if mat.shape != (d, d):
        raise ShapeError(f"vech expects a square matrix, got shape {mat.shape}")
    return np.concatenate([mat[j:, j] for j in range(d)])


def _vech_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.concatenate([np.arange(j, d) for j in range(d)])
    cols = np.concatenate([np.full(d - j, j) for j in range(d)])
    return rows, cols


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
        (n, d) design matrix, regression family only.
    """
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
        if x.shape[0] != ts.n:
            raise ShapeError(
                f"covariates have {x.shape[0]} rows for {ts.n} observations"
            )
        y = z[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            products = y[:, None] * x
        return _formed_scores(np.column_stack([y, products]), model, z, x)

    if model.family == COVARIANCE:
        if ts.d < 2:
            raise ShapeError(f"covariance scores require d >= 2, got d={ts.d}")
        # vech(z z') one column of the lower triangle at a time, straight into
        # the output: no (n, d, d) outer products and no gathered copies of z
        out = np.empty((ts.n, model.score_dim(ts.d)))
        pos = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(ts.d):
                np.multiply(z[:, j:], z[:, j : j + 1], out=out[:, pos : pos + ts.d - j])
                pos += ts.d - j
        return _formed_scores(out, model, z)

    # network: each row is a flattened symmetric d x d matrix
    side = int(round(np.sqrt(ts.d)))
    if side * side != ts.d or side < 2:
        raise ShapeError(
            f"network observations must be flattened square matrices with side >= 2, "
            f"got row length {ts.d}"
        )
    mats = z.reshape(ts.n, side, side)
    if not np.allclose(mats, np.transpose(mats, (0, 2, 1)), atol=1e-8):
        raise ShapeError("network adjacency matrices must be symmetric")
    rows, cols = _vech_indices(side)
    return ScoreSeries(mats[:, rows, cols])
