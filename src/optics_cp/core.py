"""Domain types and order-preserving splitting primitives.

Everything downstream works in "subsample index space": after a parity
split of a length-2n series, both halves share indices 1..n, and a
segmentation fitted on one half can be applied verbatim to the other.
Change positions are stored as the last index of each left segment, so a
boundary ``t`` means the left block is the first ``t`` points.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthError, ShapeError

logger = logging.getLogger(__name__)


def _as_matrix(data) -> np.ndarray:
    """Coerce input to a float64 (n, d) matrix; 1-D input becomes (n, 1)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeError(f"expected 1-D or 2-D data, got ndim={arr.ndim}")
    return arr


def data_matrix(obj) -> np.ndarray:
    """The (n, d) float64 array behind a series wrapper or a raw array."""
    if isinstance(obj, np.ndarray):
        return _as_matrix(obj)
    inner = getattr(obj, "data", None)
    if isinstance(inner, np.ndarray):
        return inner
    return _as_matrix(obj)


@dataclass(frozen=True)
class TimeSeries:
    """An ordered sequence of d-dimensional observations.

    The backing array is (n_obs, d) float64 and is frozen after
    construction so instances can be shared across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.data)
        if arr.shape[0] < 2:
            raise LengthError(f"need at least 2 observations, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ShapeError("observations need at least one column, got d=0")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class SplitPair:
    """Parity halves of a series: odd holds positions 1,3,5,... and even 2,4,6,..."""

    odd: TimeSeries
    even: TimeSeries
    n: int


@dataclass(frozen=True)
class Segmentation:
    """Sorted change positions for one candidate count, in subsample index space.

    Each position is the last index of its left segment, so position t
    splits 1..n into 1..t and t+1..n.  Every segment, including the
    outer ones against the virtual boundaries 0 and n, must span at
    least ``min_seg`` points.
    """

    taus: tuple[int, ...]
    n: int
    min_seg: int

    def __post_init__(self):
        taus = tuple(int(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if self.min_seg < 1:
            raise ValueError(f"min_seg must be >= 1, got {self.min_seg}")
        bounds = (0,) + taus + (self.n,)
        for left, right in zip(bounds, bounds[1:]):
            if right - left < self.min_seg:
                raise ValueError(
                    f"segment ({left}, {right}] shorter than min_seg={self.min_seg}"
                )

    @property
    def k(self) -> int:
        return len(self.taus)

    def boundaries(self) -> tuple[int, ...]:
        """Positions including the virtual endpoints 0 and n."""
        return (0,) + self.taus + (self.n,)


@dataclass(frozen=True)
class CandidateSet:
    """Contiguous candidate counts 1..k_max."""

    k_max: int

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(range(1, self.k_max + 1))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return self.k_max


def split_like(arr: np.ndarray, L: int) -> list[np.ndarray]:
    """Partition an array's rows by index residue mod L: part r (0-based)
    keeps rows r, r+L, r+2L, ..., truncated to the common length floor(n/L)."""
    m = arr.shape[0] // L
    return [arr[r::L][:m] for r in range(L)]


def parity_split(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd- and even-position halves (1-based) of an array's rows; an odd
    final row is dropped."""
    odd, even = split_like(arr, 2)
    return odd, even


def odd_even_split(ts: TimeSeries) -> SplitPair:
    """Split a series into its odd- and even-position halves.

    Positions are 1-based, so the odd half starts at the first
    observation.  An odd-length series drops its final observation.
    """
    if ts.n < 4:
        raise LengthError(f"need at least 4 observations to split, got {ts.n}")
    if ts.n % 2 == 1:
        logger.warning("odd-length input: dropping final observation %d", ts.n)
    odd, even = parity_split(ts.data)
    return SplitPair(odd=TimeSeries(odd), even=TimeSeries(even), n=odd.shape[0])


def order_preserving_l_split(ts: TimeSeries, L: int) -> list[TimeSeries]:
    """Partition a series into L subsamples by index residue mod L.

    Subsample r (r = 1..L) keeps positions r, r+L, r+2L, ...; all
    subsamples are truncated to the common length floor(n/L) so the tail
    remainder is dropped.  Order within each subsample is preserved.
    """
    if L < 1:
        raise ConfigError(f"L must be >= 1, got {L}")
    m = ts.n // L
    if m < 2:
        raise LengthError(
            f"subsample length {m} < 2 (n={ts.n}, L={L}); reduce L or supply more data"
        )
    if ts.n % L != 0:
        logger.debug("dropping %d tail observations in %d-way split", ts.n % L, L)
    return [TimeSeries(sub) for sub in split_like(ts.data, L)]


def segment_mean_map(arr: np.ndarray, boundaries) -> np.ndarray:
    """Per-index segment means: output[i] is the mean of arr over i's segment."""
    out = np.empty_like(arr)
    for left, right in zip(boundaries, boundaries[1:]):
        out[left:right] = arr[left:right].mean(axis=0)
    return out


def segment_means(scores, seg: Segmentation) -> np.ndarray:
    """Map each index to the mean of its segment under ``seg``.

    ``scores`` may be a ScoreSeries or a raw (n, d) array.  The result
    has the same shape as the input data.
    """
    arr = data_matrix(scores)
    if arr.shape[0] != seg.n:
        raise ShapeError(f"segmentation is for n={seg.n}, scores have n={arr.shape[0]}")
    return segment_mean_map(arr, seg.boundaries())
