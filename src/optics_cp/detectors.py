"""Change-position detectors: greedy binary segmentation and exact dynamic programming.

Both detectors minimize within-segment sum of squared deviations (SSE) on
a score sequence and return, for a requested count k, the positions of
the k boundaries.  Binary segmentation splits greedily one boundary at a
time; the segment-neighborhood dynamic program is exact for every k up
to a maximum in a single table pass, which it fills in blocks of end
points with one vectorised step per block and boundary count.  Only the
whole series is split by the maximal count, so its layer is evaluated at
t = n alone, bitwise as the full table would hold it.
``fit_all_candidates`` is the one entry that checks feasibility and builds
segmentations; the single-count fitters return one of its entries.

Ties are broken deterministically toward the smallest boundary position
so repeated runs produce identical segmentations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CandidateSet, Segmentation, data_matrix
from .errors import ConfigError, DomainError, InfeasibleError

BINARY_SEGMENTATION = "bs"
SEGMENT_NEIGHBORHOOD = "sn"

# The segment-neighborhood DP fills its tables in blocks of end points, with
# scratch buffers of about this many bytes each, and at most this many rows.
_SN_BLOCK_BYTES = 1 << 20
_SN_BLOCK_MAX_ROWS = 64


@dataclass(frozen=True)
class DetectorKind:
    """Detector selection plus the minimum admissible segment length."""

    kind: str
    min_seg: int = 5

    def __post_init__(self):
        if self.kind not in (BINARY_SEGMENTATION, SEGMENT_NEIGHBORHOOD):
            raise ConfigError(
                f"unknown detector {self.kind!r}; expected "
                f"{BINARY_SEGMENTATION!r} or {SEGMENT_NEIGHBORHOOD!r}"
            )
        if self.min_seg < 2:
            raise ConfigError(f"min_seg must be >= 2, got {self.min_seg}")


@dataclass(frozen=True)
class CostCache:
    """Prefix sums enabling O(1) segment SSE evaluation.

    cum[t] is the coordinatewise sum of the first t score vectors and
    cum_sq[t] the sum of their squared norms, so the SSE of the block
    (a, b] is cum_sq[b] - cum_sq[a] - ||cum[b] - cum[a]||^2 / (b - a).
    """

    cum: np.ndarray
    cum_sq: np.ndarray
    n: int
    d_p: int

    @classmethod
    def from_scores(cls, scores) -> "CostCache":
        arr = data_matrix(scores)
        n, d_p = arr.shape
        cum = np.zeros((n + 1, d_p))
        cum_sq = np.zeros(n + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(arr, axis=0, out=cum[1:])
            np.cumsum(np.sum(arr * arr, axis=1), out=cum_sq[1:])
            # by Cauchy-Schwarz a segment's ||cum[b] - cum[a]||^2 is at most
            # n * cum_sq[n], so this bounds every square the segment costs form
            bound = n * cum_sq[n]
        if not np.isfinite(bound):
            raise DomainError(
                f"squared scores overflow float64 in the segment costs "
                f"(n={n}, sum of squares {cum_sq[n]:.3g})"
            )
        return cls(cum=cum, cum_sq=cum_sq, n=n, d_p=d_p)


def _costs(cache: CostCache, a, b) -> np.ndarray:
    """SSE of every block (a, b] at once; ``a`` and ``b`` are indices or index
    arrays that broadcast against each other, with a < b throughout."""
    diff = cache.cum[b] - cache.cum[a]
    sq = cache.cum_sq[b] - cache.cum_sq[a]
    return np.maximum(sq - np.sum(diff * diff, axis=-1) / (b - a), 0.0)


def segment_cost(cache: CostCache, a: int, b: int) -> float:
    """SSE of the block (a, b] around its own mean; nonnegative."""
    if not 0 <= a < b <= cache.n:
        raise IndexError(f"invalid block ({a}, {b}] for n={cache.n}")
    return float(_costs(cache, a, b))


def _bs_best_split(cache: CostCache, a: int, b: int, min_seg: int):
    """Best admissible split of (a, b], or None if the block is too short.

    Returns (gain, t) where gain is the SSE reduction; ties go to the
    smallest t.
    """
    if b - a < 2 * min_seg:
        return None
    ts = np.arange(a + min_seg, b - min_seg + 1)
    # the whole block (a, b] less its left parts (a, t] and right parts (t, b]
    gains = _costs(cache, a, b) - _costs(cache, a, ts) - _costs(cache, ts, b)
    i = int(np.argmax(gains))
    return float(gains[i]), int(ts[i])


def _bs_split_path(cache: CostCache, k_max: int, min_seg: int) -> list[int]:
    """Greedy split positions in insertion order, up to k_max of them."""
    candidates = {}
    first = _bs_best_split(cache, 0, cache.n, min_seg)
    if first is not None:
        candidates[(0, cache.n)] = first
    path: list[int] = []
    while len(path) < k_max and candidates:
        # prefer the largest gain, then the smallest split, then the smallest start
        (a, b), (_, t) = min(
            candidates.items(), key=lambda item: (-item[1][0], item[1][1], item[0][0])
        )
        path.append(t)
        del candidates[(a, b)]
        for child in ((a, t), (t, b)):
            best = _bs_best_split(cache, child[0], child[1], min_seg)
            if best is not None:
                candidates[child] = best
    return path


def binary_segmentation(scores, k: int, min_seg: int = 5) -> Segmentation:
    """Greedy recursive segmentation with exactly k boundaries.

    At each step the segment and position with the largest SSE reduction
    are split, subject to ``min_seg``.  The candidate-k entry of
    ``fit_all_candidates``; raises InfeasibleError when k boundaries
    cannot be placed.
    """
    return fit_all_candidates(scores, CandidateSet(k), DetectorKind(BINARY_SEGMENTATION, min_seg))[k]


def _sn_tables(cache: CostCache, k_max: int, min_seg: int):
    """Exact DP tables for 0..k_max boundaries.

    cost[j, t] is the minimal SSE of the first t points split by exactly
    j boundaries; back[j, t] is the smallest last boundary achieving it.
    Every entry is filled; ``fit_all_candidates`` asks for one layer fewer
    than its largest count and evaluates that count at t = n alone.

    End points t run in blocks of rows.  Each block builds its segment
    costs C[t, s] = SSE of (s, t] once, with C = inf where s > t - min_seg,
    and then fills layer j for all of its rows with one addition of
    cost[j - 1] and one row-wise argmin (first index, so ties go to the
    smallest boundary).  Layer j - 1 of a block is complete before
    layer j reads it, because every boundary s lies below t.  The
    scratch buffers are allocated once per call and sized by
    ``_SN_BLOCK_BYTES``; with one score coordinate the squared
    differences go straight into the temporary, so there are three.
    """
    n, d_p = cache.n, cache.d_p
    cost = np.full((k_max + 1, n + 1), np.inf)
    back = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    width = n + 1 - min_seg  # admissible last boundaries s = 0 .. n - min_seg
    if width < 1:
        return cost, back
    b = max(1, min(_SN_BLOCK_MAX_ROWS, _SN_BLOCK_BYTES // (8 * width * max(d_p, 1))))
    diff = np.empty((b, width, d_p)) if d_p > 1 else None
    c = np.empty((b, width))
    tmp = np.empty((b, width))
    w = np.empty(b * width)  # reshaped per use: argmin copies non-contiguous input
    pos = np.arange(n + 1, dtype=np.float64)
    ar = np.arange(b)
    # the last b - 1 columns a block reaches lie past the last admissible
    # boundary of its earlier rows: row r may not use column q of them if q >= r
    mask = np.arange(b - 1)[None, :] >= np.arange(b)[:, None]
    # entries with s >= t divide by a length <= 0 before they are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        for t0 in range(min_seg, n + 1, b):
            t1 = min(t0 + b, n + 1)
            rows, m = t1 - t0, t1 - min_seg  # columns 0 .. m - 1 reach some row
            cv, tv = c[:rows, :m], tmp[:rows, :m]
            # C = max(sq - sum(diff^2) / length, 0) with the operations of a single
            # end point's cost vector, entry for entry, so every entry is bitwise equal;
            # a sum over one coordinate is that coordinate, so d_p = 1 skips it
            if diff is None:
                np.subtract(cache.cum[t0:t1, None, 0], cache.cum[None, :m, 0], out=tv)
                np.multiply(tv, tv, out=tv)
            else:
                dv = diff[:rows, :m]
                np.subtract(cache.cum[t0:t1, None, :], cache.cum[None, :m, :], out=dv)
                np.multiply(dv, dv, out=dv)
                np.sum(dv, axis=2, out=tv)
            np.subtract(cache.cum_sq[t0:t1, None], cache.cum_sq[None, :m], out=cv)
            lengths = w[: rows * m].reshape(rows, m)
            np.subtract(pos[t0:t1, None], pos[None, :m], out=lengths)
            np.divide(tv, lengths, out=tv)
            np.subtract(cv, tv, out=cv)
            np.maximum(cv, 0.0, out=cv)
            np.copyto(cv[:, m - rows + 1 :], np.inf, where=mask[:rows, : rows - 1])
            cost[0, t0:t1] = cv[:, 0]
            for j in range(1, k_max + 1):
                lo = j * min_seg
                r0 = max(0, lo + min_seg - t0)  # first row with t >= (j + 1) min_seg
                if r0 >= rows:
                    break
                win = w[: (rows - r0) * (m - lo)].reshape(rows - r0, m - lo)
                np.add(cv[r0:, lo:], cost[j - 1, lo:m], out=win)
                idx = np.argmin(win, axis=1)
                cost[j, t0 + r0 : t1] = win[ar[: rows - r0], idx]
                back[j, t0 + r0 : t1] = idx + lo
    return cost, back


def _sn_extract(back: np.ndarray, k: int, t: int) -> list[int]:
    """The k boundaries of the best split of the first t points, in order."""
    taus = []
    for j in range(k, 0, -1):
        t = int(back[j, t])
        taus.append(t)
    return taus[::-1]


def segment_neighborhood(scores, k: int, min_seg: int = 5) -> Segmentation:
    """Exact minimum-SSE segmentation with exactly k boundaries.

    Dynamic program over all admissible boundary placements; O(n^2 k)
    time with the prefix-sum cache.  The candidate-k entry of
    ``fit_all_candidates``.
    """
    return fit_all_candidates(scores, CandidateSet(k), DetectorKind(SEGMENT_NEIGHBORHOOD, min_seg))[k]


def fit_all_candidates(scores, m: CandidateSet, kind: DetectorKind) -> dict[int, Segmentation]:
    """One segmentation per candidate count in ``m``.

    The segment-neighborhood table is built once and shared across all
    counts; binary segmentation reuses a single greedy path, taking its
    first k splits for candidate k.
    """
    cache = CostCache.from_scores(scores)
    # the smallest count whose k + 1 segments do not fit; found without
    # walking the counts, so a huge k_max fails at once
    k = max(1, cache.n // kind.min_seg)
    if k <= m.k_max:
        raise InfeasibleError(
            f"candidate K={k} infeasible: cannot place {k} boundaries in n={cache.n} "
            f"with min_seg={kind.min_seg}: need n >= {(k + 1) * kind.min_seg}"
        )

    out: dict[int, Segmentation] = {}
    if kind.kind == SEGMENT_NEIGHBORHOOD:
        n, k_max, min_seg = cache.n, m.k_max, kind.min_seg
        cost, back = _sn_tables(cache, k_max - 1, min_seg)
        # nothing reads layer k_max below t = n: its one window of last boundaries
        s = np.arange(k_max * min_seg, n - min_seg + 1)
        top = _costs(cache, s, n) + cost[k_max - 1, s]
        i = int(np.argmin(top))
        for k in m:
            if k < k_max:
                best, taus = cost[k, n], _sn_extract(back, k, n)
            else:
                last = int(s[i])
                best, taus = top[i], _sn_extract(back, k - 1, last) + [last]
            if not np.isfinite(best):
                raise InfeasibleError(f"candidate K={k} infeasible for n={n}")
            out[k] = Segmentation(taus=tuple(taus), n=n, min_seg=min_seg)
        return out

    path = _bs_split_path(cache, m.k_max, kind.min_seg)
    for k in m:
        if len(path) < k:
            raise InfeasibleError(
                f"candidate K={k} infeasible: greedy recursion produced only "
                f"{len(path)} splits"
            )
        out[k] = Segmentation(taus=tuple(sorted(path[:k])), n=cache.n, min_seg=kind.min_seg)
    return out
