"""Change-position detectors: greedy binary segmentation and exact dynamic programming.

Both detectors minimize within-segment sum of squared deviations (SSE) on
a score sequence and return, for a requested count k, the positions of
the k boundaries.  Binary segmentation splits greedily one boundary at a
time; the segment-neighborhood dynamic program is exact for every k up
to a maximum in a single table pass, which it fills in blocks of end
points with one vectorised step per block and boundary count, on two
threads where numpy's BLAS had two or more.  Only the whole series is
split by the maximal count, so its layer is evaluated at t = n alone,
bitwise as the full table would hold it.  All segment costs sum their
squared distances in one fixed order, coordinate by coordinate.
``fit_all_candidates`` is the one entry that checks feasibility and builds
segmentations; the single-count fitters return one of its entries.

Ties are broken deterministically toward the smallest boundary position
so repeated runs produce identical segmentations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import blas
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
    ``cum`` is column-major, so ``_sq_dist`` reads contiguous coordinates.
    """

    cum: np.ndarray
    cum_sq: np.ndarray
    n: int
    d_p: int

    @classmethod
    def from_scores(cls, scores) -> "CostCache":
        arr = data_matrix(scores)
        n, d_p = arr.shape
        cum = np.zeros((n + 1, d_p), order="F")
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


def _sq_dist(cum: np.ndarray, b, a, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """||cum[b] - cum[a]||^2 into ``out`` in the one fixed order: coordinate 0
    squared into ``out``, then each further one squared into ``scratch`` and
    added, left to right.  ``b`` and ``a`` index a column of ``cum``."""
    for k in range(cum.shape[1]):
        col, d = cum[:, k], scratch if k else out
        np.subtract(col[b], col[a], out=d)
        np.multiply(d, d, out=d)
        if k:
            np.add(out, d, out=out)
    return out


def _costs(cache: CostCache, a, b) -> np.ndarray:
    """SSE of every block (a, b] at once; ``a`` and ``b`` are indices or index
    arrays that broadcast against each other, with a < b throughout."""
    shape = np.broadcast(a, b).shape
    sq_dist = _sq_dist(cache.cum, b, a, np.empty(shape), np.empty(shape))
    sq = cache.cum_sq[b] - cache.cum_sq[a]
    return np.maximum(sq - sq_dist / (b - a), 0.0)


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
    layer j reads it, because every boundary s lies below t.

    With T >= 2 threads (``blas.single_thread``) and two blocks or more, a
    helper builds block i + 1 into a second C, and its first layers, while
    the caller fills block i; every entry takes the same operations, so the
    tables do not depend on T.  Scratch is C and a temporary (squared
    distances, then window) of one ``_SN_BLOCK_BYTES`` each or, pipelined,
    two C, the helper's temporary and the caller's window of 2/3 the rows.
    """
    n = cache.n
    cost = np.full((k_max + 1, n + 1), np.inf)
    back = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    width = n + 1 - min_seg  # admissible last boundaries s = 0 .. n - min_seg
    if width < 1:
        return cost, back
    b = max(1, min(_SN_BLOCK_MAX_ROWS, _SN_BLOCK_BYTES // (8 * width)))
    with blas.single_thread() as threads:
        pipelined = threads > 1 and width > b
        b = max(1, 2 * b // 3) if pipelined else b
        blocks = [(t0, min(t0 + b, n + 1)) for t0 in range(min_seg, n + 1, b)]
        slots = [np.empty(b * width) for _ in range(1 + pipelined)]  # flat, so views are contiguous
        tmp, w = np.empty(b * width), (np.empty(b * width) if pipelined else None)
        rev = np.arange(n, -b, -1.0)  # rev[k] = n - k, so a block's lengths t - s are a view
        ar = np.arange(b)
        # the last b - 1 columns a block reaches lie past the last admissible
        # boundary of its earlier rows: row r may not use column q of them if q >= r
        mask = np.arange(b - 1)[None, :] >= np.arange(b)[:, None]
        # a build costs about 3 + d_p layers: the helper fills the first few too
        early = max(0, k_max - 3 - cache.d_p) // 2 if pipelined else k_max

        # entries with s >= t divide by a length <= 0 before they are masked
        @np.errstate(divide="ignore", invalid="ignore")
        def build(i):
            t0, t1 = blocks[i]
            rows, m = t1 - t0, t1 - min_seg  # columns 0 .. m - 1 reach some row
            cv, tv = (a[: rows * m].reshape(rows, m) for a in (slots[i % len(slots)], tmp))
            lengths = np.lib.stride_tricks.as_strided(rev[n - t0 :], (rows, m), (-8, 8))
            # C = max(sq - sq_dist / length, 0) with the operations of ``_costs``, entry
            # for entry, so bitwise equal; C takes the further squares before sq
            _sq_dist(cache.cum, np.s_[t0:t1, None], np.s_[None, :m], tv, cv)
            np.subtract(cache.cum_sq[t0:t1, None], cache.cum_sq[None, :m], out=cv)
            np.divide(tv, lengths, out=tv)
            np.subtract(cv, tv, out=cv)
            np.maximum(cv, 0.0, out=cv)
            np.copyto(cv[:, m - rows + 1 :], np.inf, where=mask[:rows, : rows - 1])
            cost[0, t0:t1] = cv[:, 0]
            fill(i, range(1, early + 1), tmp)

        def fill(i, layers, window):
            t0, t1 = blocks[i]
            rows, m = t1 - t0, t1 - min_seg
            cv = slots[i % len(slots)][: rows * m].reshape(rows, m)
            for j in layers:
                lo = j * min_seg
                r0 = max(0, lo + min_seg - t0)  # first row with t >= (j + 1) min_seg
                if r0 >= rows:
                    break
                win = window[: (rows - r0) * (m - lo)].reshape(rows - r0, m - lo)
                np.add(cv[r0:, lo:], cost[j - 1, lo:m], out=win)
                idx = np.argmin(win, axis=1)
                cost[j, t0 + r0 : t1] = win[ar[: rows - r0], idx]
                back[j, t0 + r0 : t1] = idx + lo

        if pipelined:
            _pipeline(len(blocks), build, lambda i: fill(i, range(early + 1, k_max + 1), w))
        else:
            for i in range(len(blocks)):
                build(i)
    return cost, back


def _pipeline(count: int, build, fill) -> None:
    """A helper runs build(i + 1) while the caller runs fill(i), for each i < count."""
    go, ready, halted = threading.Semaphore(), threading.Semaphore(0), threading.Event()

    def builder():
        for i in range(count):
            go.acquire()
            if halted.is_set():
                return
            build(i)
            ready.release()

    def filler():
        for i in range(count):
            ready.acquire()
            if halted.is_set():
                return
            go.release()  # block i + 1 goes to the buffer that block i - 1 has left
            fill(i)

    blas.run([filler, builder], lambda: (halted.set(), go.release(), ready.release()))


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
