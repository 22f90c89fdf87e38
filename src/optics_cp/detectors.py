"""Change-position detectors: greedy binary segmentation and exact dynamic programming.

Both detectors minimize within-segment sum of squared deviations (SSE) on
a score sequence and return, for a requested count k, the positions of
the k boundaries.  Binary segmentation splits greedily one boundary at a
time; the segment-neighborhood dynamic program is exact for every k up
to a maximum in a single table pass, which it fills in blocks of end
points with one vectorised step per block and boundary count.  On long
series every block first drops the groups of boundaries that a lower
bound proves cannot hold a minimum; the tables stay bit for bit those of
the full pass.  Every block takes its rows from a fixed byte budget over
the columns it keeps.  Only the whole series is split by the maximal
count, so its layer is evaluated at t = n alone, bitwise as the full
table would hold it.  All segment costs sum their squared distances in
one fixed order, coordinate by coordinate.
``fit_all_candidates`` is the one entry: it checks feasibility and builds
one segmentation per candidate count.

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
# From this many points on (below it the test cost more than it saved), every
# block first drops the groups of _SN_GROUP (a power of two) columns that
# provably hold no minimum.
_SN_PRUNE_FROM = 2000
_SN_GROUP = 64


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

    cum[t] is the coordinatewise sum of the first t score vectors less their mean,
    so its rounding does not grow with a shift of the scores, and cum_sq[t] the sum
    of their squared norms, least at t = n for this shift; the SSE of (a, b] is then
    cum_sq[b] - cum_sq[a] - ||cum[b] - cum[a]||^2 / (b - a).  ``cum`` is column-major,
    so ``_sq_dist`` reads contiguous coordinates.
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
            arr = arr - arr.mean(axis=0) if n else arr
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


def _costs(cache: CostCache, a, b, least: float = 0.0) -> np.ndarray:
    """SSE of every block (a, b] at once, or ``least`` where larger; ``a`` and
    ``b`` are indices or index arrays that broadcast, with a < b throughout."""
    shape = np.broadcast(a, b).shape
    sq_dist = _sq_dist(cache.cum, b, a, np.empty(shape), np.empty(shape))
    sq = cache.cum_sq[b] - cache.cum_sq[a]
    return np.maximum(sq - sq_dist / (b - a), least)


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
    smallest boundary).  Layer j - 1 of a block is complete before layer j
    reads it, because every boundary s lies below t.  From
    ``_SN_PRUNE_FROM`` points on, C holds only the columns s that
    ``_sn_live`` cannot rule out; the tables are bit for bit those of the
    full windows.  Every block takes its rows from the byte budget over
    the columns C holds.  Scratch is C and a temporary (squared
    distances, then window) of one ``_SN_BLOCK_BYTES`` each.
    """
    n, g = cache.n, _SN_GROUP
    cost = np.full((k_max + 1, n + 1), np.inf)
    back = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    width = n + 1 - min_seg  # admissible last boundaries s = 0 .. n - min_seg
    if width < 1:
        return cost, back
    most = min(_SN_BLOCK_MAX_ROWS, width)
    size = max(width, min(most * width, _SN_BLOCK_BYTES // 8))
    cbuf, tmp = np.empty(size), np.empty(size)  # flat, so views are contiguous
    # rev[k] = n - k, so the lengths of a block's contiguous columns are a view
    ar, every, rev = np.arange(most), np.arange(n + 1), np.arange(n, -most, -1.0)
    # the last rows - 1 columns a block reaches lie past the last admissible
    # boundary of its earlier rows: row r may not use column q of them if q >= r
    mask = np.arange(most - 1)[None, :] >= ar[:, None]
    reach = None  # per layer j and group: min of cost[j - 1, s] + C(s, u), u its last column
    if n >= _SN_PRUNE_FROM and k_max:
        s = every[: width // g * g]
        with np.errstate(invalid="ignore"):  # unclamped; s = u gives 0 / 0, taken as 0
            raw = np.nan_to_num(_costs(cache, s, s | (g - 1), -np.inf), copy=False).reshape(-1, g)
        groups = cost[:-1, : width // g * g].reshape(k_max, width // g, g)  # a view
        reach = np.full((k_max, width // g), np.inf)
    rows, t0 = most, min_seg
    while t0 <= n:
        rows = min(most, n + 1 - t0, 2 * rows)  # the test's cost grows with its rows
        m, ng = t0 + rows - min_seg, (t0 - min_seg + 1) // g  # ng groups lie below the mask
        cols, starts = every[:m], [j * min_seg for j in range(1, k_max + 1)]
        if reach is not None and ng:
            live = _sn_live(cache, cost, back, every[t0 : t0 + rows], reach[:, :ng])
            keep = np.repeat(live.any(axis=0), g)
            keep[0] = True  # column 0 gives layer 0
            cols = np.concatenate((np.flatnonzero(keep), cols[ng * g :]))
            first = np.where(live.any(axis=1), live.argmax(axis=1), ng) * g
            starts = np.searchsorted(cols, np.maximum(first, starts)).tolist()
        p = len(cols)  # rows from the budget over the columns kept
        cut = rows - min(rows, max(1, _SN_BLOCK_BYTES // (8 * p)))
        rows, t1, p, m = rows - cut, t0 + rows - cut, p - cut, m - cut
        cols = cols[:p]  # the columns past the last row's are all at the end
        cv, tv = (a[: rows * p].reshape(rows, p) for a in (cbuf, tmp))
        a = cols if p < m else np.s_[:m]
        # C = max(sq - sq_dist / length, 0) with the operations of ``_costs``, entry
        # for entry, so bitwise equal; C takes the further squares, and packed, the lengths
        with np.errstate(divide="ignore", invalid="ignore"):  # s >= t, masked below
            _sq_dist(cache.cum, np.s_[t0:t1, None], a, tv, cv)
            if p < m:
                lengths = np.subtract(rev[cols], rev[t0:t1, None], out=cv)
            else:  # a view: lengths t - s = rev[s] - rev[t] run down the diagonals
                lengths = np.lib.stride_tricks.as_strided(rev[n - t0 :], (rows, m), (-8, 8))
            np.divide(tv, lengths, out=tv)
            np.subtract(cache.cum_sq[t0:t1, None], cache.cum_sq[a], out=cv)
            np.subtract(cv, tv, out=cv)
        np.maximum(cv, 0.0, out=cv)
        np.copyto(cv[:, p - rows + 1 :], np.inf, where=mask[:rows, : rows - 1])
        cost[0, t0:t1] = cv[:, 0]
        for j, q in enumerate(starts, 1):
            r0 = max(0, (j + 1) * min_seg - t0)  # first row with t >= (j + 1) min_seg
            if r0 >= rows:
                break
            win = tmp[: (rows - r0) * (p - q)].reshape(rows - r0, p - q)
            np.add(cv[r0:, q:], cost[j - 1, a][q:], out=win)
            idx = np.argmin(win, axis=1)
            cost[j, t0 + r0 : t1] = win[ar[: rows - r0], idx]
            back[j, t0 + r0 : t1] = cols[q + idx] if p < m else idx + q
        if reach is not None:  # the groups this block completes, cost[j - 1] final on them
            done = np.s_[t0 // g : t1 // g]
            reach[:, done] = np.add(groups[:, done], raw[done]).min(axis=2)
        t0 = t1
    return cost, back


def _sn_live(cache: CostCache, cost: np.ndarray, back: np.ndarray, ts: np.ndarray,
             reach: np.ndarray) -> np.ndarray:
    """live[j - 1, i]: whether group i of ``_SN_GROUP`` columns may hold the
    first minimum of layer j's window at some end point of ``ts``.

    The groups lie below ts[0] - min_seg + 1, so cost[j - 1] is final on
    them.  A group is dead when a lower bound LB on its window entries
    exceeds, strictly and in every row, UB: the entry the window holds at
    s* = back[j, ts[0] - 1], computed as the window computes it (``_costs``
    equals C bitwise).  So no dead entry is a minimum, and the argmin over
    the other columns is the same, bit for bit.

    The bound.  Let C~(s, t) = Q[t] - Q[s] - ||S[t] - S[s]||^2 / (t - s),
    exact on the stored prefix sums S = cum and Q = cum_sq, and C~(u, u) = 0.
    For s < u < t, a = u - s, b = t - u, x = S[u] - S[s] and y = S[t] - S[u], the
    Q terms cancel: C~(s, t) - C~(s, u) - C~(u, t) = ab / (a + b) ||x/a - y/b||^2.
    A computed cost C is within e Q[t] of C~, e = (d_p + 5) eps: one rounding each of
    Q[t] - Q[s] and of the difference, d_p + 3 of the squared distance over the length,
    at most about Q[t] (Cauchy-Schwarz, while n eps << 1).  Rounded sums can make C
    negative, so it is not clamped here.  With Q, of the last row, bounding all values,
    each s of a group ending at u has C(s, t) >= C(s, u) + C(u, t) - 3 e Q.  ``reach``
    rounds cost[j - 1, s] + C(s, u), the window cost[j - 1, s] + max(C(s, t), 0), and
    LB = reach + (C(u, t) - slack) twice, each by eps Q at most.  So entries are at least
    LB if slack >= (3 e + 4 eps) Q = (3 d_p + 19) eps Q; 6 (d_p + 7) eps Q is over twice.
    """
    k_max, g, ng = len(cost) - 1, _SN_GROUP, reach.shape[1]
    s = back[1:, ts[0] - 1]  # 0 where layer j has no entry yet: then UB is inf
    ub = _costs(cache, s[:, None], ts) + cost[np.arange(k_max), s][:, None]
    slack = 6 * (cache.d_p + 7) * np.finfo(float).eps * cache.cum_sq[ts[-1]]
    lb = _costs(cache, np.arange(g - 1, ng * g, g), ts[:, None], -np.inf) - slack
    return ~(reach[:, None, :] + lb > ub[:, :, None]).all(axis=1)


def _sn_extract(back: np.ndarray, k: int, t: int) -> list[int]:
    """The k boundaries of the best split of the first t points, in order."""
    taus = []
    for j in range(k, 0, -1):
        t = int(back[j, t])
        taus.append(t)
    return taus[::-1]


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
