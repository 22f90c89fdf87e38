"""Confidence sets for the number of change-points, from a score sequence.

``run_on_scores`` runs the procedure on scores already transformed;
``ext.optics``, the entry point, transforms a series and calls it once
per split.  The procedure: split the score sequence by index parity,
fit one segmentation per candidate count on the odd half, and judge
each candidate K by the out-of-sample criterion

    C(K) = mean_i || s_i_even - sbar_K,i_odd ||^2,

the mean squared distance of even-half scores from the odd-half segment
means.  For each rival J the per-point criterion differences

    xi_KJ_i = || s_i - sbar_K,i ||^2 - || s_i - sbar_J,i ||^2

are independent given the odd half; K is rejected when the studentized
max statistic T_K = max_J sqrt(n) * mean(xi) / rms(xi) is large relative
to its Gaussian multiplier bootstrap distribution.  The confidence set
collects every candidate whose bootstrap p-value exceeds alpha.

The studentized rows xi_KJ / rms(xi_KJ) are built once per unordered pair
of candidates, since the row of (J, K) is that of (K, J) reversed; each
candidate gathers its rival rows with a sign, a reversed value written
0.0 - x so that a zero stays +0.0, as the per-candidate chain gives it.
They are never held whole: the bootstrap builds them from the K fit rows
one column slice at a time, so memory is O(K n), not O(K^2 n).

Numerical determinism: the studentized ratios are snapped to a fixed
2^-13 grid, which makes T_K and the bootstrap p-values exactly invariant
when all scores are rescaled by a positive constant.  Multipliers for
replicate b come from a Philox counter stream keyed by (seed, b).  The
bootstrap pins numpy's OpenBLAS to one thread and shares chunks of
replicates out over the T threads it had, the caller and T - 1 helpers;
every chunk has one shape at any T, so the p-values depend neither on T
nor on ``OPENBLAS_NUM_THREADS``.  The chunks run one column slice at a time,
and a chunk adds its products in slice order.  The p-values can still
depend on the BLAS build and on the chunk and slice shape, through the
last bits of the products.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import blas
from .core import CandidateSet, Segmentation, data_matrix, segment_mean_map, split_like
from .detectors import DetectorKind, fit_all_candidates
from .errors import ConfigError, DomainError, LengthError, ShapeError
from .scores import ScoreSeries

# Resolution of the studentized ratios; 2^-13 keeps the statistic within
# ~1e-4 of its unsnapped value while making it exactly scale-invariant.
_STUDENT_GRID = 8192.0

_SEED_MASK = (1 << 64) - 1

# Replicates are drawn and multiplied in tiles: the n columns are split evenly
# into ceil(n / _SLICE) slices, and a chunk of min(B, 128, 1 MiB / 8S)
# replicates, S the widest slice, runs one slice after another through one
# tile buffer per thread.  So a thread holds at most 1 MiB of multipliers at
# any n, and at n <= 1,024 a chunk is min(B, 128) whole rows.
_TILE_BYTES = 1 << 20
_CHUNK_REPS = 128
_SLICE = 4096

# The threads' tiles and slice rows together stay within this many bytes, which
# caps the thread count, so bootstrap memory does not grow with the machine's cores.
_BUFFERS_BYTES = 16 << 20


@dataclass(frozen=True)
class BootstrapConfig:
    """Multiplier bootstrap settings.

    ``injected`` replaces the seeded Gaussian multipliers with an
    explicit (b_reps, n) matrix, mainly for tests.
    """

    b_reps: int = 500
    seed: int = 0
    injected: np.ndarray | None = None

    def __post_init__(self):
        if self.b_reps < 1:
            raise ConfigError(f"b_reps must be >= 1, got {self.b_reps}")
        if self.injected is not None:
            inj = np.asarray(self.injected, dtype=np.float64)
            if inj.ndim != 2 or inj.shape[0] != self.b_reps:
                raise ConfigError(
                    f"injected multipliers must be ({self.b_reps}, n), got {inj.shape}"
                )
            object.__setattr__(self, "injected", inj)


@dataclass(frozen=True)
class XiMatrix:
    """Per-point criterion differences of one candidate against all rivals.

    Row r corresponds to rival rivals[r]: xi[r, i] is the difference of
    squared residuals at even index i, delta_hat[r] its mean, and
    sigma_hat[r] the root mean square.  ``studentized`` holds the
    grid-snapped rows xi / sigma_hat used by the test statistic; rows
    with sigma_hat == 0 are identically zero by convention.
    """

    k: int
    rivals: tuple[int, ...]
    xi: np.ndarray
    delta_hat: np.ndarray
    sigma_hat: np.ndarray
    studentized: np.ndarray
    n: int


@dataclass(frozen=True)
class PValueTable:
    """Bootstrap p-values, statistics and fit summaries for every candidate."""

    candidates: tuple[int, ...]
    p_hat: np.ndarray
    t_stat: np.ndarray
    criterion: np.ndarray
    segmentations: tuple[Segmentation, ...]
    delta_hat: np.ndarray  # [i, j] = mean criterion gap of candidate i over j
    n: int
    splits: tuple["PValueTable", ...] = ()


@dataclass(frozen=True)
class ConfidenceSet:
    """Candidates not rejected at level alpha; never empty.

    When every candidate is rejected the one with the largest p-value is
    retained (smallest count on ties) and ``fallback_used`` is set.
    """

    alpha: float
    members: tuple[int, ...]
    fallback_used: bool = False

    @property
    def rightmost(self) -> int:
        return max(self.members)

    @property
    def leftmost(self) -> int:
        return min(self.members)

    def __contains__(self, k) -> bool:
        return k in self.members

    def __len__(self) -> int:
        return len(self.members)


def criterion(seg: Segmentation, odd_scores: ScoreSeries, even_scores: ScoreSeries) -> float:
    """Out-of-sample fit of one segmentation: mean squared distance of the
    even half from the odd-half segment means."""
    odd = data_matrix(odd_scores)
    even = data_matrix(even_scores)
    if odd.shape != even.shape:
        raise ShapeError(f"odd/even shapes differ: {odd.shape} vs {even.shape}")
    return float(_fit_rows(odd, even, seg, _sq_rows).mean())


def _sq_rows(resid: np.ndarray) -> np.ndarray:
    """Row-wise squared norms; the plain per-point fit measure."""
    return (resid * resid).sum(axis=1)


def _fit_rows(odd: np.ndarray, even: np.ndarray, seg: Segmentation,
              row_fit: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per-point out-of-sample fit: ``row_fit`` of the even half's residuals
    from the odd-half segment means of ``seg``.

    Raises DomainError when a fit overflows or is too large for the
    bootstrap to square the difference of two fits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fit = row_fit(even - segment_mean_map(odd, seg.boundaries()))
    # fits are nonnegative, so a difference of two is at most the larger; the
    # studentization sums n squared differences, which stays finite below this
    limit = math.sqrt(sys.float_info.max / (2 * max(len(fit), 1)))
    top = fit.max(initial=0.0)
    if not top <= limit:
        raise DomainError(
            f"squared scores overflow float64: a per-point fit of {top:.3g} "
            f"exceeds {limit:.3g}, the largest the bootstrap can square and sum"
        )
    return fit


def _studentized(rows: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Divide rows in place by their root mean squares and round them to the
    2^-13 grid; rows whose root mean square is 0 become zero.  Every step is
    elementwise, so a column slice of the rows comes out bit for bit."""
    nz = sigma > 0
    np.divide(rows, np.where(nz, sigma, 1.0)[:, None], out=rows)
    rows *= _STUDENT_GRID
    np.divide(np.round(rows, out=rows), _STUDENT_GRID, out=rows)
    rows[~nz] = 0.0
    return rows


def _studentize(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Studentize criterion-difference rows in place, snapped to the grid,
    and return their means and root mean squares.  The squares are formed one
    row at a time, so no temporary of the rows' size is made."""
    delta = rows.mean(axis=1)
    sq = np.empty(rows.shape[1])
    sigma = np.sqrt(np.array([np.multiply(row, row, out=sq).mean() for row in rows]))
    _studentized(rows, sigma)
    return delta, sigma


def _xi_from_fits(k: int, rivals: tuple[int, ...], fit_k: np.ndarray,
                  fit_rivals: np.ndarray) -> XiMatrix:
    xi = fit_k[None, :] - fit_rivals
    stud = xi.copy()
    delta, sigma = _studentize(stud)
    return XiMatrix(
        k=k,
        rivals=rivals,
        xi=xi,
        delta_hat=delta,
        sigma_hat=sigma,
        studentized=stud,
        n=xi.shape[1],
    )


def xi_matrix(
    k: int,
    segs: Mapping[int, Segmentation],
    odd: ScoreSeries,
    even: ScoreSeries,
) -> XiMatrix:
    """Criterion-difference rows for candidate k against every other entry of ``segs``."""
    if odd.n != even.n or odd.d_p != even.d_p:
        raise ShapeError("odd and even score series must have identical shape")
    rivals = tuple(j for j in sorted(segs) if j != k)
    fits = {j: _fit_rows(odd.data, even.data, segs[j], _sq_rows) for j in sorted(segs)}
    fit_rivals = np.array([fits[j] for j in rivals]).reshape(len(rivals), odd.n)
    return _xi_from_fits(k, rivals, fits[k], fit_rivals)


def test_statistic(xm: XiMatrix) -> float:
    """Studentized max statistic: largest sqrt(n)-scaled mean of the
    studentized rows.  Zero-variance rows contribute 0; with no rivals
    the statistic is 0 by convention."""
    if len(xm.rivals) == 0:
        return 0.0
    rows = xm.studentized.sum(axis=1) / math.sqrt(xm.n)
    return float(rows.max())


def _signed(rows: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """The rows at ``gather``; index p + len(rows) takes row p reversed."""
    return np.concatenate((rows, np.subtract(0.0, rows)))[gather]


class _PhiloxKey:
    """A seed sequence that hands a Philox its two key words as they are:
    ``Philox(_PhiloxKey(w))`` gives the stream of ``Philox(key=w)`` in about a
    third of the time, without the OS entropy that the latter draws for a seed
    sequence it never uses.  It is registered as numpy's ``ISeedSequence`` when
    first used, so that importing this module does not import ``numpy.random``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _tile(n: int, b_reps: int) -> tuple[int, list[tuple[int, int]]]:
    """Replicates per chunk, and the (lo, hi) column slices a chunk runs through."""
    parts = -(-n // _SLICE)
    edges = [i * n // parts for i in range(parts + 1)]
    reps = max(1, min(b_reps, _CHUNK_REPS, _TILE_BYTES // (8 * -(-n // parts))))
    return reps, list(zip(edges, edges[1:]))


def _bootstrap(rows: Callable[[int, int, np.ndarray], np.ndarray], pairs: int,
               gather: np.ndarray, t_obs: np.ndarray, cfg: BootstrapConfig, n: int) -> np.ndarray:
    """Bootstrap p-values of len(t_obs) candidates at once.

    ``rows(a, b, buf)`` gives the ``pairs`` studentized rows of columns a:b,
    built in the flat ``buf`` or held elsewhere; row g of ``gather`` indexes
    candidate g's rival rows among them, signed as in ``_signed``.  Replicates
    run in chunks (``_tile``), all chunks one column slice at a time: each
    thread builds the slice's rows and multiplies the tiles of the chunks it
    takes, and all finish a slice before any starts the next.  An error in
    any thread stops the others after their current chunk and is raised here.
    """
    if cfg.injected is not None and cfg.injected.shape[1] != n:
        raise ConfigError(f"injected multipliers have length {cfg.injected.shape[1]}, expected {n}")
    if pairs == 0:
        # nothing to compare against: no candidate can be rejected
        return np.ones(len(t_obs))
    b_reps, seed = cfg.b_reps, cfg.seed & _SEED_MASK
    reps, slices = _tile(n, b_reps)
    widths = {hi - lo for lo, hi in slices}
    starts = range(0, b_reps, reps)
    tickets = [itertools.count() for _ in slices]  # a slice's next chunk; next() is atomic
    sums = [None] * len(starts)  # each chunk's (pairs x R) sums over the slices so far
    gens = [None] * b_reps if len(slices) > 1 else None  # one per replicate, made at slice 0
    if gens is not None:
        np.random.bit_generator.ISeedSequence.register(_PhiloxKey)
    stop = threading.Event()
    results, errors = [], []

    def count_chunks():
        try:
            # this thread's slice rows, tile buffer with its rows built once, generator, counts
            counts = np.zeros(len(t_obs), dtype=np.int64)
            slab = np.empty(pairs * max(widths))
            if cfg.injected is None:
                buf = np.empty(reps * max(widths))
                views = {w: list(buf[: reps * w].reshape(reps, w)) for w in widths}
                # re-keyed to (seed, b) with a zero counter and an empty buffer, the
                # generator gives the stream of a fresh Philox(key=(seed, b))
                gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))
                state = gen.bit_generator.state
                # Python ints, which the state setter reads faster than arrays
                state["state"] = {k: v.tolist() for k, v in state["state"].items()}
                state["buffer"] = state["buffer"].tolist()
                key = state["state"]["key"]
            for s, (a, b) in enumerate(slices):
                if s:
                    barrier.wait()
                part_rows = rows(a, b, slab)
                while not stop.is_set() and (i := next(tickets[s])) < len(starts):
                    lo = starts[i]
                    c = min(reps, b_reps - lo)
                    if cfg.injected is not None:
                        tile = cfg.injected[lo : lo + c, a:b]
                    else:
                        tile = buf[: c * (b - a)].reshape(c, b - a)
                        for j, row in zip(range(lo, lo + c), views[b - a]):
                            if gens is None:
                                key[1] = j
                                gen.bit_generator.state = state
                            elif a == 0:  # replicate j's own, carried on to its later slices
                                key_j = _PhiloxKey(np.array([seed, j], np.uint64))
                                gens[j] = np.random.Generator(np.random.Philox(key_j))
                            (gen if gens is None else gens[j]).standard_normal(out=row)
                    part = part_rows @ tile.T
                    acc = part if a == 0 else np.add(sums[i], part, out=sums[i])
                    if b < n:  # carried on to the chunk's next slice
                        sums[i] = acc
                    else:
                        t_sharp = _signed(acc / math.sqrt(n), gather).max(axis=1)
                        counts += np.count_nonzero(t_sharp > t_obs[:, None], axis=1)
            results.append(counts)
        except BaseException as exc:  # re-raised by the caller once no thread runs
            errors.append(exc)
            stop.set()
            barrier.abort()  # the threads it lets go add their BrokenBarrierError after exc

    # the caller and up to T - 1 helpers, T being numpy's BLAS thread count
    budget = _BUFFERS_BYTES // (8 * (reps + pairs) * max(widths))
    with blas.single_thread() as threads:
        helpers = [threading.Thread(target=count_chunks, daemon=True)
                   for _ in range(min(threads, len(starts), budget) - 1)]
        barrier = threading.Barrier(len(helpers) + 1)
        try:
            for t in helpers:
                t.start()
            count_chunks()
        except BaseException:
            barrier.abort()  # no helper may wait for a caller that left
            raise
        finally:
            stop.set()
            for t in helpers:  # a second Ctrl-C must not leave a helper inside numpy
                while t.is_alive():
                    try:
                        t.join()
                    except KeyboardInterrupt as exc:
                        errors.insert(0, exc)  # raised before any error of a thread
    if errors:
        raise errors[0]
    return sum(results) / b_reps


def bootstrap_pvalue(xm: XiMatrix, cfg: BootstrapConfig) -> float:
    """Share of multiplier replicates whose statistic strictly exceeds the
    observed one.  Deterministic given the seed."""
    gather = np.arange(len(xm.rivals))[None, :]
    return float(_bootstrap(lambda a, b, buf: xm.studentized[:, a:b], len(xm.rivals), gather,
                            np.array([test_statistic(xm)]), cfg, xm.n)[0])


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def confidence_set(table: PValueTable, alpha: float) -> ConfidenceSet:
    """Threshold the table at alpha, retaining the best candidate if all fail."""
    _check_alpha(alpha)
    members = tuple(k for k, p in zip(table.candidates, table.p_hat) if p > alpha)
    if members:
        return ConfidenceSet(alpha=alpha, members=members)
    best = table.candidates[int(np.argmax(table.p_hat))]
    return ConfidenceSet(alpha=alpha, members=(best,), fallback_used=True)


def run_on_scores(
    scores: ScoreSeries,
    kind: DetectorKind,
    m: CandidateSet,
    alpha: float,
    cfg: BootstrapConfig,
    row_fit: Callable[[np.ndarray], np.ndarray] = _sq_rows,
) -> tuple[ConfidenceSet, PValueTable]:
    """Full pipeline from an already-transformed score sequence.

    ``row_fit`` maps an (n, d_p) residual matrix to per-point fit values;
    the default is the squared norm.  Robust variants substitute their
    own measure here and inherit everything else unchanged.
    """
    _check_alpha(alpha)  # before the fits, which take most of the time
    if scores.n < 4:
        raise LengthError(f"need at least 4 points to split, got {scores.n}")
    odd, even = split_like(scores.data, 2)
    n = odd.shape[0]
    segs = fit_all_candidates(odd, m, kind)
    candidates = tuple(sorted(segs))

    n_cand, r = len(candidates), len(candidates) - 1
    fits = np.empty((n_cand, n))
    for i, k in enumerate(candidates):
        fits[i] = _fit_rows(odd, even, segs[k], row_fit)
    crit = fits.mean(axis=1)

    # one studentized row per pair of candidates i < j, in (i, j) order; row i
    # of ``gather`` holds the ``_signed`` indices of candidate i's rival rows
    pairs = n_cand * r // 2
    first, second = np.triu_indices(n_cand, 1)
    index = np.zeros((n_cand, n_cand), dtype=np.intp)
    index[first, second] = np.arange(pairs)
    index += np.tril(index.T + pairs, -1)  # (j, i) is (i, j) reversed
    off = ~np.eye(n_cand, dtype=bool)
    gather = index[off].reshape(n_cand, r)

    def differences(p, q, a, b, buf):
        """Pair rows p:q of fit differences, columns a:b, in the flat ``buf``."""
        out = buf[: (q - p) * (b - a)].reshape(q - p, b - a)
        for row, i, j in zip(out, first[p:q], second[p:q]):
            np.subtract(fits[i, a:b], fits[j, a:b], out=row)
        return out

    # the pair rows' means, root mean squares and snapped sums, in blocks of whole rows
    delta_pairs, sigma, sums = np.empty((3, pairs))
    block = max(1, _TILE_BYTES // (8 * n))
    buf = np.empty(min(block, pairs) * n)
    for p in range(0, pairs, block):
        rows = differences(p, min(p + block, pairs), 0, n, buf)
        delta_pairs[p : p + block], sigma[p : p + block] = _studentize(rows)
        sums[p : p + block] = rows.sum(axis=1)
    buf = rows = None  # the bootstrap then holds the fits, its slice rows and its tiles
    delta = np.zeros((n_cand, n_cand))
    delta[off] = _signed(delta_pairs, gather).ravel()

    # with no rivals the statistic is 0 by convention, as in test_statistic
    t_stat = _signed(sums / math.sqrt(n), gather).max(axis=1) if r else np.zeros(1)
    p_hat = _bootstrap(lambda a, b, buf: _studentized(differences(0, pairs, a, b, buf), sigma),
                       pairs, gather, t_stat, cfg, n)

    table = PValueTable(
        candidates=candidates,
        p_hat=p_hat,
        t_stat=t_stat,
        criterion=crit,
        segmentations=tuple(segs[k] for k in candidates),
        delta_hat=delta,
        n=n,
    )
    return confidence_set(table, alpha), table


def copss_estimate(table: PValueTable) -> int:
    """Point estimate: the candidate minimizing the out-of-sample criterion
    (smallest count on ties)."""
    return table.candidates[int(np.argmin(table.criterion))]

