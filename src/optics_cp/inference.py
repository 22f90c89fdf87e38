"""Confidence sets for the number of change-points.

The procedure: split the score sequence by index parity, fit one
segmentation per candidate count on the odd half, and judge each
candidate K by the out-of-sample criterion

    C(K) = mean_i || s_i_even - sbar_K,i_odd ||^2,

the mean squared distance of even-half scores from the odd-half segment
means.  For each rival J the per-point criterion differences

    xi_KJ_i = || s_i - sbar_K,i ||^2 - || s_i - sbar_J,i ||^2

are independent given the odd half; K is rejected when the studentized
max statistic T_K = max_J sqrt(n) * mean(xi) / rms(xi) is large relative
to its Gaussian multiplier bootstrap distribution.  The confidence set
collects every candidate whose bootstrap p-value exceeds alpha.

Numerical determinism: the studentized ratios xi/rms(xi) are snapped to
a fixed 2^-13 grid before entering the statistic, which makes T_K and
the bootstrap p-values exactly invariant when all scores are rescaled
by a positive constant.  Multipliers for replicate b come from a Philox
counter stream keyed by (seed, b), so they are the same however the
replicates are grouped: the bootstrap draws them in fixed-size chunks of
replicates, each thread from its own generator re-keyed per replicate.

Threads: the bootstrap pins numpy's OpenBLAS to one thread and spends the
T threads it had on chunks instead: the caller and up to T - 1 helper
threads, no more than 16 MiB of chunk buffers allow, each draw a chunk's
multipliers and multiply them on one BLAS thread.
Every chunk has the same shape at any T, so the p-values do not depend
on T or on ``OPENBLAS_NUM_THREADS``; they can still depend on the BLAS
build and the chunk size, through the last bits of the GEMM.
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
from .core import (
    CandidateSet,
    Segmentation,
    TimeSeries,
    data_matrix,
    parity_split,
    segment_mean_map,
)
from .detectors import DetectorKind, fit_all_candidates
from .errors import ConfigError, DomainError, LengthError, ShapeError
from .scores import ScoreModel, ScoreSeries, transform

# Resolution of the studentized ratios; 2^-13 keeps the statistic within
# ~1e-4 of its unsnapped value while making it exactly scale-invariant.
_STUDENT_GRID = 8192.0

_SEED_MASK = (1 << 64) - 1

# Replicates are drawn and multiplied in chunks of about this many bytes
# of multipliers, one buffer per thread, so bootstrap memory is O(chunk)
# rather than O(B n).
_CHUNK_BYTES = 4 << 20

# The threads' buffers together stay within this many bytes, which caps the
# thread count, so bootstrap memory does not grow with the machine's cores.
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


def _snap(rows: np.ndarray) -> np.ndarray:
    """Round rows in place to the 2^-13 grid."""
    rows *= _STUDENT_GRID
    return np.divide(np.round(rows, out=rows), _STUDENT_GRID, out=rows)


def _xi_from_fits(k: int, rivals: tuple[int, ...], fit_k: np.ndarray, fit_rivals: np.ndarray,
                  out: np.ndarray | None = None) -> XiMatrix:
    # the studentized rows are written into ``out`` when it is given
    xi = fit_k[None, :] - fit_rivals
    delta = xi.mean(axis=1)
    sigma = np.sqrt((xi * xi).mean(axis=1))
    nz = sigma > 0
    stud = np.divide(xi, np.where(nz, sigma, 1.0)[:, None], out=out)
    _snap(stud)
    stud[~nz] = 0.0
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


def _bootstrap(stud: np.ndarray, t_obs: np.ndarray, cfg: BootstrapConfig, n: int) -> np.ndarray:
    """Bootstrap p-values of len(t_obs) candidates at once.

    ``stud`` stacks the studentized rival rows of every candidate, candidate
    g owning an equal block of consecutive rows.  Replicates run in chunks:
    one GEMM per chunk over all rows, then the max over each block.  The
    chunks are shared out over threads, and an error in any thread stops
    the others after their current chunk and is raised here.
    """
    if cfg.injected is not None and cfg.injected.shape[1] != n:
        raise ConfigError(f"injected multipliers have length {cfg.injected.shape[1]}, expected {n}")
    if stud.shape[0] == 0:
        # nothing to compare against: no candidate can be rejected
        return np.ones(len(t_obs))
    b_reps, seed = cfg.b_reps, cfg.seed & _SEED_MASK
    rows = max(1, min(b_reps, _CHUNK_BYTES // (8 * n)))
    starts = range(0, b_reps, rows)
    tickets = itertools.count()  # the next chunk to take; next() on it is atomic
    stop = threading.Event()
    results, errors = [], []

    def count_chunks():
        # this thread's buffer, generator and counts
        counts = np.zeros(len(t_obs), dtype=np.int64)
        if cfg.injected is None:
            buf = np.empty((rows, n))
            buf_rows = list(buf)  # the row views, built once; out= alone fixes the shape
            # one generator, re-keyed to (seed, b) with a zero counter and an empty
            # buffer per replicate: the same stream as a fresh Philox(key=(seed, b))
            bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
            gen = np.random.Generator(bitgen)
            state = bitgen.state
            key = state["state"]["key"]
        while not stop.is_set() and (i := next(tickets)) < len(starts):
            lo = starts[i]
            c = min(rows, b_reps - lo)
            if cfg.injected is not None:
                mult = cfg.injected[lo : lo + c]
            else:
                mult = buf[:c]
                for j in range(c):
                    key[1] = lo + j
                    bitgen.state = state
                    gen.standard_normal(out=buf_rows[j])
            t_sharp = ((stud @ mult.T) / math.sqrt(n)).reshape(len(t_obs), -1, c).max(axis=1)
            counts += np.count_nonzero(t_sharp > t_obs[:, None], axis=1)
        return counts

    def work():
        try:
            results.append(count_chunks())
        except BaseException as exc:  # an interrupt too: the others stop after their chunk
            errors.append(exc)
            stop.set()

    # the caller and up to T - 1 helpers share the chunks, T being numpy's BLAS
    # thread count, as far as the buffer budget allows; each multiplies on one
    # BLAS thread, and every chunk has the same shape at any T, so the counts
    # do not depend on T
    budget = max(1, _BUFFERS_BYTES // (8 * rows * n))
    with blas.single_thread() as threads:
        helpers = [threading.Thread(target=work, daemon=True)
                   for _ in range(min(threads, len(starts), budget) - 1)]
        try:
            for t in helpers:
                t.start()
            work()
        finally:
            stop.set()  # the chunks are all taken on success; on failure none is started
            _join_all(helpers)
    if errors:
        raise errors[0]
    return sum(results) / b_reps


def _join_all(threads: list[threading.Thread]) -> None:
    """Wait for every started thread, through any interrupt; the first
    interrupt is re-raised once none is left running."""
    interrupt = None
    for t in threads:
        while t.is_alive():
            try:
                t.join()
            except KeyboardInterrupt as exc:
                interrupt = interrupt or exc
    if interrupt is not None:
        raise interrupt


def bootstrap_pvalue(xm: XiMatrix, cfg: BootstrapConfig) -> float:
    """Share of multiplier replicates whose statistic strictly exceeds the
    observed one.  Deterministic given the seed."""
    return float(_bootstrap(xm.studentized, np.array([test_statistic(xm)]), cfg, xm.n)[0])


def confidence_set(table: PValueTable, alpha: float) -> ConfidenceSet:
    """Threshold the table at alpha, retaining the best candidate if all fail."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
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
    if scores.n < 4:
        raise LengthError(f"need at least 4 points to split, got {scores.n}")
    odd, even = parity_split(scores.data)
    n = odd.shape[0]
    segs = fit_all_candidates(odd, m, kind)
    candidates = tuple(sorted(segs))

    n_cand, r = len(candidates), len(candidates) - 1
    fits = np.empty((n_cand, n))
    for i, k in enumerate(candidates):
        fits[i] = _fit_rows(odd, even, segs[k], row_fit)
    crit = fits.mean(axis=1)

    # the studentized rival rows of every candidate, stacked: candidate i
    # owns rows i*(K-1) .. (i+1)*(K-1) - 1, one per rival in candidate order
    stud = np.empty((n_cand * r, n))
    delta = np.zeros((n_cand, n_cand))
    for i, k in enumerate(candidates):
        others = [j for j in range(n_cand) if j != i]
        rivals = tuple(candidates[j] for j in others)
        xm = _xi_from_fits(k, rivals, fits[i], fits[others], out=stud[i * r : (i + 1) * r])
        delta[i, others] = xm.delta_hat

    # with no rivals the statistic is 0 by convention, as in test_statistic
    t_stat = (stud.sum(axis=1) / math.sqrt(n)).reshape(n_cand, r).max(axis=1) if r else np.zeros(1)
    p_hat = _bootstrap(stud, t_stat, cfg, n)

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


def optics(
    ts: TimeSeries,
    model: ScoreModel,
    kind: DetectorKind,
    m: CandidateSet,
    alpha: float = 0.1,
    cfg: BootstrapConfig | None = None,
    covariates: np.ndarray | None = None,
) -> tuple[ConfidenceSet, PValueTable]:
    """Confidence set for the number of change-points in ``ts``.

    Transforms the series to scores, splits by parity, fits every
    candidate count on the odd half, and keeps the candidates whose
    bootstrap p-value exceeds alpha.  Deterministic given the seed in
    ``cfg``.
    """
    if cfg is None:
        cfg = BootstrapConfig()
    scores = transform(ts, model, covariates)
    return run_on_scores(scores, kind, m, alpha, cfg)


def copss_estimate(table: PValueTable) -> int:
    """Point estimate: the candidate minimizing the out-of-sample criterion
    (smallest count on ties)."""
    return table.candidates[int(np.argmin(table.criterion))]

