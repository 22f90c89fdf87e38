"""Simulation designs and a Monte Carlo experiment harness.

Three generator designs are available, each with four true changes at
positions 200, 400, 600, 800 in a length-1000 series by default:

    mean        y = mu_k + eps,        mu_k alternating +-A per segment
    regression  y = x' beta_k + eps,   beta_k alternating +-A, x ~ N(0, I)
    variance    y = s_k * eps,         s_k alternating 1, A, 1, A, ...

Errors may be standard normal, Student t, or scaled normal; the mean
design additionally supports moving-average errors that make points up
to m_dep apart dependent.  Every run draws from a seed derived as
seed XOR run_index, so runs parallelize reproducibly: ``run_experiment``
spreads them over worker processes, each under single-threaded BLAS, and
returns the same records whatever the process count.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from . import blas
from .core import CandidateSet, TimeSeries
from .detectors import SEGMENT_NEIGHBORHOOD, DetectorKind
from .errors import OpticsError, SpecError
from .ext import HuberConfig, optics
from .inference import _SEED_MASK, BootstrapConfig, copss_estimate
from .scores import ScoreModel

MEAN_CHANGE = "mean"
REGRESSION_BREAK = "regression"
VARIANCE_CHANGE = "variance"

NOISE_NORMAL = "normal"
NOISE_STUDENT_T = "student_t"
NOISE_SCALED_NORMAL = "scaled_normal"

METHODS = ("optics", "ms", "huber", "mdep")


@dataclass(frozen=True)
class GeneratorSpec:
    """One simulation design instance."""

    design: str = MEAN_CHANGE
    n_total: int = 1000
    d: int = 1
    taus_star: tuple[int, ...] = (200, 400, 600, 800)
    amplitude: float = 1.0
    noise: str = NOISE_NORMAL
    noise_param: float = 10.0  # t degrees of freedom, or scaled-normal sd
    m_dep: int = 0

    def __post_init__(self):
        if self.design not in (MEAN_CHANGE, REGRESSION_BREAK, VARIANCE_CHANGE):
            raise SpecError(f"unknown design {self.design!r}")
        if self.noise not in (NOISE_NORMAL, NOISE_STUDENT_T, NOISE_SCALED_NORMAL):
            raise SpecError(f"unknown noise {self.noise!r}")
        if self.n_total < 1:
            raise SpecError(f"n_total must be >= 1, got {self.n_total}")
        taus = tuple(int(t) for t in self.taus_star)
        object.__setattr__(self, "taus_star", taus)
        if list(taus) != sorted(set(taus)):
            raise SpecError("taus_star must be strictly increasing")
        if taus and (taus[0] <= 0 or taus[-1] >= self.n_total):
            raise SpecError("taus_star must lie strictly inside (0, n_total)")
        if self.d < 1:
            raise SpecError(f"d must be >= 1, got {self.d}")
        if self.m_dep < 0:
            raise SpecError(f"m_dep must be >= 0, got {self.m_dep}")
        if (self.n_total + self.m_dep) * self.d > np.iinfo(np.intp).max:
            raise SpecError(f"n_total={self.n_total}, m_dep={self.m_dep} and d={self.d} "
                            "ask for more noise values than an array can hold")
        if not math.isfinite(self.amplitude):
            raise SpecError(f"amplitude must be finite, got {self.amplitude}")
        if not (math.isfinite(self.noise_param) and self.noise_param > 0):
            raise SpecError(f"noise_param must be finite and > 0, got {self.noise_param}")
        if self.m_dep > 0 and self.design != MEAN_CHANGE:
            raise SpecError("moving-average errors are supported for the mean design only")
        if self.design == VARIANCE_CHANGE and self.d != 1:
            raise SpecError("variance design is scalar (d must be 1)")

    @property
    def k_star(self) -> int:
        return len(self.taus_star)


@dataclass(frozen=True)
class RunRecord:
    run: int
    covered: bool
    cardinality: int
    copss: int
    copss_hit: bool
    seconds: float
    members: tuple[int, ...]
    p_hat: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate coverage and cardinality over independent runs."""

    method: str
    detector: str
    spec: GeneratorSpec
    alpha: float
    b_reps: int
    k_max: int
    seed: int
    records: tuple[RunRecord, ...] = field(repr=False)

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def coverage(self) -> float:
        return sum(r.covered for r in self.records) / self.runs

    @property
    def mean_cardinality(self) -> float:
        return sum(r.cardinality for r in self.records) / self.runs

    @property
    def copss_hit_rate(self) -> float:
        return sum(r.copss_hit for r in self.records) / self.runs

    def summary(self) -> dict:
        return {
            "runs": self.runs,
            "coverage": self.coverage,
            "mean_cardinality": self.mean_cardinality,
            "copss_hit_rate": self.copss_hit_rate,
        }

    def csv_rows(self) -> list[dict]:
        return [
            {
                "run": r.run,
                "method": self.method,
                "detector": self.detector,
                "A": self.spec.amplitude,
                "covered": int(r.covered),
                "cardinality": r.cardinality,
                "copss_hit": int(r.copss_hit),
                "seconds": round(r.seconds, 6),
            }
            for r in self.records
        ]


def _segment_labels(n_total: int, taus: tuple[int, ...]) -> np.ndarray:
    bounds = (0,) + taus + (n_total,)
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


def _draw_noise(rng: np.random.Generator, spec: GeneratorSpec, shape) -> np.ndarray:
    if spec.noise == NOISE_NORMAL:
        return rng.standard_normal(shape)
    if spec.noise == NOISE_STUDENT_T:
        return rng.standard_t(spec.noise_param, size=shape)
    return spec.noise_param * rng.standard_normal(shape)


def _mean_errors(rng: np.random.Generator, spec: GeneratorSpec) -> np.ndarray:
    shape = (spec.n_total, spec.d)
    if spec.m_dep == 0:
        return _draw_noise(rng, spec, shape)
    # uniform moving average over m_dep + 1 innovations (lags 0..m_dep), so
    # points more than m_dep apart are independent; variance normalized to 1
    m = spec.m_dep
    eta = _draw_noise(rng, spec, (spec.n_total + m, spec.d))
    cs = np.zeros((spec.n_total + m + 1, spec.d))
    np.cumsum(eta, axis=0, out=cs[1:])
    return (cs[m + 1 :] - cs[: -(m + 1)]) / math.sqrt(m + 1)


def generate(spec: GeneratorSpec, seed: int) -> tuple[TimeSeries, np.ndarray | None]:
    """Draw one dataset; deterministic in (spec, seed).

    Returns the series and, for the regression design, the covariate
    matrix (None otherwise).  A series too large for memory raises
    SpecError.
    """
    rng = np.random.default_rng(seed & _SEED_MASK)
    signs = (-1.0) ** np.arange(spec.k_star + 1)
    try:
        labels = _segment_labels(spec.n_total, spec.taus_star)
        if spec.design == MEAN_CHANGE:
            mu = spec.amplitude * signs[labels][:, None] * np.ones(spec.d)
            return TimeSeries(mu + _mean_errors(rng, spec)), None

        if spec.design == REGRESSION_BREAK:
            x = rng.standard_normal((spec.n_total, spec.d))
            eps = _draw_noise(rng, spec, spec.n_total)
            beta = spec.amplitude * signs[labels][:, None]
            y = np.sum(x * beta, axis=1) + eps
            return TimeSeries(y), x

        # variance: scale alternates 1, A, 1, A, ... across segments
        scale = spec.amplitude ** (np.arange(spec.k_star + 1) % 2)
        eps = _draw_noise(rng, spec, spec.n_total)
        return TimeSeries(scale[labels] * eps), None
    except MemoryError:
        raise SpecError(f"n_total={spec.n_total}, d={spec.d} and m_dep={spec.m_dep} "
                        "ask for a series larger than memory") from None


def default_k_max(n_total: int) -> int:
    """floor(ln n) of the parity-split half, the conventional candidate cap."""
    return max(1, int(math.log(max(n_total // 2, 2))))


# Forked worker processes of run_experiment, kept across calls so that
# repeated calls pay no process start-up: (pid, task stream, reply stream).
# Forking afresh for each call instead, measured on the benchmark's
# simulate_mix workload (2 cores), raised its median latency from 18.7 to 27.0 ms.
# The lock serializes calls, which share the workers.
_workers: list[tuple[int, BinaryIO, BinaryIO]] = []
_lock = threading.Lock()


def _worker_pool(count: int) -> list[tuple[int, BinaryIO, BinaryIO]]:
    """Exactly ``count`` cached workers; workers of another count are stopped first,
    so no more than ``count`` are alive during a call."""
    if len(_workers) != count:
        _stop_workers()
        for _ in range(count):
            _workers.append(_fork_worker())
    return _workers


def _fork_worker() -> tuple[int, BinaryIO, BinaryIO]:
    # fork, not spawn: a spawned worker re-imports numpy, which costs more
    # than the runs of a small experiment
    task_r, task_w = os.pipe()
    reply_r, reply_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker; _forget_workers has closed the others' pipes here
        code = 1
        try:
            os.close(task_w)
            os.close(reply_r)
            _serve(task_r, reply_w)
            code = 0
        finally:
            os._exit(code)
    os.close(task_r)
    os.close(reply_w)
    return pid, os.fdopen(task_w, "wb"), os.fdopen(reply_r, "rb")


def _serve(task_fd: int, reply_fd: int) -> None:
    """Worker loop: perform each (job, first, step, runs) task sent, until EOF."""
    import signal

    # Ctrl-C reaches the whole process group; only the caller handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with blas.single_thread(), os.fdopen(task_fd, "rb") as tasks, \
         os.fdopen(reply_fd, "wb") as replies:
        while True:
            try:
                task = pickle.load(tasks)
            except EOFError:
                return
            pickle.dump(_perform(*task), replies)
            replies.flush()


def _stop_workers() -> None:
    """Stop the cached workers at once, whatever they are doing, and reap them."""
    import signal

    while _workers:
        pid, tasks, replies = _workers.pop()
        for stream in (tasks, replies):
            with contextlib.suppress(OSError):
                stream.close()
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _forget_workers() -> None:
    """In a forked child: close its copies of the workers' pipes, which would
    keep their EOF from coming, never stop workers that are not its own,
    and drop a lock that another thread of the parent may have held."""
    global _lock
    for _, tasks, replies in _workers:
        tasks.close()
        replies.close()
    _workers.clear()
    _lock = threading.Lock()


atexit.register(_stop_workers)
if hasattr(os, "register_at_fork"):  # POSIX; elsewhere there is no fork and no worker
    os.register_at_fork(after_in_child=_forget_workers)


@dataclass(frozen=True)
class _Runs:
    """The settings of one experiment; calling it with i performs run i.

    Instances are pickled to the worker processes with each run index.
    """

    spec: GeneratorSpec
    detector: DetectorKind
    m: CandidateSet
    alpha: float
    b_reps: int
    seed: int
    L: int
    huber: HuberConfig | None

    def __call__(self, i: int) -> RunRecord:
        run_seed = (self.seed ^ i) & _SEED_MASK
        ts, cov = generate(self.spec, run_seed)
        cfg = BootstrapConfig(b_reps=self.b_reps, seed=run_seed)
        t0 = time.perf_counter()
        # design names coincide with the score families they use
        cs, table = optics(ts, ScoreModel(self.spec.design), self.detector, self.m, self.alpha,
                           cfg, covariates=cov, L=self.L, huber=self.huber)
        elapsed = time.perf_counter() - t0
        point = copss_estimate(table)
        return RunRecord(
            run=i,
            covered=self.spec.k_star in cs.members,
            cardinality=len(cs.members),
            copss=point,
            copss_hit=point == self.spec.k_star,
            seconds=elapsed,
            members=cs.members,
            p_hat=tuple(float(p) for p in table.p_hat),
        )


def _perform(job: _Runs, first: int, step: int, runs: int):
    """Runs first, first + step, ... below ``runs``, stopping at the first that
    raises: (records, None), or (the records before it, (its run, its error))."""
    records = []
    for i in range(first, runs, step):
        try:
            records.append(job(i))
        except Exception as exc:
            return records, (i, exc)
    return records, None


def _dead(pid: int) -> OpticsError:
    return OpticsError(f"Monte Carlo worker process {pid} died; its pool was discarded")


def _run_all(job: _Runs, runs: int, procs: int) -> list[RunRecord]:
    """Records of runs 0 .. runs - 1, in run order, from ``procs`` processes.

    This process performs runs 0, procs, 2 procs, ...; worker w of the
    cached pool performs runs w, w + procs, ...  When runs fail, the
    error raised is that of the lowest-numbered failing run, as in a
    serial loop.
    """
    workers = _worker_pool(procs - 1)
    try:
        for w, (pid, tasks, _) in enumerate(workers, 1):
            try:
                pickle.dump((job, w, procs, runs), tasks)
                tasks.flush()
            except BrokenPipeError:
                raise _dead(pid) from None
        records, failure = _perform(job, 0, procs, runs)
        if failure is not None and failure[0] == 0:
            raise failure[1]  # no run comes before it: the workers' runs are abandoned
        for pid, _, replies in workers:
            try:
                more, their_failure = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):
                raise _dead(pid) from None
            records += more
            if their_failure is not None and (failure is None or their_failure[0] < failure[0]):
                failure = their_failure
    except BaseException:
        # an interrupt, a dead worker or an abandoned task: the workers go with it
        _stop_workers()
        raise
    if failure is not None:
        raise failure[1]
    return sorted(records, key=lambda r: r.run)


def run_experiment(
    spec: GeneratorSpec,
    method: str = "optics",
    detector: DetectorKind | None = None,
    alpha: float = 0.1,
    b_reps: int = 500,
    runs: int = 100,
    seed: int = 0,
    k_max: int | None = None,
    ms_l: int = 2,
    huber: HuberConfig | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Monte Carlo coverage and cardinality for one design and method.

    Run i draws its data and multipliers from seed XOR i, so reports are
    reproducible and methods compared on the same seed see identical
    datasets.  ``threads`` is the number of processes that perform the
    runs: the caller and up to ``threads - 1`` forked worker processes,
    which are kept for later calls with the same count.  Every run uses
    single-threaded BLAS, so the records do not depend on ``threads``
    except in their ``seconds``.
    """
    if method not in METHODS:
        raise SpecError(f"unknown method {method!r}; expected one of {METHODS}")
    if runs < 1:
        raise SpecError(f"runs must be >= 1, got {runs}")
    if threads < 1:
        raise SpecError(f"threads must be >= 1, got {threads}")
    if detector is None:
        detector = DetectorKind(SEGMENT_NEIGHBORHOOD)
    if k_max is None:
        k_max = default_k_max(spec.n_total)
    # split count and Huber setting of the method
    L = ms_l if method == "ms" else spec.m_dep + 1 if method == "mdep" else 1
    h = (huber or HuberConfig()) if method == "huber" else None
    job = _Runs(spec, detector, CandidateSet(k_max), alpha, b_reps, seed, L, h)
    with _lock, blas.single_thread():
        records = _run_all(job, runs, min(threads, runs))

    return ExperimentReport(
        method=method,
        detector=detector.kind,
        spec=spec,
        alpha=alpha,
        b_reps=b_reps,
        k_max=k_max,
        seed=seed,
        records=tuple(records),
    )


# Named experiment presets reproducing the headline coverage tables.  Each
# preset carries its own detector floor: the squared-error detectors need a
# larger floor when scores have heavy-tailed products (regression) and the
# smallest admissible one when unbounded outliers would otherwise be fitted
# into floor-length pockets (Cauchy noise).
PRESETS: dict[str, dict] = {
    # mean change, d=1, normal errors
    "tab1": {"spec": GeneratorSpec(design=MEAN_CHANGE, noise=NOISE_NORMAL, amplitude=1.0),
             "method": "optics", "min_seg": 5},
    # mean change, d=1, t(10) errors
    "tab2": {"spec": GeneratorSpec(design=MEAN_CHANGE, noise=NOISE_STUDENT_T,
                                   noise_param=10.0, amplitude=1.0),
             "method": "optics", "min_seg": 5},
    # variance change, amplitude ratio 4, N(0, 0.25) base errors
    "tab5": {"spec": GeneratorSpec(design=VARIANCE_CHANGE, noise=NOISE_SCALED_NORMAL,
                                   noise_param=0.5, amplitude=4.0),
             "method": "optics", "min_seg": 5},
    # regression coefficient breaks, d=5, t(10) errors, 1000 points per half
    "tab7": {"spec": GeneratorSpec(design=REGRESSION_BREAK, d=5, noise=NOISE_STUDENT_T,
                                   noise_param=10.0, amplitude=0.2, n_total=2000,
                                   taus_star=(400, 800, 1200, 1600)),
             "method": "optics", "min_seg": 20},
    # heavy tails: t(1) errors, Huber fit measure
    "coverage_ro": {"spec": GeneratorSpec(design=MEAN_CHANGE, noise=NOISE_STUDENT_T,
                                          noise_param=1.0, amplitude=0.75),
                    "method": "huber", "min_seg": 2},
    # moving-average errors, (m+1)-way splitting
    "vary_m": {"spec": GeneratorSpec(design=MEAN_CHANGE, noise=NOISE_NORMAL,
                                     amplitude=0.75, m_dep=2),
               "method": "mdep", "min_seg": 5},
    # larger sample, multiple splitting with L=2
    "vary_n": {"spec": GeneratorSpec(design=MEAN_CHANGE, noise=NOISE_NORMAL,
                                     amplitude=0.75, n_total=1600),
               "method": "ms", "min_seg": 5},
}
