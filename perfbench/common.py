"""Workloads, inputs, operations and the output check shared by the benchmark scripts.

The benchmark drives the package from outside: ``optics_cp.cli.main`` for
``analyze`` and ``optics_cp.run_experiment`` for Monte Carlo.  Inputs come
from fixed pools so that every operation has a reference output recorded
in ``reference.json``; the ``--seed`` of a run picks the order in which the
pool is visited.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"


def have_source() -> bool:
    return (SRC / "optics_cp" / "__init__.py").is_file()


def import_package():
    """Import optics_cp from this checkout's ``src``, never from site-packages."""
    if not have_source():
        raise SystemExit(f"no package source at {SRC / 'optics_cp'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import optics_cp

    if Path(optics_cp.__file__).resolve().parent != (SRC / "optics_cp").resolve():
        raise SystemExit(f"imported optics_cp from {optics_cp.__file__}, not from {SRC}")
    return optics_cp


ALPHA = 0.1
B_REPS = 500
MIN_SEG = 5
ANALYZE_POOL = 128
SIM_POOL = 64
SIM_PRESETS = ("tab1", "vary_n", "vary_m", "coverage_ro", "tab7")
SIM_RUNS_PER_CALL = 2
SIM_THREADS = 2
_SEED_MASK = (1 << 64) - 1


def sha(data: bytes, length: int = 64) -> str:
    return hashlib.sha256(data).hexdigest()[:length]


def visit_order(seed: int, pool: int) -> list[int]:
    """The pool entries a run visits, in order; a run cycles through them."""
    return [int(i) for i in np.random.default_rng(seed).permutation(pool)]


@dataclass(frozen=True)
class AnalyzeWorkload:
    """``optics-cp analyze`` on a four-change mean-shift CSV, plain variant."""

    name: str
    n: int
    detector: str
    speed: dict  # SpeedMeter weights
    pool: int = ANALYZE_POOL
    elasticity: float = 1.0  # SpeedMeter elasticity

    def values(self, i: int) -> tuple[str, np.ndarray]:
        """CSV text of pool entry i and the floats the CLI parses from it."""
        rng = np.random.default_rng([20260, self.n, i])
        labels = np.repeat(np.arange(5), self.n // 5)
        amplitude = 0.5 + rng.random()
        y = amplitude * (-1.0) ** labels + rng.standard_normal(self.n)
        lines = [f"{v:.6f}" for v in y]
        return "\n".join(lines) + "\n", np.array([float(s) for s in lines])

    def paths(self, i: int) -> tuple[str, str]:
        # relative to the checkout root, so the echoed input path is the same everywhere
        stem = f"{WORK.relative_to(ROOT)}/{self.name}-{i:04d}"
        return stem + ".csv", stem + ".json"

    def write_input(self, i: int) -> np.ndarray:
        text, data = self.values(i)
        csv_path, _ = self.paths(i)
        WORK.mkdir(parents=True, exist_ok=True)
        (ROOT / csv_path).write_text(text, encoding="utf-8")
        return data

    def argv(self, i: int) -> list[str]:
        csv_path, out_path = self.paths(i)
        return [
            "analyze", "--input", csv_path, "--detector", self.detector,
            "--B", str(B_REPS), "--min-seg", str(MIN_SEG), "--threads", "1",
            "--seed", str(i), "--output", out_path,
        ]

    def call(self, cli, i: int) -> bytes:
        """One analysis; the input must already be written.  Returns the output bytes."""
        code = cli.main(self.argv(i))
        if code != 0:
            raise RuntimeError(f"optics-cp analyze exited {code} on entry {i}")
        return (ROOT / self.paths(i)[1]).read_bytes()

    def cleanup(self, i: int) -> None:
        for p in self.paths(i):
            (ROOT / p).unlink(missing_ok=True)

    def digest(self, output: bytes) -> str:
        return sha(output)


@dataclass(frozen=True)
class SimulateWorkload:
    """One ``run_experiment`` call per preset; a cycle visits every preset once."""

    name: str
    speed: dict  # SpeedMeter weights
    presets: tuple[str, ...] = SIM_PRESETS
    runs: int = SIM_RUNS_PER_CALL
    pool: int = SIM_POOL
    elasticity: float = 1.0  # SpeedMeter elasticity

    def seed(self, cycle: int) -> int:
        # run r of a call uses seed ^ r, so cycles never share a dataset
        return cycle * self.runs

    def call(self, oc, preset: str, cycle: int, threads: int = SIM_THREADS):
        p = oc.PRESETS[preset]
        return oc.run_experiment(
            p["spec"],
            method=p["method"],
            detector=oc.DetectorKind("sn", min_seg=p["min_seg"]),
            alpha=ALPHA,
            b_reps=B_REPS,
            runs=self.runs,
            seed=self.seed(cycle),
            ms_l=2,
            huber=oc.HuberConfig(kappa=1.5),
            threads=threads,
        )

    def digest(self, report) -> dict:
        runs = [
            sha(json.dumps([list(r.members), list(r.p_hat), r.copss,
                            r.covered, r.cardinality]).encode(), 16)
            for r in report.records
        ]
        summary = sha(json.dumps(report.summary(), sort_keys=True).encode(), 16)
        return {"summary": summary, "runs": runs}


WORKLOADS = {
    "analyze_sn_16k": AnalyzeWorkload("analyze_sn_16k", n=16_000, detector="sn",
                                      speed={"dp_small": 0.5, "dp_large": 0.5},
                                      elasticity=0.75),
    "analyze_bs_64k": AnalyzeWorkload("analyze_bs_64k", n=64_000, detector="bs",
                                      speed={"rng": 0.4, "mem": 0.3, "gemm": 0.3}),
    "simulate_mix": SimulateWorkload("simulate_mix", speed={"rng": 0.5, "dp_small_x2": 0.5}),
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def analyze_failures(ref: dict, wl: AnalyzeWorkload, i: int, digest: str) -> int:
    return int(ref[wl.name][i] != digest)


def simulate_failures(ref: dict, wl: SimulateWorkload, preset: str, cycle: int, digest: dict) -> int:
    """Monte Carlo runs of one call whose output differs from the reference."""
    want = ref[wl.name][preset][cycle]
    bad = sum(a != b for a, b in zip(want["runs"], digest["runs"]))
    bad += abs(len(want["runs"]) - len(digest["runs"]))
    if bad == 0 and want["summary"] != digest["summary"]:
        bad = 1
    return bad


def philox_multipliers(seed: int, b_reps: int, n: int) -> np.ndarray:
    """The documented multiplier stream: replicate b is Philox keyed by (seed, b)."""
    out = np.empty((b_reps, n))
    for b in range(b_reps):
        key = np.array([seed & _SEED_MASK, b], dtype=np.uint64)
        out[b] = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
    return out


class SpeedMeter:
    """Machine speed index from frozen numpy kernels that never call optics_cp.

    The benchmark host is a small shared VM whose speed drifts by up to a
    half within a minute, and the kernels slow down with it.  ``sample()``
    times the kernels a workload weights and returns
    sum(weight * time / reference time): 1.0 on the reference machine
    (2-vCPU Xeon under KVM), 1.3 when the kernels take 30% longer.  An
    operation's wall time divided by the index around it is its
    reference-speed time.  Each workload weights the kernels that resemble
    its own hot loops, and raises the index to its elasticity when its
    operations respond to the drift less than the kernels do; both were
    chosen from recorded drift, as what best cancelled it.
    """

    # name: reference seconds
    REFERENCE = {"dp_small": 0.036, "dp_small_x2": 0.18, "dp_large": 0.026, "rng": 0.016,
                 "mem": 0.029, "gemm": 0.008}

    def __init__(self, weights: dict[str, float], elasticity: float = 1.0):
        self.weights = weights
        self.elasticity = elasticity
        self._rng = np.random.default_rng(7)
        self._series = {n: self._cumsums(self._rng.standard_normal(n)) for n in (800, 8000)}
        self._block = self._rng.standard_normal(2**23) if "mem" in weights else None
        self._gemm = (self._rng.standard_normal((9, 32_000)),
                      self._rng.standard_normal((200, 32_000))) if "gemm" in weights else None
        self.sample()  # the first pass pays page faults and cold caches

    @staticmethod
    def _cumsums(y: np.ndarray):
        return (np.concatenate([[0.0], np.cumsum(y)]),
                np.concatenate([[0.0], np.cumsum(y * y)]))

    def _dp(self, n: int, k_max: int, t_step: int) -> None:
        """Segment-neighbourhood DP rows for every t_step-th end point."""
        cum, cum_sq = self._series[n]
        min_seg = 5
        cost = np.zeros((k_max + 1, n + 1))
        for t in range(2 * min_seg, n + 1, t_step):
            d = cum[t] - cum[:t]
            col = np.maximum(cum_sq[t] - cum_sq[:t] - d * d / (t - np.arange(t)), 0.0)
            for j in range(1, min(k_max, t // min_seg - 1) + 1):
                w = cost[j - 1, j * min_seg:t - min_seg + 1] + col[j * min_seg:t - min_seg + 1]
                cost[j, t] = w[int(np.argmin(w))]

    def dp_small(self) -> None:
        """Every end point of an 800-point DP, like the Monte Carlo presets."""
        self._dp(800, 6, 1)

    def dp_small_x2(self) -> None:
        """dp_small in two threads at once, like Monte Carlo runs at threads=2."""
        workers = [threading.Thread(target=self.dp_small) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

    def dp_large(self) -> None:
        """Every 32nd end point of an 8,000-point DP, like analyze_sn_16k's odd half."""
        self._dp(8000, 8, 32)

    def rng(self) -> None:
        """Philox normals into a 5 MiB matrix, like multiplier generation."""
        philox_multipliers(1, 20, 32_000)

    def mem(self) -> None:
        """One pass over 64 MiB, like a bootstrap GEMM over the multiplier matrix."""
        np.multiply(self._block, 1.0001)

    def gemm(self) -> None:
        """(9, 32000) @ (32000, 200) on numpy's BLAS threads, like one bootstrap GEMM."""
        np.matmul(self._gemm[0], self._gemm[1].T)

    def sample(self) -> float:
        index = 0.0
        for name, weight in self.weights.items():
            t0 = time.perf_counter()
            getattr(self, name)()
            index += weight * (time.perf_counter() - t0) / self.REFERENCE[name]
        return index ** self.elasticity


def interval_indices(boundaries: list[float], half_width: int = 3) -> list[float]:
    """Speed index of each interval between consecutive SpeedMeter samples.

    Interval i lies between samples i and i + 1; its index is the median of
    the samples up to ``half_width`` on either side, which damps the
    kernels' own timing noise while still following the drift.
    """
    return [statistics.median(boundaries[max(0, i + 1 - half_width):i + 1 + half_width])
            for i in range(len(boundaries) - 1)]
