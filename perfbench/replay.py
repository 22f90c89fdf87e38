"""Traced replay: each operation re-run as a chain of public calls, one span per call.

Spans live in memory (name, start, end, parent, operation id) and are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.  Where a layer has no public entry point
the span covers the smallest public call that contains it:

* multiplier generation: ``bootstrap_pvalue`` with a seeded config minus
  the same call with the multipliers injected (once per split);
* Huber row fits: the whole ``h_optics`` call (span ``ext.h_optics``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from common import ALPHA, B_REPS, MIN_SEG

FUSED_NOTE = (
    "fused (L > 1) p-values are compared within 1e-12, not bit for bit: "
    "the pipeline clips p-values to [1/(2B), 1 - 1/(2B)] and evaluates the "
    "Cauchy formula vectorised over candidates, while the replay calls "
    "cauchy_combine once per candidate on the same clipped values"
)
FUSED_TOL = 1e-12


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": 0.0, "end": 0.0}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += duration(s)
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, covered):
            out[s["name"]] += duration(s) - c
        return out


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def dp_cells(n: int, k_max: int, min_seg: int) -> int:
    """Admissible (j, t, s) cells of the segment-neighbourhood DP, j = 1..k_max:
    j * min_seg <= s <= t - min_seg for every end point t <= n (computed)."""
    total = 0
    for j in range(1, k_max + 1):
        m = n - (j + 1) * min_seg + 1
        if m > 0:
            total += m * (m + 1) // 2
    return total


def bootstrap_flops(k: int, n: int, b_reps: int) -> int:
    """Multiply-adds of the K bootstrap GEMMs, (K-1, n) @ (n, B) each, as flops (computed)."""
    return 2 * k * (k - 1) * n * b_reps


class Counts:
    """Per-run accumulators: exact integer counts and timed sums."""

    def __init__(self):
        self.n = defaultdict(int)
        self.s = defaultdict(float)
        self.problems: list[str] = []
        # (dp_cells, bootstrap_flops) of each operation or cycle; must all be equal
        self.group_counts: set[tuple[int, int]] = set()

    def add_fit_work(self, kind: str, n_half: int, k_max: int, min_seg: int, timed: bool):
        cells = dp_cells(n_half, k_max, min_seg) if kind == "sn" else 0
        flops = bootstrap_flops(k_max, n_half, B_REPS)
        self.n["dp_cells"] += cells
        self.n["bootstrap_flops"] += flops
        if timed:
            self.n["dp_cells_timed"] += cells
            self.n["bootstrap_flops_timed"] += flops
        self.n["multiplier_bytes"] = max(self.n["multiplier_bytes"], B_REPS * n_half * 8)


def chain(tr: Tracer, acc: Counts, oc, ts, model, kind, k_max: int, seed: int,
          mult: np.ndarray, covariates=None) -> dict:
    """transform -> odd_even_split -> fit_all_candidates -> per candidate
    criterion / xi_matrix / test_statistic / bootstrap_pvalue."""
    with tr.span("scores.transform"):
        scores = oc.transform(ts, model, covariates)
    with tr.span("core.odd_even_split"):
        pair = oc.odd_even_split(scores)
    acc.n["dropped_points"] += scores.n - 2 * pair.n
    odd, even = oc.ScoreSeries(pair.odd.data), oc.ScoreSeries(pair.even.data)
    with tr.span("detectors.fit_all_candidates"):
        segs = oc.fit_all_candidates(odd, oc.CandidateSet(k_max), kind)
    acc.add_fit_work(kind.kind, pair.n, k_max, kind.min_seg, timed=True)

    candidates = tuple(sorted(segs))
    injected = oc.BootstrapConfig(b_reps=B_REPS, seed=seed, injected=mult)
    seeded = oc.BootstrapConfig(b_reps=B_REPS, seed=seed)
    crit, t_stat, p_hat = [], [], []
    for k in candidates:
        with tr.span("inference.criterion"):
            crit.append(oc.criterion(segs[k], odd, even))
        with tr.span("inference.xi_matrix"):
            xm = oc.xi_matrix(k, segs, odd, even)
        with tr.span("inference.test_statistic"):
            t_stat.append(oc.test_statistic(xm))
        with tr.span("inference.bootstrap_pvalue.injected") as inj:
            p_hat.append(oc.bootstrap_pvalue(xm, injected))
        acc.n["zero_variance_rivals"] += int(np.count_nonzero(xm.sigma_hat == 0))
        if k == candidates[0]:
            with tr.span("inference.bootstrap_pvalue.seeded") as sd:
                p_seeded = oc.bootstrap_pvalue(xm, seeded)
            acc.s["multipliers_s"] += duration(sd) - duration(inj)
            if p_seeded != p_hat[-1]:
                acc.problems.append(
                    f"seeded and injected multipliers disagree for K={k}: {p_seeded} vs {p_hat[-1]}")
    acc.n["p_at_grid_ends"] += sum(p in (0.0, 1.0) for p in p_hat)
    return {"candidates": candidates, "p_hat": p_hat, "t_stat": t_stat,
            "criterion": crit, "segs": segs, "n": pair.n}


def confidence(tr: Tracer, acc: Counts, oc, r: dict, p_hat, t_stat, criterion):
    k = len(r["candidates"])
    table = oc.PValueTable(
        candidates=r["candidates"], p_hat=np.asarray(p_hat, dtype=np.float64),
        t_stat=np.asarray(t_stat, dtype=np.float64),
        criterion=np.asarray(criterion, dtype=np.float64),
        segmentations=tuple(r["segs"][c] for c in r["candidates"]),
        delta_hat=np.zeros((k, k)), n=r["n"],
    )
    with tr.span("inference.confidence_set"):
        cs = oc.confidence_set(table, ALPHA)
    acc.n["fallback"] += int(cs.fallback_used)
    return cs


def replay_analyze(tr: Tracer, acc: Counts, oc, data: np.ndarray, detector: str,
                   k_max: int, seed: int, mult: np.ndarray):
    """Replay one plain ``analyze`` call; returns (confidence set, chain result)."""
    ts = oc.TimeSeries(data)
    kind = oc.DetectorKind(detector, min_seg=MIN_SEG)
    with tr.span("replay") as root:
        r = chain(tr, acc, oc, ts, oc.ScoreModel("mean"), kind, k_max, seed, mult)
        cs = confidence(tr, acc, oc, r, r["p_hat"], r["t_stat"], r["criterion"])
    acc.n["splits"] += 1
    return cs, r, root


def check_analyze(acc: Counts, doc: dict, cs, r: dict, where: str) -> bool:
    """The replay must reproduce the CLI's result bit for bit (single split)."""
    got = {
        "k": list(r["candidates"]),
        "p_hat": [float(p) for p in r["p_hat"]],
        "t_stat": [float(t) for t in r["t_stat"]],
        "taus": [list(r["segs"][k].taus) for k in r["candidates"]],
        "members": list(cs.members),
    }
    want = {
        "k": [c["k"] for c in doc["candidates"]],
        "p_hat": [c["p_hat"] for c in doc["candidates"]],
        "t_stat": [c["t_stat"] for c in doc["candidates"]],
        "taus": [c["taus"] for c in doc["candidates"]],
        "members": doc["confidence_set"]["members"],
    }
    bad = [key for key in want if got[key] != want[key]]
    for key in bad:
        acc.problems.append(f"{where}: replay {key} {got[key]} != {want[key]}")
    return not bad


def sim_splits(oc, preset: str) -> int:
    p = oc.PRESETS[preset]
    if p["method"] == "ms":
        return 2
    if p["method"] == "mdep":
        return p["spec"].m_dep + 1
    return 1


def sim_multipliers(oc, preset: str, run_seed: int, philox) -> list[np.ndarray]:
    """Injected multipliers for every split of one run, made before its replay span."""
    p = oc.PRESETS[preset]
    if p["method"] == "huber":
        return []
    L = sim_splits(oc, preset)
    n_half = (p["spec"].n_total // L) // 2
    return [philox(run_seed ^ r, B_REPS, n_half) for r in range(L)]


def replay_sim_run(tr: Tracer, acc: Counts, oc, preset: str, run_seed: int,
                   k_max: int, mults: list[np.ndarray]):
    """Replay one Monte Carlo run; returns (members, p-values, fused?, root span)."""
    p = oc.PRESETS[preset]
    spec, method = p["spec"], p["method"]
    kind = oc.DetectorKind("sn", min_seg=p["min_seg"])
    # simulation design names coincide with the score families they use
    model = oc.ScoreModel(spec.design)
    L = sim_splits(oc, preset)
    acc.n["splits"] += L
    with tr.span("replay") as root:
        with tr.span("sim.generate"):
            ts, cov = oc.generate(spec, run_seed)
        if method == "huber":
            cfg = oc.BootstrapConfig(b_reps=B_REPS, seed=run_seed)
            with tr.span("ext.h_optics"):
                cs, table = oc.h_optics(ts, model, kind, oc.CandidateSet(k_max), ALPHA, cfg,
                                        h=oc.HuberConfig(kappa=1.5), covariates=cov)
            n_half = ts.n // 2
            acc.n["dropped_points"] += ts.n - 2 * n_half
            acc.add_fit_work("sn", n_half, k_max, kind.min_seg, timed=False)
            acc.n["p_at_grid_ends"] += int(np.count_nonzero((table.p_hat == 0) | (table.p_hat == 1)))
            acc.n["fallback"] += int(cs.fallback_used)
            return cs.members, [float(x) for x in table.p_hat], False, root
        if L == 1:
            r = chain(tr, acc, oc, ts, model, kind, k_max, run_seed, mults[0], cov)
            cs = confidence(tr, acc, oc, r, r["p_hat"], r["t_stat"], r["criterion"])
            return cs.members, [float(x) for x in r["p_hat"]], False, root
        if cov is not None:
            raise ValueError(f"preset {preset}: covariates with L > 1 are not replayed")
        with tr.span("core.order_preserving_l_split"):
            subs = oc.order_preserving_l_split(ts, L)
        acc.n["dropped_points"] += ts.n - L * subs[0].n
        runs = [chain(tr, acc, oc, sub, model, kind, k_max, run_seed ^ r, mults[r])
                for r, sub in enumerate(subs)]
        lo = 1.0 / (2.0 * B_REPS)
        clipped = np.clip(np.array([r["p_hat"] for r in runs]), lo, 1.0 - lo)
        fused = []
        for column in clipped.T:
            with tr.span("ext.cauchy_combine"):
                fused.append(oc.cauchy_combine(column))
        crit = np.mean([r["criterion"] for r in runs], axis=0)
        cs = confidence(tr, acc, oc, runs[0], fused, np.zeros(len(fused)), crit)
        return cs.members, fused, True, root


def check_sim_run(acc: Counts, record, members, p_hat, fused: bool, where: str) -> bool:
    ok = tuple(members) == tuple(record.members) and len(p_hat) == len(record.p_hat)
    if ok:
        diffs = [abs(a - b) for a, b in zip(p_hat, record.p_hat)]
        ok = max(diffs) <= FUSED_TOL if fused else list(p_hat) == list(record.p_hat)
    if not ok:
        acc.problems.append(
            f"{where}: replay members {tuple(members)} p {p_hat} != "
            f"run {record.members} p {record.p_hat}")
    return ok
