"""optics-cp benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``analyze_sn_16k``: ``optics-cp analyze`` with the exact ``sn`` detector
  on 16,000-row four-change mean-shift CSVs, B = 500, one client in a
  closed loop.
* ``analyze_bs_64k``: the same with ``bs`` on 64,000 rows.
* ``simulate_mix``: ``run_experiment`` with ``sn``, B = 500 and threads=2
  on presets tab1, vary_n, vary_m, coverage_ro and tab7, two Monte Carlo
  runs per call; a cycle calls every preset once.

``--trace 0`` measures the end-to-end metrics without tracing: set-up time
and peak RSS in fresh processes, then warm operations for ``--seconds``.
Times are wall times divided by a machine speed index (``common.SpeedMeter``).
``--trace 1`` replays each operation as a chain of public calls with spans
and prints the per-layer metrics; it also checks that the same input twice
gives identical bytes (analyze) and that threads=1 and threads=2 give
identical output (simulate_mix).  Every operation's output is compared
with ``reference.json``.  A human-readable report comes first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common

SETUP_PROBES = 5
SIM_SPEEDUP_ROUNDS = 2


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or "unknown"."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def cache_sizes() -> dict:
    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        caches[level] = int(out) if out.isdigit() else None
    return caches


def environment(oc) -> dict:
    """Interpreter, numpy, BLAS and cache facts as found; nothing is pinned."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    caches = cache_sizes()
    llc = caches["LEVEL3_CACHE_SIZE"] or caches["LEVEL2_CACHE_SIZE"]
    largest = common.B_REPS * (common.WORKLOADS["analyze_bs_64k"].n // 2) * 8
    if llc:
        relation = "smaller" if largest < 4 * llc else "not smaller"
        note = (f"largest array: the {largest / 2**20:.0f} MiB multiplier matrix of "
                f"analyze_bs_64k, {relation} than 4x the reported LLC "
                f"({4 * llc / 2**20:.0f} MiB); no bandwidth figure is claimed")
    else:
        note = "LLC size unknown; no bandwidth figure is claimed"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "optics_cp": oc.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cache_bytes": caches,
        "bandwidth_note": note,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def probe(name: str, entry: int) -> tuple[float, float, object]:
    """Set-up seconds, peak RSS (MiB) and output digest of one fresh process."""
    cmd = [sys.executable, str(common.BENCH_DIR / "setup_child.py"), name, str(entry)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=common.ROOT) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        # read through the same buffered stream: readline may already hold the rest
        rest = proc.stdout.read()
        proc.wait(timeout=170)
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} entry {entry} failed "
                           f"(exit {proc.returncode})")
    result = json.loads(rest.strip().splitlines()[-1])
    return setup, result["rss_kib"] / 1024.0, result["digest"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed


def setup_probes(wl, order, tally: Tally, ref: dict, meter):
    """Set-up seconds (raw, reference-speed) and peak RSS of fresh processes."""
    raw, rss, boundaries = [], [], [meter.sample()]
    for _ in range(SETUP_PROBES):
        entry = next(order)
        if isinstance(wl, common.AnalyzeWorkload):
            wl.write_input(entry)
        try:
            s, mib, digest = probe(wl.name, entry)
        except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            per = 1 if isinstance(wl, common.AnalyzeWorkload) else len(wl.presets) * wl.runs
            tally.add(per, per)
            continue
        finally:
            if isinstance(wl, common.AnalyzeWorkload):
                wl.cleanup(entry)
        boundaries.append(meter.sample())
        raw.append(s)
        rss.append(mib)
        if isinstance(wl, common.AnalyzeWorkload):
            tally.add(1, common.analyze_failures(ref, wl, entry, digest))
        else:
            for preset in wl.presets:
                tally.add(wl.runs, common.simulate_failures(ref, wl, preset, entry, digest[preset]))
    setups = [s / i for s, i in zip(raw, common.interval_indices(boundaries))]
    return raw, setups, rss


def analyze_op(wl, cli, ref, entry: int, tally: Tally) -> tuple[float, bytes | None]:
    wl.write_input(entry)
    t0 = time.perf_counter()
    try:
        out = wl.call(cli, entry)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        out = None
    elapsed = time.perf_counter() - t0
    wl.cleanup(entry)
    tally.add(1, 1 if out is None else common.analyze_failures(ref, wl, entry, wl.digest(out)))
    return elapsed, out


def sim_cycle(wl, oc, ref, cycle: int, tally: Tally, threads: int = common.SIM_THREADS):
    """One call per preset; returns (seconds inside the calls, digests)."""
    busy = 0.0
    digests = {}
    for preset in wl.presets:
        t0 = time.perf_counter()
        try:
            report = wl.call(oc, preset, cycle, threads)
        except (ValueError, ArithmeticError, oc.OpticsError) as exc:
            print(f"error: {preset} cycle {cycle}: {exc}", file=sys.stderr)
            busy += time.perf_counter() - t0
            tally.add(wl.runs, wl.runs)
            continue
        busy += time.perf_counter() - t0
        digests[preset] = wl.digest(report)
        tally.add(wl.runs, common.simulate_failures(ref, wl, preset, cycle, digests[preset]))
    return busy, digests


def measure(wl, oc, order, seconds: float, ref: dict, tally: Tally) -> dict:
    """End-to-end metrics, tracing off.

    Every timed operation and set-up probe is bracketed by SpeedMeter
    samples; its wall time divided by the local speed index is its
    reference-speed time, which the metrics report.  Raw wall times are
    printed beside them.
    """
    meter = common.SpeedMeter(wl.speed, wl.elasticity)
    raw_setups, setups, rss = setup_probes(wl, order, tally, ref, meter)
    if not setups:
        raise SystemExit("every set-up probe failed")
    if isinstance(wl, common.AnalyzeWorkload):
        from optics_cp import cli

        def op():
            return analyze_op(wl, cli, ref, next(order), tally)[0], 1

        unit = "analysis"
    else:
        per_cycle = len(wl.presets) * wl.runs

        def op():
            return sim_cycle(wl, oc, ref, next(order), tally)[0], per_cycle

        unit = "Monte Carlo run (cycle time / runs in the cycle)"
    op()  # warm-up, untimed
    raw, counts, boundaries = [], [], [meter.sample()]
    start = time.perf_counter()
    while not raw or time.perf_counter() - start < seconds:
        elapsed, count = op()
        boundaries.append(meter.sample())
        raw.append(elapsed / count)
        counts.append(count)
    indices = common.interval_indices(boundaries)
    samples = [r / i for r, i in zip(raw, indices)]
    busy = sum(s * c for s, c in zip(samples, counts))
    done = sum(counts)
    tail_value, tail_pct = tail(samples)
    return {
        "metrics": {
            "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "throughput_ops_per_s": (done / busy, "1/s"),
            "peak_rss_mib": (statistics.median(rss), "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        },
        "notes": {
            "latency_p50_ms": f"median of {len(samples)} samples, one per {unit}; "
                              f"raw wall {statistics.median(raw) * 1e3:.1f} ms",
            "latency_tail_ms": f"p{tail_pct:.1f} of {len(samples)} samples, "
                               f"{min(10, len(samples) - 1)} beyond it; "
                               f"raw wall {tail(raw)[0] * 1e3:.1f} ms",
            "throughput_ops_per_s": f"{done} operations in {busy:.3f} reference-speed s "
                                    "inside the package",
            "peak_rss_mib": "median peak RSS (VmHWM) of %d fresh processes: %s" % (
                len(rss), ", ".join(f"{x:.1f}" for x in rss)),
            "setup_s": "median of %d fresh processes (start, import, first operation); "
                       "raw wall %s" % (len(setups), ", ".join(f"{x:.3f}" for x in raw_setups)),
        },
        "speed_index": (statistics.median(indices), min(indices), max(indices)),
        "samples": {"wall_s": raw, "speed_index": indices, "meter_samples": boundaries,
                    "setup_wall_s": raw_setups},
    }


def trace_analyze(wl, oc, order, seconds: float, ref: dict, tally: Tally, tr, acc):
    import replay
    from optics_cp import cli

    # same input twice must give identical bytes
    entry = next(order)
    _, first = analyze_op(wl, cli, ref, entry, tally)
    _, second = analyze_op(wl, cli, ref, entry, tally)
    same = first is not None and first == second
    tally.add(1, 0 if same else 1)
    if not same:
        acc.problems.append(f"entry {entry}: two identical calls gave different bytes")

    ops = tries = 0
    start = time.perf_counter()
    while tries == 0 or time.perf_counter() - start < seconds:
        tries += 1
        entry = next(order)
        data = wl.write_input(entry)
        tr.op = entry
        with tr.span("cli.main") as s_cli:
            try:
                out = wl.call(cli, entry)
            except (RuntimeError, OSError) as exc:
                acc.problems.append(f"entry {entry}: {exc}")
                out = None
        wl.cleanup(entry)
        if out is None:
            tally.add(1, 1)
            continue
        # a wrong output still gets replayed, so the per-layer figures exist
        ok = not common.analyze_failures(ref, wl, entry, wl.digest(out))
        if not ok:
            acc.problems.append(f"entry {entry}: output differs from reference.json")
        doc = json.loads(out)
        k_max = doc["config"]["k_max"]
        with tr.span("library.optics") as s_lib:
            cs_lib, _ = oc.optics(oc.TimeSeries(data), oc.ScoreModel("mean"),
                                  oc.DetectorKind(wl.detector, min_seg=common.MIN_SEG),
                                  oc.CandidateSet(k_max), common.ALPHA,
                                  oc.BootstrapConfig(b_reps=common.B_REPS, seed=entry))
        if list(cs_lib.members) != doc["confidence_set"]["members"]:
            acc.problems.append(f"entry {entry}: library call and CLI disagree")
            ok = False
        mult = common.philox_multipliers(entry, common.B_REPS, len(data) // 2)
        cells_before = (acc.n["dp_cells"], acc.n["bootstrap_flops"])
        cs, r, root = replay.replay_analyze(tr, acc, oc, data, wl.detector, k_max, entry, mult)
        del mult
        acc.group_counts.add((acc.n["dp_cells"] - cells_before[0],
                              acc.n["bootstrap_flops"] - cells_before[1]))
        ok = replay.check_analyze(acc, doc, cs, r, f"entry {entry}") and ok
        acc.s["cli_overhead_s"] += replay.duration(s_cli) - replay.duration(s_lib)
        acc.s["untraced_s"] += replay.duration(s_lib)
        acc.s["traced_s"] += replay.duration(root)
        tally.add(1, 0 if ok else 1)
        ops += 1
    return ops


def trace_simulate(wl, oc, order, seconds: float, ref: dict, tally: Tally, tr, acc):
    import replay

    ops = 0
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        cycle = next(order)
        before = (acc.n["dp_cells"], acc.n["bootstrap_flops"])
        for preset in wl.presets:
            tr.op = f"{preset}/{cycle}"
            with tr.span("sim.run_experiment") as s_run:
                try:
                    report = wl.call(oc, preset, cycle)
                except (ValueError, ArithmeticError, oc.OpticsError) as exc:
                    acc.problems.append(f"{preset} cycle {cycle}: {exc}")
                    report = None
            if report is None:
                tally.add(wl.runs, wl.runs)
                continue
            bad = common.simulate_failures(ref, wl, preset, cycle, wl.digest(report))
            acc.s["untraced_s"] += replay.duration(s_run)
            for r_i, record in enumerate(report.records):
                run_seed = wl.seed(cycle) ^ r_i
                mults = replay.sim_multipliers(oc, preset, run_seed, common.philox_multipliers)
                members, p_hat, fused, root = replay.replay_sim_run(
                    tr, acc, oc, preset, run_seed, report.k_max, mults)
                acc.s["traced_s"] += replay.duration(root)
                if not replay.check_sim_run(acc, record, members, p_hat, fused,
                                            f"{preset} cycle {cycle} run {r_i}"):
                    bad += 1
            tally.add(wl.runs, min(bad, wl.runs))
            ops += wl.runs
        acc.group_counts.add((acc.n["dp_cells"] - before[0], acc.n["bootstrap_flops"] - before[1]))

    # untraced thread scaling; threads must not change the output
    busy = {1: 0.0, 2: 0.0}
    for round_ in range(SIM_SPEEDUP_ROUNDS):
        cycle = next(order)
        digests = {}
        for threads in ((1, 2) if round_ % 2 == 0 else (2, 1)):
            elapsed, digests[threads] = sim_cycle(wl, oc, ref, cycle, tally, threads)
            busy[threads] += elapsed
        same = digests[1] == digests[2]
        tally.add(1, 0 if same else 1)
        if not same:
            acc.problems.append(f"cycle {cycle}: threads=1 and threads=2 outputs differ")
    acc.s["thread_speedup"] = busy[1] / busy[2]
    return ops


PER_LAYER = [
    # name, unit, how it is measured
    ("scores.transform_s", "s", "self time of transform, per operation"),
    ("core.split_s", "s", "self time of odd_even_split + order_preserving_l_split, per operation"),
    ("core.dropped_points", "count", "odd tail + L-split remainder dropped, per operation"),
    ("detectors.fit_s", "s", "self time of fit_all_candidates on the odd half, per operation"),
    ("detectors.dp_cells", "count", "computed: admissible (j, t, s) sn cells, per operation"),
    ("detectors.cells_per_s", "1/s", "computed cells of timed sn fits / their fit time"),
    ("inference.criterion_s", "s", "self time of criterion, all candidates, per operation"),
    ("inference.multipliers_s", "s", "seeded minus injected bootstrap_pvalue, once per split"),
    ("inference.multiplier_bytes", "bytes", "computed: B * n_half * 8, largest in the run"),
    ("inference.bootstrap_s", "s", "self time of xi_matrix + test_statistic + injected "
                                   "bootstrap_pvalue, per operation"),
    ("inference.bootstrap_flops", "flop", "computed: 2 K (K-1) n_half B, per operation"),
    ("inference.gflops_per_s", "GFLOP/s", "computed flops of timed chains / inference.bootstrap_s"),
    ("inference.zero_variance_rivals", "count", "rows with sigma_hat == 0, per operation"),
    ("inference.fallback_ratio", "ratio", "share of operations whose set used the fallback"),
    ("inference.p_at_grid_ends", "count", "per-split p-values equal to 0 or 1, per operation"),
    ("ext.combine_s", "s", "self time of cauchy_combine, per operation"),
    ("ext.splits", "count", "L, per operation"),
    ("sim.generate_s", "s", "self time of generate, per operation"),
    ("sim.thread_speedup", "ratio", "untraced cycle time at threads=1 / threads=2"),
    ("cli.overhead_s", "s", "cli.main minus the library call on the same input, per operation"),
    ("unattributed_s", "s", "replay span minus its child spans, per operation"),
    ("trace.overhead_ratio", "ratio", "replay time / untraced library time on the same input"),
]

APPLIES = {
    "detectors.dp_cells": ("analyze_sn_16k", "simulate_mix"),
    "detectors.cells_per_s": ("analyze_sn_16k", "simulate_mix"),
    "ext.combine_s": ("simulate_mix",),
    "sim.generate_s": ("simulate_mix",),
    "sim.thread_speedup": ("simulate_mix",),
    "cli.overhead_s": ("analyze_sn_16k", "analyze_bs_64k"),
}


def layer_metrics(tr, acc, ops: int) -> dict:
    ops = max(ops, 1)  # every operation raised: report totals, the run is already failed
    st = tr.self_times()
    fit = st["detectors.fit_all_candidates"]
    boot = (st["inference.xi_matrix"] + st["inference.test_statistic"]
            + st["inference.bootstrap_pvalue.injected"])
    values = {
        "scores.transform_s": st["scores.transform"] / ops,
        "core.split_s": (st["core.odd_even_split"] + st["core.order_preserving_l_split"]) / ops,
        "core.dropped_points": acc.n["dropped_points"] / ops,
        "detectors.fit_s": fit / ops,
        "detectors.dp_cells": acc.n["dp_cells"] / ops,
        "detectors.cells_per_s": acc.n["dp_cells_timed"] / fit if fit else 0.0,
        "inference.criterion_s": st["inference.criterion"] / ops,
        "inference.multipliers_s": acc.s["multipliers_s"] / ops,
        "inference.multiplier_bytes": acc.n["multiplier_bytes"],
        "inference.bootstrap_s": boot / ops,
        "inference.bootstrap_flops": acc.n["bootstrap_flops"] / ops,
        "inference.gflops_per_s": acc.n["bootstrap_flops_timed"] / boot / 1e9 if boot else 0.0,
        "inference.zero_variance_rivals": acc.n["zero_variance_rivals"] / ops,
        "inference.fallback_ratio": acc.n["fallback"] / ops,
        "inference.p_at_grid_ends": acc.n["p_at_grid_ends"] / ops,
        "ext.combine_s": st["ext.cauchy_combine"] / ops,
        "ext.splits": acc.n["splits"] / ops,
        "sim.generate_s": st["sim.generate"] / ops,
        "sim.thread_speedup": acc.s["thread_speedup"],
        "cli.overhead_s": acc.s["cli_overhead_s"] / ops,
        "unattributed_s": st["replay"] / ops,
        "trace.overhead_ratio": acc.s["traced_s"] / acc.s["untraced_s"],
    }
    layers = {}
    for name, secs in st.items():
        if name in ("replay", "cli.main", "library.optics", "sim.run_experiment"):
            continue
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + secs / ops
    layers["cli"] = values["cli.overhead_s"]
    layers["unattributed"] = values["unattributed_s"]
    return values, layers


def write_out(name: str, doc: dict) -> str:
    common.OUT.mkdir(parents=True, exist_ok=True)
    path = common.OUT / name
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path.relative_to(common.ROOT))


def write_trace(workload: str, seed: int, env: dict, tr, payload: dict) -> str:
    t0 = tr.spans[0]["start"] if tr.spans else 0.0
    spans = [{**s, "start": round(s["start"] - t0, 7), "end": round(s["end"] - t0, 7)}
             for s in tr.spans]
    return write_out(f"trace-{workload}-seed{seed}.json",
                     {"workload": workload, "seed": seed, "environment": env,
                      **payload, "spans": spans})


def run_traced(wl, oc, order, seconds: float, ref: dict, tally: Tally, env: dict, seed: int):
    import logging

    import replay

    # odd_even_split warns on odd lengths, which the pipeline drops silently;
    # the replay counts them in core.dropped_points instead
    logging.getLogger("optics_cp.core").setLevel(logging.ERROR)
    tr, acc = replay.Tracer(), replay.Counts()
    if isinstance(wl, common.AnalyzeWorkload):
        ops = trace_analyze(wl, oc, order, seconds, ref, tally, tr, acc)
    else:
        ops = trace_simulate(wl, oc, order, seconds, ref, tally, tr, acc)
    if len(acc.group_counts) > 1:
        acc.problems.append(f"computed counts differ between groups: {sorted(acc.group_counts)}")
        tally.add(1, 1)
    values, layers = layer_metrics(tr, acc, ops)
    units = {name: unit for name, unit, _ in PER_LAYER}
    print(f"traced operations: {ops} ({'analyses' if isinstance(wl, common.AnalyzeWorkload) else 'Monte Carlo runs'})")
    print("per-layer metrics (computed = counted from sizes, not measured):")
    for name, unit, how in PER_LAYER:
        applies = APPLIES.get(name)
        if applies and wl.name not in applies:
            print(f"  {name:32s} {'n/a':>14s} {unit:8s} not exercised by {wl.name}; reported as 0")
            values[name] = 0.0
        else:
            print(f"  {name:32s} {values[name]:14.6g} {unit:8s} {how}")
    print("layer self time per operation (s):")
    for layer in sorted(layers):
        print(f"  {layer:14s} {layers[layer]:.6f}")
    print("notes:")
    print("  coverage_ro runs are replayed as one ext.h_optics span (Huber row fits have no "
          "public entry point); its detector, criterion and bootstrap time count there, not "
          "in detectors.* or inference.*; its sn cells and flops are still counted")
    print("  trace.overhead_ratio includes the replay's extra work: a second multiplier "
          "generation per split and xi_matrix refitting every rival; on simulate_mix its "
          "base is run_experiment at threads=2, slower than the serial replay whenever "
          "sim.thread_speedup < 1, so the ratio can fall below 1")
    print(f"  {replay.FUSED_NOTE}")
    for problem in acc.problems[:20]:
        print(f"  problem: {problem}")
    trace_path = write_trace(wl.name, seed, env, tr, {
        "per_layer": values, "layer_self_s": layers, "problems": acc.problems,
        "operations": ops})
    print(f"spans written to {trace_path}")
    return {name: (values[name], units[name]) for name, _, _ in PER_LAYER}, not acc.problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_source():
        print(f"error: no optics_cp source under {common.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.chdir(common.ROOT)
    oc = common.import_package()
    ref = common.load_reference()
    wl = common.WORKLOADS[args.workload]
    order = itertools.cycle(common.visit_order(args.seed, wl.pool))
    env = environment(oc)
    tally = Tally()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          "(closed loop, one client)")
    for key, value in env.items():
        print(f"  {key}: {value}")
    try:
        if args.trace:
            metrics, replay_ok = run_traced(wl, oc, order, args.seconds, ref, tally, env, args.seed)
        else:
            result = measure(wl, oc, order, args.seconds, ref, tally)
            metrics, replay_ok = result["metrics"], True
            print("  speed index (1.0 = reference machine) median %.3f, range %.3f-%.3f; "
                  "times below are wall time / index" % result["speed_index"])
            path = write_out(f"measure-{wl.name}-seed{args.seed}.json",
                             {"workload": wl.name, "seed": args.seed, "environment": env,
                              **result["samples"]})
            print(f"  per-operation samples written to {path}")
            for name, (value, unit) in metrics.items():
                print(f"  {name:22s} {value:12.4f} {unit:4s} {result['notes'][name]}")
    finally:
        for leftover in common.WORK.glob(f"{wl.name}-*"):
            leftover.unlink()
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_ratio':22s} {ratio:12.4f} {'-':4s} {tally.failed} failed of "
          f"{tally.attempted} attempted (raised, non-zero exit, or output differs from "
          "reference.json)")
    print(json.dumps({
        "correct": tally.failed == 0 and replay_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
