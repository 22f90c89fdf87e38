"""Repeat the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --seeds 1-10 [--workload NAME ...] [--traced]
                                 [--out perfbench/out/collect.json]

For every workload it runs ``run.py --trace 0`` once per seed and reports,
per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the quartile distance as a share
of the median.  ``--traced`` adds one ``--trace 1`` run per workload, on
the first seed.  Runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def environment(workload: str, seed: int) -> dict:
    """The environment record run.py wrote beside its samples for this run."""
    path = BENCH_DIR / "out" / f"measure-{workload}-seed{seed}.json"
    return json.loads(path.read_text(encoding="utf-8"))["environment"]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None, "values": values}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "collect.json"))
    args = parser.parse_args()
    seed_list = seeds(args.seeds)
    if len(seed_list) < 2:
        parser.error("--seeds needs at least two seeds to give quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results, walls = [], []
        for seed in seed_list:
            result, wall = run(workload, seed, bench["run_seconds"], 0)
            results.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "environment": environment(workload, seed_list[0]),
            "seeds": seed_list,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_wall_s": spread(walls),
            "end_to_end": {},
        }
        for name in bounds:
            s = spread([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"  {name:22s} median {s['median']:.4f} {s['unit']}  "
                  f"IQR/median {s['iqr_share']:.4f}  (bound {bounds[name]})", flush=True)
        print(f"  {'error_ratio':22s} {entry['failed'] / entry['attempted']:.4f} -  "
              f"{entry['failed']} failed of {entry['attempted']} attempted", flush=True)
        if args.traced:
            result, wall = run(workload, seed_list[0], bench["run_seconds"], 1)
            entry["traced"] = {"seed": seed_list[0], "wall_s": wall, **result}
            print(f"  traced run: correct={result['correct']} {wall:.1f} s", flush=True)
        summary["workloads"][workload] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
