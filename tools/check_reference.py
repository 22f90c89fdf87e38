"""Run every pool entry of the benchmark's workloads once and compare each
output with ``perfbench/reference.json``.

Usage: python3 tools/check_reference.py [--workload NAME ...]

A timed benchmark run visits only as much of the pool as its seconds
allow, so a count that flips at a near-tie on one entry can go unseen;
this sweep visits all of it: 128 inputs per analyze workload and all 64
``simulate_mix`` cycles.  It prints one line per workload and exits 1 if
any output differs from the reference.  It uses the benchmark's own
inputs, calls and digests (``perfbench/common.py``) and nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import common  # noqa: E402


def sweep(wl, oc, ref: dict) -> tuple[int, int]:
    """(outputs compared, outputs that differ) over the workload's whole pool."""
    if isinstance(wl, common.AnalyzeWorkload):
        from optics_cp import cli

        bad = 0
        for i in range(wl.pool):
            wl.write_input(i)
            try:
                bad += common.analyze_failures(ref, wl, i, wl.digest(wl.call(cli, i)))
            finally:
                wl.cleanup(i)
        return wl.pool, bad
    done = bad = 0
    for cycle in range(wl.pool):
        for preset in wl.presets:
            digest = wl.digest(wl.call(oc, preset, cycle))
            bad += common.simulate_failures(ref, wl, preset, cycle, digest)
            done += len(digest["runs"])
    return done, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(common.WORKLOADS),
                        help="a workload to sweep (repeatable); default: all of them")
    args = parser.parse_args(argv)
    os.chdir(common.ROOT)  # the analyze inputs are named relative to the checkout
    oc = common.import_package()
    ref = common.load_reference()
    failed = 0
    for name in args.workload or sorted(common.WORKLOADS):
        t0 = time.perf_counter()
        done, bad = sweep(common.WORKLOADS[name], oc, ref)
        failed += bad
        print(f"{name}: {bad} of {done} outputs differ from reference.json "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
