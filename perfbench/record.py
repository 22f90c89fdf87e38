"""Record reference.json: the output digest of every pool entry.

Usage (from the root of a checkout): python3 perfbench/record.py [WORKLOAD ...]

The benchmark counts every later difference from these digests as a
failed operation, so record only on a commit whose outputs are trusted,
and again only when the benchmark's inputs change.  With no arguments
every workload is recorded; named workloads replace only their entries.
"""

import json
import sys
import time

import common


def main(names: list[str]) -> None:
    oc = common.import_package()
    from optics_cp import cli

    ref = common.load_reference() if common.REFERENCE.exists() else {}
    for name in names or sorted(common.WORKLOADS):
        wl = common.WORKLOADS[name]
        t0 = time.perf_counter()
        if isinstance(wl, common.AnalyzeWorkload):
            entries = []
            for i in range(wl.pool):
                wl.write_input(i)
                entries.append(wl.digest(wl.call(cli, i)))
                wl.cleanup(i)
        else:
            entries = {preset: [wl.digest(wl.call(oc, preset, c)) for c in range(wl.pool)]
                       for preset in wl.presets}
        ref[name] = entries
        print(f"{name}: {wl.pool} entries in {time.perf_counter() - t0:.1f} s", flush=True)
    common.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
