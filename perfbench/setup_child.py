"""Fresh-process probe for set-up time and peak RSS.

Usage: python3 perfbench/setup_child.py <workload> <pool entry>

Imports optics_cp, runs the workload's first operation and prints
``ready`` so the parent can time set-up from process start.  For
``simulate_mix`` it then finishes the cycle, so every preset runs once.
The last line is JSON with the output digests and the process's peak
RSS in KiB.  An analyze input must already be written.
"""

import json
import resource

import common


def peak_rss_kib() -> int:
    """This process's own peak RSS.

    ``VmHWM`` belongs to the address space exec created.  ``ru_maxrss`` is
    only the fallback: Linux carries it across exec, so it can report the
    parent's RSS at spawn time instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> None:
    name, entry = argv[0], int(argv[1])
    wl = common.WORKLOADS[name]
    oc = common.import_package()
    if isinstance(wl, common.AnalyzeWorkload):
        from optics_cp import cli

        digest = wl.digest(wl.call(cli, entry))
        print("ready", flush=True)
    else:
        digest = {}
        for j, preset in enumerate(wl.presets):
            digest[preset] = wl.digest(wl.call(oc, preset, entry))
            if j == 0:
                print("ready", flush=True)
    print(json.dumps({"rss_kib": peak_rss_kib(), "digest": digest}), flush=True)


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
