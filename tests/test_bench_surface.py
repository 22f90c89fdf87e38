"""The benchmark in ``perfbench/`` drives the package through public names
and the ``analyze`` command line.  These tests read the benchmark's
sources, without editing them, so that removing a name or an option it
relies on fails here rather than in a traced benchmark replay."""

import functools
import importlib.util
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import optics_cp
from optics_cp.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _bench_common():
    spec = importlib.util.spec_from_file_location("perfbench_common", PERFBENCH / "common.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_package_name_the_benchmark_uses_exists():
    # the benchmark binds the package to ``oc``; \b keeps out names like proc.wait
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= set(re.findall(r"\boc\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert {"fit_all_candidates", "bootstrap_pvalue", "cauchy_combine"} <= names
    assert sorted(n for n in names if not hasattr(optics_cp, n)) == []
    common = _bench_common()
    assert set(common.SIM_PRESETS) <= set(optics_cp.PRESETS)


def _analyze(wl, i: int, root: Path) -> bytes:
    """Pool entry i of ``wl`` through the command line, run in ``root``: the
    output bytes.  The argv's paths are relative to the checkout root."""
    csv_path, out_path = wl.paths(i)
    (root / csv_path).parent.mkdir(parents=True, exist_ok=True)
    (root / csv_path).write_text(wl.values(i)[0], encoding="utf-8")
    assert main(wl.argv(i)) == 0, (wl.name, i)
    return (root / out_path).read_bytes()


def test_cli_accepts_the_benchmark_analyze_argv(tmp_path, monkeypatch):
    common = _bench_common()
    monkeypatch.chdir(tmp_path)
    for name in ("analyze_sn_16k", "analyze_bs_64k"):
        assert _analyze(replace(common.WORKLOADS[name], n=400), 0, tmp_path).startswith(b"{")


def _match_reference(name: str, root: Path) -> None:
    """Two full-size pool entries of workload ``name`` through the command line,
    against the digests the benchmark checks every operation with; its files
    are only read."""
    common = _bench_common()
    numpy_version = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())["numpy"]
    if np.__version__ != numpy_version:
        pytest.skip(f"reference.json was recorded with numpy {numpy_version}")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    wl = common.WORKLOADS[name]
    for i in (0, 1):
        assert wl.digest(_analyze(wl, i, root)) == reference[wl.name][i], i


def test_analyze_sn_16k_entries_match_the_benchmark_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _match_reference("analyze_sn_16k", tmp_path)


def test_analyze_bs_64k_entries_match_the_benchmark_reference(tmp_path, monkeypatch):
    # the bootstrap's pair rows, gathered with a sign, against p-values the
    # benchmark recorded before; 64,000 rows, so K = 10 candidates
    monkeypatch.chdir(tmp_path)
    _match_reference("analyze_bs_64k", tmp_path)
