"""Golden corpus: the CLI's stdout must stay byte-identical across refactors.

Each capture runs ``optics-cp`` in process on seeded inputs and compares
the sha256 of its stdout with ``tests/golden_cli.json``.  The hashes hold
for the numpy version recorded there; on another numpy build the test
skips, since GEMM and RNG bits may legitimately differ.  To record the
corpus again (only when a change is meant to move output bytes):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optics_cp
from optics_cp.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
VARIANTS = ("plain", "ms:2", "ms:3", "huber:1.5", "huber:adaptive", "mdep:1", "mdep:2")
PRESETS = ("tab1", "tab5", "tab7", "coverage_ro", "vary_m", "vary_n")
INPUTS = {"mean": "mean.csv", "regression": "regression.csv"}


def _write_inputs(directory: Path) -> None:
    """A 601-row two-column mean-shift table and a 500-row regression table
    (response plus two covariates), written with fixed formatting."""
    rng = np.random.default_rng(20261018)
    level = 1.2 * (-1.0) ** (np.arange(601) // 150)
    mean = level[:, None] * np.array([1.0, -0.5]) + rng.standard_normal((601, 2))
    x = rng.standard_normal((500, 2))
    beta = 0.8 * (-1.0) ** (np.arange(500) // 125)
    y = x[:, 0] * beta + x[:, 1] * 0.5 + rng.standard_normal(500)
    for name, table in (("mean", mean), ("regression", np.column_stack([y, x]))):
        lines = [",".join(f"{v:.6f}" for v in row) for row in table]
        (directory / INPUTS[name]).write_text("\n".join(lines) + "\n", encoding="ascii")


def _captures() -> dict[str, list[str]]:
    out = {}
    for model, path in INPUTS.items():
        for variant in VARIANTS:
            for detector in ("bs", "sn"):
                for fmt in ("json", "csv"):
                    out[f"analyze/{model}/{variant}/{detector}/{fmt}"] = [
                        "analyze", "--input", path, "--model", model, "--variant", variant,
                        "--detector", detector, "--format", fmt,
                        "--B", "200", "--seed", "11", "--min-seg", "10",
                    ]
    for preset in PRESETS:
        out[f"simulate/{preset}"] = ["simulate", "--preset", preset, "--runs", "3",
                                     "--B", "100", "--seed", "5"]
    return out


CAPTURES = _captures()


def _stdout_sha(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if doc["numpy"] != np.__version__:
        pytest.skip(f"golden hashes were recorded with numpy {doc['numpy']}, "
                    f"this is numpy {np.__version__}")
    return doc["sha256"]


def test_golden_corpus_covers_every_capture(golden):
    assert sorted(golden) == sorted(CAPTURES)


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_golden_cli_output(name, golden, corpus_dir, monkeypatch):
    # inputs are passed by relative path, which analyze echoes in its output
    monkeypatch.chdir(corpus_dir)
    assert _stdout_sha(CAPTURES[name]) == golden[name], f"stdout of {name} changed"


def test_analyze_bytes_independent_of_openblas_threads(corpus_dir):
    # B = 4000 makes three chunks at this size, so two BLAS threads become two
    # bootstrap threads; OpenBLAS caps the count at the cores it finds
    argv = CAPTURES["analyze/mean/plain/sn/json"][:]
    argv[argv.index("--B") + 1] = "4000"
    src = str(Path(optics_cp.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "optics_cp"] + argv, cwd=corpus_dir, env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            hashes = {name: _stdout_sha(argv) for name, argv in sorted(CAPTURES.items())}
        finally:
            os.chdir(cwd)
    doc = {"numpy": np.__version__, "sha256": hashes}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
