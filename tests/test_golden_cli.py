"""Golden corpus: the CLI's output must stay byte-identical across refactors.

Each capture runs ``optics-cp`` in process on seeded inputs and compares
the sha256 of its stdout, or of one file it writes with ``--output``,
with ``tests/golden_cli.json``.  Simulate's ``.csv`` is hashed without
its per-run ``seconds`` column, the one value that is not deterministic.
The hashes hold for the numpy version recorded there; on another numpy
build the test skips, since GEMM and RNG bits may legitimately differ.  To record the
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


def _analyze_argv(model: str, variant: str, detector: str, fmt: str) -> list[str]:
    return ["analyze", "--input", INPUTS[model], "--model", model, "--variant", variant,
            "--detector", detector, "--format", fmt,
            "--B", "200", "--seed", "11", "--min-seg", "10"]


def _simulate_argv(preset: str) -> list[str]:
    return ["simulate", "--preset", preset, "--runs", "3", "--B", "100", "--seed", "5"]


def _captures() -> dict[str, tuple[list[str], str | None]]:
    """Each capture's argv and the file it hashes (None: stdout)."""
    out = {}
    for model in INPUTS:
        for variant in VARIANTS:
            for detector in ("bs", "sn"):
                for fmt in ("json", "csv"):
                    out[f"analyze/{model}/{variant}/{detector}/{fmt}"] = (
                        _analyze_argv(model, variant, detector, fmt), None)
        for variant in ("plain", "ms:2"):
            for fmt in ("json", "csv"):
                out[f"analyze-output/{model}/{variant}/sn/{fmt}"] = (
                    _analyze_argv(model, variant, "sn", fmt) + ["--output", "out"], "out")
    for preset in PRESETS:
        out[f"simulate/{preset}"] = (_simulate_argv(preset), None)
        for suffix in (".json", ".csv"):
            out[f"simulate-output/{preset}{suffix}"] = (
                _simulate_argv(preset) + ["--output", "out"], "out" + suffix)
    return out


CAPTURES = _captures()


def _without_seconds(text: str) -> str:
    """A simulate CSV without its ``seconds`` column; no cell holds a comma."""
    rows = [ln.split(",") for ln in text.split("\n")]
    col = rows[0].index("seconds")
    return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)


def _sha(argv: list[str], path: str | None) -> str:
    """sha256 of the capture's stdout, or of the file ``path`` it writes."""
    if path is not None:  # a stale file from an earlier capture must not pass
        Path(path).unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    text = buf.getvalue()
    if path is not None:
        assert text == "", f"{argv} wrote to stdout"
        text = Path(path).read_text(encoding="utf-8")
        if argv[0] == "simulate" and path.endswith(".csv"):
            text = _without_seconds(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    argv, path = CAPTURES[name]
    assert _sha(argv, path) == golden[name], f"{path or 'stdout'} of {name} changed"


def _analysis(variant: str):
    """Candidates, confidence set and COPSS estimate of one analysis of the mean table."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(_analyze_argv("mean", variant, "sn", "json")) == 0
    doc = json.loads(buf.getvalue())
    return doc["candidates"], doc["confidence_set"], doc["copss"]


# mdep:m is the (m + 1)-way split of ms:(m + 1), and one split is the plain pipeline
@pytest.mark.parametrize("variant, same_as", [
    ("mdep:0", "ms:1"), ("mdep:1", "ms:2"), ("mdep:2", "ms:3"), ("ms:1", "plain"),
])
def test_variants_that_are_the_same_pipeline(variant, same_as, corpus_dir, monkeypatch):
    monkeypatch.chdir(corpus_dir)
    assert _analysis(variant) == _analysis(same_as)


def test_analyze_bytes_independent_of_openblas_threads(corpus_dir):
    # B = 4000 makes three chunks at this size, so two BLAS threads become two
    # bootstrap threads; OpenBLAS caps the count at the cores it finds
    argv = CAPTURES["analyze/mean/plain/sn/json"][0][:]
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
            hashes = {name: _sha(*capture) for name, capture in sorted(CAPTURES.items())}
        finally:
            os.chdir(cwd)
    doc = {"numpy": np.__version__, "sha256": hashes}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
