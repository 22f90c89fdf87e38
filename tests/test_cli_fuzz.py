"""Property tests: any CSV text ends in a documented exit code, never a traceback."""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from optics_cp.cli import _read_csv, main  # noqa: E402
from optics_cp.errors import ParseError  # noqa: E402
from optics_cp.scores import FAMILIES  # noqa: E402

_SETTINGS = dict(deadline=None, derandomize=True, database=None)

_ODD_TOKENS = ["", " ", "nan", "-inf", "Infinity", "1e309", "-1e-320", "x", "0x10",
               "1_0", "\t2 ", "+.5", "1e400", "٣", "1,5"]
_TOKEN = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=True, allow_infinity=True, width=64).map(repr),
    st.sampled_from(_ODD_TOKENS),
)
_FREE_TEXT = st.one_of(
    st.lists(st.lists(_TOKEN, min_size=1, max_size=4).map(",".join), max_size=60)
    .map("\n".join),
    st.text(max_size=120),
)


@st.composite
def _numeric_csv(draw):
    """Mostly well-formed tables, so runs reach the pipeline."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(40, 60)))
    d = draw(st.integers(1, 4))
    value = st.one_of(st.integers(-3, 3), st.floats(-1e6, 1e6, width=64))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-300, 1e150]))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    lines = [",".join(repr(float(v) * scale) for v in row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"c{j}" for j in range(d)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))


# tokens float() reads as numbers, but not plain ASCII decimal or scientific notation
_UNPLAIN = ["1_0", "1_000.5", "1e1_0", "\u0663", "\u0661\u0662", "-\u0662", "\uff11",
            "\u00a02", "\u20072.5"]


@st.composite
def _scaled_pair(draw):
    """One numeric table as CSV text, unscaled and scaled by 1e150 or 1e200."""
    n = draw(st.integers(10, 60))
    d = draw(st.integers(1, 3))
    value = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3, width=64))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1e150, 1e200]))

    def text(s):
        return "\n".join(",".join(repr(float(v) * s) for v in row) for row in rows) + "\n"

    return text(1.0), text(scale)


def _write(tmp, text):
    path = os.path.join(tmp, "data.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=100, **_SETTINGS)
@given(text=st.one_of(_FREE_TEXT, _numeric_csv()))
def test_read_csv_returns_finite_rows_or_parse_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            data = _read_csv(_write(tmp, text))
        except ParseError:
            return
    assert data.ndim == 2 and data.shape[0] >= 1 and data.shape[1] >= 1
    assert np.isfinite(data).all()


@settings(max_examples=150, **_SETTINGS)
@given(
    text=st.integers(0, 3).flatmap(lambda i: _FREE_TEXT if i == 0 else _numeric_csv()),
    model=st.sampled_from(FAMILIES),
    detector=st.sampled_from(["bs", "sn"]),
    variant=st.sampled_from(["plain", "ms:2", "huber:1.5", "huber:adaptive", "mdep:1"]),
    b_reps=st.integers(1, 20),
    k_max=st.sampled_from([None, None, 1, 2, 3, 0]),
    min_seg=st.sampled_from([2, 2, 3, 5]),
    fmt=st.sampled_from(["json", "csv"]),
)
def test_analyze_any_csv_ends_in_documented_exit(text, model, detector, variant, b_reps,
                                                 k_max, min_seg, fmt):
    argv = ["--model", model, "--detector", detector, "--variant", variant,
            "--B", str(b_reps), "--min-seg", str(min_seg), "--format", fmt,
            "--seed", "1", "--output", "-"]
    if k_max is not None:
        argv += ["--kmax", str(k_max)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--input", path] + argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error:")
    else:
        assert out.getvalue()
        assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()


@settings(max_examples=60, **_SETTINGS)
@given(table=_numeric_csv(), token=st.sampled_from(_UNPLAIN), pick=st.integers(0, 10**6))
def test_unplain_number_is_parse_error_naming_its_line(table, token, pick):
    lines = table.splitlines()
    first = 1 if lines[0].startswith("c0") else 0
    data = [i for i in range(first, len(lines)) if lines[i]]
    i = data[pick % len(data)]
    lines[i] = ",".join([token] + lines[i].split(",")[1:])
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(ParseError, match=f"line {i + 1}:"):
            _read_csv(_write(tmp, "\n".join(lines) + "\n"))


@settings(max_examples=40, **_SETTINGS)
@given(pair=_scaled_pair(), detector=st.sampled_from(["bs", "sn"]),
       k_max=st.sampled_from(["1", "2", "3"]))
def test_huge_tables_exit_as_unscaled_or_name_overflow(pair, detector, k_max):
    # scores near 1e150 and above overflow float64 when squared
    results = []
    for text in pair:
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", "--input", path, "--detector", detector, "--B", "10",
                             "--kmax", k_max, "--min-seg", "2", "--seed", "1", "--output", "-"])
        results.append((code, out.getvalue(), err.getvalue()))
    (code, _, _), (big_code, big_out, big_err) = results
    assert big_code in (code, 4)
    if big_code == 4:
        assert "overflow" in big_err or code == 4
    if big_code == 0:
        assert "Infinity" not in big_out and "NaN" not in big_out
