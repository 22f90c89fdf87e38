"""Property tests: any CSV text ends in a documented exit code, never a traceback."""

import contextlib
import io
import itertools
import json
import os
import re
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from optics_cp import cli  # noqa: E402
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


_HUGE = str(10**20)


def _exit_of(argv):
    """Exit code and stderr of ``main``; any exception it lets out fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error:") and not out.getvalue()
    return code


@settings(max_examples=120, **_SETTINGS)
@given(
    alpha=st.sampled_from(["0.1", "0.5", "0", "1", "-0.5", "1.5", "nan", "inf", "1e-300"]),
    b_reps=st.sampled_from(["1", "7", "0", "-3"]),
    k_max=st.sampled_from([None, "1", "3", "0", "-2", "1000000000", _HUGE]),
    min_seg=st.sampled_from(["2", "5", "1", "0", "-4", _HUGE]),
    variant=st.sampled_from(["plain", "ms:2", "ms:0", "ms:-1", "ms:x", "ms:" + _HUGE, "huber:1.5",
                             "huber:0", "huber:-1", "huber:nan", "huber:inf", "huber:",
                             "huber:adaptive", "mdep:1", "mdep:-1", "mdep:x", "bogus", ""]),
    model=st.sampled_from(FAMILIES + ("bogus",)),
    detector=st.sampled_from(["bs", "sn", "xx"]),
    threads=st.sampled_from(["1", "2", "0", "-1"]),
)
def test_analyze_any_settings_end_in_documented_exit(alpha, b_reps, k_max, min_seg, variant,
                                                     model, detector, threads):
    # a valid table, so the settings decide; a bad setting is exit 3, never a traceback
    rng = np.random.default_rng(0)
    table = np.column_stack([np.repeat([0.0, 2.0], 40), np.ones(80)]) + rng.standard_normal((80, 2))
    argv = ["--alpha", alpha, "--B", b_reps, "--min-seg", min_seg, "--variant", variant,
            "--model", model, "--detector", detector, "--threads", threads, "--seed", "1",
            "--output", "-"]
    if k_max is not None:
        argv += ["--kmax", k_max]
    with tempfile.TemporaryDirectory() as tmp:
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in table) + "\n"
        assert _exit_of(["analyze", "--input", _write(tmp, text)] + argv) in (0, 3, 4)


@settings(max_examples=40, **_SETTINGS)
@given(
    alpha=st.sampled_from([None, "0.1", "0", "1.5", "nan"]),
    b_reps=st.sampled_from([None, "5", "0", "-1"]),
    runs=st.sampled_from([None, "1", "0", "-1"]),
    k_max=st.sampled_from([None, "2", "0", _HUGE]),
    min_seg=st.sampled_from([None, "5", "1", _HUGE]),
    ms_l=st.sampled_from([None, "2", "0", "-1", _HUGE]),
    mdep=st.sampled_from([None, "0", "1", "-1", _HUGE]),
    amplitude=st.sampled_from([None, "1.0", "nan", "inf", "1e200"]),
    detector=st.sampled_from([None, "bs", "xx"]),
    preset=st.sampled_from(["tab1", "vary_n", "vary_m", "nope"]),
)
def test_simulate_any_settings_end_in_documented_exit(alpha, b_reps, runs, k_max, min_seg, ms_l,
                                                      mdep, amplitude, detector, preset):
    argv = ["simulate", "--preset", preset, "--output", "-"]
    for flag, val in (("--alpha", alpha), ("--B", b_reps or "5"), ("--runs", runs or "1"),
                      ("--kmax", k_max), ("--min-seg", min_seg), ("--ms-l", ms_l),
                      ("--mdep", mdep), ("--amplitude", amplitude), ("--detector", detector)):
        if val is not None:
            argv += [flag, val]
    assert _exit_of(argv) in (0, 3, 4)


@settings(max_examples=80, **_SETTINGS)
@given(
    generator=st.fixed_dictionaries({
        "n_total": st.sampled_from([-5, 0, 1, 3, 8, 40]),
        "taus_star": st.sampled_from([[], [1], [4], [20], [4, 4], [20, 4], [0], [-3]]),
    }, optional={
        "design": st.sampled_from(["mean", "regression", "variance", "xx"]),
        "d": st.sampled_from([-1, 0, 1, 2]),
        "amplitude": st.sampled_from([0, -1, 2.0, 1e200]),
        "noise": st.sampled_from(["normal", "student_t", "scaled_normal", "xx"]),
        "noise_param": st.sampled_from([-1, 0, 0.5, 10]),
        "m_dep": st.sampled_from([-1, 0, 1, 50]),
    }),
    config=st.fixed_dictionaries({}, optional={
        "method": st.sampled_from(["optics", "ms", "huber", "mdep", "copss", "xx"]),
        "detector": st.sampled_from(["sn", "bs", "xx"]),
        "alpha": st.sampled_from([0, 0.1, 1]),
        "huber_kappa": st.sampled_from([-1, 1.5]),
        "min_seg": st.sampled_from([0, 2, 100]),
        "ms_l": st.sampled_from([0, 2, 50]),
        "k_max": st.sampled_from([None, -1, 2, 10**30]),
    }),
)
def test_simulate_any_spec_file_ends_in_documented_exit(generator, config):
    # well-typed values that nothing but the library checks: exit 3 or 4, never a traceback
    spec = dict({"generator": generator, "runs": 1, "b_reps": 5}, **config)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, json.dumps(spec))
        assert _exit_of(["simulate", "--spec", path, "--output", "-"]) in (0, 3, 4)


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


_NAME = st.text("abxyz019_-.", min_size=1, max_size=8).filter(lambda s: s not in (".", ".."))


@settings(max_examples=30, **_SETTINGS)
@given(command=st.sampled_from(["analyze", "simulate"]),
       kind=st.sampled_from(["missing parent", "file parent", "directory", "separator"]),
       names=st.lists(_NAME, min_size=1, max_size=3, unique=True),
       suffix=st.sampled_from([".csv", ".json"]))
def test_unwritable_output_ends_in_exit_3(command, kind, names, suffix):
    # --output names a file below a missing directory, below a regular file,
    # or a directory (for simulate, the prefix's .csv or .json), or it ends in
    # a path separator: exit 3, never a traceback, and no file left behind,
    # whether it is caught before the runs or at the write
    with tempfile.TemporaryDirectory() as tmp:
        top = os.path.join(tmp, names[0])
        target = os.path.join(tmp, *names, "out")
        if kind == "file parent":
            _write(tmp, "")
            os.rename(os.path.join(tmp, "data.csv"), top)
        elif kind == "directory":
            target = os.path.join(tmp, *names)
            os.makedirs(target + suffix if command == "simulate" else target)
        elif kind == "separator":
            target = os.path.join(tmp, *names, "")
            os.makedirs(target)
        if command == "analyze":
            table = np.repeat([0.0, 2.0], 30) + np.random.default_rng(0).standard_normal(60)
            data = _write(tmp, "\n".join(repr(float(v)) for v in table) + "\n")
            argv = ["analyze", "--input", data, "--B", "5", "--seed", "1"]
        else:
            argv = ["simulate", "--preset", "tab1", "--runs", "1", "--B", "5"]
        before = sorted(os.walk(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--output", target])
        assert sorted(os.walk(tmp)) == before
    assert code == 3 and not out.getvalue()
    assert err.getvalue().startswith("error: cannot write ") and "Traceback" not in err.getvalue()
    if kind == "file parent" and len(names) == 1:
        assert err.getvalue() == f"error: cannot write {target}: {top} is not a directory\n"
    if kind == "separator":
        assert err.getvalue() == f"error: cannot write {target}: the path has no file name\n"


# --- the loadtxt reader against the line-by-line reader --------------------------

def _read_csv_by_line(path):
    """``_read_csv`` as a per-line loop over Python's float(): the oracle for the
    loadtxt-based reader, which must give the same bytes or the same error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParseError(f"{path} is empty")
    start = 0
    try:
        [float(tok) for tok in lines[0][1].split(",")]
    except ValueError:
        start = 1  # header row
    stray = next(((i, ln) for i, ln in lines[start:] if "_" in ln or not ln.isascii()), None)
    if stray is not None:
        raise ParseError(f"{path}: line {stray[0]}: underscore or non-ASCII character "
                         f"in numeric row {stray[1]!r}")
    rows = []
    width = None
    for lineno, ln in lines[start:]:
        try:
            row = [float(tok) for tok in ln.split(",")]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad numeric row {ln!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}: line {lineno}: ragged row {ln!r}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path} has no data rows")
    data = np.asarray(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        lineno, ln = lines[start + bad[0]]
        raise ParseError(f"{path}: line {lineno}: non-finite value in row {ln!r}")
    return data


_CELL = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True, width=64).map(repr),
    st.floats(-1e6, 1e6, width=64).map(lambda v: f"{v:.17e}"),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity", "NaN", "1e999", "-1e999",
                     "1e-400", "+.5", "5.", "-0", "0x10", "1_0", "\u0663", "x", "", " ",
                     "1 2", "#1", "'1'", "1e", "\x00"]),
)
_PAD = st.sampled_from(["", "", "", " ", "\t", " \t "])
_ROW_END = st.sampled_from(["\n", "\n", "\r\n", "\r"])
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_ODD_PAD = st.one_of(_PAD, st.sampled_from(["\x0b", "\x0c", "\x1f"]))
_ODD_ROW_END = st.one_of(_ROW_END, st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85"]))
_ODD_BLANK = st.one_of(_BLANK, st.sampled_from(["\x0c", "\u00a0"]))


@st.composite
def _csv_text(draw):
    """CSV text.  Three in four are plain tables, which loadtxt parses: floats
    padded with spaces and tabs, rows that end in \\n, \\r\\n or \\r, blank lines
    of spaces and tabs, and perhaps a header.  The others add every other way a
    line can end, control and non-ASCII padding and blank lines, odd cells,
    trailing commas and ragged rows."""
    odd = draw(st.integers(0, 3)) == 0
    pad, row_end, blank = (_ODD_PAD, _ODD_ROW_END, _ODD_BLANK) if odd else (_PAD, _ROW_END, _BLANK)
    d = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 1, 2, 5, 30]))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.sampled_from(["c", "y", "x1", "a b", "1x"])) for _ in range(d)))
    odd_cells = odd and draw(st.booleans())
    for _ in range(n):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(blank))
        width = d if not odd or draw(st.integers(0, 19)) else draw(st.integers(1, d + 2))  # ragged
        if odd_cells:
            cells = [draw(_CELL) for _ in range(width)]
        else:
            cells = [draw(st.floats(-1e9, 1e9, width=64).map(repr)) for _ in range(width)]
        row = ",".join(draw(pad) + cell + draw(pad) for cell in cells)
        if odd and draw(st.integers(0, 19)) == 0:
            row += ","  # trailing comma
        lines.append(row)
    ends = [draw(row_end) for _ in lines]
    text = "".join(ln + end for ln, end in zip(lines, ends))
    return text if draw(st.integers(0, 3)) else text.rstrip("\r\n")


def _outcome(read, path):
    try:
        data = read(path)
    except ParseError as exc:
        return "error", str(exc)
    return "data", (data.dtype.str, data.shape, data.tobytes())


def _counting_loadtxt(monkeypatch):
    """A list that gets one entry for each call of ``np.loadtxt`` that returns."""
    parsed, loadtxt = [], np.loadtxt

    def counting(*args, **kwargs):
        out = loadtxt(*args, **kwargs)
        parsed.append(out.shape)
        return out

    monkeypatch.setattr(np, "loadtxt", counting)
    return parsed


def test_read_csv_matches_line_by_line_reader(monkeypatch):
    parsed, texts = _counting_loadtxt(monkeypatch), []

    @settings(max_examples=300, **_SETTINGS)
    @given(text=_csv_text())
    def check(text):
        texts.append(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, text)
            assert _outcome(_read_csv, path) == _outcome(_read_csv_by_line, path)

    check()
    # the fuzz checks the loadtxt reader only where loadtxt parses the text
    assert len(parsed) >= 2 * len(texts) / 3, (len(parsed), len(texts))


@pytest.mark.parametrize("text", [
    "1\r\n2\r\n", "1\r2\r3", "y,x\n1,2\n\n \n3,4\n", "1,2\x0b3,4\x0c5,6\n",
    "1,2,\n3,4,\n", "inf\n", "1\nnan\n", "1e999,1\n", "7\n", "1,2\n3\n", "1\n2,3\n",
    "\t1 ,\x0b2\x0c\n", " \n\t\n", "a,b\n", "a,b\n\n  \n", "1\x852\n", "1,2\n3,\x1f4\n",
    "\ufeff1\n2\n", "\ufeffy\n1\n2\n",
])
def test_read_csv_matches_line_by_line_reader_on_cases(tmp_path, text):
    path = _write(str(tmp_path), text)
    assert _outcome(_read_csv, path) == _outcome(_read_csv_by_line, path)


@pytest.mark.parametrize("width", [0, 1, 7, 64])
@pytest.mark.parametrize("header, columns", [("", 1), ("y,x\r\n", 2)])
def test_read_csv_in_small_batches_matches_line_by_line_reader(tmp_path, monkeypatch, width,
                                                                header, columns):
    # loadtxt gets 64 KiB of lines at a time; batches of a few bytes must still
    # end only at line ends, of every kind, around blank lines.  Any piece of a
    # digit string is a number, so a batch cut inside a row would add rows
    monkeypatch.setattr(cli, "_BATCH", re.compile(rb"(?s).{0,%d}[^\n]*\n?" % width))
    values = np.random.default_rng(width).integers(0, 10**12, (60, columns))
    ends = itertools.cycle(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\r\r"])
    text = header + "".join(",".join(map(str, row)) + end for row, end in zip(values.tolist(), ends))
    path = _write(str(tmp_path), text.rstrip())
    assert _outcome(_read_csv, path) == _outcome(_read_csv_by_line, path)
    assert _read_csv(path).tolist() == values.tolist()


def test_read_csv_passes_a_table_with_a_line_of_spaces_and_tabs_to_loadtxt(tmp_path, monkeypatch):
    # loadtxt refuses a line of blanks; passed on, it would send the whole
    # file through the line-by-line reader
    parsed = _counting_loadtxt(monkeypatch)
    values = np.random.default_rng(3).standard_normal((20_000, 2))
    lines = [f"{a!r},{b!r}" for a, b in values.tolist()]
    lines.insert(10_000, " \t")
    path = _write(str(tmp_path), "y,x\n" + "\n".join(lines) + "\n")
    got = _outcome(_read_csv, path)
    assert parsed == [values.shape]
    assert got == _outcome(_read_csv_by_line, path)
    assert got[1][2] == values.tobytes()
