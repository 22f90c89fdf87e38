"""Command-line interface: analyze a CSV series or run simulation presets."""

from __future__ import annotations

import argparse
import codecs
import contextlib
import itertools
import json
import logging
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import CandidateSet, TimeSeries
from .detectors import DetectorKind
from .errors import ConfigError, DomainError, OpticsError, ParseError, ShapeError
from .ext import HuberConfig, optics
from .inference import BootstrapConfig, copss_estimate
from .scores import FAMILIES, MEAN, NETWORK, REGRESSION, ScoreModel
from .sim import PRESETS, GeneratorSpec, default_k_max, diagnostics, run_experiment

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_DOMAIN = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report Ctrl-C

SCHEMA = "optics/1"

logger = logging.getLogger("optics_cp")


# loadtxt parses a cell as float() does on ASCII, but strips \x1f; data rows also lack "_"
# (float() reads "1_0") and \x0b \x0c \x1c \x1d \x1e, which _FIRST does not take as blank
_PLAIN = bytes(set(range(128)) - {0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F})
_FIRST = re.compile(rb"[ \t\r\n]*([^\r\n]*)")  # blank lines, then the first non-blank line
_BATCH = re.compile(rb"(?s).{0,65536}[^\n]*\n?")  # 64 KiB of text, to the end of its last line


def _read_csv(path: str) -> np.ndarray:
    """Load a numeric UTF-8 CSV, tolerating a leading BOM and one optional header row.

    Every value equals Python's ``float`` of its cell.  ``loadtxt`` parses plain
    data rows, 64 KiB of lines at a time; other text is read line by line, so
    an error names the offending line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    first = _FIRST.match(raw)
    head = first[1].decode(errors="replace")
    body = first.end()  # below the header row, unless the first line is numeric
    with contextlib.suppress(ValueError):
        [float(tok) for tok in head.split(",")]
        body = first.start(1)
    data = None
    # a header may hold any character but U+FFFD (for an undecodable byte) or a line break
    if ([head] == head.splitlines() and "\ufffd" not in head and _FIRST.match(raw, body)[1]
            and raw.translate(None, _PLAIN) == raw[:body].translate(None, _PLAIN)
            and raw.find(b"_", body) < 0):
        lines = itertools.chain.from_iterable(  # loadtxt refuses a line of spaces or tabs
            filter(str.strip, m[0].decode().splitlines()) for m in _BATCH.finditer(raw, body))
        with contextlib.suppress(ValueError):
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if np.isfinite(data).all():
                return data
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((raw[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(f"{path}: line {lineno}: not valid UTF-8") from None
    rows = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows:
        raise ParseError(f"{path} is empty")
    try:
        [float(tok) for tok in rows[0][1].split(",")]
    except ValueError:
        rows = rows[1:]  # header row
    if not rows:
        raise ParseError(f"{path} has no data rows")
    if data is None:  # else loadtxt parsed the rows, and one holds a non-finite value
        # float() also reads "1_0" and non-ASCII digits; numbers here are plain ASCII
        stray = next(((i, ln) for i, ln in rows if "_" in ln or not ln.isascii()), None)
        if stray is not None:
            raise ParseError(f"{path}: line {stray[0]}: underscore or non-ASCII character "
                             f"in numeric row {stray[1]!r}")
        parsed = []
        for lineno, ln in rows:
            try:
                parsed.append([float(tok) for tok in ln.split(",")])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad numeric row {ln!r}") from None
            if len(parsed[-1]) != len(parsed[0]):
                raise ParseError(f"{path}: line {lineno}: ragged row {ln!r}")
        data = np.asarray(parsed, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        lineno, ln = rows[bad[0]]
        raise ParseError(f"{path}: line {lineno}: non-finite value in row {ln!r}")
    return data


def _parse_variant(text: str) -> tuple[int, HuberConfig | None]:
    """The split count L and Huber setting (None: squared-norm fit) of a variant."""
    if text == "plain":
        return 1, None
    name, _, arg = text.partition(":")
    if name == "ms":
        try:
            L = int(arg)
        except ValueError:
            raise ConfigError(f"variant ms needs an integer split count, got {text!r}") from None
        if L < 1:
            raise ConfigError(f"ms split count must be >= 1, got {L}")
        return L, None
    if name == "huber":
        if arg == "adaptive":
            return 1, HuberConfig(adaptive=True)
        try:
            kappa = float(arg)
        except ValueError:
            raise ConfigError(f"variant huber needs a threshold, got {text!r}") from None
        return 1, HuberConfig(kappa=kappa)
    if name == "mdep":
        try:
            m_dep = int(arg)
        except ValueError:
            raise ConfigError(f"variant mdep needs an integer order, got {text!r}") from None
        if m_dep < 0:
            raise ConfigError(f"mdep order must be >= 0, got {m_dep}")
        return m_dep + 1, None
    raise ConfigError(f"unknown variant {text!r}")


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get("OPTICS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"OPTICS_SEED must be an integer, got {env!r}") from None
    return 0


def _check_output(path: str) -> None:
    """Fail before any work on an output path with no directory or no file name."""
    folder = os.path.dirname(path) or "."
    if path != "-" and not os.path.isdir(folder):
        why = f"{folder} is not a directory" if os.path.exists(folder) else f"no directory {folder}"
        raise ConfigError(f"cannot write {path}: {why}")
    if not os.path.basename(path):
        raise ConfigError(f"cannot write {path}: the path has no file name")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _csv_text(records: list[dict]) -> str:
    """CSV of records sharing their keys, which make the header: list cells
    are joined by ';', flags written as 0/1 and other values by ``str``."""
    def cell(val) -> str:
        if isinstance(val, list):
            return ";".join(map(str, val))
        return str(int(val) if isinstance(val, bool) else val)

    lines = [",".join(records[0])] + [",".join(map(cell, r.values())) for r in records]
    return "\n".join(lines) + "\n"


def _run_analyze(args) -> int:
    data = _read_csv(args.input)
    n_rows = data.shape[0]
    if args.model not in FAMILIES:
        raise ConfigError(f"unknown model {args.model!r}; expected one of {FAMILIES}")

    covariates = None
    if args.model == REGRESSION:
        if data.shape[1] < 2:
            raise ShapeError("regression input needs a response plus covariate columns")
        ts = TimeSeries(data[:, :1])
        covariates = data[:, 1:]
    else:
        ts = TimeSeries(data)

    # network columns are already the vech of a symmetric d x d adjacency, so the
    # pipeline takes them as mean scores; their count must be d(d+1)/2, d >= 2
    width = data.shape[1]
    if args.model == NETWORK and (width < 3 or math.isqrt(8 * width + 1) ** 2 != 8 * width + 1):
        raise ShapeError(f"network input needs d(d+1)/2 columns for a side d >= 2 "
                         f"(3, 6, 10, ...), got {width}")
    family = MEAN if args.model == NETWORK else args.model
    model = ScoreModel(family)

    seed = _resolve_seed(args.seed)
    L, huber = _parse_variant(args.variant)
    kind = DetectorKind(args.detector, args.min_seg)
    k_max = args.k_max if args.k_max is not None else default_k_max(n_rows)
    cfg = BootstrapConfig(b_reps=args.b_reps, seed=seed)
    cs, table = optics(ts, model, kind, CandidateSet(k_max), args.alpha, cfg,
                       covariates=covariates, L=L, huber=huber)

    config_echo = {**vars(args), "seed": seed, "k_max": k_max}
    del config_echo["threads"], config_echo["output"]
    candidates = []
    for i, k in enumerate(table.candidates):
        taus = list(table.segmentations[i].taus)
        candidates.append({
            "k": k,
            "p_hat": float(table.p_hat[i]),
            "t_stat": float(table.t_stat[i]),
            "criterion": float(table.criterion[i]),
            "in_set": k in cs.members,
            "taus": taus,
            # the half-sample boundaries of split 1 at original 1-based positions
            "taus_original_odd": [L * (2 * t - 2) + 1 for t in taus],
            "taus_original_even": [L * (2 * t - 1) + 1 for t in taus],
        })
    doc = {
        "schema": SCHEMA,
        "config": config_echo,
        "n_observations": n_rows,
        "split_half": table.n,
        "candidates": candidates,
        "confidence_set": {
            "alpha": cs.alpha,
            "members": list(cs.members),
            "rightmost": cs.rightmost,
            "leftmost": cs.leftmost,
            "fallback_used": cs.fallback_used,
        },
        "copss": copss_estimate(table),
        "diagnostics": diagnostics(table),
    }

    if args.format == "csv":
        _write_text(args.output, _csv_text(candidates))
    else:
        _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


@dataclass
class _Simulate:
    """The settings of a simulate run.  A preset or a spec file fills them,
    the flags override them, and ``asdict`` of them is the output's config."""

    generator: dict
    command: str = "simulate"
    preset: str | None = None
    method: str = "optics"
    detector: str = "sn"
    alpha: float = 0.1
    b_reps: int = 500
    runs: int = 100
    seed: int = 0
    k_max: int | None = None
    min_seg: int = 5
    ms_l: int = 2
    huber_kappa: float = 1.5


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


# spec-file value checks by the type names of _Simulate's and GeneratorSpec's fields
_TYPE_CHECKS = {
    "str": lambda val: isinstance(val, str),
    "str | None": lambda val: val is None or isinstance(val, str),
    "int": _is_int,
    "int | None": lambda val: val is None or _is_int(val),
    "float": lambda val: _is_int(val) or isinstance(val, float),
    "tuple[int, ...]": lambda val: isinstance(val, list) and all(map(_is_int, val)),
    "dict": lambda val: isinstance(val, dict),
}


def _check_fields(path: str, obj: dict, cls, where: str = "") -> None:
    """Refuse a key of ``obj`` that is no field of ``cls``, or a value not of its type."""
    types = {f.name: f.type for f in fields(cls)}
    for key, val in obj.items():
        if key not in types:
            raise ParseError(f"spec file {path}: unknown {where}field {key!r}")
        if not _TYPE_CHECKS[types[key]](val):
            raise ParseError(f"spec file {path}: {where}{key!r} must be {types[key]}, got {val!r}")


def _read_spec(path: str) -> _Simulate:
    """The settings of a spec file: a settings object, or a summary holding one as ``config``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ParseError(f"cannot parse spec file {path}: {exc}") from None
    config = loaded.get("config", loaded) if isinstance(loaded, dict) else None
    if not isinstance(config, dict):
        raise ParseError(f"spec file {path} must hold a JSON object")
    if not isinstance(config.get("generator"), dict):
        raise ParseError(f"spec file {path} lacks a 'generator' object")
    _check_fields(path, config["generator"], GeneratorSpec, "generator ")
    _check_fields(path, config, _Simulate)
    if config.get("command", "simulate") != "simulate":
        raise ParseError(f"spec file {path}: 'command' must be 'simulate', got {config['command']!r}")
    settings = _Simulate(**config)
    if settings.preset is not None and settings.preset not in PRESETS:
        raise ParseError(f"spec file {path}: unknown preset {settings.preset!r}")
    if settings.preset is not None and (key := _off_preset(settings)):
        raise ParseError(f"spec file {path}: {key!r} differs from preset {settings.preset!r}")
    return settings


def _off_preset(settings: _Simulate) -> str | None:
    """The first of generator, method and min_seg that differs from the preset's, or None."""
    preset = PRESETS[settings.preset]
    pairs = {"generator": (GeneratorSpec(**settings.generator), preset["spec"]),
             "method": (settings.method, preset["method"]),
             "min_seg": (settings.min_seg, preset["min_seg"])}
    return next((key for key, (ours, theirs) in pairs.items() if ours != theirs), None)


def _run_simulate(args) -> int:
    if args.spec is not None:
        settings = _read_spec(args.spec)
    elif args.preset in PRESETS:
        preset = PRESETS[args.preset]
        settings = _Simulate(generator=asdict(preset["spec"]), preset=args.preset,
                             method=preset["method"], min_seg=preset["min_seg"])
    else:
        raise ConfigError(
            f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    for f in fields(settings):
        val = getattr(args, f.name, None)
        if val is not None and f.name != "preset":  # --spec outranks --preset
            setattr(settings, f.name, val)
    if args.amplitude is not None:
        settings.generator["amplitude"] = args.amplitude
    if args.mdep is not None:
        settings.generator["m_dep"] = args.mdep
    if settings.ms_l < 1:
        where = "--ms-l" if args.ms_l is not None else f"spec file {args.spec}: 'ms_l'"
        raise ConfigError(f"{where} must be >= 1, got {settings.ms_l}")
    if settings.preset is not None and _off_preset(settings):
        settings.preset = None  # the flags changed the preset's design
    report = run_experiment(
        GeneratorSpec(**settings.generator),
        method=settings.method,
        detector=DetectorKind(settings.detector, settings.min_seg),
        alpha=settings.alpha,
        b_reps=settings.b_reps,
        runs=settings.runs,
        seed=settings.seed,
        k_max=settings.k_max,
        ms_l=settings.ms_l,
        huber=HuberConfig(kappa=settings.huber_kappa),
        threads=args.threads,
    )
    settings.k_max = report.k_max
    summary = {"schema": SCHEMA, "config": asdict(settings), "results": report.summary()}
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"

    if args.output == "-":
        _write_text("-", text)
    else:
        _write_text(args.output + ".csv", _csv_text(report.csv_rows()))
        try:
            _write_text(args.output + ".json", text)
        except ConfigError:
            os.remove(args.output + ".csv")  # no half of the output is left behind
            raise
        logger.info("wrote %s.csv and %s.json", args.output, args.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optics-cp",
        description="Confidence sets for the number of change-points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a CSV series")
    pa.add_argument("--input", required=True, help="CSV path; one row per time point")
    pa.add_argument("--model", default=MEAN, help=f"model family: {', '.join(FAMILIES)}")
    pa.add_argument("--detector", default="sn", help="bs or sn")
    pa.add_argument("--alpha", type=float, default=0.1)
    pa.add_argument("--B", dest="b_reps", metavar="B", type=int, default=500,
                    help="bootstrap replicates")
    pa.add_argument("--kmax", dest="k_max", metavar="KMAX", type=int, default=None,
                    help="largest candidate count")
    pa.add_argument("--variant", default="plain", help="plain, ms:L, huber:kappa, or mdep:m")
    pa.add_argument("--seed", type=int, default=None, help="falls back to OPTICS_SEED, then 0")
    pa.add_argument("--min-seg", dest="min_seg", type=int, default=5)
    pa.add_argument("--threads", type=int, default=1,
                    help="must be >= 1; ignored: an analysis runs in one process")
    pa.add_argument("--output", default="-", help="output path, '-' for stdout")
    pa.add_argument("--format", choices=["json", "csv"], default="json")

    ps = sub.add_parser("simulate", help="run a simulation preset or spec file")
    ps.add_argument("--preset", default=None, help=f"one of: {', '.join(sorted(PRESETS))}")
    ps.add_argument("--spec", default=None, help="JSON config file (overrides --preset)")
    ps.add_argument("--amplitude", type=float, default=None)
    ps.add_argument("--runs", type=int, default=None)
    ps.add_argument("--detector", default=None)
    ps.add_argument("--alpha", type=float, default=None)
    ps.add_argument("--B", dest="b_reps", metavar="B", type=int, default=None)
    ps.add_argument("--kmax", dest="k_max", metavar="KMAX", type=int, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--min-seg", dest="min_seg", type=int, default=None)
    ps.add_argument("--ms-l", dest="ms_l", type=int, default=None)
    ps.add_argument("--mdep", type=int, default=None)
    ps.add_argument("--threads", type=int, default=1,
                    help="processes that perform the Monte Carlo runs (default 1); "
                         "never changes the results")
    ps.add_argument("--output", default="-", help="file prefix for .csv/.json, '-' for stdout")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        _check_output(args.output)
        if args.command == "analyze":
            return _run_analyze(args)
        if args.spec is None and args.preset is None:
            raise ConfigError("simulate needs --preset or --spec")
        return _run_simulate(args)
    except OpticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_INFEASIBLE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
