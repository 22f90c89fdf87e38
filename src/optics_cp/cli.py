"""Command-line interface: analyze a CSV series or run simulation presets."""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .core import CandidateSet, TimeSeries
from .detectors import BINARY_SEGMENTATION, SEGMENT_NEIGHBORHOOD, DetectorKind
from .errors import ConfigError, DomainError, InfeasibleError, OpticsError, ParseError
from .ext import HuberConfig, _run_variant
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


def _numbered(rows: list[str], first: int) -> list[tuple[int, str]]:
    """The non-blank rows with their line numbers, ``rows[0]`` being line ``first``."""
    return [(i, ln) for i, ln in enumerate(rows, first) if ln.strip()]


def _read_csv(path: str) -> np.ndarray:
    """Load a numeric CSV, tolerating one optional header row.

    Every value equals Python's ``float`` of its cell.  numpy's ``loadtxt``
    parses the data rows; a text it refuses is read again line by line, so
    the error names the offending line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    first = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if first is None:
        raise ParseError(f"{path} is empty")
    start = first + 1  # the line number of rows[0], below the header if there is one
    try:
        [float(tok) for tok in lines[first].split(",")]
    except ValueError:
        start += 1  # header row
    rows = lines[start - 1 :]
    if not any(ln.strip() for ln in rows):
        raise ParseError(f"{path} has no data rows")
    # float() also reads "1_0" and non-ASCII digits, but numbers here are plain
    # ASCII decimal or scientific notation; the whole text is checked first,
    # which costs next to nothing, and the lines only when it holds such a character
    if "_" in text or not text.isascii():
        stray = next(((i, ln) for i, ln in _numbered(rows, start) if "_" in ln or not ln.isascii()), None)
        if stray is not None:
            raise ParseError(f"{path}: line {stray[0]}: underscore or non-ASCII character "
                             f"in numeric row {stray[1]!r}")
    data = None
    # on plain ASCII cells loadtxt and float() share CPython's number parser, but
    # loadtxt also strips the unit separator \x1f around a number and float() does not
    if "\x1f" not in text:
        with contextlib.suppress(ValueError):
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    if data is None:  # refused: parse cell by cell to name the offending line
        parsed = []
        width = None
        for lineno, ln in _numbered(rows, start):
            try:
                row = [float(tok) for tok in ln.split(",")]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad numeric row {ln!r}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"{path}: line {lineno}: ragged row {ln!r}")
            parsed.append(row)
        data = np.asarray(parsed, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        lineno, ln = _numbered(rows, start)[bad[0]]
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


def _detector(name: str, min_seg: int) -> DetectorKind:
    kinds = {"bs": BINARY_SEGMENTATION, "sn": SEGMENT_NEIGHBORHOOD}
    if name not in kinds:
        raise ConfigError(f"unknown detector {name!r}; expected 'bs' or 'sn'")
    return DetectorKind(kinds[name], min_seg=min_seg)


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


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _original_positions(taus, L: int) -> tuple[list[int], list[int]]:
    """Map split-1 half-sample boundaries back to original 1-based positions."""
    odd = [L * (2 * t - 2) + 1 for t in taus]
    even = [L * (2 * t - 1) + 1 for t in taus]
    return odd, even


def _run_analyze(args) -> int:
    data = _read_csv(args.input)
    n_rows = data.shape[0]
    if args.model not in FAMILIES:
        raise ConfigError(f"unknown model {args.model!r}; expected one of {FAMILIES}")

    covariates = None
    if args.model == REGRESSION:
        if data.shape[1] < 2:
            raise InfeasibleError("regression input needs a response plus covariate columns")
        ts = TimeSeries(data[:, :1])
        covariates = data[:, 1:]
    else:
        ts = TimeSeries(data)

    # network columns are expected pre-flattened (vech already applied),
    # so the pipeline consumes them directly as scores
    family = MEAN if args.model == NETWORK else args.model
    model = ScoreModel(family)

    seed = _resolve_seed(args.seed)
    L, huber = _parse_variant(args.variant)
    kind = _detector(args.detector, args.min_seg)
    k_max = args.kmax if args.kmax is not None else default_k_max(n_rows)
    cfg = BootstrapConfig(b_reps=args.B, seed=seed)
    cs, table = _run_variant(ts, model, kind, CandidateSet(k_max), args.alpha, cfg,
                             L=L, huber=huber, covariates=covariates)

    config_echo = {
        "command": "analyze",
        "input": args.input,
        "model": args.model,
        "detector": args.detector,
        "alpha": args.alpha,
        "b_reps": args.B,
        "k_max": k_max,
        "min_seg": args.min_seg,
        "variant": args.variant,
        "seed": seed,
        "format": args.format,
    }
    candidates = []
    for i, k in enumerate(table.candidates):
        taus = list(table.segmentations[i].taus)
        orig_odd, orig_even = _original_positions(taus, L)
        candidates.append({
            "k": k,
            "p_hat": float(table.p_hat[i]),
            "t_stat": float(table.t_stat[i]),
            "criterion": float(table.criterion[i]),
            "taus": taus,
            "taus_original_odd": orig_odd,
            "taus_original_even": orig_even,
            "in_set": k in cs.members,
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

    if args.format == "json":
        _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["k,p_hat,t_stat,criterion,in_set,taus,taus_original_odd,taus_original_even"]
        for c in candidates:
            lines.append(",".join([
                str(c["k"]),
                repr(c["p_hat"]),
                repr(c["t_stat"]),
                repr(c["criterion"]),
                str(int(c["in_set"])),
                ";".join(map(str, c["taus"])),
                ";".join(map(str, c["taus_original_odd"])),
                ";".join(map(str, c["taus_original_even"])),
            ]))
        _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _default_simulate_config() -> dict:
    return {
        "command": "simulate",
        "preset": None,
        "method": "optics",
        "detector": "sn",
        "alpha": 0.1,
        "b_reps": 500,
        "runs": 100,
        "seed": 0,
        "k_max": None,
        "min_seg": 5,
        "ms_l": 2,
        "huber_kappa": 1.5,
    }


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


# spec-file value checks by type name; generator fields use GeneratorSpec's types
_TYPE_CHECKS = {
    "str": lambda val: isinstance(val, str),
    "int": _is_int,
    "int | None": lambda val: val is None or _is_int(val),
    "float": lambda val: _is_int(val) or isinstance(val, float),
    "tuple[int, ...]": lambda val: isinstance(val, list) and all(map(_is_int, val)),
}
_SPEC_TYPES = {
    "method": "str", "detector": "str", "alpha": "float", "huber_kappa": "float",
    "b_reps": "int", "runs": "int", "seed": "int", "min_seg": "int", "ms_l": "int",
    "k_max": "int | None",
}


def _check_spec(path: str, loaded) -> dict:
    """The config object of a loaded spec file, with its value types checked."""
    config = loaded.get("config", loaded) if isinstance(loaded, dict) else None
    if not isinstance(config, dict):
        raise ParseError(f"spec file {path} must hold a JSON object")
    gen = config.get("generator")
    if not isinstance(gen, dict):
        raise ParseError(f"spec file {path} lacks a 'generator' object")
    gen_types = {f.name: f.type for f in fields(GeneratorSpec)}
    for key in gen:
        if key not in gen_types:
            raise ParseError(f"spec file {path}: unknown generator field {key!r}")
    for where, obj, types in (("", config, _SPEC_TYPES), ("generator ", gen, gen_types)):
        for key, type_name in types.items():
            if key in obj and not _TYPE_CHECKS[type_name](obj[key]):
                raise ParseError(
                    f"spec file {path}: {where}{key!r} must be {type_name}, got {obj[key]!r}"
                )
    return config


def _simulate_config(args) -> dict:
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot parse spec file {args.spec}: {exc}") from None
        return {**_default_simulate_config(), **_check_spec(args.spec, loaded)}

    if args.preset not in PRESETS:
        raise InfeasibleError(
            f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    preset = PRESETS[args.preset]
    config = _default_simulate_config()
    config.update(
        preset=args.preset,
        method=preset["method"],
        min_seg=preset.get("min_seg", 5),
        generator=asdict(preset["spec"]),
    )
    return config


def _apply_overrides(config: dict, args) -> dict:
    gen = dict(config["generator"])
    if args.amplitude is not None:
        gen["amplitude"] = args.amplitude
    if args.mdep is not None:
        gen["m_dep"] = args.mdep
    config = dict(config, generator=gen)
    for key, val in [
        ("detector", args.detector), ("alpha", args.alpha), ("b_reps", args.B),
        ("runs", args.runs), ("seed", args.seed), ("k_max", args.kmax),
        ("min_seg", args.min_seg), ("ms_l", args.ms_l),
    ]:
        if val is not None:
            config[key] = val
    return config


def _run_simulate(args) -> int:
    config = _apply_overrides(_simulate_config(args), args)
    if config["ms_l"] < 1:
        raise ConfigError(f"--ms-l must be >= 1, got {config['ms_l']}")
    spec = GeneratorSpec(**config["generator"])
    detector = _detector(config["detector"], config["min_seg"])
    report = run_experiment(
        spec,
        method=config["method"],
        detector=detector,
        alpha=config["alpha"],
        b_reps=config["b_reps"],
        runs=config["runs"],
        seed=config["seed"],
        k_max=config["k_max"],
        ms_l=config["ms_l"],
        huber=HuberConfig(kappa=config.get("huber_kappa", 1.5)),
        threads=args.threads,
    )
    config["k_max"] = report.k_max
    summary = {"schema": SCHEMA, "config": config, "results": report.summary()}
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"

    if args.output == "-":
        sys.stdout.write(text)
        return EXIT_OK

    header = "run,method,detector,A,covered,cardinality,copss_hit,seconds"
    rows = [header] + [
        ",".join(str(r[c]) for c in header.split(","))
        for r in report.csv_rows()
    ]
    with open(args.output + ".csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(args.output + ".json", "w", encoding="utf-8") as fh:
        fh.write(text)
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
    pa.add_argument("--B", type=int, default=500, help="bootstrap replicates")
    pa.add_argument("--kmax", type=int, default=None, help="largest candidate count")
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
    ps.add_argument("--B", type=int, default=None)
    ps.add_argument("--kmax", type=int, default=None)
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
        if args.command == "analyze":
            return _run_analyze(args)
        if args.spec is None and args.preset is None:
            raise InfeasibleError("simulate needs --preset or --spec")
        return _run_simulate(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OpticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
