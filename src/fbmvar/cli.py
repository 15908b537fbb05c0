"""Command-line front end.

Subcommands: sample, variation, constants, hermite-process, experiment,
report.  JSON is the primary machine format (CSV/TSV secondary); every
subcommand accepts --seed and echoes it in its output.  Exit status: 0 on
success, 1 on domain/regime/usage errors, 2 on I/O errors.  Each JSON
number is the shortest text that reads back to the same double (0.1
prints as 0.1) unless --precision rounds it; CSV and binary output always
carry full precision, and so do experiment reports (they must be
byte-reproducible).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

# A request is one process: each subcommand imports the engine modules it
# runs when it is called, so start-up loads no more than the request needs.
from . import fbm
from .errors import (
    ConfigError, DomainError, FbmvarError, SeriesDivergenceError, check_int, json_text,
)
from .rng import check_key


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _precision(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"precision must be an integer >= 1, got {text!r}")
    return int(text)


def _real(text: str) -> float:
    """A decimal, or p/q read as int(p) / int(q), which rounds correctly: 5/6
    is the double ``classify_regime`` takes for 1 - 1/(2*3)."""
    p, slash, q = str(text).partition("/")  # str: a flag's float reads back as itself
    try:
        return int(p) / int(q) if slash else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        what = f"ratio {text!r} ({exc})" if slash else f"float value: {text!r}"
        raise argparse.ArgumentTypeError(f"invalid {what}") from None


def _key_word(name: str):
    """argparse type of a seed or stream index: an integer in [0, 2**64)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        try:
            return check_key(value, name)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _emit(payload: dict, out: str | None, precision: int | None) -> None:
    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        if isinstance(obj, (np.floating, float)):
            return float(f"{float(obj):.{precision}g}")
        return obj

    _write_text(json_text(payload if precision is None else walk(payload)), out)


def _check_json_precision(precision: int | None, fmt: str) -> None:
    if precision is not None and fmt != "json":
        raise FbmvarError(f"--precision applies to json output only, not {fmt}")


@contextmanager
def _text_out(out: str | None):
    """The text stream for --out: the named file, or stdout."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write_text(text: str, out: str | None) -> None:
    with _text_out(out) as fh:
        fh.write(text)


def _check_outputs(args) -> None:
    """Raise OSError unless every --out, --csv and --plot-data path can be
    written, and refuse two of them that name one file, before any path is
    drawn.  Nothing is written: a file made by the check is removed again,
    and an existing file keeps its bytes."""
    flags: dict = {}  # resolved path: the flag that named it
    for dest in ("out", "csv", "plot_data"):
        name = getattr(args, dest, None)
        if name is None:
            continue
        flag = "--" + dest.replace("_", "-")
        first = flags.setdefault(os.path.realpath(name), flag)
        if first != flag:
            raise FbmvarError(f"{first} and {flag} name one file, {name}")
        try:
            open(name, "x").close()
        except FileExistsError:
            open(name, "a").close()
        else:
            os.remove(name)


def build_parser() -> _Parser:
    parser = _Parser(prog="fbmvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand", parser_class=_Parser)
    # the options the path and payload subcommands share
    path_opts = argparse.ArgumentParser(add_help=False)
    path_opts.add_argument("--seed", type=_key_word("seed"), default=0, help="master seed")
    path_opts.add_argument("--stream", type=_key_word("stream index"), default=0,
                           help="replicate stream index")
    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--out", help="output file (default stdout)")
    out_opts.add_argument("--precision", type=_precision,
                          help="round JSON numbers to this many significant digits "
                          "(default: the shortest text that reads back the same double)")

    p = sub.add_parser("sample", parents=[path_opts, out_opts],
                       help="sample one exact fBm path")
    p.set_defaults(func=_cmd_sample)
    p.add_argument("--H", type=_real, required=True, help="Hurst parameter in (0,1)")
    p.add_argument("--n", type=int, required=True, help="dyadic level (2^n increments)")
    p.add_argument("--sampler", choices=("circulant", "cholesky"), default="circulant",
                   help="exact sampler to use")
    p.add_argument("--format", choices=("csv", "bin", "json"), default="csv",
                   help="output format (bin requires --out)")

    p = sub.add_parser("variation", parents=[path_opts, out_opts],
                       help="weighted Hermite/power variation of a sampled path")
    p.set_defaults(func=_cmd_variation)
    p.add_argument("--H", type=_real, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True,
                   help="order q, an integer in [1, 150]; [2, 150] with --renormalize")
    p.add_argument("--weight", default="one",
                   help="weight spec: one | poly:c0,c1,.. | cos:a | sin:a | exp:a")
    p.add_argument("--power", action="store_true",
                   help="power variation instead of Hermite variation")
    p.add_argument("--centered", action="store_true",
                   help="subtract mu_q (power variation only)")
    p.add_argument("--renormalize", action="store_true",
                   help="also apply the regime prefactor (Hermite variation only)")

    p = sub.add_parser("constants", parents=[out_opts],
                       help="limit constants and regime for (H, q)")
    p.set_defaults(func=_cmd_constants)
    p.add_argument("--H", type=_real, required=True)
    p.add_argument("--q", type=int, required=True, help="order q, an integer in [2, 150]")
    p.add_argument("--seed", type=_key_word("seed"), default=0,
                   help="echoed (no randomness)")

    p = sub.add_parser("hermite-process", parents=[path_opts, out_opts],
                       help="simulate the Hermite process from a fine fBm path")
    p.set_defaults(func=_cmd_hermite_process)
    p.add_argument("--q", type=int, required=True, help="order q, an integer in [2, 150]")
    p.add_argument("--H", type=_real, required=True)
    p.add_argument("--m", type=int, required=True, help="fine level")
    p.add_argument("--n-out", type=int, required=True, help="output grid level")
    p.add_argument("--export", choices=("csv", "json"), default="json")

    p = sub.add_parser("experiment",
                       help="run a seeded Monte Carlo experiment")
    p.set_defaults(func=_cmd_experiment)
    p.add_argument("--id", required=True, dest="experiment_id", metavar="ID",
                   help="experiment to run (README.md's CLI section lists the seven "
                   "ids, and so does the error for an unknown one)")
    p.add_argument("--config", help="key = value config file (flags override)")
    p.add_argument("--H", type=_real)
    p.add_argument("--q", type=int, help="order q, an integer in [1, 150]; "
                   "[2, 150] in every runner but corollary and trapezoid")
    p.add_argument("--weight")
    p.add_argument("--levels", help="comma-separated dyadic levels")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=_key_word("seed"))
    p.add_argument("--fine-offset", type=int)
    p.add_argument("--threads", type=int,
                   help="worker threads (default FBMVAR_THREADS or 1)")
    p.add_argument("--out", help="report JSON file (default stdout)")
    p.add_argument("--csv", help="also write per-level statistics CSV")
    p.add_argument("--plot-data", help="also write plot-ready TSV (n, stat, yerr)")

    p = sub.add_parser("report",
                       help="merge experiment reports into a summary table")
    p.set_defaults(func=_cmd_report)
    p.add_argument("--merge", nargs="+", required=True, help="report JSON files")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--seed", type=_key_word("seed"), default=0,
                   help="echoed (no randomness)")
    p.add_argument("--out")
    return parser


def _cmd_sample(args) -> int:
    if args.format == "bin" and args.out is None:
        raise FbmvarError("binary output requires --out")
    _check_json_precision(args.precision, args.format)
    sampler = (
        fbm.sample_fbm_cholesky if args.sampler == "cholesky" else fbm.sample_fbm_circulant
    )
    path = sampler(args.H, args.n, args.seed, args.stream)
    if args.format == "bin":
        with open(args.out, "wb") as fh:
            fbm.write_binary(path, fh)
        sys.stdout.write(f"wrote {args.out} (seed {args.seed})\n")
        return 0
    if args.format == "csv":
        with _text_out(args.out) as fh:
            fbm.write_csv(path, fh)
        # the CSV schema is fixed (k,t,B), so the seed echo goes to stderr
        sys.stderr.write(f"seed {args.seed} stream {args.stream}\n")
        return 0
    payload = {"H": path.hurst, "n": path.level, "seed": args.seed, "stream": args.stream,
               "sampler": args.sampler, "values": path.values.tolist()}
    _emit(payload, args.out, args.precision)
    return 0


def _cmd_variation(args) -> int:
    from .constants import _check_order, classify_regime
    from .variations import renormalize, weighted_hermite_variation, weighted_power_variation
    from .weights import parse_weight

    # every check that needs no path runs before the path is drawn
    if args.centered and not args.power:
        raise FbmvarError("--centered subtracts mu_q from the power variation: add --power")
    if args.renormalize and args.power:
        # the regime of (H, q) is the Hermite variation's; a centred power
        # variation follows its leading chaos, an uncentred one has no prefactor
        raise FbmvarError("--renormalize applies to the Hermite variation, not to --power")
    f = parse_weight(args.weight)
    _check_order(args.q, minimum=1)
    regime = classify_regime(args.H, args.q) if args.renormalize else None
    path = fbm.sample_fbm_circulant(args.H, args.n, args.seed, args.stream)
    if args.power:
        raw = weighted_power_variation(path, f, args.q, centered=args.centered)
    else:
        raw = weighted_hermite_variation(path, f, args.q)
    payload = {"H": args.H, "n": args.n, "q": args.q, "weight": args.weight,
               "seed": args.seed, "stream": args.stream,
               "kind": "power" if args.power else "hermite",
               "centered": bool(args.centered), "raw_value": raw}
    if args.renormalize:
        payload["renormalized_value"] = renormalize(raw, args.H, args.q, args.n)
        payload["regime"] = regime.value
    _emit(payload, args.out, args.precision)
    return 0


def _cmd_constants(args) -> int:
    from .constants import (
        RegimeCase, classify_regime, hermite_process_variance_const, sigma_clt, sigma_tilde,
    )

    regime = classify_regime(args.H, args.q)
    payload: dict = {"H": args.H, "q": args.q, "seed": args.seed, "regime": regime.value,
                     "renorm_exponent": regime.renorm_exponent,
                     "conjectural": regime is RegimeCase.CRITICAL_LOW}
    payload.update(dict.fromkeys(
        ("sigma", "sigma_tilde", "c_qH", "truncation_radius", "tail_bound")))
    try:
        s = sigma_clt(args.H, args.q)
        payload.update(
            sigma=s.value, truncation_radius=s.radius, tail_bound=s.tail_bound
        )
    except SeriesDivergenceError:
        pass
    try:
        st = sigma_tilde(args.H, args.q)
        payload["sigma_tilde"] = st.value
    except SeriesDivergenceError:
        pass
    try:
        payload["c_qH"] = hermite_process_variance_const(args.q, args.H)
    except DomainError:
        pass
    _emit(payload, args.out, args.precision)
    return 0


def _cmd_hermite_process(args) -> int:
    from .hermite_process import _check_request, simulate_hermite

    _check_json_precision(args.precision, args.export)
    _check_request(args.H, args.q, args.m, args.n_out)
    path = fbm.sample_fbm_circulant(args.H, args.m, args.seed, args.stream)
    z = simulate_hermite(path, args.q, args.n_out)
    if args.export == "csv":
        with _text_out(args.out) as fh:
            fh.write("j,t,Z\n")
            fh.writelines(fbm.csv_rows(fbm.grid_times(args.n_out), z))
        return 0
    payload = {"q": args.q, "H": args.H, "m": args.m, "n_out": args.n_out,
               "seed": args.seed, "stream": args.stream, "values": z.tolist()}
    _emit(payload, args.out, args.precision)
    return 0


# config keys (lowercased) and experiment flag names that name an
# ExperimentConfig field by another name
_CONFIG_ALIASES = {"id": "experiment_id", "h": "hurst", "q": "order", "seed": "master_seed"}


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        # utf-8-sig: a file saved with a byte order mark reads as without one
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc})") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FbmvarError(f"bad config line {raw.rstrip()!r} (want key = value)")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        key = _CONFIG_ALIASES.get(key, key)
        if key in values:
            raise ConfigError(f"config key {key!r} given twice in {path}")
        values[key] = val.strip()
    return values


def _build_experiment_config(args):
    from .experiments import ExperimentConfig

    raw: dict = {}
    if args.config:
        raw.update(_parse_config_file(args.config))
    field_types = {f.name: f.type for f in fields(ExperimentConfig)}
    # the flags' values in argparse's order, which fixes the first bad value reported
    for dest, val in vars(args).items():
        key = _CONFIG_ALIASES.get(dest.lower(), dest)
        if key in field_types and val is not None:
            raw[key] = val
    if "threads" not in raw:
        env = os.environ.get("FBMVAR_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            threads = env
        raw["threads"] = check_int(threads, "FBMVAR_THREADS", 1, error=ConfigError)
    convert = {"str": str, "float": _real, "int": int}
    converted: dict = {}
    for key, val in raw.items():
        if key not in field_types:
            raise FbmvarError(f"unknown config key {key!r}")
        try:
            if key == "levels":
                converted[key] = tuple(int(x) for x in val.split(","))
            else:
                converted[key] = convert[field_types[key]](val)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(f"bad value {val!r} for config key {key!r}") from None
    if "hurst" not in converted or "order" not in converted:
        raise FbmvarError("experiment needs --H and --q (or a config file)")
    return ExperimentConfig(**converted)


def _cmd_experiment(args) -> int:
    from .experiments import run_experiment

    cfg = _build_experiment_config(args)
    report = run_experiment(cfg)
    _write_text(report.to_json(), args.out)
    if args.csv:
        _write_text(report.per_level_csv(), args.csv)
    if args.plot_data:
        _write_text(report.plot_tsv(), args.plot_data)
    sys.stderr.write(
        f"{cfg.experiment_id}: {report.verdict} "
        f"({report.wall_clock_seconds:.1f}s)\n"
    )
    return 0


def _cmd_report(args) -> int:
    from .experiments import REPORT_SCHEMA

    reports = []
    for name in args.merge:
        with open(name) as fh:
            try:
                rep = json.load(fh)
                # NaN, Infinity and a lone surrogate such as \ud800 load, but no output holds them
                json.dumps(rep, ensure_ascii=False, allow_nan=False).encode()
            except (ValueError, RecursionError) as exc:  # not JSON text, or nested too deep
                raise FbmvarError(f"{name}: not a JSON report ({exc})") from None
        if not isinstance(rep, dict) or not isinstance(rep.get("config", {}), dict):
            raise FbmvarError(f"{name}: not an experiment report (want a JSON object)")
        if not isinstance(rep.get("config", {}).get("levels", []), list):
            raise FbmvarError(
                f"{name}: not an experiment report (config.levels is not a list)"
            )
        if rep.get("schema") != REPORT_SCHEMA:
            raise FbmvarError(f"{name}: not an experiment report "
                              f"(schema {rep.get('schema')!r}, want {REPORT_SCHEMA!r})")
        reports.append(rep)
    if args.format == "json":
        merged = {"schema": "fbmvar-report-merge/1", "seed": args.seed, "reports": reports}
        _write_text(json_text(merged), args.out)
        return 0
    rows = [("experiment", "H", "q", "weight", "levels", "verdict")]
    for rep in reports:
        cfg = rep.get("config", {})
        rows.append(
            (
                str(rep.get("experiment")),
                str(cfg.get("hurst")),
                str(cfg.get("order")),
                str(cfg.get("weight")),
                ",".join(str(x) for x in cfg.get("levels", [])),
                str(rep.get("verdict")),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.append(f"seed: {args.seed}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("error: a subcommand is required\n")
            return 1
        _check_outputs(args)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except FbmvarError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
