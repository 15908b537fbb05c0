"""Command-line front end.

Subcommands: sample, variation, constants, hermite-process, experiment,
report.  JSON is the primary machine format (CSV/TSV secondary); every
subcommand accepts --seed and echoes it in its output.  Exit status: 0 on
success, 1 on domain/regime/usage errors, 2 on I/O errors.  Numeric
output is written with 17 significant digits unless --precision is given
(experiment reports always use full precision: they must be
byte-reproducible).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import fbm
from .constants import (
    classify_regime,
    hermite_process_variance_const,
    sigma_clt,
    sigma_tilde,
)
from .errors import ConfigError, DomainError, FbmvarError, SeriesDivergenceError
from .experiments import EXPERIMENT_IDS, ExperimentConfig, run_experiment
from .hermite_process import simulate_hermite
from .variations import renormalize, weighted_hermite_variation, weighted_power_variation
from .weights import parse_weight


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _precision(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"precision must be an integer >= 1, got {text!r}")
    return int(text)


def _fmt(value, precision: int | None):
    p = 17 if precision is None else precision
    if isinstance(value, float):
        return float(f"{value:.{p}g}")
    return value


def _emit(payload: dict, out: str | None, precision: int | None) -> None:
    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        if isinstance(obj, (np.floating, float)):
            return _fmt(float(obj), precision)
        if isinstance(obj, (np.integer,)):
            return int(obj)
        return obj

    text = json.dumps(walk(payload), sort_keys=True, indent=2) + "\n"
    _write_text(text, out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="fbmvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand", parser_class=_Parser)

    p = sub.add_parser("sample",
                       help="sample one exact fBm path")
    p.add_argument("--H", type=float, required=True, help="Hurst parameter in (0,1)")
    p.add_argument("--n", type=int, required=True, help="dyadic level (2^n increments)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--stream", type=int, default=0, help="replicate stream index")
    p.add_argument("--sampler", choices=("circulant", "cholesky"), default="circulant",
                   help="exact sampler to use")
    p.add_argument("--format", choices=("csv", "bin", "json"), default="csv",
                   help="output format")
    p.add_argument("--out", help="output file (default stdout; required for bin)")
    p.add_argument("--precision", type=_precision, help="significant digits (default 17)")

    p = sub.add_parser("variation",
                       help="weighted Hermite/power variation of a sampled path")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="variation order q >= 1")
    p.add_argument("--weight", default="one",
                   help="weight spec: one | poly:c0,c1,.. | cos:a | sin:a | exp:a")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--power", action="store_true",
                   help="power variation instead of Hermite variation")
    p.add_argument("--centered", action="store_true",
                   help="subtract mu_q (power variation only)")
    p.add_argument("--renormalize", action="store_true",
                   help="also apply the regime prefactor")
    p.add_argument("--out")
    p.add_argument("--precision", type=_precision)

    p = sub.add_parser("constants",
                       help="limit constants and regime for (H, q)")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0, help="echoed (no randomness)")
    p.add_argument("--out")
    p.add_argument("--precision", type=_precision)

    p = sub.add_parser("hermite-process",
                       help="simulate the Hermite process from a fine fBm path")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--m", type=int, required=True, help="fine level")
    p.add_argument("--n-out", type=int, required=True, help="output grid level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--export", choices=("csv", "json"), default="json")
    p.add_argument("--out")
    p.add_argument("--precision", type=_precision)

    p = sub.add_parser("experiment",
                       help="run a seeded Monte Carlo experiment")
    p.add_argument("--id", required=True, choices=EXPERIMENT_IDS, dest="experiment_id")
    p.add_argument("--config", help="key = value config file (flags override)")
    p.add_argument("--H", type=float)
    p.add_argument("--q", type=int)
    p.add_argument("--weight")
    p.add_argument("--levels", help="comma-separated dyadic levels")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--fine-offset", type=int)
    p.add_argument("--threads", type=int,
                   help="worker processes (default FBMVAR_THREADS or 1)")
    p.add_argument("--out", help="report JSON file (default stdout)")
    p.add_argument("--csv", help="also write per-level statistics CSV")
    p.add_argument("--plot-data", help="also write plot-ready TSV (n, stat, yerr)")

    p = sub.add_parser("report",
                       help="merge experiment reports into a summary table")
    p.add_argument("--merge", nargs="+", required=True, help="report JSON files")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--seed", type=int, default=0, help="echoed (no randomness)")
    p.add_argument("--out")
    return parser


def _cmd_sample(args) -> int:
    sampler = (
        fbm.sample_fbm_cholesky if args.sampler == "cholesky" else fbm.sample_fbm_circulant
    )
    path = sampler(args.H, args.n, args.seed, args.stream)
    if args.format == "bin":
        if args.out is None:
            raise FbmvarError("binary output requires --out")
        with open(args.out, "wb") as fh:
            fbm.write_binary(path, fh)
        sys.stdout.write(f"wrote {args.out} (seed {args.seed})\n")
        return 0
    if args.format == "csv":
        import io

        buf = io.StringIO()
        fbm.write_csv(path, buf)
        _write_text(buf.getvalue(), args.out)
        # the CSV schema is fixed (k,t,B), so the seed echo goes to stderr
        sys.stderr.write(f"seed {args.seed} stream {args.stream}\n")
        return 0
    _emit(
        {
            "H": path.hurst,
            "n": path.level,
            "seed": args.seed,
            "stream": args.stream,
            "sampler": args.sampler,
            "values": list(path.values),
        },
        args.out,
        args.precision,
    )
    return 0


def _cmd_variation(args) -> int:
    path = fbm.sample_fbm_circulant(args.H, args.n, args.seed, args.stream)
    f = parse_weight(args.weight)
    if args.power:
        raw = weighted_power_variation(path, f, args.q, centered=args.centered)
    else:
        raw = weighted_hermite_variation(path, f, args.q)
    payload = {
        "H": args.H,
        "n": args.n,
        "q": args.q,
        "weight": args.weight,
        "seed": args.seed,
        "stream": args.stream,
        "kind": "power" if args.power else "hermite",
        "centered": bool(args.centered),
        "raw_value": raw,
    }
    if args.renormalize:
        stat = renormalize(raw, args.H, args.q, args.n)
        payload["renormalized_value"] = stat.renormalized_value
        payload["regime"] = stat.regime.case_id.value
    _emit(payload, args.out, args.precision)
    return 0


def _cmd_constants(args) -> int:
    regime = classify_regime(args.H, args.q)
    payload: dict = {
        "H": args.H,
        "q": args.q,
        "seed": args.seed,
        "regime": regime.case_id.value,
        "renorm_exponent": regime.renorm_exponent,
        "conjectural": regime.conjectural,
        "sigma": None,
        "sigma_tilde": None,
        "c_qH": None,
        "truncation_radius": None,
        "tail_bound": None,
    }
    try:
        s = sigma_clt(args.H, args.q, rel_tol=args.rel_tol)
        payload.update(
            sigma=s.value, truncation_radius=s.radius, tail_bound=s.tail_bound
        )
    except SeriesDivergenceError:
        pass
    try:
        st = sigma_tilde(args.H, args.q, rel_tol=args.rel_tol)
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
    path = fbm.sample_fbm_circulant(args.H, args.m, args.seed, args.stream)
    z = simulate_hermite(path, args.q, args.n_out)
    if args.export == "csv":
        lines = ["j,t,Z"]
        for j, (t, v) in enumerate(zip(z.times, z.values)):
            lines.append(f"{j},{float(t)!r},{float(v)!r}")
        _write_text("\n".join(lines) + "\n", args.out)
        return 0
    _emit(
        {
            "q": args.q,
            "H": args.H,
            "m": args.m,
            "n_out": args.n_out,
            "seed": args.seed,
            "stream": args.stream,
            "values": list(z.values),
        },
        args.out,
        args.precision,
    )
    return 0


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    keymap = {
        "id": "experiment_id",
        "h": "hurst",
        "q": "order",
        "seed": "master_seed",
    }
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FbmvarError(f"bad config line {raw.rstrip()!r} (want key = value)")
            key, _, val = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            key = keymap.get(key, key)
            values[key] = val.strip()
    return values


def _build_experiment_config(args) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        raw.update(_parse_config_file(args.config))
    cli_values = {
        "experiment_id": args.experiment_id,
        "hurst": args.H,
        "order": args.q,
        "weight": args.weight,
        "levels": args.levels,
        "replicates": args.replicates,
        "master_seed": args.seed,
        "fine_offset": args.fine_offset,
        "threads": args.threads,
    }
    raw.update({k: v for k, v in cli_values.items() if v is not None})
    if "threads" not in raw:
        raw["threads"] = os.environ.get("FBMVAR_THREADS", "1")
    field_types = {f.name: f.type for f in fields(ExperimentConfig)}
    converted: dict = {}
    for key, val in raw.items():
        if key not in field_types:
            raise FbmvarError(f"unknown config key {key!r}")
        try:
            if key == "levels":
                if isinstance(val, str):
                    val = tuple(int(x) for x in val.split(","))
                converted[key] = tuple(val)
            elif key in ("experiment_id", "weight"):
                converted[key] = str(val)
            elif key == "hurst":
                converted[key] = float(val)
            else:
                converted[key] = int(val)
        except ValueError:
            raise ConfigError(f"bad value {val!r} for config key {key!r}") from None
    if "hurst" not in converted or "order" not in converted:
        raise FbmvarError("experiment needs --H and --q (or a config file)")
    return ExperimentConfig(**converted)


def _cmd_experiment(args) -> int:
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
    reports = []
    for name in args.merge:
        with open(name) as fh:
            try:
                rep = json.load(fh)
            except ValueError as exc:  # not JSON, or not text at all
                raise FbmvarError(f"{name}: not a JSON report ({exc})") from None
        if not isinstance(rep, dict) or not isinstance(rep.get("config", {}), dict):
            raise FbmvarError(f"{name}: not an experiment report (want a JSON object)")
        reports.append(rep)
    if args.format == "json":
        _write_text(
            json.dumps(
                {"schema": "fbmvar-report-merge/1", "seed": args.seed,
                 "reports": reports},
                sort_keys=True,
                indent=2,
            )
            + "\n",
            args.out,
        )
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


_COMMANDS = {
    "sample": _cmd_sample,
    "variation": _cmd_variation,
    "constants": _cmd_constants,
    "hermite-process": _cmd_hermite_process,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("error: a subcommand is required\n")
            return 1
        return _COMMANDS[args.command](args)
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
