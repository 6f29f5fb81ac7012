"""Command-line front end.

Subcommands:
  bench sinc   sweep methods over the synthetic sinc benchmark
  bench csv    sweep methods over a numeric CSV dataset (50/50 split)
  fit          run one method at one parameter and print its report
  report       re-aggregate an existing results CSV

Flags that take a value can also come from a config file of flat
key=value lines (keys are the long flag names with dashes or underscores;
any other key is an error); explicit flags win.
"""

import argparse
import dataclasses
import functools
import sys

from .bench import (
    ExperimentConfig,
    emit_report,
    load_report,
    parse_method,
    render_report,
    sweep,
)
from .core import FitReport


def _parse_float_list(text):
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_seeds(text):
    text = text.strip()
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return list(range(int(text)))


def _parse_log_grid(text):
    """'lo:hi:count' -> count log-spaced values from lo to hi."""
    import numpy as np

    try:
        lo_text, hi_text, count_text = text.split(":")
        lo, hi, count = float(lo_text), float(hi_text), int(count_text)
        ok = 0 < lo < hi < np.inf and count >= 1
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"bad log grid {text!r}")
    return list(np.geomspace(lo, hi, count))


def _parse_k_grid(text):
    """'lo:hi' -> integers lo..hi inclusive, or a comma list of numbers.

    A listed value is not truncated here: ExperimentConfig.validate
    rejects a fractional k and names the grid.
    """
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":")
            return list(range(int(lo_text), int(hi_text) + 1))
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad k grid {text!r}") from None


def _parse_format(text):
    if text not in ("csv", "markdown"):
        raise ValueError(f"unknown format {text!r}; expected csv or markdown")
    return text


def _load_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _common_bench_flags(parser):
    parser.add_argument("--methods", help="comma list, e.g. ogl:max,dtogl:first")
    parser.add_argument("--seeds", help="count (0..N-1) or comma list", default=None)
    parser.add_argument("--k-grid", dest="k_grid", help="lo:hi or comma list")
    parser.add_argument("--delta-grid", dest="delta_grid", help="lo:hi:count (log)")
    parser.add_argument("--lambda-grid", dest="lambda_grid", help="lo:hi:count (log)")
    parser.add_argument("--raw-atoms", action="store_true", help="skip column normalization")
    parser.add_argument(
        "--include-materialization",
        action="store_true",
        help="count dictionary materialization in reported times",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="write zero seconds (byte-identical reruns)",
    )
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "markdown"), default=None)
    parser.add_argument("--config", help="key=value file supplying any of the above")


def build_parser():
    parser = argparse.ArgumentParser(prog="greedyreg")
    commands = parser.add_subparsers(dest="command", required=True)

    bench_cmd = commands.add_parser("bench", help="run a parameter sweep")
    tasks = bench_cmd.add_subparsers(dest="task", required=True)

    sinc_cmd = tasks.add_parser("sinc", help="synthetic sinc benchmark")
    sinc_cmd.add_argument("--m-train", dest="m_train", type=int, default=None)
    sinc_cmd.add_argument("--m-test", dest="m_test", type=int, default=None)
    sinc_cmd.add_argument("--n", type=int, default=None)
    sinc_cmd.add_argument("--sigma", help="comma list of noise levels")
    sinc_cmd.add_argument("--eta", type=float, default=None)
    _common_bench_flags(sinc_cmd)

    csv_cmd = tasks.add_parser("csv", help="real dataset from a CSV file")
    csv_cmd.add_argument("--path", help="CSV file with numeric cells")
    csv_cmd.add_argument("--target", default=None, help="'last', index, or column name")
    csv_cmd.add_argument("--no-header", action="store_true")
    _common_bench_flags(csv_cmd)

    fit_cmd = commands.add_parser("fit", help="single run, prints the fit report")
    fit_cmd.add_argument("--task", choices=("sinc", "csv"), default="sinc")
    fit_cmd.add_argument("--method", required=True, help="e.g. dtogl:first@1e-4, ogl:max@9")
    fit_cmd.add_argument("--m-train", dest="m_train", type=int, default=1000)
    fit_cmd.add_argument("--m-test", dest="m_test", type=int, default=1000)
    fit_cmd.add_argument("--n", type=int, default=300)
    fit_cmd.add_argument("--sigma", type=float, default=0.1)
    fit_cmd.add_argument("--eta", type=float, default=1.0)
    fit_cmd.add_argument("--path", help="CSV path for --task csv")
    fit_cmd.add_argument("--target", default="last")
    fit_cmd.add_argument("--no-header", action="store_true")
    fit_cmd.add_argument("--seed", type=int, default=0)
    fit_cmd.add_argument("--raw-atoms", action="store_true")

    report_cmd = commands.add_parser("report", help="aggregate an existing results CSV")
    report_cmd.add_argument("--in", dest="infile", required=True)
    report_cmd.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    report_cmd.add_argument("--out")

    return parser


_CONFIG_PARSERS = {
    "m_train": int,
    "m_test": int,
    "n": int,
    "eta": float,
    "sigma": _parse_float_list,
    "methods": str,
    "seeds": str,
    "k_grid": _parse_k_grid,
    "delta_grid": _parse_log_grid,
    "lambda_grid": _parse_log_grid,
    "path": str,
    "target": str,
    "out": str,
    "format": _parse_format,
}


def _merged_option(args, file_values, key, default=None):
    """The explicit flag, else the config file's value, else ``default``; text is parsed."""
    value = getattr(args, key, None)
    if value is None:
        value = file_values.get(key, default)
    return _CONFIG_PARSERS[key](value) if isinstance(value, str) else value


def _bench_config(args, opt) -> ExperimentConfig:
    methods_text = opt("methods")
    if not methods_text:
        raise ValueError("--methods is required (e.g. ogl:max,dtogl:first)")
    methods = [parse_method(part) for part in methods_text.split(",") if part.strip()]
    for method in methods:
        if method.param is not None:
            raise ValueError(
                f"bench sweeps a grid; drop '@{method.param:g}' from {method.label} "
                f"and set --{method.grid}-grid instead"
            )

    config = ExperimentConfig(
        task=args.task,
        methods=methods,
        seeds=_parse_seeds(opt("seeds", "1")),
        normalize_atoms=not args.raw_atoms,
        k_grid=opt("k_grid"),
        delta_grid=opt("delta_grid"),
        lambda_grid=opt("lambda_grid"),
        include_materialization=args.include_materialization,
    )
    if args.task == "sinc":
        config.m_train = opt("m_train", 1000)
        config.m_test = opt("m_test", 1000)
        config.n = opt("n", 300)
        config.eta = opt("eta", ExperimentConfig.eta)
        sigmas = opt("sigma")
        if sigmas is not None:
            config.sigmas = sigmas
    else:
        config.csv_path = opt("path")
        config.target_column = _normalize_target(opt("target", "last"))
        config.header = not args.no_header
    return config.validate()


def _normalize_target(value):
    if isinstance(value, str) and value != "last":
        try:
            return int(value)
        except ValueError:
            return value
    return value


def _cmd_bench(args) -> int:
    file_values = _load_config_file(args.config) if args.config else {}
    opt = functools.partial(_merged_option, args, file_values)
    config = _bench_config(args, opt)
    out, fmt, timing = opt("out"), opt("format", "csv"), not args.no_timing
    rows = sweep(config)
    if out:
        emit_report(rows, out, fmt, timing=timing)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        sys.stdout.write(render_report(rows, fmt, timing=timing))
    return 0


def _cmd_fit(args) -> int:
    method = parse_method(args.method)
    if method.param is None:
        raise ValueError("fit needs a parameter, e.g. ogl:max@9 or ridge@0.01")
    config = ExperimentConfig(
        task=args.task,
        methods=[method],
        seeds=[args.seed],
        m_train=args.m_train,
        m_test=args.m_test,
        n=args.n,
        sigmas=[args.sigma],
        eta=args.eta,
        csv_path=args.path,
        target_column=_normalize_target(args.target),
        header=not args.no_header,
        normalize_atoms=not args.raw_atoms,
        flag_failures=False,
    )
    setattr(config, f"{method.grid}_grid", [method.param])
    row = sweep(config.validate())[0]
    for field in dataclasses.fields(FitReport):
        print(f"{field.name}: {getattr(row, field.name)}")
    return 0


def _cmd_report(args) -> int:
    rows = load_report(args.infile)
    if not rows:
        raise ValueError(f"no rows in {args.infile}")
    if args.out:
        emit_report(rows, args.out, args.format)
    else:
        sys.stdout.write(render_report(rows, args.format))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_report(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
