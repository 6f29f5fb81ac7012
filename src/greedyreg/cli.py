"""Command-line front end.

Subcommands:
  bench sinc   sweep methods over the synthetic sinc benchmark
  bench csv    sweep methods over a numeric CSV dataset (50/50 split)
  fit          run one method at one parameter and print its report
  report       re-aggregate an existing results CSV

Each option is declared once, in ``_OPTIONS``.  Flags of ``bench`` that
take a value can also come from a config file of flat key=value lines
(keys are the long flag names with dashes or underscores; any other key
is an error); explicit flags win.
"""

import argparse
import dataclasses
import functools
import sys
from typing import NamedTuple

import numpy as np

from .bench import (
    ExperimentConfig,
    emit_report,
    load_report,
    parse_method,
    render_report,
    sweep,
)
from .core import FitReport

# the most values a count or a range may expand to
_MAX_EXPANDED = 10**6


def _parse_noise_levels(text):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad noise levels {text!r}") from None


def _parse_seeds(text):
    """A count N (seeds 0..N-1) or a comma list of seeds."""
    try:
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip()]
        if int(text) <= _MAX_EXPANDED:
            return list(range(int(text)))
    except ValueError:
        pass
    raise ValueError(f"bad seeds {text!r}")


def _parse_log_grid(text):
    """'lo:hi:count' -> count log-spaced values from lo to hi."""
    try:
        lo_text, hi_text, count_text = text.split(":")
        lo, hi, count = float(lo_text), float(hi_text), int(count_text)
        ok = 0 < lo < hi < np.inf and 1 <= count <= _MAX_EXPANDED
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
        if ":" not in text:
            return [float(part) for part in text.split(",") if part.strip()]
        lo, hi = (int(part) for part in text.split(":"))
        if hi - lo < _MAX_EXPANDED:
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise ValueError(f"bad k grid {text!r}")


def _parse_target(text):
    """'last', a column index, or a column name."""
    try:
        return text if text == "last" else int(text)
    except ValueError:
        return text


# One option: its long flag, the commands that take it (of sinc, csv, fit and
# report), its text parser (None for an on/off flag), the ExperimentConfig field
# it sets, and what argparse shows and checks.  int and float parse at the flag,
# where a bad value exits 2; the other parsers run once the config file is merged.
class _Option(NamedTuple):
    flag: str
    commands: str
    parse: object = None
    field: str | None = None
    help: str | None = None
    choices: tuple | None = None
    default: object = None
    required: bool = False


_OPTIONS = [
    _Option("task", "fit", str, "task", choices=("sinc", "csv")),
    _Option("method", "fit", str, help="e.g. dtogl:first@1e-4, ogl:max@9", required=True),
    _Option("m-train", "sinc fit", int, "m_train"),
    _Option("m-test", "sinc fit", int, "m_test"),
    _Option("n", "sinc fit", int, "n"),
    _Option("sigma", "sinc", _parse_noise_levels, "sigmas", "comma list of noise levels"),
    _Option("sigma", "fit", float, default=0.1),
    _Option("eta", "sinc fit", float, "eta"),
    _Option("path", "csv fit", str, "csv_path", "CSV file with numeric cells"),
    _Option("target", "csv fit", _parse_target, "target_column", "'last', index, or column name"),
    _Option("no-header", "csv fit"),
    _Option("seed", "fit", int, default=0),
    _Option("methods", "sinc csv", str, help="comma list, e.g. ogl:max,dtogl:first"),
    _Option("seeds", "sinc csv", _parse_seeds, "seeds", "count (0..N-1) or comma list"),
    _Option("k-grid", "sinc csv", _parse_k_grid, "k_grid", "lo:hi or comma list"),
    _Option("delta-grid", "sinc csv", _parse_log_grid, "delta_grid", "lo:hi:count (log)"),
    _Option("lambda-grid", "sinc csv", _parse_log_grid, "lambda_grid", "lo:hi:count (log)"),
    _Option("raw-atoms", "sinc csv fit", help="skip column normalization"),
    _Option("include-materialization", "sinc csv",
            help="count dictionary materialization in reported times"),
    _Option("no-timing", "sinc csv", help="write zero seconds (byte-identical reruns)"),
    _Option("in", "report", str, required=True),
    _Option("out", "sinc csv report", str, help="output file (default: stdout)"),
    _Option("format", "sinc csv report", str, choices=("csv", "markdown")),
    _Option("config", "sinc csv", str, help="key=value file supplying any of the above"),
]


def _value_options(*commands):
    """Each option of ``commands`` that takes a value, by its key (the flag with underscores)."""
    options = [option for option in _OPTIONS if option.parse]
    return {o.flag.replace("-", "_"): o for o in options if set(commands) & set(o.commands.split())}


# the keys a config file may set: every value option of bench but --config
_CONFIG_OPTIONS = {k: o for k, o in _value_options("sinc", "csv").items() if k != "config"}


def build_parser():
    parser = argparse.ArgumentParser(prog="greedyreg")
    commands = parser.add_subparsers(dest="command", required=True)
    bench_cmd = commands.add_parser("bench", help="run a parameter sweep")
    tasks = bench_cmd.add_subparsers(dest="task", required=True)
    parsers = {
        "sinc": tasks.add_parser("sinc", help="synthetic sinc benchmark"),
        "csv": tasks.add_parser("csv", help="real dataset from a CSV file"),
        "fit": commands.add_parser("fit", help="single run, prints the fit report"),
        "report": commands.add_parser("report", help="aggregate an existing results CSV"),
    }
    for option in _OPTIONS:
        spec = {"action": "store_true"} if option.parse is None else {
            "type": option.parse if option.parse in (int, float) else None,
            "choices": option.choices, "default": option.default, "required": option.required,
        }
        for command in option.commands.split():
            parsers[command].add_argument(f"--{option.flag}", help=option.help, **spec)
    return parser


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
            if key not in _CONFIG_OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _merged_option(args, file_values, options, key):
    """The explicit flag, else the config file's value; text is parsed."""
    value = getattr(args, key, None)
    if value is None:
        value = file_values.get(key)
    if not isinstance(value, str):
        return value
    choices = options[key].choices
    if choices and value not in choices:
        raise ValueError(f"unknown {key} {value!r}; expected {' or '.join(choices)}")
    return options[key].parse(value)


def _experiment_config(args, options, file_values, **fields) -> ExperimentConfig:
    """The validated config of ``fields`` and of each of ``options`` a flag or the config file set.

    A field given in ``fields`` wins over its option; an option set
    neither way keeps ExperimentConfig's default.
    """
    for key, option in options.items():
        value = _merged_option(args, file_values, options, key) if option.field else None
        if value is not None:
            fields.setdefault(option.field, value)
    return ExperimentConfig(
        normalize_atoms=not args.raw_atoms, header=not getattr(args, "no_header", False), **fields
    ).validate()


def _cmd_bench(args) -> int:
    file_values = _load_config_file(args.config) if args.config else {}
    opt = functools.partial(_merged_option, args, file_values, _CONFIG_OPTIONS)
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
    config = _experiment_config(
        args, _CONFIG_OPTIONS, file_values, task=args.task, methods=methods,
        include_materialization=args.include_materialization,
    )
    out, fmt, timing = opt("out"), opt("format") or "csv", not args.no_timing
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
    # one cell: the noise level and seed are fit's own flags
    config = _experiment_config(
        args, _value_options("fit"), {}, methods=[method], seeds=[args.seed], sigmas=[args.sigma],
        flag_failures=False, **{f"{method.grid}_grid": [method.param]},
    )
    row = sweep(config)[0]
    for field in dataclasses.fields(FitReport):
        print(f"{field.name}: {getattr(row, field.name)}")
    return 0


def _cmd_report(args) -> int:
    infile, fmt = getattr(args, "in"), args.format or "markdown"
    rows = load_report(infile)
    if not rows:
        raise ValueError(f"no rows in {infile}")
    if args.out:
        emit_report(rows, args.out, fmt)
    else:
        sys.stdout.write(render_report(rows, fmt))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {"bench": _cmd_bench, "fit": _cmd_fit, "report": _cmd_report}[args.command](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
