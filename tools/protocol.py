"""Run the acceptance protocol's n=300 sweep in process and record it as PROTOCOL_<label>.json.

Usage, from the root of a checkout:

    python3 tools/protocol.py LABEL [--methods M1,M2,...] [--seeds N] [--src SRC]

Runs ``greedyreg bench sinc`` through ``greedyreg.cli.main`` in this
process with the acceptance protocol's sizes: m=1000 training and 1000
test points, n=300 atoms, the four default noise levels, and seeds
0..N-1 (default 10).  ``--methods`` defaults to every method of
``tools/golden.py``'s all-methods run.  ``--src`` picks the source tree
to import greedyreg from, as in ``tools/golden.py``, so one script can
record two trees.  BLAS runs on one thread unless the environment says
otherwise, as in the benchmark.

The record holds the wall time of the run, and per method the fit
seconds, rows, iterations and terminations, plus the SHA-256 of the
``--no-timing`` report.  ``fit_s`` counts each piece of work once:

* a k-sweep's rows all come from one fit and carry its time, so it
  counts one fit per (sigma, seed) cell;
* a max-criterion delta sweep's rows are cuts of the cell's one max
  path, each carrying the path's clock where it stops, so the clocks
  overlap and it counts the largest per cell: the path's clock at its
  furthest stop;
* every other method sums its rows' seconds (a row that shares a sweep
  carries the sweep's mean, so the sum is the sweep's time).

Each method's ``fit_s_rule`` names the rule it took: ``one fit per
cell``, ``largest path clock per cell`` or ``row sum``.  Records written
before 0.14.0 have no ``fit_s_rule`` and otherwise the same keys.
Records written before 0.13.0 summed the max cuts' clocks; their
``fit_s`` for ``togl:max`` and ``dtogl:max`` overstates the work and may
exceed ``wall_s``.  A change that keeps the report's bytes keeps the
hash.  Uses the standard library only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import time
from collections import Counter, defaultdict

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from golden import ALL_METHODS, ROOT, import_src  # noqa: E402

PROTOCOL_ARGS = [
    "bench", "sinc", "--m-train", "1000", "--m-test", "1000", "--n", "300", "--no-timing",
]


def run_protocol(methods, seeds):
    """(wall seconds, report text, rows) of one protocol sweep."""
    from greedyreg import cli

    argv = [*PROTOCOL_ARGS, "--methods", methods, "--seeds", str(seeds)]
    captured = []
    real_sweep = cli.sweep

    def keep_rows(config):
        rows = real_sweep(config)
        captured.append(rows)
        return rows

    cli.sweep = keep_rows
    out = io.StringIO()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        wall = time.perf_counter() - start
    finally:
        cli.sweep = real_sweep
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit {code}")
    return argv, wall, out.getvalue(), captured[0]


def fit_s_rule(label):
    """The rule by which ``fit_s`` counts the method ``label`` (see the module docstring)."""
    from greedyreg.bench import parse_method

    method = parse_method(label)
    if method.grid == "k":
        return "one fit per cell"
    if method.reads_path:
        return "largest path clock per cell"
    return "row sum"


def per_method(rows):
    """Fit seconds and their rule, rows, iterations and terminations per method."""
    fit_seconds = defaultdict(float)
    cell_seconds = {}  # (method, sigma, seed) -> the largest clock of a cell's rows
    summary = {}
    for row in rows:
        stats = summary.setdefault(
            row.method,
            {"rows": 0, "iterations": 0, "terminations": Counter(),
             "fit_s_rule": fit_s_rule(row.method)},
        )
        stats["rows"] += 1
        stats["iterations"] += row.iterations
        stats["terminations"][row.termination] += 1
        if stats["fit_s_rule"] == "row sum":
            fit_seconds[row.method] += row.seconds
        else:
            cell = (row.method, row.sigma, row.seed)
            cell_seconds[cell] = max(cell_seconds.get(cell, 0.0), row.seconds)
    for (method, _, _), seconds in cell_seconds.items():
        fit_seconds[method] += seconds
    for method, stats in summary.items():
        stats["fit_s"] = fit_seconds[method]
        stats["terminations"] = dict(sorted(stats["terminations"].items()))
    return dict(sorted(summary.items()))


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--methods", default=ALL_METHODS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    problem = import_src(args.src)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    run_argv, wall, report, rows = run_protocol(args.methods, args.seeds)
    record = {
        "label": args.label,
        "argv": run_argv,
        "machine": machine(),
        "wall_s": wall,
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
        "methods": per_method(rows),
    }
    path = f"PROTOCOL_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}: {wall:.1f} s, report sha256 {record['report_sha256']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
