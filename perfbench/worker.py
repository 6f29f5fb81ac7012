"""One benchmark process: set up a workload, then time, trace or check sweeps.

run.py starts this file in a fresh interpreter, from the root of the
checkout, with BLAS threads pinned in the environment.  Set-up is the
import of greedyreg plus input generation; the worker prints READY when
it is done, so the parent can time set-up from process start.  After
that the worker runs ``greedyreg.cli.main`` on the workload's argv and
prints one JSON line with what it measured.

Modes:
  setup  nothing after READY
  time   timed sweeps until the budget is spent
  trace  untraced and traced sweeps in turn until the budget is spent
  check  one traced sweep, whose outputs are compared with reference.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from greedyreg import cli  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def machine():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_sweep(argv):
    """Wall seconds of one CLI sweep call, its exit code and its report."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


class Outputs:
    """Row counts, failures and report digests over every sweep of a worker."""

    def __init__(self):
        self.rows = 0
        self.failed = 0
        self.digests = set()
        self.problems = []

    def add(self, code, text):
        rows = checks.parse_report(text)
        self.rows += max(len(rows), 1)
        self.failed += len(checks.failed_rows(rows)) if code == 0 else max(len(rows), 1)
        if code != 0:
            self.problems.append(f"cli exit code {code}")
        if not rows:
            self.problems.append("report has no rows")
        self.problems += checks.ogl_train_monotone(rows)
        self.digests.add(hashlib.sha256(text.encode()).hexdigest())

    def summary(self):
        return {
            "rows": self.rows,
            "failed": self.failed,
            "digests": sorted(self.digests),
            "problems": sorted(set(self.problems)),
        }


def keep_going(start, budget, spent):
    """Another round fits in the budget if it is no longer than the mean so far."""
    if not spent:
        return True
    return time.perf_counter() - start + sum(spent) / len(spent) <= budget


def time_mode(argv, budget):
    # No warm-up: every CLI call a user makes starts in a fresh process.
    outputs = Outputs()
    start = time.perf_counter()
    sweeps = []
    while keep_going(start, budget, sweeps):
        seconds, code, text = run_sweep(argv)
        sweeps.append(seconds)
        outputs.add(code, text)
    return {"sweeps": sweeps, **outputs.summary()}


def trace_mode(argv, budget, spans_path, header):
    outputs = Outputs()
    tracer = tracing.Tracer()
    untraced, traced, layer_seconds, counts, rounds = [], [], [], [], []
    start = time.perf_counter()
    while keep_going(start, budget, rounds):
        round_start = time.perf_counter()
        seconds, code, text = run_sweep(argv)
        untraced.append(seconds)
        outputs.add(code, text)
        tracer.reset()
        tracer.install()
        try:
            seconds, code, text = run_sweep(argv)
        finally:
            tracer.uninstall()
        traced.append(seconds)
        outputs.add(code, text)
        per_layer, per_count = tracer.metrics()
        gaps = [gap for _lam, _obj, gap in tracer.fista_results()]
        per_count["baselines.fista_rel_gap_max"] = max(gaps) if gaps else 0.0
        layer_seconds.append(per_layer)
        counts.append(per_count)
        rounds.append(time.perf_counter() - round_start)
    tracer.write_spans(spans_path, header)
    return {
        "untraced": untraced,
        "traced": traced,
        "layer_seconds": layer_seconds,
        "counts": counts,
        "missing": tracer.missing,
        **outputs.summary(),
    }


def check_mode(argv, reference):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _seconds, code, text = run_sweep(argv)
    finally:
        tracer.uninstall()
    outputs = Outputs()
    outputs.add(code, text)
    fista = tracer.fista_results()
    result = {
        "oracle": checks.oracle_rows(checks.parse_report(text)),
        "fista": [{"lam": lam, "objective": obj, "rel_gap": gap} for lam, obj, gap in fista],
        **outputs.summary(),
    }
    if reference is not None:
        result["problems"] += checks.check_oracle(text, reference["oracle"])
        result["problems"] += checks.check_fista(fista, reference["fista"])
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "time", "trace", "check"))
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    parser.add_argument("--reference", help="check mode: reference.json")
    args = parser.parse_args()

    argv = workloads.prepare(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    if args.mode == "time":
        result = time_mode(argv, args.budget)
    elif args.mode == "trace":
        header = {"workload": args.workload, "seed": args.seed, "argv": argv}
        result = trace_mode(argv, args.budget, args.spans, header)
    else:
        reference = None
        if args.reference:
            with open(args.reference, encoding="utf-8") as fh:
                reference = json.load(fh)[args.workload]
        result = check_mode(argv, reference)
    result["machine"] = machine()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
