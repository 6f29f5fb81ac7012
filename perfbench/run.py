"""greedyreg benchmark: end-to-end CLI sweep metrics, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sinc-greedy --seed 1 --seconds 20 --trace 0

Each measurement happens in a fresh worker process (worker.py) with BLAS
pinned to BLAS_THREADS threads.  With ``--trace 0`` the run starts
TIME_WORKERS workers one after another; each times its own set-up and
then CLI sweeps for an equal share of ``--seconds``.  SETUP_ONLY more
workers only set up, to give setup_s more samples.  It reports

  sweep_s      median wall seconds of one ``greedyreg bench`` CLI call
  setup_s      median seconds from worker start to ready-to-sweep
  peak_rss_mb  median peak resident memory of a worker

With ``--trace 1`` two workers alternate untraced and traced sweeps and
the run reports per-layer metrics (see tracer.py), each the median over
the traced sweeps; counts must agree exactly between sweeps and between
the two workers.  Either way a last worker sweeps the reference inputs
(workloads.REF_SEED) and compares them with reference.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted counts report rows
over all sweeps; failed counts rows with an ``error:`` termination or a
non-finite RMSE.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

# One thread: a fixed count no larger than any machine's core count, and
# the steadiest choice on a small shared box.
BLAS_THREADS = 1
TIME_WORKERS = 3
SETUP_ONLY = 2
TRACE_WORKERS = 2
# The whole run must end well inside 180 seconds: no worker may take
# longer than WORKER_TIMEOUT, and no new measuring worker starts after
# START_DEADLINE seconds (a much slower program gets fewer workers).
WORKER_TIMEOUT = 100.0
START_DEADLINE = 60.0
WORK_DIR = ".perfbench_work"


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, mode, workdir, budget=0.0, seed=None, extra=()):
    """Start one worker; return (set-up seconds, its JSON result or None)."""
    seed = args.seed if seed is None else seed
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(seed), "--mode", mode,
        "--budget", repr(budget), "--workdir", workdir, *extra,
    ]
    env = worker_env()
    err_path = os.path.join(workdir, "worker.err")
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
        try:
            if not select.select([proc.stdout], [], [], WORKER_TIMEOUT)[0]:
                raise WorkerFailed(f"{mode} worker never got ready")
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{mode} worker timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise WorkerFailed(f"{mode} worker exit {proc.returncode}: {tail}")
    if mode == "setup":
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    lo, hi = quartiles(values)
    return (
        f"{name:34s} median {statistics.median(values):.6g} {unit}"
        f"  q1 {lo:.6g}  q3 {hi:.6g}  min {min(values):.6g}  max {max(values):.6g}"
        f"  n={len(values)}"
    )


def reference_check(args, workdir):
    """Problems found by sweeping the reference inputs, or [] when they match."""
    with open(REFERENCE, encoding="utf-8") as fh:
        if args.workload not in json.load(fh):
            return [f"reference.json has no entry for {args.workload}"]
    _, result = run_worker(
        args, "check", workdir, seed=workloads.REF_SEED, extra=("--reference", REFERENCE)
    )
    return [f"reference inputs: {p}" for p in result["problems"]]


def time_run(args, workdir, started):
    budget = args.seconds / TIME_WORKERS
    setups, sweeps, peaks, results = [], [], [], []
    for i in range(TIME_WORKERS):
        if results and time.perf_counter() - started > START_DEADLINE:
            break
        setup, result = run_worker(args, "time", workdir, budget)
        setups.append(setup)
        sweeps += result["sweeps"]
        peaks.append(result["peak_rss_mb"])
        results.append(result)
        if i < SETUP_ONLY:
            setups.append(run_worker(args, "setup", workdir)[0])
    metrics = {
        "sweep_s": (sweeps, "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": (peaks, "MB"),
    }
    return results, metrics


def trace_run(args, workdir, started):
    budget = args.seconds / TRACE_WORKERS
    spans_dir = os.path.join(WORK_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}.jsonl")
    results = []
    for _ in range(TRACE_WORKERS):
        if results and time.perf_counter() - started > START_DEADLINE:
            break
        _, result = run_worker(args, "trace", workdir, budget, extra=("--spans", spans))
        results.append(result)
    counts = [c for r in results for c in r["counts"]]
    layer_seconds = [s for r in results for s in r["layer_seconds"]]
    untraced = [s for r in results for s in r["untraced"]]
    traced = [s for r in results for s in r["traced"]]
    problems = []
    for other in counts[1:]:
        for key, value in counts[0].items():
            if other[key] != value:
                problems.append(f"count {key} not repeatable: {value} vs {other[key]}")
    for result in results:
        if result["missing"]:
            print("trace: not found, not traced: " + ", ".join(result["missing"]))
    metrics = {}
    for key in layer_seconds[0]:
        unit = "ratio" if key.endswith("_share") else "us" if key.endswith("_us_per_iter") else "s"
        metrics[key] = ([s[key] for s in layer_seconds], unit)
    for key, value in counts[0].items():
        unit = "B" if key.endswith("bytes_computed") else "count" if isinstance(value, int) else "ratio"
        metrics[key] = ([value], unit)
    # Each traced sweep runs right after an untraced one, so their ratio
    # sees nearly the same machine speed.
    overheads = [t / u - 1.0 for u, t in zip(untraced, traced)]
    metrics["trace.overhead_frac"] = (overheads, "ratio")
    print(f"spans of the last traced sweep: {spans}")
    return results, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "greedyreg", "__init__.py")):
        print("perfbench: run from the repository root (no src/greedyreg here)", file=sys.stderr)
        return 2

    started = time.perf_counter()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        if args.trace:
            results, metrics, problems = trace_run(args, workdir, started)
        else:
            results, metrics = time_run(args, workdir, started)
            problems = []
        problems += reference_check(args, workdir)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = {d for r in results for d in r["digests"]}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different reports from identical sweeps")
    for result in results:
        problems += result["problems"]
    attempted = sum(r["rows"] for r in results)
    failed = sum(r["failed"] for r in results)

    print("machine: " + json.dumps(results[0]["machine"]))
    for name, (values, unit) in metrics.items():
        print(describe(name, values, unit))
    print(f"{'fail_frac':34s} {failed / attempted:.6g} ({failed} of {attempted} rows)")
    for problem in sorted(set(problems)):
        print(f"CHECK FAILED: {problem}")
    summary = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (values, unit) in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
