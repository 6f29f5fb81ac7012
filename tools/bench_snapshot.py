"""Record one benchmark snapshot of this checkout as BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_snapshot.py LABEL

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json, once with
``--trace 0`` and once with ``--trace 1``, at seed SEED and the
benchmark's own ``run_seconds``.  From each run it keeps the ``machine:``
line and the final JSON result line, and writes them all to
``BENCH_<label>.json`` in the current directory.  A speed claim quotes
the ratio of two such files.  Uses the standard library only.
"""

import json
import os
import subprocess
import sys

SEED = 1
TRACE_MODES = (0, 1)


def run_one(workload, trace, seconds):
    """(machine facts, result) of one perfbench run; raises if it fails."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    machine = next(line for line in lines if line.startswith("machine: "))
    return json.loads(machine[len("machine: "):]), json.loads(lines[-1])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in TRACE_MODES:
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            machine, result = run_one(workload, trace, seconds)
            runs.append(
                {"workload": workload, "trace": trace, "machine": machine, "result": result}
            )
    snapshot = {"label": argv[0], "seed": SEED, "run_seconds": seconds, "runs": runs}
    path = f"BENCH_{argv[0]}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
