"""Write the stdout of a fixed set of CLI runs, one file per run, for diffing.

Usage:
    python3 tools/golden.py OUTDIR [--src SRC]

Runs each golden configuration below through ``greedyreg.cli.main`` in
this process and writes its stdout to ``OUTDIR/<name>.out``.  Bench runs
use ``--no-timing``; ``fit`` has no such flag, so its ``seconds:`` line
is dropped.  ``--src`` picks the source tree to import greedyreg from
(default: the ``src`` directory of this checkout), so one script can
render two trees:

    python3 tools/golden.py /tmp/before --src /path/to/other/checkout/src
    python3 tools/golden.py /tmp/after
    diff -r /tmp/before /tmp/after

A run that exits nonzero stops the script with its exit code.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SINC_SMALL = ["--m-train", "200", "--m-test", "150", "--n", "60"]
ALL_METHODS = (
    "ogl:max,ogl:max2,ogl:max3,ogl:rand,togl:max,togl:first,togl:rand,"
    "dtogl:max,dtogl:first,dtogl:rand,pgl,ridge,fista"
)
FITS = {
    "fit-ogl": "ogl:max@8",
    "fit-togl": "togl:first@1e-3",
    "fit-dtogl": "dtogl:first@1e-3",
    "fit-pgl": "pgl@20",
    "fit-ridge": "ridge@1e-3",
    "fit-fista": "fista@1e-3",
}


def golden_runs(outdir, workdir):
    """(name, argv, drop the seconds line) for every golden configuration, in run order."""
    from perfbench.workloads import WORKLOADS, prepare

    runs = [(f"workload-{name}", prepare(name, 0, workdir), False) for name in WORKLOADS]
    runs += [
        (
            "bench-all-methods",
            ["bench", "sinc", *SINC_SMALL, "--sigma", "0.1,1", "--seeds", "2",
             "--methods", ALL_METHODS, "--no-timing"],
            False,
        ),
        # reads the CSV the run above wrote
        (
            "report-markdown",
            ["report", "--in", os.path.join(outdir, "bench-all-methods.out"),
             "--format", "markdown"],
            False,
        ),
        (
            "bench-raw-atoms",
            ["bench", "sinc", *SINC_SMALL, "--sigma", "0.5", "--seeds", "2", "--raw-atoms",
             "--methods", "ogl:max,togl:max,dtogl:first,ridge", "--delta-grid", "1e-4:0.3:5",
             "--lambda-grid", "1e-6:1:4", "--format", "markdown", "--no-timing"],
            False,
        ),
        # deltas small enough that the max path picks and skips runs of flagged atoms
        (
            "bench-flagged-runs",
            ["bench", "sinc", *SINC_SMALL, "--sigma", "0.1,1", "--seeds", "2",
             "--methods", "dtogl:max,togl:max", "--delta-grid", "1e-15:1e-9:4", "--no-timing"],
            False,
        ),
    ]
    runs += [
        (name, ["fit", "--method", method, *SINC_SMALL, "--sigma", "0.5", "--seed", "1"], True)
        for name, method in FITS.items()
    ]
    return runs


def import_src(src):
    """Import greedyreg from the source tree ``src``; a message if it came from elsewhere."""
    src = os.path.abspath(src)
    sys.path[:0] = [src, ROOT]
    import greedyreg

    if not os.path.abspath(greedyreg.__file__).startswith(src + os.sep):
        return f"greedyreg imported from {greedyreg.__file__}, not {src}"
    return None


def run_cli(argv):
    from greedyreg.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    problem = import_src(args.src)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    os.makedirs(args.outdir, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, run_argv, drop_seconds in golden_runs(args.outdir, workdir):
            code, text = run_cli(run_argv)
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return code
            if drop_seconds:
                text = "".join(
                    line for line in text.splitlines(True) if not line.startswith("seconds:")
                )
            with open(os.path.join(args.outdir, f"{name}.out"), "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
