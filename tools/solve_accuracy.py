"""Forward error of every prefix coefficient solve on the golden configurations.

Usage:
    python3 tools/solve_accuracy.py [--src SRC]

Runs each configuration of ``tools/golden.py`` through
``greedyreg.cli.main`` in this process, with
``greedyreg.algorithms.solve_coefficients`` wrapped.  Every prefix
coefficient vector the wrapped solve returns is compared with a
long-double back-substitution of the same triangular factor and the same
float64 right-hand side Q'y/m (``tests/oracles.py``), so only the error
of the triangular solve itself is measured.  The error of one solve is
max |x - x*| / max |x*|; the table gives, per configuration, the number
of prefix solves and their median and max error.  ``--src`` picks the
source tree to import greedyreg from, as in ``tools/golden.py``, so the
same oracle can measure two trees:

    python3 tools/solve_accuracy.py --src /path/to/other/checkout/src
    python3 tools/solve_accuracy.py
"""

import argparse
import os
import statistics
import sys
import tempfile

import numpy as np

from golden import ROOT, golden_runs, import_src, run_cli

sys.path.insert(0, os.path.join(ROOT, "tests"))

from oracles import forward_error, long_double_back_substitution  # noqa: E402


def recording(solve, errors):
    """``solve`` wrapped to append the forward error of each prefix it returns to ``errors``.

    Takes both call forms: a list of prefix lengths giving a list of
    vectors, and the one-prefix form (a length or None) giving one vector.
    """

    def wrapped(state, ks=None):
        out = solve(state, ks)
        if isinstance(out, np.ndarray):
            pairs = [(state.k if ks is None else int(ks), out)]
        else:
            pairs = zip([state.k] if ks is None else ks, out)
        for k, coefs in pairs:
            z = (state._q[:, :k].T @ state.y) / state.m
            errors.append(forward_error(coefs, long_double_back_substitution(state._r[:k, :k], z)))
        return out

    return wrapped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    problem = import_src(args.src)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from greedyreg import algorithms

    solve = algorithms.solve_coefficients
    print("| config | prefix solves | median error | max error |")
    print("|---|---:|---:|---:|")
    with tempfile.TemporaryDirectory() as outdir, tempfile.TemporaryDirectory() as workdir:
        for name, run_argv, _drop_seconds in golden_runs(outdir, workdir):
            errors = []
            algorithms.solve_coefficients = recording(solve, errors)
            try:
                code, text = run_cli(run_argv)
            finally:
                algorithms.solve_coefficients = solve
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return code
            with open(os.path.join(outdir, f"{name}.out"), "w", encoding="utf-8") as fh:
                fh.write(text)
            if errors:
                print(
                    f"| {name} | {len(errors)} | {statistics.median(errors):.2e} "
                    f"| {max(errors):.2e} |"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
