"""Benchmark workloads: the CLI sweep each one runs and the inputs it needs.

Every workload is a ``greedyreg bench ...`` argument list built from the
workload seed.  The seed sets the sinc ``--seeds`` value (one cell per
noise level) and, for the CSV workload, the generated data file and its
50/50 split.  Nothing else varies with the seed, so the amount of work
per run is fixed by the workload and only the data changes.

Why each workload exists (the layer it is meant to be dominated by):

* ``sinc-greedy`` - a large, low-rank uniform RBF dictionary (eta = 1 has
  numerical rank of about 25), so most greedy attempts are a full
  correlation scan that ends on a degenerate column: the ``greedy``
  selection scan dominates.  It is the only workload where the ``first``
  criterion and full-scan selection differ in cost.
* ``csv-greedy`` - a full-rank data-centred dictionary on a generated
  numeric CSV; small-delta fits keep most atoms, so the projection
  append and coefficient solve (``linalg``) dominate.  It is the only
  workload that goes through ``load_csv``, ``split_half``,
  ``zscore_fit_apply`` and ``build_rbf_from_samples``.
* ``dense-path`` - ridge and FISTA only, on a lambda grid where FISTA
  stops at ``max_iter`` every time: only ``baselines`` runs.
"""

import os

import numpy as np

# Seed of the reference inputs whose oracle rows are stored in
# reference.json; every run re-checks the program against them.
REF_SEED = 0

CSV_ROWS = 1000
CSV_FEATURES = 3
CSV_NOISE = 0.1

WORKLOADS = {
    "sinc-greedy": {
        "task": "sinc",
        "args": [
            "--m-train", "500", "--m-test", "500", "--n", "1000", "--eta", "1",
            "--sigma", "0.1,1",
            "--methods", "ogl:max,togl:max,dtogl:max,dtogl:first,pgl",
            "--k-grid", "0:100", "--delta-grid", "1e-6:0.5:10",
        ],
    },
    "csv-greedy": {
        "task": "csv",
        "args": [
            "--methods", "ogl:max,dtogl:first,dtogl:max",
            "--delta-grid", "1e-4:0.3:3",
        ],
    },
    "dense-path": {
        "task": "sinc",
        "args": [
            "--m-train", "1000", "--m-test", "1000", "--n", "300", "--eta", "1",
            "--sigma", "0.5",
            "--methods", "ridge,fista",
            "--lambda-grid", "1e-5:1e-2:2",
        ],
    },
}


def write_csv(path, seed):
    """Numeric CSV: CSV_FEATURES inputs in U[0, 1], smooth target plus noise."""
    rng = np.random.default_rng([seed, 101])
    x = rng.uniform(0.0, 1.0, size=(CSV_ROWS, CSV_FEATURES))
    y = (
        np.sin(2.0 * np.pi * x[:, 0])
        + x[:, 1] ** 2
        + np.cos(3.0 * x[:, 2])
        + rng.normal(0.0, CSV_NOISE, size=CSV_ROWS)
    )
    header = [f"x{j + 1}" for j in range(CSV_FEATURES)] + ["y"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, target in zip(x, y):
            fh.write(",".join(repr(float(v)) for v in (*row, target)) + "\n")


def prepare(name, seed, workdir):
    """Generate the workload's inputs under ``workdir``; return the CLI argv."""
    spec = WORKLOADS[name]
    # --no-timing makes every sweep's report byte-identical, which the
    # checks compare; it only zeroes the printed seconds column.
    argv = ["bench", spec["task"], *spec["args"], "--seeds", f"{seed},", "--no-timing"]
    if spec["task"] == "csv":
        path = os.path.join(workdir, f"{name}-seed{seed}.csv")
        write_csv(path, seed)
        argv += ["--path", path, "--target", "last"]
    return argv
