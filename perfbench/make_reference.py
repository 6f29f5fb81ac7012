"""Regenerate reference.json from the program as it is now.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/make_reference.py

For every workload it sweeps the reference inputs (workloads.REF_SEED)
once and stores the oracle rows and each FISTA fit's lasso objective.
"""

import argparse
import json
import os
import shutil
import tempfile

import run
import workloads


def main():
    os.makedirs(run.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK_DIR)
    reference = {}
    try:
        for name in sorted(workloads.WORKLOADS):
            args = argparse.Namespace(workload=name, seed=workloads.REF_SEED)
            _, result = run.run_worker(args, "check", workdir)
            if result["failed"] or result["problems"]:
                raise SystemExit(f"{name}: reference sweep failed: {result['problems']}")
            reference[name] = {
                "oracle": result["oracle"],
                "fista": [{"lam": f["lam"], "objective": f["objective"]} for f in result["fista"]],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
