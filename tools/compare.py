"""Prove a change against its parent: golden diff and alternating benchmark pairs.

Usage, from the root of a checkout:

    python3 tools/compare.py PARENT_REV [--pairs N] [--interleave N] [--workloads a,b]
                             [--out FILE]

Extracts PARENT_REV with ``git archive`` into a temporary directory,
copies this checkout's working tree there beside it (its tracked files,
as modified: the change), and runs both sides from there, so that the
two trees lie alike on disk:

* golden: ``tools/golden.py`` of this checkout renders both trees
  (``--src``), and every file that differs is named with its first
  differing lines;
* pairs: per workload of BENCHMARK.json (or ``--workloads``), N pairs of
  ``perfbench/run.py --trace 0`` runs of the benchmark's ``run_seconds``,
  each tree running its own perfbench from its own root.  Pair i uses
  seed i + 1, and the side that runs first alternates from pair to pair.

* interleave: per workload, ``--interleave N`` more pairs of sweeps in two
  long-lived processes, one per tree, each importing greedyreg through
  ``tools/golden.py``'s ``import_src``.  Each prepares the workload's
  argv once (seed 1, BLAS on one thread as in perfbench), runs one
  untimed warm-up sweep, and then times one in-process
  ``greedyreg.cli.main`` sweep per request.  Pair i asks the parent
  first when i is even and the change first when it is odd.  Without
  process start-up and import in every sample these pairs are far
  steadier than fresh processes, but they see no ``setup_s`` or
  ``peak_rss_mb``; the fresh-process pairs remain for those.

Per end-to-end metric of BENCHMARK.json it prints the parent's and the
change's median and quartiles, the change/parent ratio of the medians,
the pairs in which the change was better, and whether the medians lie
further apart than the parent's interquartile range.  Per interleaved
workload it prints the median and quartiles of the per-pair
change/parent sweep-time ratio, the pairs in which the change was
faster, and each side's fastest sweep.  One JSON record of all of it is
the last line of output, and is written to ``--out`` when given.  Exits
1 if the golden outputs differ, a run is not ``correct``, or an
interleaved sweep fails or prints different bytes in the two trees.
Uses the standard library only.
"""

import argparse
import difflib
import filecmp
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIFF_LINES = 6
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INTERLEAVE_SEED = 1


def extract(rev, dest):
    """Write the tree of ``rev`` to ``dest``; returns its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def copy_worktree(dest):
    """Copy this checkout's tracked files, as they are in its working tree, to ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True)
    for name in listed.stdout.decode("utf-8").split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):  # a tracked file deleted in the tree stays out
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copyfile(source, os.path.join(dest, name))


def golden(trees, outdir):
    """Render both trees with this checkout's golden.py; returns the differing files' diffs."""
    rendered = {}
    for side, tree in trees.items():
        rendered[side] = os.path.join(outdir, side)
        cmd = [sys.executable, os.path.join(ROOT, "tools", "golden.py"), rendered[side],
               "--src", os.path.join(tree, "src")]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"golden.py on the {side}: exit {proc.returncode}\n{proc.stderr}")
    parent, change = rendered["parent"], rendered["change"]
    names = sorted(set(os.listdir(parent)) | set(os.listdir(change)))
    _, mismatch, errors = filecmp.cmpfiles(parent, change, names, shallow=False)
    diffs = {}
    for name in mismatch + errors:  # errors: files only one side wrote
        texts = [_lines(os.path.join(side, name)) for side in (parent, change)]
        lines = difflib.unified_diff(*texts, "parent/" + name, "change/" + name, n=0)
        diffs[name] = [line.rstrip("\n") for line in lines][: 2 + DIFF_LINES]
    return diffs


def _lines(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def perfbench(tree, workload, seed, seconds):
    """The final JSON result of one ``perfbench/run.py --trace 0`` run in ``tree``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def serve(src, workload, seed):
    """An interleave worker: one timed in-process sweep per line read from stdin.

    Writes one JSON line per sweep: its wall seconds, exit code and the
    SHA-256 of its stdout.
    """
    import contextlib
    import hashlib

    from golden import import_src, run_cli

    problem = import_src(src)
    if problem:
        sys.exit(problem)
    from perfbench.workloads import prepare

    with tempfile.TemporaryDirectory() as workdir:
        argv = prepare(workload, seed, workdir)
        with contextlib.redirect_stderr(io.StringIO()):
            run_cli(argv)  # warm-up
        print("ready", flush=True)
        for _ in sys.stdin:
            with contextlib.redirect_stderr(io.StringIO()):  # flagged and uncertified notes
                start = time.perf_counter()
                code, text = run_cli(argv)
                seconds = time.perf_counter() - start
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            print(json.dumps({"seconds": seconds, "code": code, "sha256": digest}), flush=True)


class Worker:
    """A serve() process on one tree's source."""

    def __init__(self, tree, workload, seed):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import compare; "
                "compare.serve(sys.argv[2], sys.argv[3], int(sys.argv[4]))")
        env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, os.path.join(ROOT, "tools"), os.path.join(tree, "src"),
             workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self._expect("ready")

    def _expect(self, what):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"interleave worker exited with {self.proc.wait()} before {what}")
        return line

    def sweep(self):
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        return json.loads(self._expect("a result"))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def interleave(trees, workload, pairs):
    """The record of ``pairs`` (at least 1) alternating in-process sweeps of ``workload``."""
    workers = {}
    try:
        for side, tree in trees.items():
            workers[side] = Worker(tree, workload, INTERLEAVE_SEED)
        runs = []
        for i in range(pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs.append({side: workers[side].sweep() for side in sides})
    finally:
        for worker in workers.values():
            worker.close()
    parent = [run["parent"]["seconds"] for run in runs]
    change = [run["change"]["seconds"] for run in runs]
    ratios = [c / p for p, c in zip(parent, change)]
    median, q1, q3 = spread(ratios)
    return {
        "seed": INTERLEAVE_SEED,
        "parent": parent,
        "change": change,
        "parent_min": min(parent),
        "change_min": min(change),
        "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
        "pairs_faster": sum(ratio < 1.0 for ratio in ratios),
        "pairs": pairs,
        "ok": all(run["parent"]["code"] == run["change"]["code"] == 0
                  and run["parent"]["sha256"] == run["change"]["sha256"] for run in runs),
    }


def spread(values):
    """(median, q1, q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarize(pairs, metric, better):
    """The record of one metric over a workload's pairs."""
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    sign = 1.0 if better == "lower" else -1.0
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    return {
        "parent": parent,
        "change": change,
        "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
        "ratio": c_med / p_med,
        "better": better,
        "pairs_better": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(pairs),
        "gap_exceeds_parent_iqr": sign * (p_med - c_med) > p_q3 - p_q1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--interleave", type=int, default=0, metavar="N",
                        help="also N in-process pairs per workload (default: none)")
    parser.add_argument("--workloads", help="comma list (default: every BENCHMARK.json workload)")
    parser.add_argument("--out", help="also write the JSON record to this file")
    args = parser.parse_args(argv)
    if args.pairs < 0 or args.interleave < 0:
        parser.error("--pairs and --interleave must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    seconds = benchmark["run_seconds"]

    workdir = tempfile.mkdtemp(prefix="compare-")
    try:
        trees = {side: os.path.join(workdir, side) for side in ("parent", "change")}
        commit = extract(args.parent_rev, trees["parent"])
        copy_worktree(trees["change"])
        print(f"parent {commit} extracted to {trees['parent']}, the change copied beside it",
              flush=True)

        diffs = golden(trees, os.path.join(workdir, "golden"))
        print("golden: " + ("identical" if not diffs else f"{len(diffs)} files differ"))
        for name, lines in diffs.items():
            print(f"  {name}:")
            for line in lines:
                print(f"    {line}")

        record = {"parent": commit, "pairs": args.pairs, "interleave": args.interleave,
                  "seconds": seconds,
                  "golden_diff": diffs, "workloads": {}}
        all_correct = True
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": i + 1, "first": sides[0]}
                for side in sides:
                    pair[side] = perfbench(trees[side], workload, i + 1, seconds)
                    all_correct &= pair[side]["correct"]
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            metrics = {}
            if pairs:
                for spec in benchmark["end_to_end"]:
                    metrics[spec["name"]] = summarize(pairs, spec["name"], spec["better"])
            correct = {side: [p[side]["correct"] for p in pairs] for side in trees}
            record["workloads"][workload] = {"metrics": metrics, "correct": correct}
            for name, m in metrics.items():
                print(
                    f"{workload:12s} {name:12s} parent {m['parent_median']:.4g} "
                    f"[{m['parent_q1']:.4g}, {m['parent_q3']:.4g}] -> change "
                    f"{m['change_median']:.4g} [{m['change_q1']:.4g}, {m['change_q3']:.4g}]"
                    f"  ratio {m['ratio']:.3f}  better {m['pairs_better']}/{m['pairs']}"
                    f"  gap>IQR {'yes' if m['gap_exceeds_parent_iqr'] else 'no'}"
                )
            print(f"{workload:12s} correct: parent {sum(correct['parent'])}/{len(pairs)}, "
                  f"change {sum(correct['change'])}/{len(pairs)}")
            if args.interleave:
                inter = interleave(trees, workload, args.interleave)
                record["workloads"][workload]["interleave"] = inter
                all_correct &= inter["ok"]
                print(
                    f"{workload:12s} interleaved sweep_s ratio {inter['ratio_median']:.3f} "
                    f"[{inter['ratio_q1']:.3f}, {inter['ratio_q3']:.3f}]  change faster "
                    f"{inter['pairs_faster']}/{inter['pairs']}  min parent "
                    f"{inter['parent_min']:.4g} change {inter['change_min']:.4g}  outputs "
                    f"{'identical' if inter['ok'] else 'DIFFER or failed'}"
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    text = json.dumps(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if not diffs and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
