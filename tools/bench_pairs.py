#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for a committed BENCH_*.json.

    python3 tools/bench_pairs.py PARENT CHANGE --workload spectral-lifecycle \\
        --pairs 10 --seed 111 --out BENCH_28.json

PARENT and CHANGE are the roots of two git checkouts.  Each pair runs
`perfbench/run.py --workload W --seed S --trace 0`, as it is in each
checkout and for its own default run length, once in each, one after
the other; the first pair starts with the parent and each later pair
swaps the order, so drift in the machine's load falls on both sides
alike.  Pair i runs at seed S + i on both sides.  --workload may be
given more than once.  An existing --out file is extended: a workload
named again is replaced, the others are kept.

The file holds every run's metrics and, per workload and end-to-end
metric, the medians and quartiles of both sides, the median paired ratio
(change / parent) with its quartiles, and how many pairs went each way.
Each workload's entry also records its seeds, each side's run length
(run.py's --seconds default), the Python and numpy versions, the CPU
count, the filesystem under perfbench/ (where the runs keep their
ledgers) and, per checkout, the git sha of HEAD and the git tree hashes
of src/ and perfbench/ as they are on disk.  A tree hash names an
uncommitted tree too: `git rev-parse COMMIT:src` prints the same hash
for a commit of those files.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy


def quartiles(values):
    """(q1, median, q3) by linear interpolation, numpy's default rule."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """Per-metric summary of paired runs.

    pairs is a list of {"parent": run, "change": run}, each run a dict with
    "metrics" ({name: value}), "attempted" and "failed", or with "error"
    for a run that gave no result; a pair with an error is left out of
    the ratios.  metrics is a list of (name, better), better being
    "lower" or "higher".
    """
    complete = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    summary = {
        "pairs": len(pairs),
        "complete_pairs": len(complete),
        "failed_op_share": {
            side: _share(sum(p[side]["failed"] for p in complete),
                         sum(p[side]["attempted"] for p in complete))
            for side in ("parent", "change")
        },
    }
    if not complete:
        return summary
    for name, better in metrics:
        parent = [p["parent"]["metrics"][name] for p in complete]
        change = [p["change"]["metrics"][name] for p in complete]
        ratios = [c / p for p, c in zip(parent, change)]
        sign = 1.0 if better == "lower" else -1.0
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        r1, rm, r3 = quartiles(ratios)
        summary[name] = {
            "better": better,
            "parent_median": pm,
            "parent_quartiles": [p1, p3],
            "parent_spread": (p3 - p1) / pm if pm else None,
            "change_median": cm,
            "change_quartiles": [c1, c3],
            "ratio_median": rm,
            "ratio_quartiles": [r1, r3],
            "change_better": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "change_worse": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "equal": sum(c == p for p, c in zip(parent, change)),
            # how far the change's median moved the better way, in units of
            # the parent's quartile distance
            "median_gain_over_parent_iqr": (
                sign * (pm - cm) / (p3 - p1) if p3 > p1 else None),
        }
    return summary


def _share(failed, attempted):
    return failed / attempted if attempted else None


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in checkout; its result line, or an error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_seconds(checkout: Path):
    """The default of run.py's --seconds in checkout, read from its source."""
    tree = ast.parse((checkout / "perfbench" / "run.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
                and node.args and getattr(node.args[0], "value", None) == "--seconds"):
            for keyword in node.keywords:
                if keyword.arg == "default":
                    return ast.literal_eval(keyword.value)
    return None


def git(checkout: Path, *args, env=None) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], env=env, check=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True).stdout.strip()


def source(checkout: Path) -> dict:
    """HEAD's sha and the tree hashes of src/ and perfbench/ as on disk.

    The trees are built in a throwaway index, so the checkout's own index
    is left alone; ignored files such as __pycache__ are left out.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        trees = {}
        for part in ("src", "perfbench"):
            git(checkout, "add", "-A", "--", part, env=env)
            trees[part] = git(checkout, "write-tree", f"--prefix={part}/", env=env)
    return {"git_sha": git(checkout, "rev-parse", "HEAD"), "tree": trees}


def filesystem(path: Path) -> str:
    """Type of the filesystem that holds path, from /proc/self/mountinfo."""
    path = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as mounts:
            for line in mounts:
                fields = line.split()
                mount_point = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, kind = mount_point, fstype
    except OSError:
        pass
    return kind


def environment(sides: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "run_seconds": {side: run_seconds(root) for side, root in sides.items()},
        "ledger_filesystem": {side: filesystem(root / "perfbench") for side, root in sides.items()},
        "source": {side: source(root) for side, root in sides.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    sides = {"parent": args.parent, "change": args.change}
    try:
        env = environment(sides)
    except subprocess.CalledProcessError as err:
        print(f"error: {' '.join(err.cmd)}: {err.stderr.strip()}", file=sys.stderr)
        return 2
    for workload in args.workload:
        seeds = [args.seed + i for i in range(args.pairs)]
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed)
                print(f"# {workload} seed {seed} {side}: {json.dumps(pair[side])}", flush=True)
            pairs.append(pair)
        report["workloads"][workload] = {
            **env, "seeds": seeds, "pairs": pairs, "summary": summarize(pairs, metrics)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
