#!/usr/bin/env python3
"""Benchmark of ecol2's lifecycle pipelines and emission ledger.

    python3 perfbench/run.py --workload spectral-lifecycle --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts fresh workload
processes with the checkout's src/ on PYTHONPATH and one BLAS thread:
two that only set up, then one that sets up and runs timed ops for
--seconds.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics, or with
--trace 1 the per-layer metrics per op.  Lines before it, starting with
`#`, say what ran and where.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectral-lifecycle", "fd-lifecycle", "ledger-history")
SETUP_ONLY_PROCESSES = 2
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class WorkerError(Exception):
    pass


def _remove(scratch: Path) -> None:
    """Delete the run's files and commit the deletion before returning.

    The fsync of the parent directory commits the deletions, so the next
    run does not start with this run's deletions still pending.
    """
    shutil.rmtree(scratch, ignore_errors=True)
    if scratch.parent.is_dir():
        fd = os.open(scratch.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _launch(args, env, scratch: Path, *, setup_only: bool, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S
    try:
        launched = time.monotonic()
        proc = subprocess.run(cmd + ["--launched", repr(launched)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"workload process did not finish within {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ecol2" / "__init__.py").is_file():
        print(f"no ecol2 sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2

    # a terminated run still stops its workload process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    scratch = HERE / ".scratch" / f"{args.workload}-{os.getpid()}"
    spans = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        setups = []
        for k in range(SETUP_ONLY_PROCESSES):
            setups.append(_launch(args, env, scratch / f"setup{k}", setup_only=True)["setup_s"])
        run = _launch(args, env, scratch / "run", setup_only=False, spans=spans)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        _remove(scratch)
    setups.append(run["setup_s"])

    times = run["op_times"]
    info = dict(run["info"], scratch=str(scratch),
                threads=" ".join(f"{k}={v}" for k, v in THREAD_ENV.items()),
                ops=len(times), setup_samples=[round(s, 4) for s in setups])
    if len(times) >= 2:
        info["op_quartiles_s"] = [round(q, 6) for q in statistics.quantiles(times, n=4)]
    for key, value in info.items():
        print(f"# {key}: {value}")
    for problem in run["problems"]:
        print(f"# check failed: {problem}")
    for failure in run["failures"]:
        print(f"# op failed: {failure}")

    if not times:
        print("error: no op completed", file=sys.stderr)
        return 1
    if args.trace:
        print(f"# traced op_p50_s: {run['traced_op_p50_s']}")
        print(f"# spans: {spans.relative_to(ROOT)}")
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in run["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / run["busy_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": run["n_problems"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
