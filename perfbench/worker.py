"""One workload process: set up, run timed ops, check them, report.

Started by run.py with the program's src/ on PYTHONPATH and one BLAS
thread.  Prints one JSON line: the set-up time, per-op wall times, the
counts of attempted and failed ops, any check problems, and, in a traced
run, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    import ecol2

    if Path(ecol2.__file__).resolve().parent != (src / "ecol2").resolve():
        print(f"ecol2 imported from {ecol2.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, OpFailed

    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](src, args.scratch, args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # the timed phase: whole ops until their summed wall time reaches
    # --seconds; the checks between ops are not timed.  Op outputs stay
    # until the run ends, so no file deletions run between timed ops
    times: list[float] = []
    busy = cpu = 0.0
    failures: list[str] = []
    problems: list[str] = []
    i = 0
    while busy < args.seconds:
        if tracer:
            tracer.begin_op()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = workload.op(i)
        except OpFailed as err:
            out = None
            failures.append(str(err))
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end_op()
        busy += t1 - t0
        cpu += c1 - c0
        if out is not None:
            times.append(t1 - t0)
            problems += workload.check_op(i, out)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.check_run()

    result = {
        "setup_s": setup_s,
        "attempted": i,
        "failed": len(failures),
        "failures": failures[:5],
        "op_times": times,
        "busy_s": busy,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems[:20],
        "n_problems": len(problems),
        "info": workload.info(),
    }
    if tracer:
        result["per_layer"] = tracer.per_layer(cpu / busy)
        result["traced_op_p50_s"] = statistics.median(times) if times else None
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "ops": tracer.ops,
                        "fields": ["op", "name", "start_s", "end_s", "parent"],
                        "spans": tracer.kept}) + "\n",
            encoding="utf-8",
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
