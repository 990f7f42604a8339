"""Command-line interface.

Subcommands: track (wrap a command in an emission session), score (score a
ledger against fields or a given error), bench (run a built-in workload
end to end), regions (what-if emission comparison), report (multi-ledger
summary).  Exit codes: 0 success, 1 usage or validation error, 2 runtime
failure; track propagates the child's exit code, and exits 128 + the
signal number when SIGINT or SIGTERM ends the child.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .errors import Ecol2Error, MetricError, ValidationError
from .ingest import import_field_csv
from .ledger import LedgerStore, aggregate, summarize
from .metrics import CarbonLedger, EcoL2Params, ecol2, error_metrics
from .regions import RegionRegistry, default_registry
from .tracking import (
    STAGES,
    PowerModel,
    start_session,
    stop_session,
    what_if_region,
)
from .workloads import BACKEND, WORKLOADS, run_pipeline

DEFAULT_POWER = "fixed:50"

class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: regions takes --regions but not --region, which
        # must be rejected there, not read as --regions
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _shared_options(parser: _Parser, *flags: str) -> None:
    """Register the named shared flags, each defined only here.

    A subcommand names only the flags its cmd_* function reads, so any
    other shared flag is a usage error instead of being ignored.
    """
    options = {
        "--region": dict(
            default=os.environ.get("ECOL2_REGION"),
            help="ISO region code (or env ECOL2_REGION)",
        ),
        "--power": dict(
            default=DEFAULT_POWER, help="power model: sample | rated:<W> | fixed:<W>"
        ),
        "--ledger": dict(default=".", help="record store root"),
        # None when not given: _params fills in the stored or default value
        "--alpha": dict(type=float),
        "--beta": dict(type=float),
        "--n-infer": dict(type=int),
        "--format": dict(choices=("table", "csv", "json"), default="table"),
        "--regions": dict(help="extra region intensities CSV"),
        "--seed": dict(type=int, default=0),
    }
    for flag in flags:
        parser.add_argument(flag, **options[flag])


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecol2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run a command inside an emission session")
    _shared_options(p_track, "--region", "--power", "--ledger", "--regions")
    p_track.add_argument("--stage", required=True)
    p_track.add_argument("--label", default="")
    p_track.add_argument("child", nargs="*", metavar="-- command ...")
    p_track.set_defaults(func=cmd_track)

    p_score = sub.add_parser("score", help="score a ledger against prediction fields")
    _shared_options(p_score, "--ledger", "--alpha", "--beta", "--n-infer", "--format")
    p_score.add_argument("--r", type=float, help="relative L2 error, given directly")
    p_score.add_argument(
        "--prediction", action="append", default=[], help="prediction CSV (repeatable)"
    )
    p_score.add_argument("--reference", help="reference CSV")
    p_score.set_defaults(func=cmd_score)

    p_bench = sub.add_parser("bench", help="run a built-in workload end to end")
    _shared_options(
        p_bench, "--region", "--power", "--ledger", "--alpha", "--beta", "--n-infer",
        "--format", "--regions", "--seed",
    )
    p_bench.add_argument("workload", choices=WORKLOADS)
    p_bench.add_argument(
        "--sweep-alpha", help="comma-separated alphas; one report row per value"
    )
    p_bench.set_defaults(func=cmd_bench)

    p_regions = sub.add_parser("regions", help="what-if emissions across regions")
    _shared_options(
        p_regions, "--ledger", "--alpha", "--beta", "--n-infer", "--format", "--regions"
    )
    p_regions.add_argument("--r", type=float, help="relative L2 error to score at")
    p_regions.add_argument("targets", nargs="+", help="target region codes")
    p_regions.set_defaults(func=cmd_regions)

    p_report = sub.add_parser("report", help="summarize one or more bench ledgers")
    _shared_options(p_report, "--format")
    p_report.add_argument("roots", nargs="+", help="ledger roots with stored runs")
    p_report.set_defaults(func=cmd_report)

    return parser


# --- output formatting ---


def _table_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2e}"
    return str(value)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def emit(rows: list[dict], fmt: str) -> None:
    """Print rows; the columns are the first row's keys, in order."""
    columns = list(rows[0])
    if fmt == "json":
        sys.stdout.write(json.dumps(rows, sort_keys=True, indent=1) + "\n")
        return
    if fmt == "csv":
        writer = csv_mod.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
        return
    cells = [columns] + [[_table_cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
    for r in cells:
        sys.stdout.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _emit_scored(rows: list[dict], scores, fmt: str) -> int:
    """Print the rows, then each distinct warning of the scores once on
    stderr; returns the scoring command's exit code, 0."""
    emit(rows, fmt)
    for note in dict.fromkeys(note for score in scores for note in score.warnings):
        print(f"note: {note}", file=sys.stderr)
    return 0


# --- shared argument plumbing ---


def _registry(args) -> RegionRegistry:
    if args.regions:
        return RegionRegistry.from_csv(args.regions)
    return default_registry()


def _params(args, run=None) -> EcoL2Params:
    """Score parameters: each flag given on the command line, else the
    value of `run` (a stored run, as LedgerStore.read_run returns it),
    else the scorer's default."""
    given = {f.name: getattr(args, f.name) for f in fields(EcoL2Params)}
    stored = run[1] if run else EcoL2Params()
    return replace(stored, **{k: v for k, v in given.items() if v is not None})


def _require_region(args) -> str:
    if not args.region:
        raise _UsageError("--region (or ECOL2_REGION) is required")
    return args.region


def _scored_row(r, error, carbon: CarbonLedger, params: EcoL2Params, score) -> dict:
    """The columns `bench` and `score` share; `error` (an ErrorReport) is
    None when r was given, and so are rmse, max_error and mae."""
    return {
        "r": r,
        "rmse": error.rmse if error else None,
        "max_error": error.max_error if error else None,
        "mae": error.mae if error else None,
        **asdict(carbon),
        "c_total": carbon.total(params.n_infer),
        "ecol2": score.value,
        "inaccurate": score.inaccurate,
    }


# --- subcommands ---


class _Interrupted(Exception):
    """SIGINT or SIGTERM arrived while a tracked child ran."""


# how long a child may run its own SIGINT cleanup before it is killed,
# subprocess's own grace for a child that got the terminal's ^C too
_SIGINT_GRACE_S = 0.25


def _run_child(child) -> int:
    """Run child to its exit and return its exit code.

    SIGINT or SIGTERM kills and reaps the child, and the code is then
    128 + the first signal's number; after SIGINT the child first gets
    _SIGINT_GRACE_S to exit by itself.  Until Popen returns the handle a
    signal is only noted, so none escapes while nothing holds the child;
    exec resets caught handlers, so the child's own are unchanged.
    """
    noted = []
    proc = None

    def on_signal(signum, frame):
        noted.append(signum)
        # raise once, and only with the handle held; a signal during the
        # grace or the kill below is only noted
        if proc is not None and len(noted) == 1:
            raise _Interrupted

    stops = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(signum, on_signal) for signum in stops]
    try:
        try:
            proc = subprocess.Popen(child)
            if not noted:
                return proc.wait()
        except _Interrupted:
            pass
        if noted[0] == signal.SIGINT:
            try:
                proc.wait(timeout=_SIGINT_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        proc.kill()
        proc.wait()
        return 128 + noted[0]
    finally:
        for signum, handler in zip(stops, previous):
            signal.signal(signum, handler)


def cmd_track(args) -> int:
    stage = args.stage
    if stage not in STAGES:
        raise _UsageError(f"--stage must be one of {STAGES}, got {stage!r}")
    child = args.child
    if not child:
        raise _UsageError("no command given; use: track --stage <stage> -- cmd ...")
    region = _require_region(args)
    registry = _registry(args)
    power = PowerModel.parse(args.power)
    store = LedgerStore(args.ledger)
    # fails here, before the child runs, if the record could not be kept
    store.make_stage_dir(stage)
    session = start_session(
        stage, power, region,
        label=args.label or Path(child[0]).name,
        registry=registry,
    )
    try:
        code = _run_child(child)
    except FileNotFoundError as err:
        session.abandon()
        raise ValidationError(f"cannot run {child[0]!r}: {err}") from err
    record = stop_session(session, failed=code != 0)
    path = store.record(record)
    print(f"recorded {record.stage} {record.emissions_kg:.6e} kgCO2 -> {path}")
    return code


def cmd_score(args) -> int:
    store = LedgerStore(args.ledger)
    run = store.read_run()
    params = _params(args, run)
    carbon = aggregate(store)
    if args.r is not None:
        if args.prediction or args.reference:
            raise _UsageError("--r and --prediction/--reference are exclusive")
        r, report = args.r, None
    else:
        missing = [
            flag
            for flag, present in (
                ("--prediction", bool(args.prediction)),
                ("--reference", bool(args.reference)),
            )
            if not present
        ]
        if missing:
            raise _UsageError(
                f"missing inputs: {' and '.join(missing)} (or pass --r)"
            )
        prediction = import_field_csv(args.prediction)
        reference = import_field_csv(args.reference)
        try:
            report = error_metrics(prediction, reference)
            if report.relative_l2 is None:
                raise MetricError("reference field has zero norm; relative error undefined")
        except MetricError as err:
            inputs = f"{', '.join(args.prediction)} against {args.reference}"
            raise MetricError(f"{inputs}: {err}") from None
        r = report.relative_l2
    score = ecol2(r, carbon, params)
    row = _scored_row(r, report, carbon, params, score)
    return _emit_scored([row], [score], args.format)


def _bench_row(result, args, params) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "backend": BACKEND,
        "region": args.region,
        **asdict(params),
        **_scored_row(
            result.error.relative_l2, result.error, result.carbon, params, result.score
        ),
    }


def cmd_bench(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    region = _require_region(args)
    registry = _registry(args)
    params = _params(args)
    sweep_params = None
    if args.sweep_alpha:
        try:
            alphas = [float(a) for a in args.sweep_alpha.split(",") if a.strip()]
        except ValueError:
            raise _UsageError(f"bad --sweep-alpha value {args.sweep_alpha!r}") from None
        if not alphas:
            raise _UsageError("--sweep-alpha needs at least one value")
        sweep_params = [replace(params, alpha=alpha) for alpha in alphas]
    power = PowerModel.parse(args.power)
    store = LedgerStore(args.ledger)
    # a second run's records would merge into the first's in every later
    # score, and so would what an interrupted run left
    held = store.held()
    if held:
        raise ValidationError(
            f"ledger {store.root} already holds {held[0]}; use a fresh --ledger"
        )
    # refuse an unwritable ledger before the first solve; every workload
    # records a developmental stage, so this adds no directory
    store.make_stage_dir("developmental")
    result = run_pipeline(
        args.workload,
        power,
        region,
        params,
        seed=args.seed,
        store=store,
        registry=registry,
    )
    main_row = _bench_row(result, args, params)
    run_payload = dict(main_row)
    run_payload["power"] = args.power
    store.write_run(run_payload)
    rows, scores = [main_row], [result.score]
    if sweep_params:
        scores = [ecol2(result.error.relative_l2, result.carbon, p) for p in sweep_params]
        rows = [
            dict(main_row, alpha=p.alpha, ecol2=score.value)
            for p, score in zip(sweep_params, scores)
        ]
    return _emit_scored(rows, scores, args.format)


def cmd_regions(args) -> int:
    registry = _registry(args)
    store = LedgerStore(args.ledger)
    targets = []
    for chunk in args.targets:
        targets.extend(t.strip() for t in chunk.split(",") if t.strip())
    if not targets:
        raise _UsageError("no target regions given")
    records = [rec for recs in store.read_all().values() for rec in recs]
    if not records:
        raise ValidationError(f"no emission records under {store.root}")
    run = store.read_run()
    if args.r is None and run is None:
        raise _UsageError("missing inputs: --r (no stored run to read it from)")
    r = run[0] if args.r is None else args.r
    params = _params(args, run)
    duration = sum(rec.duration_s for rec in records)
    rows, scores = [], []
    for target in targets:
        moved = [what_if_region(rec, target, registry) for rec in records]
        carbon = summarize(moved)
        score = ecol2(r, carbon, params)
        scores.append(score)
        rows.append(
            {
                "region": target,
                "duration_s": duration,
                "c_operational": carbon.c_operational,
                "c_inference": carbon.c_inference,
                "c_total": carbon.total(params.n_infer),
                "ecol2": score.value,
            }
        )
    return _emit_scored(rows, scores, args.format)


def cmd_report(args) -> int:
    rows, scores = [], []
    for root in args.roots:
        store = LedgerStore(root)
        run = store.read_run()
        if run is None:
            raise ValidationError(f"no stored run ({store.run_file.name}) under {root}")
        r, params, workload = run
        carbon = aggregate(store)
        score = ecol2(r, carbon, params)
        scores.append(score)
        rows.append(
            {
                # the directory's own name, also for a root such as "."
                "model": os.path.basename(os.path.abspath(root)),
                "workload": workload,
                "r": r,
                "c_total": carbon.total(params.n_infer),
                "ecol2": score.value,
            }
        )
    return _emit_scored(rows, scores, args.format)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Ecol2Error as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
