"""Command-line interface.

Subcommands: track (wrap a command in an emission session), score (score a
ledger against fields or a given error), bench (run a built-in workload
end to end), regions (what-if emission comparison), report (multi-ledger
summary).  Exit codes: 0 success, 1 usage or validation error, 2 runtime
failure; track propagates the child's exit code.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from .errors import Ecol2Error, ValidationError
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
from .workloads import WORKLOADS, run_pipeline

DEFAULT_ALPHA = 100.0
DEFAULT_BETA = 100.0
DEFAULT_N_INFER = 1
DEFAULT_POWER = "fixed:50"

RUN_FILE = "run.json"

_BENCH_FIELDS = [
    "workload",
    "seed",
    "backend",
    "region",
    "alpha",
    "beta",
    "n_infer",
    "r",
    "rmse",
    "max_error",
    "mae",
    "c_embodied",
    "c_developmental",
    "c_operational",
    "c_inference",
    "c_total",
    "ecol2",
    "inaccurate",
]

_SCORE_FIELDS = [
    "r",
    "rmse",
    "max_error",
    "mae",
    "c_embodied",
    "c_developmental",
    "c_operational",
    "c_inference",
    "c_total",
    "ecol2",
    "inaccurate",
]

_REGIONS_FIELDS = [
    "region",
    "duration_s",
    "c_operational",
    "c_inference",
    "c_total",
    "ecol2",
]

_REPORT_FIELDS = ["model", "workload", "r", "c_total", "ecol2"]


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
        "--alpha": dict(type=float, default=DEFAULT_ALPHA),
        "--beta": dict(type=float, default=DEFAULT_BETA),
        "--n-infer": dict(type=int, default=DEFAULT_N_INFER),
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
    p_track.add_argument("child", nargs=argparse.REMAINDER, metavar="-- command ...")
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
    p_bench.add_argument("--dataset-count", type=int, default=4)
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


def emit(rows: list[dict], fields: list[str], fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        out.write(json.dumps(rows, sort_keys=True, indent=1) + "\n")
        return
    if fmt == "csv":
        writer = csv_mod.writer(out, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row.get(f)) for f in fields])
        return
    cells = [fields] + [[_table_cell(row.get(f)) for f in fields] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(fields))]
    for r in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


# --- shared argument plumbing ---


def _registry(args) -> RegionRegistry:
    if args.regions:
        return RegionRegistry.from_csv(args.regions)
    return default_registry()


def _params(args) -> EcoL2Params:
    return EcoL2Params(alpha=args.alpha, beta=args.beta, n_infer=args.n_infer)


def _require_region(args) -> str:
    if not args.region:
        raise _UsageError("--region (or ECOL2_REGION) is required")
    return args.region


def _carbon_row(carbon: CarbonLedger, n_infer: int) -> dict:
    return {
        "c_embodied": carbon.c_embodied,
        "c_developmental": carbon.c_developmental,
        "c_operational": carbon.c_operational,
        "c_inference": carbon.c_inference,
        "c_total": carbon.total(n_infer),
    }


def _read_run(root: Path) -> dict | None:
    """The run `bench` stored under a ledger root, or None if there is none.

    A run file that is not a JSON object with a numeric r raises
    ValidationError naming the file.
    """
    path = root / RUN_FILE
    if not path.is_file():
        return None
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValidationError(f"{path}: unreadable run file: {err}") from None
    if not isinstance(stored, dict):
        raise ValidationError(f"{path}: run file is not a JSON object")
    r = stored.get("r")
    if isinstance(r, bool) or not isinstance(r, (int, float)):
        raise ValidationError(f"{path}: run file has no numeric r (got {r!r})")
    return stored


# --- subcommands ---


def cmd_track(args) -> int:
    stage = args.stage
    if stage not in STAGES:
        raise _UsageError(f"--stage must be one of {STAGES}, got {stage!r}")
    child = list(args.child)
    if child and child[0] == "--":
        child = child[1:]
    if not child:
        raise _UsageError("no command given; use: track --stage <stage> -- cmd ...")
    region = _require_region(args)
    registry = _registry(args)
    power = PowerModel.parse(args.power)
    store = LedgerStore(args.ledger)
    session = start_session(
        stage, power, region,
        label=args.label or Path(child[0]).name,
        registry=registry,
    )
    try:
        code = subprocess.run(child).returncode
    except FileNotFoundError as err:
        session.abandon()
        raise ValidationError(f"cannot run {child[0]!r}: {err}") from err
    record = stop_session(session, failed=code != 0)
    path = store.record(record)
    print(f"recorded {record.stage} {record.emissions_kg:.6e} kgCO2 -> {path}")
    return code


def cmd_score(args) -> int:
    params = _params(args)
    store = LedgerStore(args.ledger)
    carbon = aggregate(store)
    if args.r is not None:
        if args.prediction or args.reference:
            raise _UsageError("--r and --prediction/--reference are exclusive")
        r = args.r
        rmse = max_error = mae = None
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
        report = error_metrics(prediction, reference)
        if report.relative_l2 is None:
            raise ValidationError(
                "reference field has zero norm; relative error undefined"
            )
        r = report.relative_l2
        rmse, max_error, mae = report.rmse, report.max_error, report.mae
    score = ecol2(r, carbon, params)
    row = {
        "r": r,
        "rmse": rmse,
        "max_error": max_error,
        "mae": mae,
        **_carbon_row(carbon, params.n_infer),
        "ecol2": score.value,
        "inaccurate": score.inaccurate,
    }
    emit([row], _SCORE_FIELDS, args.format)
    for note in score.warnings:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _bench_row(result, args, params) -> dict:
    return {
        "workload": result.workload,
        "seed": result.seed,
        "backend": result.backend,
        "region": args.region,
        "alpha": params.alpha,
        "beta": params.beta,
        "n_infer": params.n_infer,
        "r": result.error.relative_l2,
        "rmse": result.error.rmse,
        "max_error": result.error.max_error,
        "mae": result.error.mae,
        **_carbon_row(result.carbon, params.n_infer),
        "ecol2": result.score.value,
        "inaccurate": result.score.inaccurate,
    }


def cmd_bench(args) -> int:
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
    # a second run's records would merge into the first's in every later score
    if (store.root / RUN_FILE).exists():
        raise ValidationError(
            f"{store.root / RUN_FILE} already holds a bench run; use a fresh --ledger"
        )
    result = run_pipeline(
        args.workload,
        power,
        region,
        params,
        seed=args.seed,
        store=store,
        registry=registry,
        dataset_count=args.dataset_count,
    )
    main_row = _bench_row(result, args, params)
    run_payload = dict(main_row)
    run_payload["power"] = args.power
    store.root.mkdir(parents=True, exist_ok=True)
    (store.root / RUN_FILE).write_text(
        json.dumps(run_payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    rows = [main_row]
    if sweep_params:
        rows = [
            dict(main_row, alpha=p.alpha,
                 ecol2=ecol2(result.error.relative_l2, result.carbon, p).value)
            for p in sweep_params
        ]
    emit(rows, _BENCH_FIELDS, args.format)
    return 0


def cmd_regions(args) -> int:
    registry = _registry(args)
    params = _params(args)
    store = LedgerStore(args.ledger)
    targets = []
    for chunk in args.targets:
        targets.extend(t.strip() for t in chunk.split(",") if t.strip())
    if not targets:
        raise _UsageError("no target regions given")
    records = [rec for recs in store.read_all().values() for rec in recs]
    if not records:
        raise ValidationError(f"no emission records under {store.root}")
    r = args.r
    if r is None:
        stored = _read_run(store.root)
        if stored is None:
            raise _UsageError("missing inputs: --r (no stored run to read it from)")
        r = stored["r"]
    duration = sum(rec.duration_s for rec in records)
    rows = []
    for target in targets:
        moved = [what_if_region(rec, target, registry) for rec in records]
        carbon = summarize(moved)
        score = ecol2(r, carbon, params)
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
    emit(rows, _REGIONS_FIELDS, args.format)
    return 0


def cmd_report(args) -> int:
    rows = []
    for root in args.roots:
        store = LedgerStore(root)
        stored = _read_run(store.root)
        if stored is None:
            raise ValidationError(f"no stored run ({RUN_FILE}) under {root}")
        carbon = aggregate(store)
        params = EcoL2Params(
            alpha=stored.get("alpha", DEFAULT_ALPHA),
            beta=stored.get("beta", DEFAULT_BETA),
            n_infer=int(stored.get("n_infer", DEFAULT_N_INFER)),
        )
        score = ecol2(stored["r"], carbon, params)
        rows.append(
            {
                "model": Path(root).name,
                "workload": stored.get("workload"),
                "r": stored["r"],
                "c_total": carbon.total(params.n_infer),
                "ecol2": score.value,
            }
        )
    emit(rows, _REPORT_FIELDS, args.format)
    return 0


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
