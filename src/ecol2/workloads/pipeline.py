"""End-to-end lifecycle pipeline for one benchmark workload.

Stage semantics:

* embodied: dataset generation plus the numeric reference solve; only the
  spectral problems have this stage (the analytic-reference problems need
  no training data and never create it).
* developmental: a small grid of coarser-resolution trial solves.
* operational: the final model solve at its chosen resolution.
* inference: n_infer evaluation passes of the model against the reference.

Every stage runs inside its own emission session.  Under a synthetic
power model the sessions share a virtual clock charged per grid-point
update, so the whole run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from ..ledger import LedgerStore, summarize
from ..metrics import CarbonLedger, EcoL2Params, EcoL2Score, ErrorReport, ecol2, error_metrics
from ..tracking import (
    EmissionRecord,
    PowerModel,
    VirtualClock,
    charge_work,
    start_session,
    stop_session,
)
from ._backend import BACKEND
from .analytic import analytic_advection, analytic_reaction, analytic_wave
from .datasets import InitialConditionSpec, generate_dataset, generate_initial_condition
from .finite_difference import fd_solve
from .grids import Grid1D, default_grid
from .spectral import internal_modes, spectral_solve

WORKLOADS = ("advection", "reaction", "wave", "kdv", "ks")

_ANALYTIC_REFERENCES = {
    "advection": analytic_advection,
    "reaction": analytic_reaction,
    "wave": analytic_wave,
}

# coarser spatial trials standing in for hyperparameter search
_FD_TRIAL_NX = (64, 128)

# candidate basis sizes tried during development; bases below ~128 modes
# leave KdV's steepening unregularized and can block up, so the trial
# grid starts there and operations keep the cheaper candidate
_SPECTRAL_TRIAL_NX = (128, 256)

# the model solves the spectral problems on a truncated basis; the
# reference uses the default internal grid (>= 256 modes)
_SPECTRAL_MODEL_NX = 128

DEFAULT_DATASET_COUNT = 4


@dataclass(frozen=True)
class PipelineResult:
    carbon: CarbonLedger
    error: ErrorReport
    score: EcoL2Score
    workload: str
    seed: int
    backend: str
    records: tuple[EmissionRecord, ...]


def run_pipeline(
    workload: str,
    power: PowerModel,
    region: str,
    params: EcoL2Params | None = None,
    *,
    seed: int = 0,
    store: LedgerStore | None = None,
    registry=None,
    dataset_count: int = DEFAULT_DATASET_COUNT,
) -> PipelineResult:
    """Run all lifecycle stages of one workload and score the result."""
    if workload not in WORKLOADS:
        raise ValidationError(f"workload must be one of {WORKLOADS}, got {workload!r}")
    params = params or EcoL2Params()
    clock = VirtualClock() if power.kind == "synthetic-fixed" else None
    grid = default_grid(workload)
    records: list[EmissionRecord] = []

    def track(record):
        records.append(record)
        if store is not None:
            store.record(record)
        return record

    def session(stage, label):
        return start_session(
            stage, power, region, label=label, registry=registry, clock=clock
        )

    if workload in _ANALYTIC_REFERENCES:
        reference = _ANALYTIC_REFERENCES[workload](grid)
        trial_grids = [
            Grid1D(grid.length, nx, grid.nt, grid.t_final, grid.periodic)
            for nx in _FD_TRIAL_NX
        ]
        for trial_grid in trial_grids:
            s = session("developmental", f"trial-nx{trial_grid.nx}")
            trial = fd_solve(workload, trial_grid)
            charge_work(clock, trial.work_points)
            track(stop_session(s))
        s = session("operational", "final-solve")
        model = fd_solve(workload, grid)
        charge_work(clock, model.work_points)
        track(stop_session(s))
    else:
        base_spec = InitialConditionSpec.sample(seed)
        dataset_dir = store.root / "dataset" if store is not None else None
        _, dataset_record = generate_dataset(
            workload,
            dataset_count,
            base_spec,
            seed,
            grid,
            power=power,
            region=region,
            registry=registry,
            clock=clock,
            out_dir=dataset_dir,
        )
        track(dataset_record)
        u0 = generate_initial_condition(base_spec, grid)
        # every solve below starts from u0, so its dt follows from its mode
        # count; a stage whose modes match an earlier solve would repeat it
        # bit for bit, and reuses it instead while still charging its work
        solved = {}

        def solve(internal_nx, provenance):
            n = internal_modes(grid, internal_nx)
            if n not in solved:
                solved[n] = spectral_solve(
                    workload, u0, grid, internal_nx=internal_nx, provenance=provenance
                )
            return solved[n]

        s = session("embodied", "reference-solve")
        reference = solve(None, "reference-numeric")
        charge_work(clock, reference.work_points)
        track(stop_session(s))
        for nx in _SPECTRAL_TRIAL_NX:
            s = session("developmental", f"trial-modes{nx}")
            trial = solve(nx, "model-numeric")
            charge_work(clock, trial.work_points)
            track(stop_session(s))
        s = session("operational", "final-solve")
        model = solve(_SPECTRAL_MODEL_NX, "model-numeric")
        charge_work(clock, model.work_points)
        track(stop_session(s))

    passes = max(1, params.n_infer)
    s = session("inference", "evaluation")
    for _ in range(passes):
        report = error_metrics(model.values, reference.values)
        charge_work(clock, grid.nt * grid.nx)
    track(stop_session(s, inference_count=passes))

    carbon = summarize(records)
    score = ecol2(report.relative_l2, carbon, params)
    return PipelineResult(
        carbon=carbon,
        error=report,
        score=score,
        workload=workload,
        seed=seed,
        backend=BACKEND,
        records=tuple(records),
    )
