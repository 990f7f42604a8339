"""End-to-end lifecycle pipeline for one benchmark workload.

Stage semantics:

* embodied: dataset generation plus the numeric reference solve; only the
  spectral problems have this stage (the analytic-reference problems need
  no training data and never create it).
* developmental: a small grid of coarser-resolution trial solves.
* operational: the final model solve at its chosen resolution.
* inference: n_infer evaluation passes of the model against the reference.

Every stage runs inside its own emission session, opened and closed
here.  A stage that raises leaves no record and releases its session.
Under a synthetic power model the sessions share a virtual clock charged
per grid-point update, so the whole run is deterministic.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

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
from .datasets import (
    InitialConditionSpec,
    generate_dataset,
    generate_initial_condition,
    write_dataset,
)
from .finite_difference import fd_solve
from .grids import default_grid
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

    @contextmanager
    def stage(stage, label, inference_count=None):
        """One emission session around the block; a raising block leaves no record."""
        session = start_session(
            stage, power, region, label=label, registry=registry, clock=clock
        )
        try:
            yield
        except BaseException:
            session.abandon()
            raise
        record = stop_session(session, inference_count=inference_count)
        records.append(record)
        if store is not None:
            store.record(record)

    if workload in _ANALYTIC_REFERENCES:
        reference = _ANALYTIC_REFERENCES[workload](grid)
        for nx in _FD_TRIAL_NX:
            with stage("developmental", f"trial-nx{nx}"):
                trial = fd_solve(workload, replace(grid, nx=nx))
                charge_work(clock, trial.work_points)
        with stage("operational", "final-solve"):
            model = fd_solve(workload, grid)
            charge_work(clock, model.work_points)
    else:
        base_spec = InitialConditionSpec.sample(seed)
        # the reference is the last row of the dataset batch; its own stage
        # below charges its work
        with stage("embodied", "dataset"):
            pairs, sample_points, reference = generate_dataset(
                workload, dataset_count, base_spec, seed, grid
            )
            for points in sample_points:
                charge_work(clock, points)
        # written after the stage closes, so the file writes are not charged
        if store is not None:
            write_dataset(store.root / "dataset", workload, seed, base_spec, grid, pairs)
        u0 = generate_initial_condition(base_spec, grid)
        # every solve below starts from u0, so its dt follows from its mode
        # count; a stage whose modes match an earlier solve would repeat it
        # bit for bit, and reuses it instead while still charging its work
        solved = {internal_modes(grid): reference}

        def solve(internal_nx, provenance):
            n = internal_modes(grid, internal_nx)
            if n not in solved:
                solved[n] = spectral_solve(
                    workload, u0, grid, internal_nx=internal_nx, provenance=provenance
                )
            return solved[n]

        with stage("embodied", "reference-solve"):
            charge_work(clock, reference.work_points)
        for nx in _SPECTRAL_TRIAL_NX:
            with stage("developmental", f"trial-modes{nx}"):
                trial = solve(nx, "model-numeric")
                charge_work(clock, trial.work_points)
        with stage("operational", "final-solve"):
            model = solve(_SPECTRAL_MODEL_NX, "model-numeric")
            charge_work(clock, model.work_points)

    passes = max(1, params.n_infer)
    with stage("inference", "evaluation", inference_count=passes):
        for _ in range(passes):
            report = error_metrics(model.values, reference.values)
            charge_work(clock, grid.nt * grid.nx)

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
