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
from .datasets import MODEL_MODES, InitialConditionSpec, generate_dataset, write_dataset
from .finite_difference import FD_PROBLEMS, fd_solve
from .grids import default_grid
# spectral_solve is unused here but stays importable under this module's
# name: perfbench/tracer.py wraps pipeline.spectral_solve by name
from .spectral import SPECTRAL_EQUATIONS, internal_modes, spectral_solve  # noqa: F401

WORKLOADS = FD_PROBLEMS + SPECTRAL_EQUATIONS

_ANALYTIC_REFERENCES = {
    "advection": analytic_advection,
    "reaction": analytic_reaction,
    "wave": analytic_wave,
}

# coarser spatial trials standing in for hyperparameter search
_FD_TRIAL_NX = (64, 128)

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
        # one batch solves the samples, the model and the reference; the
        # dataset stage is charged the samples' work, and each stage below
        # the work of the row it uses
        with stage("embodied", "dataset"):
            pairs, sample_points, reference, model = generate_dataset(
                workload, DEFAULT_DATASET_COUNT, base_spec, seed, grid
            )
            for points in sample_points:
                charge_work(clock, points)
        # written after the stage closes, so the file writes are not charged
        if store is not None:
            write_dataset(store.root / "dataset", workload, seed, base_spec, grid, pairs)
        with stage("embodied", "reference-solve"):
            charge_work(clock, reference.work_points)
        # development tries the model's basis and the reference's
        for modes, trial in ((MODEL_MODES, model), (internal_modes(grid), reference)):
            with stage("developmental", f"trial-modes{modes}"):
                charge_work(clock, trial.work_points)
        with stage("operational", "final-solve"):
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
