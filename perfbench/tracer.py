"""Spans around the calls into each layer of ecol2, for the traced run.

`Tracer.install` replaces the public functions of each layer under the
names the program calls them by (module globals such as
`pipeline.spectral_solve`, the attributes of the kernel backend module,
methods of `LedgerStore` and `EmissionSession`) with wrappers that record
a span (name, start, end, parent).  Nothing under src/ changes.  Spans
are kept in memory per op; at the end of each op they are folded into
per-layer totals and self times, and the spans of the first ops are kept
for the trace file.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

# (name, unit, better) of every per-layer metric, each given per op
PER_LAYER = [
    ("cli.main.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    *[(f"pipeline.stage.{label}.s", "s", "lower") for label in (
        "reference-solve", "trial-modes128", "trial-modes256", "trial-nx64",
        "trial-nx128", "final-solve", "evaluation")],
    ("datasets.generate_dataset.s", "s", "lower"),
    ("datasets.generate_dataset.self_s", "s", "lower"),
    ("spectral.spectral_solve.calls", "count", "lower"),
    ("spectral.spectral_solve.s", "s", "lower"),
    ("spectral.spectral_solve.self_s", "s", "lower"),
    ("spectral.spectral_solve.work_points", "points", "lower"),
    ("spectral.spectral_solve.repeat_calls", "count", "lower"),
    ("grids.fourier_resample.calls", "count", "lower"),
    ("grids.fourier_resample.s", "s", "lower"),
    ("kernels.spectral_evolve.calls", "count", "lower"),
    ("kernels.spectral_evolve.s", "s", "lower"),
    ("kernels.spectral_evolve.substeps", "count", "lower"),
    ("kernels.to_physical.calls", "count", "lower"),
    ("kernels.to_physical.s", "s", "lower"),
    ("kernels.from_physical.s", "s", "lower"),
    *[(f"kernels.{fn}.{what}", unit, "lower")
      for fn in ("advection_lax_wendroff", "wave_leapfrog", "reaction_rk4")
      for what, unit in (("calls", "count"), ("s", "s"), ("substeps", "count"))],
    ("finite_difference.fd_solve.calls", "count", "lower"),
    ("finite_difference.fd_solve.s", "s", "lower"),
    ("finite_difference.fd_solve.work_points", "points", "lower"),
    ("analytic.reference.s", "s", "lower"),
    ("tracking.session.calls", "count", "lower"),
    ("tracking.session.s", "s", "lower"),
    ("ledger.record.calls", "count", "lower"),
    ("ledger.record.s", "s", "lower"),
    ("ledger.record.bytes", "B", "lower"),
    ("ledger.read_stage.calls", "count", "lower"),
    ("ledger.read_stage.s", "s", "lower"),
    ("ledger.records_read", "count", "lower"),
    ("ledger.aggregate.s", "s", "lower"),
    ("ledger.summarize.s", "s", "lower"),
    ("regions.what_if_region.calls", "count", "lower"),
    ("regions.what_if_region.s", "s", "lower"),
    ("ingest.import_emissions_csv.s", "s", "lower"),
    ("ingest.rows", "count", "higher"),
    ("metrics.error_metrics.calls", "count", "lower"),
    ("metrics.error_metrics.s", "s", "lower"),
    ("metrics.ecol2.calls", "count", "lower"),
    ("metrics.ecol2.s", "s", "lower"),
    ("process.cpu_per_wall", "s/s", "lower"),
]

# argument position of the substep count of each traced kernel
_KERNEL_NSUB = {
    "spectral_evolve": 4,
    "to_physical": None,
    "from_physical": None,
    "advection_lax_wendroff": 2,
    "wave_leapfrog": 3,
    "reaction_rk4": 3,
}

_SPECTRAL_NX_MIN = 256

# ops whose spans go to the trace file; the metrics cover every op
KEEP_OPS = 2


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.ops = 0
        self.kept: list[list] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._seen: set = set()
        self._stage_spans: dict[int, int] = {}

    # --- span recording ---

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self._spans))
        self._spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, value: float = 1) -> None:
        self._counts[name] += value

    # --- per op ---

    def begin_op(self) -> None:
        self._spans, self._stack = [], []
        self._counts = defaultdict(float)
        self._seen = set()
        self._stage_spans = {}
        self.enabled = True

    def end_op(self) -> None:
        self.enabled = False
        child_time = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent), children in zip(self._spans, child_time):
            self.totals[f"{name}.s"] += end - start
            self.totals[f"{name}.self_s"] += end - start - children
            self.totals[f"{name}.calls"] += 1
        for name, value in self._counts.items():
            self.totals[name] += value
        if self.ops < KEEP_OPS and self._spans:
            t0 = self._spans[0][1]
            self.kept += [[self.ops, n, s - t0, e - t0, p] for n, s, e, p in self._spans]
        self.ops += 1

    def per_layer(self, cpu_per_wall: float) -> dict[str, float]:
        """Every metric of PER_LAYER, per op."""
        t = dict(self.totals)
        t["tracking.session.s"] = t.get("tracking.session.start.s", 0.0) + t.get("tracking.session.stop.s", 0.0)
        t["tracking.session.calls"] = t.get("tracking.session.start.calls", 0.0)
        ops = max(self.ops, 1)
        out = {name: t.get(name, 0.0) / ops for name, _, _ in PER_LAYER}
        out["process.cpu_per_wall"] = cpu_per_wall
        return out

    # --- installation ---

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), before, after))

    def install(self) -> None:
        cli = importlib.import_module("ecol2.cli")
        ingest = importlib.import_module("ecol2.ingest")
        ledger = importlib.import_module("ecol2.ledger")
        metrics = importlib.import_module("ecol2.metrics")
        tracking = importlib.import_module("ecol2.tracking")
        pipeline = importlib.import_module("ecol2.workloads.pipeline")
        datasets = importlib.import_module("ecol2.workloads.datasets")
        spectral = importlib.import_module("ecol2.workloads.spectral")
        kernels = importlib.import_module("ecol2.workloads._backend").kernels

        self._patch(cli, "main", "cli.main")
        self._patch(cli, "emit", "cli.emit")

        self._install_stages(pipeline)
        self._patch(pipeline, "generate_dataset", "datasets.generate_dataset")
        for module in (pipeline, datasets):
            self._patch(module, "spectral_solve", "spectral.spectral_solve",
                        before=self._spectral_call, after=self._work_points("spectral.spectral_solve"))
        self._patch(spectral, "fourier_resample", "grids.fourier_resample")
        for fn, nsub_at in _KERNEL_NSUB.items():
            self._patch(kernels, fn, f"kernels.{fn}", before=self._substeps(fn, nsub_at))
        self._patch(pipeline, "fd_solve", "finite_difference.fd_solve",
                    after=self._work_points("finite_difference.fd_solve"))
        refs = pipeline._ANALYTIC_REFERENCES
        for key in list(refs):
            refs[key] = self.wrap("analytic.reference", refs[key])

        self._patch(tracking.EmissionSession, "__init__", "tracking.session.start")
        self._patch(tracking.EmissionSession, "stop", "tracking.session.stop")

        self._patch(ledger.LedgerStore, "record", "ledger.record",
                    after=lambda a, k, path: self.count("ledger.record.bytes", os.path.getsize(path)))
        self._patch(ledger.LedgerStore, "read_stage", "ledger.read_stage",
                    after=lambda a, k, recs: self.count("ledger.records_read", len(recs)))
        self._patch(ledger, "aggregate", "ledger.aggregate")
        for module in (ledger, pipeline):
            self._patch(module, "summarize", "ledger.summarize")
        self._patch(tracking, "what_if_region", "regions.what_if_region")
        self._patch(ingest, "import_emissions_csv", "ingest.import_emissions_csv",
                    after=lambda a, k, recs: self.count("ingest.rows", len(recs)))
        self._patch(pipeline, "error_metrics", "metrics.error_metrics")
        for module in (pipeline, metrics):
            self._patch(module, "ecol2", "metrics.ecol2")

    def _install_stages(self, pipeline) -> None:
        """A span from each stage's start_session to its stop_session."""
        start_session, stop_session = pipeline.start_session, pipeline.stop_session

        def start(*args, **kwargs):
            if not self.enabled:
                return start_session(*args, **kwargs)
            span = self._open(f"pipeline.stage.{kwargs.get('label', '')}")
            session = start_session(*args, **kwargs)
            self._stage_spans[id(session)] = span
            return session

        def stop(session, **kwargs):
            record = stop_session(session, **kwargs)
            span = self._stage_spans.pop(id(session), None)
            if span is not None:
                self._close(span)
            return record

        pipeline.start_session, pipeline.stop_session = start, stop

    # --- counters fed from call arguments and results ---

    def _spectral_call(self, args, kwargs) -> None:
        import numpy as np  # not at module level: run.py imports PER_LAYER

        equation, u0, grid = args[:3]
        nx = kwargs.get("internal_nx") or _next_pow2(max(grid.nx, _SPECTRAL_NX_MIN))
        key = (equation, np.asarray(u0, dtype=np.float64).tobytes(), nx, kwargs.get("dt"))
        if key in self._seen:
            self.count("spectral.spectral_solve.repeat_calls")
        self._seen.add(key)

    def _substeps(self, fn: str, nsub_at: int | None):
        if nsub_at is None:
            return None
        return lambda args, kwargs: self.count(f"kernels.{fn}.substeps", args[nsub_at])

    def _work_points(self, name: str):
        return lambda args, kwargs, solution: self.count(f"{name}.work_points", solution.work_points)
