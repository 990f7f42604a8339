"""The three workloads: set-up, one op, and the checks of its outputs.

Ops call into ecol2 through module attributes (`cli.main`,
`ledger.aggregate`, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import checks
import inputs

from ecol2 import cli, ingest, ledger, metrics, tracking
from ecol2.errors import Ecol2Error
from ecol2.regions import default_registry
from ecol2.workloads import BACKEND, fd_solve


class OpFailed(Exception):
    pass


def _bench(workload: str, seed: int, ledger_dir: Path) -> str:
    """`ecol2 bench <workload>` in process; its stdout."""
    argv = ["bench", workload, "--seed", str(seed), "--region", inputs.REGION,
            "--power", inputs.POWER, "--ledger", str(ledger_dir), "--format", "csv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"ecol2 {' '.join(argv)} exited {code}")
    return out.getvalue()


class _Lifecycle:
    """One op runs `ecol2 bench` for each of `benches`, each into a fresh ledger."""

    benches: tuple[str, ...] = ()
    records_per_bench = 0

    def __init__(self, src: Path, scratch: Path, seed: int):
        self.scratch = scratch
        self.seed = seed
        self.bench_seed = seed
        self.intensity = inputs.read_intensities(src / "ecol2" / "data" / "regions.csv")[inputs.REGION]

    def info(self) -> dict:
        return {"bench_seed": self.bench_seed, "backend": BACKEND}

    def setup(self) -> None:
        pass

    def op(self, i: int) -> dict[str, str]:
        return {w: _bench(w, self.bench_seed, self.scratch / f"op{i}" / w) for w in self.benches}

    def check_op(self, i: int, out: dict[str, str]) -> list[str]:
        problems = []
        for workload, text in out.items():
            rows = checks.parse_bench_csv(text)
            if len(rows) != 1 or rows[0]["workload"] != workload or rows[0]["seed"] != self.bench_seed:
                problems.append(f"{workload}: unexpected bench output {text!r}")
                continue
            ledger_dir = self.scratch / f"op{i}" / workload
            records = checks.read_records(ledger_dir)
            problems += checks.check_bench_row(rows[0], records, self.intensity, self.records_per_bench)
            problems += self.check_outputs(workload, rows[0], ledger_dir)
        return problems

    def check_outputs(self, workload: str, row: dict, ledger_dir: Path) -> list[str]:
        return []

    def check_run(self) -> list[str]:
        return []


class SpectralLifecycle(_Lifecycle):
    benches = ("kdv", "ks")
    # dataset, reference, two trials, final solve, evaluation
    records_per_bench = 6

    def setup(self) -> None:
        self.bench_seed = inputs.spectral_bench_seed(self.seed)

    def info(self) -> dict:
        return dict(super().info(), substeps=inputs.spectral_substeps(self.bench_seed))

    def check_outputs(self, workload, row, ledger_dir):
        return checks.check_dataset(ledger_dir / "dataset", workload, 4)


class FdLifecycle(_Lifecycle):
    benches = ("advection", "reaction", "wave")
    # two trials, final solve, evaluation
    records_per_bench = 4

    def __init__(self, src, scratch, seed):
        super().__init__(src, scratch, seed)
        self.first_r: dict[str, float] = {}

    def check_outputs(self, workload, row, ledger_dir):
        self.first_r.setdefault(workload, row["r"])
        return []

    def check_run(self) -> list[str]:
        problems = []
        for problem, r in self.first_r.items():
            field = fd_solve(problem).values
            problems += checks.check_fd_field(problem, field, inputs.fd_closed_form(problem), r)
        return problems


class LedgerHistory:
    """Ingest a CSV into a fresh ledger, then score a standing ledger."""

    def __init__(self, src: Path, scratch: Path, seed: int):
        self.scratch = scratch
        self.seed = seed
        self.intensities = inputs.read_intensities(src / "ecol2" / "data" / "regions.csv")
        self.params = metrics.EcoL2Params(alpha=inputs.ALPHA, beta=inputs.BETA, n_infer=inputs.N_INFER)
        self.registry = default_registry()

    def info(self) -> dict:
        return {"history_records": inputs.HISTORY_RECORDS, "csv_rows": inputs.CSV_ROWS, "backend": BACKEND}

    def setup(self) -> None:
        entries = inputs.history(self.seed, self.intensities)
        self.standing = ledger.LedgerStore(self.scratch / "standing")
        for e in entries:
            self.standing.record(
                tracking.EmissionRecord(
                    stage=e.stage, label=e.label, energy_kwh=e.energy_kwh, duration_s=e.duration_s,
                    region=inputs.REGION, emissions_kg=e.emissions_kg, inference_count=e.inference_count,
                )
            )
        self.expected = checks.stage_totals((e.stage, e.emissions_kg, e.inference_count) for e in entries)
        self.csv_path = self.scratch / "emissions.csv"
        emissions = inputs.write_emissions_csv(self.csv_path, self.seed, self.intensities)
        self.expected_ingest = dict.fromkeys(inputs.STAGES, 0.0)
        self.expected_ingest["operational"] = math.fsum(emissions)

    def op(self, i: int) -> dict:
        try:
            rows = ingest.import_emissions_csv(self.csv_path, "operational")
            store = ledger.LedgerStore(self.scratch / f"ingest{i}")
            for rec in rows:
                store.record(rec)
            carbon = ledger.aggregate(self.standing)
            value = metrics.ecol2(inputs.SCORE_R, carbon, self.params).value
            history = [rec for recs in self.standing.read_all().values() for rec in recs]
            regions = {}
            for region in sorted(self.intensities):
                moved = [tracking.what_if_region(rec, region, self.registry) for rec in history]
                c = ledger.summarize(moved)
                regions[region] = (c.total(inputs.N_INFER), metrics.ecol2(inputs.SCORE_R, c, self.params).value)
        except Ecol2Error as err:
            raise OpFailed(str(err)) from err
        return {"ingested": len(rows), "carbon": carbon, "score": value, "read": len(history), "regions": regions}

    def check_op(self, i: int, out: dict) -> list[str]:
        ingest_dir = self.scratch / f"ingest{i}"
        problems = []
        written = len(list(ingest_dir.glob("Emissions/*/*.json")))
        if not out["ingested"] == written == inputs.CSV_ROWS:
            problems.append(f"ingest: {out['ingested']} rows parsed, {written} records written, expected {inputs.CSV_ROWS}")
        problems += checks.check_carbon("ingested ledger", ledger.aggregate(ledger.LedgerStore(ingest_dir)), self.expected_ingest)
        if out["read"] != inputs.HISTORY_RECORDS:
            problems.append(f"standing ledger: read {out['read']} records, wrote {inputs.HISTORY_RECORDS}")
        problems += checks.check_carbon("standing ledger", out["carbon"], self.expected)
        base_total = checks.c_total(self.expected)
        problems += checks.check_score("standing ledger", inputs.SCORE_R, base_total, out["score"])
        for region, (total, value) in out["regions"].items():
            problems += checks.check_what_if(region, total, value, base_total, self.intensities, inputs.REGION, inputs.SCORE_R)
        return problems

    def check_run(self) -> list[str]:
        return []


WORKLOADS = {
    "spectral-lifecycle": SpectralLifecycle,
    "fd-lifecycle": FdLifecycle,
    "ledger-history": LedgerHistory,
}
