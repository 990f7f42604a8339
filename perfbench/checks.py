"""Correctness checks of one op's outputs.

Each check recomputes its expectation apart from the program: from the
record files read with `json`, from the closed forms and conservation laws
of the equations, or from the values the benchmark generated itself.  A
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from inputs import ALPHA, BETA, N_INFER, STAGES, fixed_power_emissions

REL_TOL = 1e-12
FD_R_REL_TOL = 1e-9
MEAN_ABS_TOL = 1e-12
KDV_ENERGY_REL_TOL = 1e-3
ACCURACY_LIMIT = 0.1

_STAGE_DIRS = {"embodied": "Embodied", "developmental": "Developmental",
               "operational": "Operational", "inference": "Inference"}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def score(r: float, c_total: float) -> float:
    """(1 - r^(1/ln alpha)) / (1 + beta c_total) at the benchmark's weights."""
    return (1.0 - r ** (1.0 / math.log(ALPHA))) / (1.0 + BETA * c_total)


def parse_bench_csv(text: str) -> list[dict]:
    """Rows of `ecol2 bench --format csv`, numbers as floats."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, value in raw.items():
            try:
                row[key] = float(value)
            except ValueError:
                row[key] = value
        rows.append(row)
    return rows


def read_records(ledger: Path) -> list[dict]:
    """Every record file under a ledger, read with json, stage from its directory."""
    out = []
    for stage, name in _STAGE_DIRS.items():
        for path in sorted((ledger / "Emissions" / name).glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            data["_dir_stage"] = stage
            out.append(data)
    return out


def stage_totals(rows) -> dict[str, float]:
    """Per-stage fsums of (stage, emissions_kg, inference_count) rows.

    The inference stage is divided by its summed count, a missing count
    counting 1.
    """
    rows = list(rows)
    totals = {s: math.fsum(kg for stage, kg, _ in rows if stage == s) for s in STAGES}
    count = sum(n or 1 for stage, _, n in rows if stage == "inference")
    if count:
        totals["inference"] /= count
    return totals


def record_totals(records: list[dict]) -> dict[str, float]:
    return stage_totals((r["_dir_stage"], r["emissions_kg"], r.get("inference_count")) for r in records)


def c_total(totals: dict[str, float]) -> float:
    return totals["embodied"] + totals["developmental"] + totals["operational"] + totals["inference"] * N_INFER


def check_bench_row(row: dict, records: list[dict], intensity: float, n_records: int) -> list[str]:
    """One `ecol2 bench` row against the records of its own ledger."""
    name = row.get("workload")
    problems = []
    if len(records) != n_records:
        problems.append(f"{name}: {len(records)} records in the ledger, expected {n_records}")
    for rec in records:
        expected = fixed_power_emissions(rec["duration_s"], intensity)
        if not close(rec["emissions_kg"], expected):
            problems.append(
                f"{name}: record {rec['label']} emits {rec['emissions_kg']!r} kg, "
                f"50 W over {rec['duration_s']!r} s gives {expected!r}"
            )
    totals = record_totals(records)
    for stage in STAGES:
        if not close(row[f"c_{stage}"], totals[stage]):
            problems.append(f"{name}: c_{stage} {row[f'c_{stage}']!r} != records' {totals[stage]!r}")
    total = c_total(totals)
    if not close(row["c_total"], total):
        problems.append(f"{name}: c_total {row['c_total']!r} != records' {total!r}")
    problems += check_score(name, row["r"], row["c_total"], row["ecol2"])
    if not row["r"] < ACCURACY_LIMIT or row["inaccurate"] != "False":
        problems.append(f"{name}: r = {row['r']!r} (inaccurate={row['inaccurate']}) is not below {ACCURACY_LIMIT}")
    return problems


def check_score(name: str, r: float, total: float, value: float) -> list[str]:
    expected = score(r, total)
    if not close(value, expected):
        return [f"{name}: ecol2 {value!r} != {expected!r} from r and c_total"]
    return []


def check_dataset(dataset_dir: Path, equation: str, count: int) -> list[str]:
    """Both equations conserve the mean; KdV also conserves the integral of u^2."""
    u0 = np.loadtxt(dataset_dir / "u0.csv", delimiter=",", ndmin=2)
    uT = np.loadtxt(dataset_dir / "uT.csv", delimiter=",", ndmin=2)
    if u0.shape != uT.shape or u0.shape[0] != count:
        return [f"{equation} dataset: shapes {u0.shape} and {uT.shape}, expected {count} samples"]
    problems = []
    for i, (a, b) in enumerate(zip(u0, uT)):
        drift = abs(float(np.mean(b)) - float(np.mean(a)))
        if not drift <= MEAN_ABS_TOL:
            problems.append(f"{equation} dataset sample {i}: mean moved by {drift:.3g}")
        if equation == "kdv":
            e0, e1 = float(np.sum(a * a)), float(np.sum(b * b))
            if not abs(e1 - e0) <= KDV_ENERGY_REL_TOL * e0:
                problems.append(f"{equation} dataset sample {i}: integral of u^2 moved from {e0!r} to {e1!r}")
    return problems


def fd_relative_error(field: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm((field - exact).ravel()) / np.linalg.norm(exact.ravel()))


def check_fd_field(problem: str, field: np.ndarray, exact: np.ndarray, row_r: float) -> list[str]:
    """The bench row's r must be the solver field's error against the closed form."""
    r = fd_relative_error(field, exact)
    if not close(r, row_r, FD_R_REL_TOL):
        return [f"{problem}: bench r {row_r!r} but fd_solve against the closed form gives {r!r}"]
    return []


def check_carbon(name: str, carbon, expected: dict[str, float]) -> list[str]:
    """A CarbonLedger against per-stage totals of the generated values."""
    problems = []
    for stage in STAGES:
        got = getattr(carbon, f"c_{stage}")
        if not close(got, expected[stage]):
            problems.append(f"{name}: c_{stage} {got!r} != generated {expected[stage]!r}")
    return problems


def check_what_if(region: str, total: float, value: float, base_total: float,
                  intensities: dict[str, float], source: str, r: float) -> list[str]:
    """A what-if total is the source total times the intensity ratio."""
    expected = base_total * intensities[region] / intensities[source]
    if not close(total, expected):
        return [f"what-if {region}: c_total {total!r} != {expected!r}"]
    return check_score(f"what-if {region}", r, total, value)
