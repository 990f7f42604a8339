"""Self-tests of the benchmark's correctness checks.

Each check must pass a right result and reject a deliberately wrong one.
Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402

CH = 34.84


def _records(durations_by_stage):
    records = []
    for stage, durations in durations_by_stage.items():
        for i, d in enumerate(durations):
            rec = {"_dir_stage": stage, "stage": stage, "label": f"{stage}-{i}", "duration_s": d,
                   "emissions_kg": inputs.fixed_power_emissions(d, CH)}
            if stage == "inference":
                rec["inference_count"] = 2
            records.append(rec)
    return records


def _row(records, r=0.004):
    totals = checks.record_totals(records)
    total = checks.c_total(totals)
    row = {"workload": "kdv", "r": r, "inaccurate": "False", "c_total": total, "ecol2": checks.score(r, total)}
    row.update({f"c_{s}": totals[s] for s in inputs.STAGES})
    return row


@pytest.fixture
def bench():
    records = _records({"embodied": [1.5, 0.25], "developmental": [0.5, 0.75],
                        "operational": [0.125], "inference": [0.0625]})
    return _row(records), records


def test_bench_row_passes(bench):
    row, records = bench
    assert checks.check_bench_row(row, records, CH, len(records)) == []


def test_c_total_missing_one_record_is_rejected(bench):
    row, records = bench
    problems = checks.check_bench_row(row, records[1:], CH, len(records) - 1)
    assert any("c_total" in p for p in problems)


def test_record_with_wrong_emissions_is_rejected(bench):
    row, records = bench
    records[0]["emissions_kg"] *= 1.0 + 1e-9
    assert checks.check_bench_row(row, records, CH, len(records))


def test_wrong_score_is_rejected(bench):
    row, records = bench
    row["ecol2"] *= 1.0 + 1e-10
    problems = checks.check_bench_row(row, records, CH, len(records))
    assert any("ecol2" in p for p in problems)


def test_inaccurate_run_is_rejected(bench):
    row, records = bench
    row["r"] = 0.2
    row["ecol2"] = checks.score(0.2, row["c_total"])
    assert any("not below" in p for p in checks.check_bench_row(row, records, CH, len(records)))


def _write_dataset(tmp_path, u0, uT):
    np.savetxt(tmp_path / "u0.csv", u0, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "uT.csv", uT, delimiter=",", fmt="%.17g")


def test_dataset_passes_and_shifted_mean_is_rejected(tmp_path):
    x = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    u0 = np.stack([np.sin(x + k) for k in range(4)])
    uT = np.stack([np.sin(x + k + 0.5) for k in range(4)])
    _write_dataset(tmp_path, u0, uT)
    assert checks.check_dataset(tmp_path, "kdv", 4) == []
    uT[2] += 1e-9
    _write_dataset(tmp_path, u0, uT)
    problems = checks.check_dataset(tmp_path, "ks", 4)
    assert len(problems) == 1 and "sample 2: mean" in problems[0]


def test_kdv_energy_change_is_rejected(tmp_path):
    x = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    u0 = np.stack([np.sin(x)] * 4)
    _write_dataset(tmp_path, u0, 1.01 * u0)
    assert any("u^2" in p for p in checks.check_dataset(tmp_path, "kdv", 4))
    assert checks.check_dataset(tmp_path, "ks", 4) == []


def test_fd_field_error_must_match_the_row():
    exact = inputs.fd_closed_form("advection")
    field = exact + 1e-3 * np.cos(exact)
    r = checks.fd_relative_error(field, exact)
    assert checks.check_fd_field("advection", field, exact, r) == []
    assert checks.check_fd_field("advection", field, exact, r * (1 + 1e-6))


@dataclass
class _Carbon:
    c_embodied: float
    c_developmental: float
    c_operational: float
    c_inference: float


def test_carbon_and_what_if_checks():
    intensities = {"CH": CH, "ZA": 707.69}
    entries = inputs.history(3, intensities)
    expected = checks.stage_totals((e.stage, e.emissions_kg, e.inference_count) for e in entries)
    carbon = _Carbon(*(expected[s] for s in inputs.STAGES))
    assert checks.check_carbon("standing", carbon, expected) == []
    carbon.c_operational *= 1.0 + 1e-9
    assert checks.check_carbon("standing", carbon, expected)

    total = checks.c_total(expected)
    moved = total * intensities["ZA"] / intensities["CH"]
    assert checks.check_what_if("ZA", moved, checks.score(0.01, moved), total, intensities, "CH", 0.01) == []
    wrong = total * intensities["CH"] / intensities["ZA"]
    assert checks.check_what_if("ZA", wrong, checks.score(0.01, wrong), total, intensities, "CH", 0.01)


def test_history_totals_are_per_stage_fsums():
    entries = inputs.history(0, {"CH": CH})
    totals = checks.stage_totals((e.stage, e.emissions_kg, e.inference_count) for e in entries)
    assert len(entries) == inputs.HISTORY_RECORDS
    ops = [e.emissions_kg for e in entries if e.stage == "operational"]
    assert totals["operational"] == math.fsum(ops)


def test_spectral_seed_has_the_target_work():
    for seed in (0, 1, 2):
        chosen = inputs.spectral_bench_seed(seed)
        assert chosen == inputs.spectral_bench_seed(seed)
        assert abs(inputs.spectral_substeps(chosen) - inputs.SPECTRAL_SUBSTEPS_TARGET) <= inputs.SPECTRAL_SUBSTEPS_WINDOW


def test_per_layer_names_match_benchmark_json():
    from tracer import PER_LAYER

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_real_fd_op_passes_its_checks(tmp_path):
    from workloads import FdLifecycle

    workload = FdLifecycle(HERE.parent / "src", tmp_path, seed=0)
    workload.setup()
    with contextlib.redirect_stderr(io.StringIO()):
        out = workload.op(0)
    assert workload.check_op(0, out) == []
    assert workload.check_run() == []
