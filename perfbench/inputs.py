"""Seeded inputs of the three workloads.

Everything here is computed by the benchmark itself, apart from the
program: the spectral seed choice replicates how `ecol2 bench kdv|ks`
draws its initial fields, and the ledger inputs are plain numbers that
the checks later compare the program's totals against.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REGION = "CH"
POWER = "fixed:50"
WATTS = 50.0
JOULES_PER_KWH = 3.6e6
ALPHA = 100.0
BETA = 100.0
N_INFER = 1

STAGES = ("embodied", "developmental", "operational", "inference")

# --- spectral-lifecycle: one `ecol2 bench` seed of a fixed amount of work ---

# domain lengths of kdv and ks; both have 100 output times over t in [0, 10]
SPECTRAL_LENGTHS = {"kdv": 128.0, "ks": 64.0}
_DT_OUT = 10.0 / 99
# internal mode counts of one pipeline run, in order: four dataset samples,
# the reference solve, the two developmental trials and the final solve
_DATASET_COUNT = 4
_BASE_SOLVE_MODES = (256, 128, 256, 128)

# Each spectral solve takes ceil(dt_out * u_scale * pi * n / (0.05 * L))
# substeps per output interval, with u_scale = max(1, max|u0|), so the
# cost of one op moves with the seed: seeds 0, 1 and 2 give 284, 417 and
# 307 substeps per output interval summed over kdv and ks.  The benchmark
# keeps the work fixed and lets the seed pick among the fields of that
# work: 314 is the median over seeds 0..2999, and about 5% of seeds lie
# within the window.
SPECTRAL_SUBSTEPS_TARGET = 314
SPECTRAL_SUBSTEPS_WINDOW = 3


def _series_spec(rng: np.random.Generator, n_terms: int = 5):
    amplitudes = rng.uniform(0.1, 0.5, n_terms)
    frequencies = rng.integers(1, 6, n_terms)
    phases = rng.standard_normal(n_terms)
    return amplitudes, frequencies, phases


def _perturbed(spec, rng: np.random.Generator):
    amplitudes, frequencies, phases = spec
    eta_a = rng.uniform(-1.0, 1.0, len(amplitudes))
    eta_p = rng.uniform(-1.0, 1.0, len(amplitudes))
    return amplitudes * (1.0 + 0.05 * eta_a), frequencies, phases + 0.25 * eta_p


def _max_abs(spec, length: float, n: int) -> float:
    amplitudes, frequencies, phases = spec
    x = np.arange(n) * (length / n)
    u = np.zeros(n)
    for a, l, phi in zip(amplitudes, frequencies, phases):
        u += a * np.sin(2.0 * np.pi * l * x / length + phi)
    return float(np.max(np.abs(u)))


def _substeps(spec, length: float, n: int) -> int:
    u_scale = max(1.0, _max_abs(spec, length, n))
    dt_limit = 0.05 / (u_scale * math.pi * n / length)
    return max(1, math.ceil(_DT_OUT / dt_limit - 1e-12))


def spectral_substeps(bench_seed: int) -> int:
    """Substeps per output interval of one kdv plus one ks pipeline run."""
    total = 0
    for length in SPECTRAL_LENGTHS.values():
        base = _series_spec(np.random.default_rng(bench_seed))
        rng = np.random.default_rng(bench_seed)
        for _ in range(_DATASET_COUNT):
            total += _substeps(_perturbed(base, rng), length, 256)
        total += sum(_substeps(base, length, n) for n in _BASE_SOLVE_MODES)
    return total


def spectral_bench_seed(seed: int) -> int:
    """First seed drawn from `seed` whose op does the target amount of work."""
    rng = random.Random(seed)
    while True:
        candidate = rng.randrange(2**31)
        if abs(spectral_substeps(candidate) - SPECTRAL_SUBSTEPS_TARGET) <= SPECTRAL_SUBSTEPS_WINDOW:
            return candidate


# --- fd-lifecycle: closed forms of the three textbook problems ---


def fd_closed_form(problem: str) -> np.ndarray:
    """Exact field on the problem's evaluation grid, shape (100, 256)."""
    t = np.linspace(0.0, 1.0, 100)[:, None]
    if problem == "wave":
        x = np.linspace(0.0, 1.0, 256)[None, :]
        c = math.sqrt(3.0)
        return np.sin(np.pi * x) * np.cos(c * np.pi * t) + 0.5 * np.sin(
            3.0 * np.pi * x
        ) * np.cos(3.0 * c * np.pi * t)
    x = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)[None, :]
    if problem == "advection":
        return np.sin(x - 10.0 * t)
    if problem == "reaction":
        h = np.exp(-((x - np.pi) ** 2) / (2.0 * (np.pi / 4.0) ** 2))
        grown = h * np.exp(5.0 * t)
        return grown / (grown + 1.0 - h)
    raise ValueError(f"no closed form for {problem!r}")


# --- ledger-history: a standing history and a CodeCarbon-style CSV ---

HISTORY_RECORDS = 1000
CSV_ROWS = 25
# the error the standing ledger is scored at, as `ecol2 score --r` would
SCORE_R = 0.01


def read_intensities(path: Path) -> dict[str, float]:
    """Grid intensities in g/kWh, read from the program's regions.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["iso_code"]: float(row["intensity_g_per_kwh"]) for row in csv.DictReader(fh)}


def fixed_power_emissions(duration_s: float, intensity: float) -> float:
    """kgCO2 of a fixed:50 session of `duration_s` on a grid of `intensity`."""
    return WATTS * duration_s / JOULES_PER_KWH * intensity / 1000.0


@dataclass(frozen=True)
class HistoryEntry:
    stage: str
    label: str
    duration_s: float
    energy_kwh: float
    emissions_kg: float
    inference_count: int | None


def history(seed: int, intensities: dict[str, float]) -> list[HistoryEntry]:
    """Seeded past runs on a fixed:50 machine in CH, across the four stages."""
    rng = random.Random(f"history-{seed}")
    out = []
    for i in range(HISTORY_RECORDS):
        stage = rng.choice(STAGES)
        duration = rng.uniform(1.0, 3600.0)
        out.append(
            HistoryEntry(
                stage=stage,
                label=f"history-{i:05d}",
                duration_s=duration,
                energy_kwh=WATTS * duration / JOULES_PER_KWH,
                emissions_kg=fixed_power_emissions(duration, intensities[REGION]),
                inference_count=rng.randint(1, 5) if stage == "inference" else None,
            )
        )
    return out


CSV_HEADER = (
    "timestamp",
    "project_name",
    "run_id",
    "duration",
    "emissions",
    "energy_consumed",
    "country_name",
    "country_iso_code",
)


def write_emissions_csv(path: Path, seed: int, intensities: dict[str, float]) -> list[float]:
    """Write the CSV; returns the emissions (kg) of its rows as written."""
    rng = random.Random(f"csv-{seed}")
    regions = sorted(intensities)
    emissions = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for i in range(CSV_ROWS):
            region = rng.choice(regions)
            duration = rng.uniform(10.0, 7200.0)
            energy = rng.uniform(50.0, 400.0) * duration / JOULES_PER_KWH
            kg = energy * intensities[region] / 1000.0
            emissions.append(kg)
            writer.writerow(
                [
                    f"2025-01-01T00:00:{i % 60:02d}",
                    "perfbench",
                    f"run-{seed}-{i:05d}",
                    repr(duration),
                    repr(kg),
                    repr(energy),
                    region,
                    region,
                ]
            )
    return emissions
