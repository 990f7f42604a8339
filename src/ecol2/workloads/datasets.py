"""Seeded input/output pair generation for the spectral problems.

Initial conditions are short sine series with integer frequencies;
dataset samples perturb the base series' amplitudes and phases.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import SolverError, ValidationError
from .grids import FieldSolution, Grid1D
# spectral_solve is unused here but stays importable under this module's
# name: perfbench/tracer.py wraps datasets.spectral_solve by name
from .spectral import internal_modes, spectral_solve, spectral_solve_batch  # noqa: F401

FREQUENCY_LO = 1
FREQUENCY_HI = 5
AMPLITUDE_LO = 0.1
AMPLITUDE_HI = 0.5
N_TERMS = 5

# mode count of the model, which stands in for a cheaper learned solver:
# bases below ~128 modes leave KdV's steepening unregularized and can
# blow up
MODEL_MODES = 128


@dataclass(frozen=True)
class InitialConditionSpec:
    """Sine series u(x, 0) = sum_i A_i sin(2 pi l_i x / L + phi_i).

    eps_amplitude and eps_phase bound the per-sample perturbations:
    A -> A (1 + eps_A eta), phi -> phi + eps_phi eta, eta ~ U(-1, 1).
    """

    amplitudes: tuple[float, ...]
    frequencies: tuple[int, ...]
    phases: tuple[float, ...]
    eps_amplitude: float = 0.05
    eps_phase: float = 0.25
    seed: int | None = None

    def __post_init__(self):
        n = len(self.amplitudes)
        if not (len(self.frequencies) == n and len(self.phases) == n):
            raise ValidationError("amplitudes, frequencies, phases must align")
        if n == 0:
            raise ValidationError("need at least one series term")
        for l in self.frequencies:
            if not (isinstance(l, (int, np.integer)) and FREQUENCY_LO <= l <= FREQUENCY_HI):
                raise ValidationError(
                    f"frequencies must be integers in "
                    f"[{FREQUENCY_LO}, {FREQUENCY_HI}], got {l!r}"
                )
        if self.eps_amplitude < 0 or self.eps_phase < 0:
            raise ValidationError("perturbation scales must be >= 0")

    @property
    def n_terms(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def sample(cls, seed: int) -> "InitialConditionSpec":
        """Draw a five-term base spec: A ~ U[0.1, 0.5], l ~ {1..5}, phi ~ N(0, 1)."""
        rng = np.random.default_rng(seed)
        # a Generator passed instead of a seed still samples, but is not a
        # storable seed
        stored = int(seed) if isinstance(seed, (int, np.integer)) else None
        return cls(
            amplitudes=tuple(rng.uniform(AMPLITUDE_LO, AMPLITUDE_HI, N_TERMS).tolist()),
            frequencies=tuple(int(l) for l in rng.integers(FREQUENCY_LO, FREQUENCY_HI + 1, N_TERMS)),
            phases=tuple(rng.standard_normal(N_TERMS).tolist()),
            seed=stored,
        )

    def perturbed(self, rng: np.random.Generator) -> "InitialConditionSpec":
        eta_a = rng.uniform(-1.0, 1.0, self.n_terms)
        eta_p = rng.uniform(-1.0, 1.0, self.n_terms)
        return replace(
            self,
            amplitudes=tuple(
                a * (1.0 + self.eps_amplitude * e)
                for a, e in zip(self.amplitudes, eta_a)
            ),
            phases=tuple(
                p + self.eps_phase * e for p, e in zip(self.phases, eta_p)
            ),
            seed=None,
        )

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        u = np.zeros_like(np.asarray(x, dtype=np.float64))
        for a, l, phi in zip(self.amplitudes, self.frequencies, self.phases):
            u += a * np.sin(2.0 * np.pi * l * x / length + phi)
        return u


def generate_initial_condition(spec: InitialConditionSpec, grid: Grid1D) -> np.ndarray:
    """Field values at t = 0 on the grid's spatial points."""
    return spec.evaluate(grid.x, grid.length)


def generate_dataset(
    equation: str,
    count: int,
    base_spec: InitialConditionSpec,
    seed: int,
    grid: Grid1D,
) -> tuple[list[FieldSolution], FieldSolution, FieldSolution]:
    """Solutions of perturbed copies of the base spec.

    Deterministic given the seed.  The base spec's own field rides in the
    samples' batch twice: at MODEL_MODES as the model, then at the default
    mode count as the reference, the last row.  Returns the samples, the
    reference and the model.  A blow-up names the failing sample, the
    model or the reference, and aborts.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    rows = [
        generate_initial_condition(base_spec.perturbed(rng), grid)
        for _ in range(count)
    ]
    base = generate_initial_condition(base_spec, grid)
    default = internal_modes(grid)
    try:
        solutions = spectral_solve_batch(
            equation, np.stack(rows + [base, base]), grid,
            modes=[default] * count + [MODEL_MODES, default],
        )
    except SolverError as err:
        if err.row == count + 1:
            raise SolverError(f"reference solve failed: {err}") from err
        if err.row == count:
            raise SolverError(f"model solve failed: {err}") from err
        raise SolverError(f"dataset sample {err.row} failed: {err}") from err
    return solutions[:count], solutions[count + 1], solutions[count]


def write_dataset(out_dir: Path, equation, seed, base_spec, grid, samples) -> None:
    """header.json + u0.csv + uT.csv, rows = samples' u0 and u(T), full precision."""
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {
        "equation": equation,
        "seed": seed,
        "count": len(samples),
        "grid": asdict(grid),
        "base_spec": asdict(base_spec),
    }
    (out_dir / "header.json").write_text(
        json.dumps(header, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    u0 = np.stack([s.values[0] for s in samples])
    uT = np.stack([s.final_state for s in samples])
    np.savetxt(out_dir / "u0.csv", u0, delimiter=",", fmt="%.17g")
    np.savetxt(out_dir / "uT.csv", uT, delimiter=",", fmt="%.17g")
