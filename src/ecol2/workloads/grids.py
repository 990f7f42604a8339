"""Grids, field containers, and spectral resampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid.

    nx spatial points over [0, length); periodic grids omit the right
    endpoint, non-periodic grids include both.  nt stored time levels
    over [0, t_final], level 0 being the initial condition.
    """

    length: float
    nx: int
    nt: int
    t_final: float
    periodic: bool = True

    def __post_init__(self):
        if not self.length > 0:
            raise ValidationError(f"length must be > 0, got {self.length}")
        if self.nx < 8:
            raise ValidationError(f"nx must be >= 8, got {self.nx}")
        if self.nt < 2:
            raise ValidationError(f"nt must be >= 2, got {self.nt}")
        if not self.t_final > 0:
            raise ValidationError(f"t_final must be > 0, got {self.t_final}")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.nx, endpoint=not self.periodic)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.nt)

    @property
    def dx(self) -> float:
        return self.length / (self.nx if self.periodic else self.nx - 1)

    @property
    def dt_out(self) -> float:
        return self.t_final / (self.nt - 1)


@dataclass(frozen=True)
class FieldSolution:
    """A solved field on a grid; values has shape (grid.nt, grid.nx).

    A stepped solve records nsub, its substeps per output interval, and
    points, the points each substep updates; a closed form records
    neither.  max_imag_residue is the largest imaginary component
    discarded by a spectral solve.
    """

    grid: Grid1D
    values: np.ndarray
    nsub: int = 0
    points: int = 0
    max_imag_residue: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.nt, self.grid.nx):
            raise ValidationError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.nt}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("field values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def final_state(self) -> np.ndarray:
        return self.values[-1]

    @property
    def work_points(self) -> int:
        """Grid-point updates charged for the solve; the one charge rule."""
        return (self.grid.nt - 1) * self.nsub * self.points


def substeps(dt_out: float, dt_max: float) -> tuple[int, float]:
    """Substeps per output interval and the resulting dt.

    dt is the largest dt_out / nsub within dt_max, so that every output
    time is hit exactly.
    """
    nsub = max(1, math.ceil(dt_out / dt_max - 1e-12))
    return nsub, dt_out / nsub


def default_grid(workload: str) -> Grid1D:
    """Evaluation grid for a named benchmark problem."""
    grids = {
        "advection": Grid1D(length=2.0 * np.pi, nx=256, nt=100, t_final=1.0),
        "reaction": Grid1D(length=2.0 * np.pi, nx=256, nt=100, t_final=1.0),
        "wave": Grid1D(length=1.0, nx=256, nt=100, t_final=1.0, periodic=False),
        "kdv": Grid1D(length=128.0, nx=100, nt=100, t_final=10.0),
        "ks": Grid1D(length=64.0, nx=256, nt=100, t_final=10.0),
    }
    try:
        return grids[workload]
    except KeyError:
        raise ValidationError(
            f"unknown workload {workload!r}; choose from {sorted(grids)}"
        ) from None


def fourier_resample(u: np.ndarray, n_new: int) -> np.ndarray:
    """Band-limited resampling of periodic samples along the last axis.

    Exact for content below both grids' Nyquist frequencies; modes above
    the target Nyquist are truncated (spectral projection).  When the size
    already matches, the float64 input itself is returned, not a copy.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[-1]
    if n_new < 2:
        raise ValidationError("resample target must have >= 2 points")
    if n_new == n:
        return u
    spectrum = np.fft.rfft(u)
    out = np.zeros(u.shape[:-1] + (n_new // 2 + 1,), dtype=np.complex128)
    m_copy = min(n, n_new) // 2 + 1
    out[..., :m_copy] = spectrum[..., :m_copy]
    if n_new > n and n % 2 == 0:
        # source Nyquist energy was two-sided; keep half on each side
        out[..., n // 2] *= 0.5
    if n_new < n and n_new % 2 == 0:
        out[..., -1] = out[..., -1].real
    return np.fft.irfft(out, n=n_new) * (n_new / n)
