"""Pseudospectral solver for the two dispersive/chaotic problems.

Both equations share the nonlinear term u u_x = (u^2/2)_x; only the
linear symbol differs:

    KdV: u_t + u u_x + u_xxx = 0          ->  L(k) = i k^3
    KS:  u_t + u u_x + u_xx + u_xxxx = 0  ->  L(k) = k^2 - k^4

The stiff linear part is integrated exactly via exponentials of L; the
nonlinearity is advanced by classical RK4 in the transformed variable
with 2/3-rule dealiasing.  Internal grids are powers of two (the
compiled FFT requires it) and at least 256 points unless overridden;
output is restricted/extended to the grid by spectral resampling.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SolverError, ValidationError
from ._backend import kernels
from .grids import FieldSolution, Grid1D, fourier_resample, substeps

SPECTRAL_EQUATIONS = ("kdv", "ks")

_INTERNAL_NX_MIN = 256

# advective accuracy target: dt <= _DT_ACCURACY / (u_max * k_max); validated
# by the self-convergence suite (halving dt moves the t=10 field < 1e-4)
_DT_ACCURACY = 0.05

_BLOWUP_LIMIT = 1e8


def next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _wavenumbers(n: int, length: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def _dealias_mask(n: int) -> np.ndarray:
    modes = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    return (np.abs(modes) < n / 3.0).astype(np.float64)


def internal_modes(grid: Grid1D, internal_nx: int | None = None) -> int:
    """Transform size a solve on the grid uses: forced, or the default."""
    n_int = internal_nx if internal_nx is not None else next_pow2(
        max(grid.nx, _INTERNAL_NX_MIN)
    )
    if n_int < 16 or (n_int & (n_int - 1)) != 0:
        raise ValidationError(f"internal_nx must be a power of two >= 16, got {n_int}")
    return n_int


def spectral_solve(
    equation: str,
    u0,
    grid: Grid1D,
    *,
    dt: float | None = None,
    internal_nx: int | None = None,
    dealias: bool = True,
    provenance: str = "reference-numeric",
) -> FieldSolution:
    """Evolve u0 over the grid's output times.

    dt forces the internal substep (rounded down so output times are hit
    exactly); internal_nx forces the transform size (power of two).
    Blow-up raises with the first output time at which the state was
    no longer finite.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (grid.nx,):
        raise ValidationError(f"u0 shape {u0.shape} does not match grid nx {grid.nx}")
    (solution,) = spectral_solve_batch(
        equation, u0[None, :], grid, dt=dt, internal_nx=internal_nx,
        dealias=dealias, provenance=provenance,
    )
    return solution


def spectral_solve_batch(
    equation: str,
    u0s,
    grid: Grid1D,
    *,
    dt: float | None = None,
    internal_nx: int | None = None,
    dealias: bool = True,
    provenance: str = "reference-numeric",
) -> list[FieldSolution]:
    """Evolve each row of a (count, nx) stack; one FieldSolution per row.

    Every row keeps the dt it would get alone (its own u_scale), and goes
    through exactly the operations of a one-row solve, so each result is
    bit for bit that of spectral_solve on the row.  Rows are stepped
    together: in each output interval all rows advance by the smallest
    substep count, then the rows still running by the next increment, and
    so on.  Blow-up raises SolverError whose `row` is the lowest-index row
    that blew up at the first failing output time.
    """
    if equation not in SPECTRAL_EQUATIONS:
        raise ValidationError(
            f"equation must be one of {SPECTRAL_EQUATIONS}, got {equation!r}"
        )
    if not grid.periodic:
        raise ValidationError("spectral grids are periodic")
    u0s = np.asarray(u0s, dtype=np.float64)
    if u0s.ndim != 2 or u0s.shape[0] < 1 or u0s.shape[1] != grid.nx:
        raise ValidationError(
            f"u0 stack shape {u0s.shape} is not (count >= 1, grid nx {grid.nx})"
        )
    if not np.all(np.isfinite(u0s)):
        raise ValidationError("u0 must be finite")

    n_int = internal_modes(grid, internal_nx)
    resample = n_int != grid.nx
    u_int = fourier_resample(u0s, n_int) if resample else u0s.copy()
    k = _wavenumbers(n_int, grid.length)
    if equation == "kdv":
        symbol = 1j * k**3
    else:
        symbol = (k**2 - k**4).astype(np.complex128)
    k_max = math.pi * n_int / grid.length
    mask = _dealias_mask(n_int)

    count = u0s.shape[0]
    nsub = []
    dt_sub = []
    e_half = np.empty((count, n_int), dtype=np.complex128)
    e_full = np.empty_like(e_half)
    g = np.empty_like(e_half)
    v = np.empty_like(e_half)
    for i, u in enumerate(u_int):
        u_scale = max(1.0, float(np.max(np.abs(u))))
        dt_limit = _DT_ACCURACY / (u_scale * k_max)
        nsub_i, dt_i = substeps(grid.dt_out, dt_limit, dt)
        nsub.append(nsub_i)
        dt_sub.append(dt_i)
        e_half[i] = np.exp(0.5 * dt_i * symbol)
        e_full[i] = np.exp(dt_i * symbol)
        g[i] = -0.5j * dt_i * k
        if dealias:
            g[i] *= mask
        v[i] = kernels.from_physical(u)

    # (rows still running, substeps to add) after each distinct count
    steps = []
    done = 0
    for level in sorted(set(nsub)):
        steps.append(([i for i, n in enumerate(nsub) if n >= level], level - done))
        done = level

    values = np.empty((count, grid.nt, grid.nx))
    values[:, 0] = u0s
    residue = np.zeros(count)
    t = grid.t
    for j in range(1, grid.nt):
        for rows, inc in steps:
            if len(rows) == count:
                v = kernels.spectral_evolve(v, e_half, e_full, g, inc)
            else:
                v[rows] = kernels.spectral_evolve(
                    v[rows], e_half[rows], e_full[rows], g[rows], inc
                )
        u_j = np.empty((count, n_int))
        for i in range(count):
            u_j[i], res_i = kernels.to_physical(v[i])
            if not np.all(np.isfinite(u_j[i])) or np.max(np.abs(u_j[i])) > _BLOWUP_LIMIT:
                raise SolverError(
                    f"{equation} solution blew up by t = {t[j]:.6g} "
                    f"(dt = {dt_sub[i]:.4g}, internal nx = {n_int})",
                    row=i,
                )
            residue[i] = max(residue[i], res_i)
        values[:, j] = fourier_resample(u_j, grid.nx) if resample else u_j
    return [
        FieldSolution(
            grid,
            values[i],
            provenance,
            work_points=(grid.nt - 1) * nsub[i] * n_int,
            max_imag_residue=float(residue[i]),
        )
        for i in range(count)
    ]
