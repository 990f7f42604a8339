"""Pseudospectral solver for the two dispersive/chaotic problems.

Both equations share the nonlinear term u u_x = (u^2/2)_x; only the
linear symbol differs:

    KdV: u_t + u u_x + u_xxx = 0          ->  L(k) = i k^3
    KS:  u_t + u u_x + u_xx + u_xxxx = 0  ->  L(k) = k^2 - k^4

The state is the half spectrum (rfft) of the real field.  It advances by
ETDRK4 (Kassam & Trefethen, "Fourth-order time-stepping for stiff PDEs",
SIAM J. Sci. Comput. 26(4), 2005): the stiff linear part exactly through
exponentials of L, the nonlinearity with 2/3-rule dealiasing.  Internal
grids are powers of two, which fixes the substep rule and so the output
bits, and at least 256 points unless overridden; output is
restricted/extended to the grid by spectral resampling.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import SolverError, ValidationError
from ._backend import kernels
from .grids import FieldSolution, Grid1D, fourier_resample, substeps

SPECTRAL_EQUATIONS = ("kdv", "ks")

_INTERNAL_NX_MIN = 256

# advective accuracy target: dt <= _DT_ACCURACY / (u_max * k_max).  Each
# constant is the largest whose u(T) moves no more against a solve at dt/8
# than the integrating-factor RK4 it replaced (constant 0.05) did, at seeds
# 0, 1, 2 and 7 of the default grids
_DT_ACCURACY = {"kdv": 0.07, "ks": 0.16}

_BLOWUP_LIMIT = 1e8


def next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _wavenumbers(n: int, length: float) -> np.ndarray:
    """Wavenumbers of the n/2 + 1 modes of an rfft of n points."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)


def _dealias_mask(n: int) -> np.ndarray:
    return (np.arange(n // 2 + 1) < n / 3.0).astype(np.float64)


def etdrk4_coefficients(h: float, symbol: np.ndarray, real: bool):
    """exp(hL/2), exp(hL) and the ETDRK4 weights (Q, f1, f2, f3) for step h.

    Each weight's closed form cancels badly as hL -> 0 (where Q -> h/2
    and f1, f2, f3 -> h/6), so it is taken as the mean of the closed form
    over the contour about hL.  real drops the rounding-level imaginary
    parts a real symbol leaves.
    """
    # Kassam & Trefethen's contour: 32 points on the unit circle about each
    # hL, the full circle since kdv's hL is imaginary.  Built per call, not
    # at import: a first numpy call of a new kind adds resident pages to
    # every process that imports the package
    contour = np.exp(2j * np.pi * (np.arange(1, 33) - 0.5) / 32)
    hl = h * symbol
    lr = hl[:, None] + contour
    el = np.exp(lr)
    lr3 = lr**3
    weights = np.stack([
        np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1),
        np.mean((-4.0 - lr + el * (4.0 - 3.0 * lr + lr * lr)) / lr3, axis=1),
        np.mean((2.0 + lr + el * (lr - 2.0)) / lr3, axis=1),
        np.mean((-4.0 - 3.0 * lr - lr * lr + el * (4.0 - lr)) / lr3, axis=1),
    ])
    if real:
        weights = weights.real
    return np.exp(hl / 2.0), np.exp(hl), h * weights


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
        provenance=provenance,
    )
    return solution


class _FinalState(NamedTuple):
    """What a batched solve returns for a row whose trajectory is not kept."""

    final_state: np.ndarray
    work_points: int
    max_imag_residue: float


def spectral_solve_batch(
    equation: str,
    u0s,
    grid: Grid1D,
    *,
    dt: float | None = None,
    internal_nx: int | None = None,
    provenance: str = "reference-numeric",
    trajectories=None,
) -> list[FieldSolution | _FinalState]:
    """Evolve each row of a (count, nx) stack; one result per row.

    Every row keeps the dt it would get alone (its own u_scale), and goes
    through exactly the operations of a one-row solve, so each result is
    bit for bit that of spectral_solve on the row.  Rows are stepped
    together: in each output interval all rows advance by the smallest
    substep count, then the rows still running by the next increment, and
    so on.  Blow-up raises SolverError whose `row` is the lowest-index row
    that blew up at the first failing output time.

    trajectories names the rows whose full (nt, nx) trajectory is kept
    and returned as a FieldSolution (None: every row).  Every other row
    holds only its current level and returns a _FinalState with u(T),
    resampled to the grid once, at the last level.
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
    symbol = 1j * k**3 if equation == "kdv" else k**2 - k**4
    nonlinear = -0.5j * k * _dealias_mask(n_int)
    k_max = math.pi * n_int / grid.length
    dt_accuracy = _DT_ACCURACY[equation]

    count = u0s.shape[0]
    nsub = []
    dt_sub = []
    e_half = np.empty((count, k.size), dtype=np.complex128)
    e_full = np.empty_like(e_half)
    phi = np.empty((4, count, k.size), dtype=np.complex128)
    for i, u in enumerate(u_int):
        u_scale = max(1.0, float(np.max(np.abs(u))))
        dt_limit = dt_accuracy / (u_scale * k_max)
        nsub_i, dt_i = substeps(grid.dt_out, dt_limit, dt)
        nsub.append(nsub_i)
        dt_sub.append(dt_i)
        e_half[i], e_full[i], weights = etdrk4_coefficients(
            dt_i, symbol, real=equation == "ks"
        )
        phi[:, i] = weights * nonlinear
    v = kernels.from_physical(u_int)

    # (rows still running, substeps to add) after each distinct count
    steps = []
    done = 0
    for level in sorted(set(nsub)):
        steps.append(([i for i, n in enumerate(nsub) if n >= level], level - done))
        done = level

    kept = list(range(count) if trajectories is None else trajectories)
    values = np.empty((len(kept), grid.nt, grid.nx))
    values[:, 0] = u0s[kept]
    residue = np.zeros(count)
    t = grid.t
    for j in range(1, grid.nt):
        for rows, inc in steps:
            if len(rows) == count:
                v = kernels.spectral_evolve(v, e_half, e_full, phi, inc)
            else:
                v[rows] = kernels.spectral_evolve(
                    v[rows], e_half[rows], e_full[rows], phi[:, rows], inc
                )
        u_j, res_j = kernels.to_physical(v)
        # a NaN or inf fails the comparison too
        bad = ~(np.max(np.abs(u_j), axis=1) <= _BLOWUP_LIMIT)
        if bad.any():
            i = int(np.argmax(bad))
            raise SolverError(
                f"{equation} solution blew up by t = {t[j]:.6g} "
                f"(dt = {dt_sub[i]:.4g}, internal nx = {n_int})",
                row=i,
            )
        np.maximum(residue, res_j, out=residue)
        if kept:
            u_kept = u_j[kept]
            values[:, j] = fourier_resample(u_kept, grid.nx) if resample else u_kept

    work = [(grid.nt - 1) * n * n_int for n in nsub]
    out: list[FieldSolution | _FinalState] = [None] * count
    for slot, i in enumerate(kept):
        out[i] = FieldSolution(
            grid, values[slot], provenance, work_points=work[i],
            max_imag_residue=float(residue[i]),
        )
    rest = [i for i in range(count) if out[i] is None]
    if rest:
        u_rest = u_j[rest]
        finals = fourier_resample(u_rest, grid.nx) if resample else u_rest
        for final, i in zip(finals, rest):
            out[i] = _FinalState(final, work[i], float(residue[i]))
    return out
