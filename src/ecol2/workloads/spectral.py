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


def _dealias_mask(n: int, size: int) -> np.ndarray:
    """2/3-rule mask of an n-mode state, over a half spectrum of size modes."""
    return (np.arange(size) < n / 3.0).astype(np.float64)


def etdrk4_coefficients(h: float, symbol: np.ndarray):
    """exp(hL/2), exp(hL) and the ETDRK4 weights (Q, f1, f2, f3) for step h.

    Each weight's closed form cancels badly as hL -> 0 (where Q -> h/2
    and f1, f2, f3 -> h/6), so it is taken as the mean of the closed form
    over the contour about hL.  The weights of a real symbol are real:
    the contour leaves them only rounding-level imaginary parts.
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
    if np.isrealobj(symbol):
        weights = weights.real
    return np.exp(hl / 2.0), np.exp(hl), h * weights


def internal_modes(grid: Grid1D, modes: int | None = None) -> int:
    """Mode count of a solve on the grid: the one given, or the default."""
    n = next_pow2(max(grid.nx, _INTERNAL_NX_MIN)) if modes is None else modes
    if not (isinstance(n, (int, np.integer)) and n >= 16 and n & (n - 1) == 0):
        raise ValidationError(f"mode count must be a power of two >= 16, got {n!r}")
    return n


def spectral_solve(
    equation: str,
    u0,
    grid: Grid1D,
    *,
    dt: float | None = None,
    internal_nx: int | None = None,
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
        equation, u0[None, :], grid, dt=dt, modes=[internal_nx])
    return solution


def spectral_solve_batch(
    equation: str,
    u0s,
    grid: Grid1D,
    *,
    dt: float | None = None,
    modes=None,
) -> list[FieldSolution]:
    """Evolve each row of a (count, nx) stack; one result per row.

    modes gives each row its own mode count, a power of two >= 16 (None,
    for the list or a row: the grid's default).  The batch transforms at the
    largest count.  A row with fewer modes m is its m-point field
    zero-padded, dealiased at m/3 and stepped with the dt of a standalone
    m-point solve; the 2/3 rule keeps it on the m-point trajectory up to
    rounding, and it is charged the work of that solve.

    Every row keeps the dt it would get alone (its own u_scale).  A row at
    the batch's full mode count goes through exactly the operations of a
    one-row solve, so its result is bit for bit that of spectral_solve on
    the row; a row with fewer modes matches only up to rounding.  Rows are
    stepped together, in falling order of substep count (ties in caller
    order), so in each output interval all rows advance by the smallest
    count, then the leading block still running by the next increment, and
    so on, each as one call on views.  Results come back in caller order,
    and blow-up raises SolverError whose `row` is the lowest caller index
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
    count = u0s.shape[0]
    if modes is None:
        modes = [None] * count
    modes = [internal_modes(grid, m) for m in modes]
    if len(modes) != count:
        raise ValidationError(f"{len(modes)} mode counts for {count} rows")
    if dt is not None and not 0 < dt:
        raise ValidationError(f"dt must be > 0, got {dt}")

    n_int = max(modes)
    dt_accuracy = _DT_ACCURACY[equation]
    # each row's field at its own mode count, which sets its u_scale and
    # so its nsub, then zero-padded to the batch's
    u_int = np.empty((count, n_int))
    nsub = []
    for i, m in enumerate(modes):
        u_m = fourier_resample(u0s[i], m)
        u_scale = max(1.0, float(np.max(np.abs(u_m))))
        u_int[i] = fourier_resample(u_m, n_int)
        dt_limit = dt_accuracy / (u_scale * (math.pi * m / grid.length))
        nsub.append(substeps(grid.dt_out, dt_limit if dt is None else dt)[0])
    k = _wavenumbers(n_int, grid.length)
    symbol = 1j * k**3 if equation == "kdv" else k**2 - k**4
    # rows step in falling order of nsub, ties in caller order, so the rows
    # still running after each distinct count are a leading block
    order = sorted(range(count), key=lambda i: -nsub[i])
    # rows with one nsub share their dt, dt_out / nsub as substeps gives it
    coefficients = {n: etdrk4_coefficients(grid.dt_out / n, symbol) for n in set(nsub)}
    e_half = np.empty((count, k.size), dtype=np.complex128)
    e_full = np.empty_like(e_half)
    phi = np.empty((4, count, k.size), dtype=np.complex128)
    for row, i in enumerate(order):
        e_half[row], e_full[row], weights = coefficients[nsub[i]]
        phi[:, row] = weights * (-0.5j * k * _dealias_mask(modes[i], k.size))
    v = kernels.from_physical(u_int[order])

    # (rows still running, substeps to add) after each distinct count
    levels = sorted(set(nsub))
    steps = [(sum(n >= hi for n in nsub), hi - lo) for lo, hi in zip([0] + levels, levels)]

    values = np.empty((count, grid.nt, grid.nx))
    values[:, 0] = u0s[order]
    # each row's imaginary residue: the largest imaginary part an inverse
    # transform of its full m-mode spectrum would discard, (|Im v[0]| +
    # |Im v[m/2]|) / m.  It is taken over n, since zero-padding multiplies
    # the spectrum by n/m; a masked row's mode n/2 is exactly 0
    nyquist = (np.arange(count), [modes[i] // 2 for i in order])
    residue = np.zeros(count)
    t = grid.t
    # a blowing-up row overflows before the check below catches it
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, grid.nt):
            for r, inc in steps:
                v[:r] = kernels.spectral_evolve(v[:r], e_half[:r], e_full[:r], phi[:, :r], inc)
            u_j = kernels.to_physical(v)
            # a NaN or inf fails the comparison too
            bad = ~(np.max(np.abs(u_j), axis=1) <= _BLOWUP_LIMIT)
            if bad.any():
                i = min(o for o, b in zip(order, bad) if b)
                raise SolverError(
                    f"{equation} solution blew up by t = {t[j]:.6g} "
                    f"(dt = {grid.dt_out / nsub[i]:.4g}, internal nx = {modes[i]})",
                    row=i,
                )
            res_j = (np.abs(v[:, 0].imag) + np.abs(v[nyquist].imag)) / n_int
            np.maximum(residue, res_j, out=residue)
            values[:, j] = fourier_resample(u_j, grid.nx)

    solutions = [None] * count
    for row, i in enumerate(order):
        solutions[i] = FieldSolution(
            grid, values[row], nsub=nsub[i], points=modes[i],
            max_imag_residue=float(residue[row]),
        )
    return solutions
