"""Cheap classical solvers acting as the model under evaluation.

advection: Lax-Wendroff (order 2), periodic
wave:      leapfrog with pinned ends, second-order Taylor start
reaction:  pointwise RK4 (the PDE is an ODE at each spatial point)

Steps are chosen stable from the grid unless an explicit dt is forced;
forcing an unstable one raises with the violated bound.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StabilityError, ValidationError
from ._backend import kernels
from .grids import FieldSolution, Grid1D, PdeCoefficients, default_grid, substeps

FD_PROBLEMS = ("advection", "reaction", "wave")

# fraction of the stability limit used when picking steps automatically
_CFL_SAFETY = 0.8

# RK4 on the logistic linearization u' ~ rate*u is stable for rate*dt
# below ~2.78; stay well inside
_REACTION_RATE_DT_MAX = 2.0


def fd_solve(
    problem: str,
    grid: Grid1D | None = None,
    coeffs: PdeCoefficients | None = None,
    dt: float | None = None,
) -> FieldSolution:
    if problem not in FD_PROBLEMS:
        raise ValidationError(
            f"problem must be one of {FD_PROBLEMS}, got {problem!r}"
        )
    grid = grid or default_grid(problem)
    coeffs = coeffs or PdeCoefficients()
    if problem == "advection":
        return _solve_advection(grid, coeffs, dt)
    if problem == "wave":
        return _solve_wave(grid, coeffs, dt)
    return _solve_reaction(grid, coeffs, dt)


def _solve_advection(grid, coeffs, dt_forced):
    if not grid.periodic:
        raise ValidationError("advection grid must be periodic")
    beta = coeffs.advection_speed
    dx = grid.dx
    nsub, dt = substeps(grid.dt_out, dx / beta * _CFL_SAFETY, dt_forced)
    nu = beta * dt / dx
    if nu > 1.0:
        raise StabilityError(
            f"advection CFL violated: beta*dt/dx = {nu:.4g} > 1 "
            f"(beta={beta:g}, dt={dt:.4g}, dx={dx:.4g})"
        )
    values = np.empty((grid.nt, grid.nx))
    values[0] = np.sin(grid.x)
    u = values[0]
    for j in range(1, grid.nt):
        u = kernels.advection_lax_wendroff(u, nu, nsub)
        values[j] = u
    return FieldSolution(
        grid, values, "model-numeric", work_points=(grid.nt - 1) * nsub * grid.nx
    )


def _solve_wave(grid, coeffs, dt_forced):
    if grid.periodic:
        raise ValidationError("wave grid must include both endpoints")
    c = math.sqrt(coeffs.wave_speed_sq)
    dx = grid.dx
    nsub, dt = substeps(grid.dt_out, dx / c * _CFL_SAFETY, dt_forced)
    courant = c * dt / dx
    if courant > 1.0:
        raise StabilityError(
            f"wave CFL violated: sqrt(beta)*dt/dx = {courant:.4g} > 1 "
            f"(sqrt(beta)={c:g}, dt={dt:.4g}, dx={dx:.4g})"
        )
    s2 = courant * courant
    x = grid.x
    values = np.empty((grid.nt, grid.nx))
    values[0] = np.sin(np.pi * x) + 0.5 * np.sin(3.0 * np.pi * x)
    # zero initial velocity: second-order start u^1 = u^0 + s^2/2 * Lap u^0
    u_prev = values[0].copy()
    u_curr = u_prev.copy()
    u_curr[1:-1] = u_prev[1:-1] + 0.5 * s2 * (
        u_prev[2:] - 2.0 * u_prev[1:-1] + u_prev[:-2]
    )
    # u_prev/u_curr now hold substep levels 0 and 1
    done = 1
    for j in range(1, grid.nt):
        need = j * nsub - done
        if need > 0:
            u_prev, u_curr = kernels.wave_leapfrog(u_prev, u_curr, s2, need)
            done += need
        values[j] = u_curr
    return FieldSolution(
        grid, values, "model-numeric", work_points=(grid.nt - 1) * nsub * grid.nx
    )


def _solve_reaction(grid, coeffs, dt_forced):
    rate = coeffs.reaction_rate
    nsub, dt = substeps(grid.dt_out, _REACTION_RATE_DT_MAX / rate * _CFL_SAFETY, dt_forced)
    if rate * dt > _REACTION_RATE_DT_MAX:
        raise StabilityError(
            f"reaction stability violated: rate*dt = {rate * dt:.4g} > "
            f"{_REACTION_RATE_DT_MAX} (rate={rate:g}, dt={dt:.4g})"
        )
    x = grid.x
    values = np.empty((grid.nt, grid.nx))
    values[0] = np.exp(-((x - np.pi) ** 2) / (2.0 * (np.pi / 4.0) ** 2))
    u = values[0]
    for j in range(1, grid.nt):
        u = kernels.reaction_rk4(u, rate, dt, nsub)
        values[j] = u
    return FieldSolution(
        grid, values, "model-numeric", work_points=(grid.nt - 1) * nsub * grid.nx
    )
