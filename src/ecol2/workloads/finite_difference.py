"""Cheap classical solvers acting as the model under evaluation.

advection: Lax-Wendroff (order 2), periodic
wave:      leapfrog with pinned ends, second-order Taylor start
reaction:  pointwise RK4 (the PDE is an ODE at each spatial point)

Each step is _CFL_SAFETY of its stability limit, rounded down so that
every output time is hit exactly, so no step can exceed its limit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from ._backend import kernels
from .grids import (
    ADVECTION_SPEED,
    REACTION_RATE,
    WAVE_SPEED_SQ,
    FieldSolution,
    Grid1D,
    default_grid,
    substeps,
)

FD_PROBLEMS = ("advection", "reaction", "wave")

# fraction of the stability limit each step takes
_CFL_SAFETY = 0.8

# RK4 on the logistic linearization u' ~ rate*u is stable for rate*dt
# below ~2.78; stay well inside
_REACTION_RATE_DT_MAX = 2.0


def fd_solve(problem: str, grid: Grid1D | None = None) -> FieldSolution:
    if problem not in FD_PROBLEMS:
        raise ValidationError(
            f"problem must be one of {FD_PROBLEMS}, got {problem!r}"
        )
    grid = grid or default_grid(problem)
    if problem == "advection":
        return _solve_advection(grid)
    if problem == "wave":
        return _solve_wave(grid)
    return _solve_reaction(grid)


def _solve_advection(grid):
    if not grid.periodic:
        raise ValidationError("advection grid must be periodic")
    dx = grid.dx
    nsub, dt = substeps(grid.dt_out, dx / ADVECTION_SPEED * _CFL_SAFETY)
    nu = ADVECTION_SPEED * dt / dx
    values = np.empty((grid.nt, grid.nx))
    values[0] = np.sin(grid.x)
    u = values[0]
    for j in range(1, grid.nt):
        u = kernels.advection_lax_wendroff(u, nu, nsub)
        values[j] = u
    return FieldSolution(grid, values, work_points=(grid.nt - 1) * nsub * grid.nx)


def _solve_wave(grid):
    if grid.periodic:
        raise ValidationError("wave grid must include both endpoints")
    c = math.sqrt(WAVE_SPEED_SQ)
    dx = grid.dx
    nsub, dt = substeps(grid.dt_out, dx / c * _CFL_SAFETY)
    courant = c * dt / dx
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
    return FieldSolution(grid, values, work_points=(grid.nt - 1) * nsub * grid.nx)


def _solve_reaction(grid):
    nsub, dt = substeps(grid.dt_out, _REACTION_RATE_DT_MAX / REACTION_RATE * _CFL_SAFETY)
    x = grid.x
    values = np.empty((grid.nt, grid.nx))
    values[0] = np.exp(-((x - np.pi) ** 2) / (2.0 * (np.pi / 4.0) ** 2))
    u = values[0]
    for j in range(1, grid.nt):
        u = kernels.reaction_rk4(u, REACTION_RATE, dt, nsub)
        values[j] = u
    return FieldSolution(grid, values, work_points=(grid.nt - 1) * nsub * grid.nx)
