"""The three textbook problems: each one's coefficient, initial condition,
closed form, and the finite-difference stepper that stands in for the model.

advection: u_t + c u_x = 0, u(x, 0) = sin x; Lax-Wendroff (order 2), periodic.
reaction:  u_t = rho u (1 - u), u(x, 0) = exp(-(x - pi)^2 / (2 (pi/4)^2));
           pointwise RK4 (the PDE is an ODE at each spatial point).
wave:      u_tt = c^2 u_xx, u(x, 0) = sin(pi x) + sin(3 pi x)/2 at rest,
           ends pinned; leapfrog with a second-order Taylor start.

Each step is _CFL_SAFETY of its stability limit, rounded down so that
every output time is hit exactly, so no step can exceed its limit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from ._backend import kernels
from .grids import FieldSolution, Grid1D, default_grid, substeps

FD_PROBLEMS = ("advection", "reaction", "wave")

ADVECTION_SPEED = 10.0
REACTION_RATE = 5.0
WAVE_SPEED_SQ = 3.0

# fraction of the stability limit each step takes
_CFL_SAFETY = 0.8

# RK4 on the logistic linearization u' ~ rate*u is stable for rate*dt
# below ~2.78; stay well inside
_REACTION_RATE_DT_MAX = 2.0


_advection_u0 = np.sin


def _reaction_u0(x):
    return np.exp(-((x - np.pi) ** 2) / (2.0 * (np.pi / 4.0) ** 2))


def _wave_u0_modes(x):
    """The two standing modes of the wave's u(x, 0), which sum to it."""
    return np.sin(np.pi * x), 0.5 * np.sin(3.0 * np.pi * x)


def analytic_advection(grid: Grid1D) -> FieldSolution:
    """u = sin(x - c t): the initial sine carried at speed c."""
    x = grid.x[None, :]
    t = grid.t[:, None]
    return FieldSolution(grid, _advection_u0(x - ADVECTION_SPEED * t))


def analytic_reaction(grid: Grid1D) -> FieldSolution:
    """u = h e^{rho t} / (h e^{rho t} + 1 - h), h = u(x, 0): logistic growth."""
    h = _reaction_u0(grid.x[None, :])
    grown = h * np.exp(REACTION_RATE * grid.t[:, None])
    return FieldSolution(grid, grown / (grown + 1.0 - h))


def analytic_wave(grid: Grid1D) -> FieldSolution:
    """Each standing mode of u(x, 0) oscillates at c times its frequency."""
    c = np.sqrt(WAVE_SPEED_SQ)
    first, third = _wave_u0_modes(grid.x[None, :])
    t = grid.t[:, None]
    values = first * np.cos(c * np.pi * t) + third * np.cos(3.0 * c * np.pi * t)
    return FieldSolution(grid, values)


def fd_solve(problem: str, grid: Grid1D | None = None) -> FieldSolution:
    if problem not in FD_PROBLEMS:
        raise ValidationError(f"problem must be one of {FD_PROBLEMS}, got {problem!r}")
    solve = {"advection": _solve_advection, "reaction": _solve_reaction, "wave": _solve_wave}
    return solve[problem](grid or default_grid(problem))


def _march(grid, u0, nsub, kernel, *params):
    """Store u0, then one kernel call of nsub steps per output interval."""
    values = np.empty((grid.nt, grid.nx))
    values[0] = u = u0
    for j in range(1, grid.nt):
        values[j] = u = kernel(u, *params, nsub)
    return FieldSolution(grid, values, nsub=nsub, points=grid.nx)


def _solve_advection(grid):
    if not grid.periodic:
        raise ValidationError("advection grid must be periodic")
    dx = grid.dx
    nsub, dt = substeps(grid.dt_out, dx / ADVECTION_SPEED * _CFL_SAFETY)
    nu = ADVECTION_SPEED * dt / dx
    return _march(grid, _advection_u0(grid.x), nsub, kernels.advection_lax_wendroff, nu)


def _solve_reaction(grid):
    nsub, dt = substeps(grid.dt_out, _REACTION_RATE_DT_MAX / REACTION_RATE * _CFL_SAFETY)
    return _march(grid, _reaction_u0(grid.x), nsub, kernels.reaction_rk4, REACTION_RATE, dt)


def _solve_wave(grid):
    if grid.periodic:
        raise ValidationError("wave grid must include both endpoints")
    c = math.sqrt(WAVE_SPEED_SQ)
    dx = grid.dx
    nsub, dt = substeps(grid.dt_out, dx / c * _CFL_SAFETY)
    courant = c * dt / dx
    s2 = courant * courant
    first, third = _wave_u0_modes(grid.x)
    values = np.empty((grid.nt, grid.nx))
    values[0] = first + third
    # zero initial velocity: second-order start u^1 = u^0 + s^2/2 * Lap u^0
    u_prev = values[0].copy()
    u_curr = u_prev.copy()
    u_curr[1:-1] = u_prev[1:-1] + 0.5 * s2 * (
        u_prev[2:] - 2.0 * u_prev[1:-1] + u_prev[:-2]
    )
    # u_prev/u_curr now hold substep levels 0 and 1, so the first output
    # interval takes one leapfrog step fewer
    for j in range(1, grid.nt):
        u_prev, u_curr = kernels.wave_leapfrog(u_prev, u_curr, s2, nsub - (j == 1))
        values[j] = u_curr
    return FieldSolution(grid, values, nsub=nsub, points=grid.nx)
