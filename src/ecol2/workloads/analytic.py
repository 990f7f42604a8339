"""Closed-form reference solutions for the three textbook problems."""

from __future__ import annotations

import numpy as np

from .grids import ADVECTION_SPEED, REACTION_RATE, WAVE_SPEED_SQ, FieldSolution, Grid1D


def analytic_advection(grid: Grid1D) -> FieldSolution:
    """u_t + beta u_x = 0, u(x,0) = sin x, periodic: u = sin(x - beta t)."""
    x = grid.x[None, :]
    t = grid.t[:, None]
    values = np.sin(x - ADVECTION_SPEED * t)
    return FieldSolution(grid, values)


def analytic_reaction(grid: Grid1D) -> FieldSolution:
    """u_t = rho u (1 - u), logistic growth from a Gaussian bump.

    h(x) = exp(-(x - pi)^2 / (2 (pi/4)^2));
    u = h e^{rho t} / (h e^{rho t} + 1 - h).
    """
    x = grid.x[None, :]
    t = grid.t[:, None]
    h = np.exp(-((x - np.pi) ** 2) / (2.0 * (np.pi / 4.0) ** 2))
    grown = h * np.exp(REACTION_RATE * t)
    values = grown / (grown + 1.0 - h)
    return FieldSolution(grid, values)


def analytic_wave(grid: Grid1D) -> FieldSolution:
    """u_tt = beta u_xx on [0,1], ends pinned, u(x,0) = sin(pi x) + sin(3 pi x)/2.

    Each standing mode oscillates at sqrt(beta) times its spatial frequency.
    """
    c = np.sqrt(WAVE_SPEED_SQ)
    x = grid.x[None, :]
    t = grid.t[:, None]
    values = np.sin(np.pi * x) * np.cos(c * np.pi * t) + 0.5 * np.sin(
        3.0 * np.pi * x
    ) * np.cos(3.0 * c * np.pi * t)
    return FieldSolution(grid, values)
