"""Pure numpy time-stepping kernels.

Reference semantics for the optional compiled extension: same signatures,
same update order, fresh output arrays, inputs never mutated.
"""

from __future__ import annotations

import numpy as np


def spectral_evolve(v, e_half, e_full, g, nsub):
    """Advance a spectral state nsub integrating-factor RK4 steps.

    v is the FFT of the field; e_half/e_full are exp(L dt/2) and
    exp(L dt) for the linear symbol L; g bundles -i k dt / 2 with the
    dealias mask.  The nonlinear term is the conservative -(u^2/2)_x, so
    g[..., 0] == 0 and the mean mode never moves.

    Transforms run along the last axis.  A (count, n) stack of states
    with (count, n) coefficient rows advances each row exactly as a
    one-row call on it would, bit for bit.
    """
    v = np.array(v, dtype=np.complex128, copy=True)
    for _ in range(nsub):
        u = np.fft.ifft(v).real
        a = g * np.fft.fft(u * u)
        u = np.fft.ifft(e_half * (v + 0.5 * a)).real
        b = g * np.fft.fft(u * u)
        u = np.fft.ifft(e_half * v + 0.5 * b).real
        c = g * np.fft.fft(u * u)
        u = np.fft.ifft(e_full * v + e_half * c).real
        d = g * np.fft.fft(u * u)
        v = e_full * v + (e_full * a + 2.0 * e_half * (b + c) + d) / 6.0
    return v


def to_physical(v):
    """Physical field and the imaginary residue discarded on the way."""
    u = np.fft.ifft(v)
    return np.ascontiguousarray(u.real), float(np.max(np.abs(u.imag)))


def from_physical(u):
    return np.fft.fft(np.asarray(u, dtype=np.float64))


def advection_upwind(u, nu, nsub):
    """First-order upwind for u_t + beta u_x = 0, periodic, nu = beta dt/dx."""
    u = np.array(u, dtype=np.float64, copy=True)
    for _ in range(nsub):
        u = u - nu * (u - np.roll(u, 1))
    return u


def advection_lax_wendroff(u, nu, nsub):
    """Second-order Lax-Wendroff, periodic, nu = beta dt/dx."""
    u = np.array(u, dtype=np.float64, copy=True)
    for _ in range(nsub):
        left = np.roll(u, 1)
        right = np.roll(u, -1)
        u = u - 0.5 * nu * (right - left) + 0.5 * nu * nu * (right - 2.0 * u + left)
    return u


def wave_leapfrog(u_prev, u_curr, s2, nsub):
    """Leapfrog for u_tt = beta u_xx with pinned ends, s2 = beta (dt/dx)^2.

    Returns the last two time levels so the caller can keep stepping.
    """
    u_prev = np.array(u_prev, dtype=np.float64, copy=True)
    u_curr = np.array(u_curr, dtype=np.float64, copy=True)
    for _ in range(nsub):
        u_next = np.empty_like(u_curr)
        u_next[0] = 0.0
        u_next[-1] = 0.0
        u_next[1:-1] = (
            2.0 * u_curr[1:-1]
            - u_prev[1:-1]
            + s2 * (u_curr[2:] - 2.0 * u_curr[1:-1] + u_curr[:-2])
        )
        u_prev, u_curr = u_curr, u_next
    return u_prev, u_curr


def reaction_rk4(u, rate, dt, nsub):
    """Classical RK4 on the pointwise logistic ODE u' = rate u (1 - u)."""
    u = np.array(u, dtype=np.float64, copy=True)
    for _ in range(nsub):
        k1 = rate * u * (1.0 - u)
        mid = u + 0.5 * dt * k1
        k2 = rate * mid * (1.0 - mid)
        mid = u + 0.5 * dt * k2
        k3 = rate * mid * (1.0 - mid)
        end = u + dt * k3
        k4 = rate * end * (1.0 - end)
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u
