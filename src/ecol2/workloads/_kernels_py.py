"""Pure numpy time-stepping kernels.

Every kernel returns fresh arrays and never mutates its inputs.
"""

from __future__ import annotations

import numpy as np


def spectral_evolve(v, e_half, e_full, phi, nsub):
    """Advance a half-spectrum state nsub ETDRK4 steps.

    v is the rfft of a real field of n points (n/2 + 1 modes); e_half and
    e_full are exp(L h/2) and exp(L h) for the linear symbol L and step h;
    phi stacks the weights Q, f1, f2 and f3 of Kassam & Trefethen's
    ETDRK4, each already multiplied by the dealiased -i k / 2 of the
    conservative nonlinear term -(u^2/2)_x.  So phi[..., 0] == 0 and the
    mean mode never moves.

    Transforms run along the last axis.  A (count, m) stack of states
    with (4, count, m) weight rows advances each row exactly as a one-row
    call on it would, bit for bit.
    """
    q, f1, f2, f3 = phi
    n = 2 * (np.shape(v)[-1] - 1)
    v = np.array(v, dtype=np.complex128, copy=True)
    # e_half * v serves both a and b, and doubling is exact, so hoisting it
    # and 2 f2 keeps every result bit for bit
    f2_2 = 2.0 * f2
    rfft, irfft = np.fft.rfft, np.fft.irfft
    for _ in range(nsub):
        nv = rfft(irfft(v, n) ** 2)
        ev = e_half * v
        a = ev + q * nv
        na = rfft(irfft(a, n) ** 2)
        b = ev + q * na
        nb = rfft(irfft(b, n) ** 2)
        c = e_half * a + q * (2.0 * nb - nv)
        nc = rfft(irfft(c, n) ** 2)
        v = e_full * v + f1 * nv + f2_2 * (na + nb) + f3 * nc
    return v


def to_physical(v):
    """Physical fields of a half-spectrum state, and each row's imaginary residue.

    irfft discards only the imaginary parts of the mean and Nyquist modes;
    the residue (|Im v[0]| + |Im v[n/2]|) / n is the largest imaginary
    part an inverse transform of the full spectrum would have discarded.
    """
    v = np.asarray(v)
    n = 2 * (v.shape[-1] - 1)
    residue = (np.abs(v[..., 0].imag) + np.abs(v[..., -1].imag)) / n
    return np.fft.irfft(v, n), residue


def from_physical(u):
    return np.fft.rfft(np.asarray(u, dtype=np.float64))


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
