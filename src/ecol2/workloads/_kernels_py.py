"""Pure numpy time-stepping kernels.

Every kernel returns fresh arrays and never mutates its inputs.

The spectral kernels call numpy's real-FFT gufuncs directly, which skips
the argument handling and output allocation of np.fft.rfft and
np.fft.irfft and returns the same bits.  The gufuncs are private to
numpy and exist from numpy 2.0; tests/test_kernels.py checks them
against np.fft bit for bit.  Every transform here has an even point
count, so rfft_n_even is the only forward gufunc needed.
"""

from __future__ import annotations

import functools

import numpy as np

_AXES = [(-1,), (), (-1,)]


@functools.cache
def _fft_gufuncs():
    """numpy's irfft and rfft_n_even gufuncs.

    They take (v, 1 / n, out=(..., n)) and (u, 1.0, out=(..., n/2 + 1)),
    the calls and backward scale factors np.fft makes, along the last
    axis.  numpy loads numpy.fft only when it is first used, and they are
    imported here on the first spectral call, so a process that runs no
    spectral kernel does not load it.
    """
    from numpy.fft import _pocketfft_umath

    return _pocketfft_umath.irfft, _pocketfft_umath.rfft_n_even


def spectral_evolve(v, e_half, e_full, phi, nsub, history, taken):
    """Advance a half-spectrum state nsub ETD-AB4 steps.

    v is the rfft of a real field of n points (n/2 + 1 modes); e_half and
    e_full are exp(L h/2) and exp(L h) for the linear symbol L and step h.
    A step of ETD-AB4, the exponential Adams-Bashforth method of order 4
    (Cox & Matthews, J. Comput. Phys. 176, 2002), is

        v_{n+1} = e_full v_n + b0 N_n + b1 N_{n-1} + b2 N_{n-2} + b3 N_{n-3}

    with N_n = rfft(irfft(v_n, n) ** 2), one nonlinear evaluation a step.
    history stacks N_{n-1}, N_{n-2} and N_{n-3}, and taken counts the
    steps taken so far.  A row that has taken fewer than three takes
    Kassam & Trefethen's ETDRK4 step instead, which fills its history.
    phi stacks ETDRK4's weights Q, f1, f2, f3 and then b0 .. b3, each
    already multiplied by the dealiased -i k / 2 of the conservative
    nonlinear term -(u^2/2)_x.  So phi[..., 0] == 0 and the mean mode
    never moves.  Returns the state and its history after the steps.

    Transforms run along the last axis.  A (count, m) stack of states with
    (8, count, m) weights, a (3, count, m) history and count step counts
    that do not rise along the rows advances each row exactly as a
    one-row call on it would, bit for bit.
    """
    q, f1, f2, f3, b0, b1, b2, b3 = phi
    irfft, rfft = _fft_gufuncs()
    v = np.array(v, dtype=np.complex128, copy=True)
    taken = np.asarray(taken)
    # the physical field of each nonlinear term rfft(irfft(w, n) ** 2);
    # squaring in place gives the bits of ** 2, and each rfft gets a fresh
    # output, since the terms outlive the step
    n = 2 * (v.shape[-1] - 1)
    inv_n = 1.0 / n
    x = np.empty(v.shape[:-1] + (n,))

    def nonlinear(w, x):
        irfft(w, inv_n, axes=_AXES, out=x)
        np.square(x, out=x)
        return rfft(x, 1.0, axes=_AXES, out=np.empty_like(w))

    def etdrk4(w, nw, rows):
        """ETDRK4 from state w of the rows `rows`, whose nonlinear term is nw."""
        xr, eh, qr = x[rows], e_half[rows], q[rows]
        # e_half * w serves both a and b; hoisting it keeps every bit
        ew = eh * w
        a = ew + qr * nw
        na = nonlinear(a, xr)
        b = ew + qr * na
        nb = nonlinear(b, xr)
        c = eh * a + qr * (2.0 * nb - nw)
        nc = nonlinear(c, xr)
        return e_full[rows] * w + f1[rows] * nw + 2.0 * f2[rows] * (na + nb) + f3[rows] * nc

    n1, n2, n3 = history
    product = np.empty_like(v)
    # the steps in which some row still starts up.  taken does not rise
    # along the rows, so its last entry is the fewest, and the rows with
    # fewer than three steps are a trailing block
    startup = 3 - int(taken.flat[-1])
    for s in range(nsub):
        nv = nonlinear(v, x)
        # e_full v + b0 N_n + ... + b3 N_{n-3}, summed left to right in
        # place, which gives the same bits with fewer temporaries
        stepped = e_full * v
        for b, term in ((b0, nv), (b1, n1), (b2, n2), (b3, n3)):
            stepped += np.multiply(b, term, out=product)
        if s < startup:
            # a 1-D state is one row, and there ready is 0 and [0:] all of it
            ready = np.count_nonzero(taken + s >= 3)
            if ready < taken.size:
                stepped[ready:] = etdrk4(v[ready:], nv[ready:], slice(ready, None))
        v = stepped
        n1, n2, n3 = nv, n1, n2
    history = np.empty((3,) + v.shape, dtype=np.complex128)
    history[0], history[1], history[2] = n1, n2, n3
    return v, history


def to_physical(v):
    """Physical fields of a half-spectrum state.

    Like np.fft.irfft, this discards the imaginary parts of the mean and
    Nyquist modes.
    """
    irfft, _ = _fft_gufuncs()
    v = np.asarray(v)
    n = 2 * (v.shape[-1] - 1)
    return irfft(v, 1.0 / n, axes=_AXES, out=np.empty(v.shape[:-1] + (n,)))


def from_physical(u):
    """Half spectrum of a real field of an even number of points."""
    _, rfft = _fft_gufuncs()
    u = np.asarray(u, dtype=np.float64)
    out = np.empty(u.shape[:-1] + (u.shape[-1] // 2 + 1,), dtype=np.complex128)
    return rfft(u, 1.0, axes=_AXES, out=out)


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
