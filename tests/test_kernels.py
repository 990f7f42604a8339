"""The spectral kernels' direct FFT gufunc calls against np.fft.

The kernels call numpy's private real-FFT gufuncs without np.fft's
wrapper.  These tests pin that the calls return np.fft's bits, so a numpy
that changes the gufuncs' signature or arguments fails here by name.
"""

import numpy as np
import pytest

from ecol2.workloads import _kernels_py as kernels
from ecol2.workloads.spectral import etdrk4_coefficients

from conftest import evolve_unhoisted

SIZES = tuple(2**p for p in range(4, 11))  # 16 .. 1024 points
ROWS = tuple(range(1, 9))


def fields(rows, n, seed=0):
    return np.random.default_rng(seed).standard_normal((rows, n))


def views(stack):
    """A 1-D row, leading blocks [:r] as the batch steps them, and a strided view."""
    yield stack[0]
    for r in ROWS:
        yield stack[:r]
    strided = stack[::2]
    assert not strided.flags.c_contiguous
    yield strided


@pytest.mark.parametrize("n", SIZES)
def test_to_physical_field_equals_np_fft(n):
    stack = np.fft.rfft(fields(2 * len(ROWS), n))
    for v in views(stack):
        u = kernels.to_physical(v)
        expected = np.fft.irfft(v, n)
        assert u.shape == expected.shape
        assert u.tobytes() == expected.tobytes(), (n, v.shape)


@pytest.mark.parametrize("n", SIZES)
def test_from_physical_equals_np_fft(n):
    stack = fields(2 * len(ROWS), n, seed=1)
    for u in views(stack):
        v = kernels.from_physical(u)
        expected = np.fft.rfft(u)
        assert v.shape == expected.shape
        assert v.tobytes() == expected.tobytes(), (n, u.shape)


def evolve_arguments(rows, n):
    """A kdv-like state and per-row ETDRK4 weights at rows different steps."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=0.5)
    nonlinear = -0.5j * k * (np.arange(k.size) < n / 3)
    coefficients = [etdrk4_coefficients(1e-3 * (1 + i % 3), 1j * k**3) for i in range(rows)]
    e_half = np.stack([c[0] for c in coefficients])
    e_full = np.stack([c[1] for c in coefficients])
    phi = np.stack([c[2] * nonlinear for c in coefficients], axis=1)
    x = np.arange(n) * 2.0 * np.pi / n
    v = np.fft.rfft(np.stack([(0.5 + i) * np.cos(x + i) for i in range(rows)]))
    return v, e_half, e_full, phi


@pytest.mark.parametrize("n", SIZES)
def test_evolve_step_equals_np_fft_reference(n):
    for rows in ROWS:
        v, e_half, e_full, phi = evolve_arguments(rows, n)
        stepped = kernels.spectral_evolve(v, e_half, e_full, phi, 1)
        assert stepped.tobytes() == evolve_unhoisted(v, e_half, e_full, phi, 1).tobytes(), (n, rows)


def test_evolve_one_dimensional_and_view_states():
    n = 256
    v, e_half, e_full, phi = evolve_arguments(8, n)
    one = kernels.spectral_evolve(v[0], e_half[0], e_full[0], phi[:, 0], 3)
    assert one.tobytes() == evolve_unhoisted(v[0], e_half[0], e_full[0], phi[:, 0], 3).tobytes()
    # the leading block of a larger stack, as the batch passes it
    block = kernels.spectral_evolve(v[:5], e_half[:5], e_full[:5], phi[:, :5], 3)
    assert block.tobytes() == evolve_unhoisted(
        v[:5], e_half[:5], e_full[:5], phi[:, :5], 3).tobytes()
    assert block[0].tobytes() == one.tobytes()


def test_kernels_do_not_mutate_their_arguments():
    v, e_half, e_full, phi = evolve_arguments(4, 64)
    arguments = (v, e_half, e_full, phi)
    before = [a.tobytes() for a in arguments]
    kernels.spectral_evolve(v, e_half, e_full, phi, 5)
    kernels.spectral_evolve(v[:2], e_half[:2], e_full[:2], phi[:, :2], 5)
    kernels.to_physical(v)
    u = fields(4, 64)
    u_before = u.tobytes()
    kernels.from_physical(u)
    assert [a.tobytes() for a in arguments] == before
    assert u.tobytes() == u_before
