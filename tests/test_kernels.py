"""The spectral kernels' direct FFT gufunc calls against np.fft.

The kernels call numpy's private real-FFT gufuncs without np.fft's
wrapper.  These tests pin that the calls return np.fft's bits, so a numpy
that changes the gufuncs' signature or arguments fails here by name.
"""

import numpy as np
import pytest

from ecol2.workloads import _kernels_py as kernels
from ecol2.workloads.spectral import etd_coefficients

from conftest import evolve_reference

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
    """A kdv-like state, per-row weights at rows different steps, a history
    of nonlinear terms and step counts that fall along the rows from 4 to
    0, so that one call steps some rows by ETD-AB4 and the rest by ETDRK4."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=0.5)
    nonlinear = -0.5j * k * (np.arange(k.size) < n / 3)
    coefficients = [etd_coefficients(1e-3 * (1 + i % 3), 1j * k**3) for i in range(rows)]
    e_half = np.stack([c[0] for c in coefficients])
    e_full = np.stack([c[1] for c in coefficients])
    phi = np.stack([c[2] * nonlinear for c in coefficients], axis=1)
    x = np.arange(n) * 2.0 * np.pi / n
    v = np.fft.rfft(np.stack([(0.5 + i) * np.cos(x + i) for i in range(rows)]))
    history = np.stack([np.fft.rfft(np.fft.irfft(v * (1.0 - 0.01 * j), n) ** 2) for j in (1, 2, 3)])
    taken = np.maximum(0, 4 - np.arange(rows))
    return v, e_half, e_full, phi, history, taken


def assert_same_step(stepped, expected, *context):
    for got, want in zip(stepped, expected):
        assert got.shape == want.shape, context
        assert got.tobytes() == want.tobytes(), context


@pytest.mark.parametrize("n", SIZES)
def test_evolve_step_equals_np_fft_reference(n):
    for rows in ROWS:
        arguments = evolve_arguments(rows, n)
        for nsub in (1, 4):
            assert_same_step(kernels.spectral_evolve(*arguments[:4], nsub, *arguments[4:]),
                             evolve_reference(*arguments[:4], nsub, *arguments[4:]), n, rows, nsub)


def test_evolve_one_dimensional_and_view_states():
    n = 256
    v, e_half, e_full, phi, history, taken = evolve_arguments(8, n)
    for row in (0, 5):
        one = kernels.spectral_evolve(
            v[row], e_half[row], e_full[row], phi[:, row], 3, history[:, row], taken[row])
        assert_same_step(one, evolve_reference(
            v[row], e_half[row], e_full[row], phi[:, row], 3, history[:, row], taken[row]), row)
    # the leading block of a larger stack, as the batch passes it
    block = kernels.spectral_evolve(
        v[:5], e_half[:5], e_full[:5], phi[:, :5], 3, history[:, :5], taken[:5])
    assert_same_step(block, evolve_reference(
        v[:5], e_half[:5], e_full[:5], phi[:, :5], 3, history[:, :5], taken[:5]))
    assert_same_step((block[0][0], block[1][:, 0]), kernels.spectral_evolve(
        v[0], e_half[0], e_full[0], phi[:, 0], 3, history[:, 0], taken[0]))
    # a strided view of every argument
    rows = slice(None, None, 2)
    assert not v[rows].flags.c_contiguous
    strided = kernels.spectral_evolve(
        v[rows], e_half[rows], e_full[rows], phi[:, rows], 3, history[:, rows], taken[rows])
    assert_same_step(strided, evolve_reference(
        v[rows], e_half[rows], e_full[rows], phi[:, rows], 3, history[:, rows], taken[rows]))


def test_kernels_do_not_mutate_their_arguments():
    v, e_half, e_full, phi, history, taken = evolve_arguments(4, 64)
    arguments = (v, e_half, e_full, phi, history, taken)
    before = [a.tobytes() for a in arguments]
    for nsub in (1, 5):
        v1, history1 = kernels.spectral_evolve(v, e_half, e_full, phi, nsub, history, taken)
        v2, history2 = kernels.spectral_evolve(
            v[:2], e_half[:2], e_full[:2], phi[:, :2], nsub, history[:, :2], taken[:2])
        # fresh arrays, not views of an argument
        for result in (v1, history1, v2, history2):
            assert not any(np.shares_memory(result, a) for a in arguments)
    kernels.to_physical(v)
    u = fields(4, 64)
    u_before = u.tobytes()
    kernels.from_physical(u)
    assert [a.tobytes() for a in arguments] == before
    assert u.tobytes() == u_before
