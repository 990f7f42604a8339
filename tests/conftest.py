"""Shared fixtures: scorecard rows, ledger builders and the np.fft ETDRK4 step.

GOLDEN_ROWS pins previously reported scores for fifteen solver runs
(five equations x three solver families).  Each row carries the run's
relative L2 error, its four lifecycle carbon components in kgCO2, and
the score reported for alpha = beta = 100 with a single inference.
They anchor the regression tests: the metric must keep reproducing
these numbers from the raw inputs.
"""

import numpy as np
import pytest

from ecol2 import EmissionRecord, LedgerStore

# label, r, c_embodied, c_developmental, c_operational, c_inference, reported score
GOLDEN_ROWS = (
    ("adv-pinns", 4.78e-4, 0.0, 1.35e-2, 8.86e-4, 2.46e-8, 0.332),
    ("adv-pinnsformer", 4.25e-4, 0.0, 3.27e-1, 2.67e-2, 1.44e-6, 0.022),
    ("adv-spinn", 4.01e-4, 0.0, 5.26e-2, 1.71e-2, 3.59e-6, 0.103),
    ("rea-pinns", 4.37e-3, 0.0, 2.45e-3, 3.28e-4, 1.81e-6, 0.542),
    ("rea-pinnsformer", 1.45e-2, 0.0, 2.01e-1, 9.21e-3, 1.67e-6, 0.027),
    ("rea-spinn", 7.61e-3, 0.0, 5.92e-2, 4.92e-3, 2.84e-6, 0.088),
    ("wav-pinns", 7.42e-3, 0.0, 3.60e-2, 3.72e-2, 2.12e-6, 0.078),
    ("wav-pinnsformer", 2.44e-2, 0.0, 2.84e0, 3.30e-1, 3.28e-6, 0.002),
    ("wav-spinn", 8.13e-3, 0.0, 5.26e-2, 3.42e-2, 2.76e-6, 0.067),
    ("kdv-deeponet", 3.63e-2, 1.90e-4, 3.74e-3, 9.01e-4, 2.89e-6, 0.346),
    ("kdv-fno", 7.16e-3, 3.81e-4, 8.43e-4, 8.88e-5, 3.21e-6, 0.581),
    ("kdv-cno", 7.27e-3, 3.81e-4, 7.30e-3, 1.86e-3, 7.56e-6, 0.336),
    ("ks-deeponet", 5.89e-2, 3.70e-3, 6.10e-3, 1.77e-3, 2.45e-6, 0.213),
    ("ks-fno", 1.14e-2, 3.70e-3, 2.86e-3, 8.38e-4, 3.08e-6, 0.357),
    ("ks-cno", 2.14e-2, 3.70e-3, 1.25e-2, 3.86e-3, 3.17e-6, 0.188),
)

STAGE_ORDER = ("embodied", "developmental", "operational", "inference")


def make_record(stage, emissions_kg, *, label="fixture", region="unknown",
                energy_kwh=0.0, duration_s=1.0, inference_count=None):
    if stage == "inference" and inference_count is None:
        inference_count = 1
    return EmissionRecord(
        stage=stage,
        label=label,
        energy_kwh=energy_kwh,
        duration_s=duration_s,
        region=region,
        emissions_kg=emissions_kg,
        inference_count=inference_count,
    )


def build_fixture_store(root, components):
    """Ledger store whose per-stage totals equal `components` (4-tuple, kg)."""
    store = LedgerStore(root)
    for stage, kg in zip(STAGE_ORDER, components):
        if kg > 0.0:
            store.record(make_record(stage, kg))
    return store


def write_fields_for_r(tmpdir, r, tag=""):
    """Prediction/reference CSV pair whose relative L2 error is exactly r.

    With reference [1, 0] and prediction [1, r] the error norm is r and the
    reference norm is 1, so relative_l2 == r to the last bit.
    """
    ref = tmpdir / f"ref{tag}.csv"
    pred = tmpdir / f"pred{tag}.csv"
    np.savetxt(ref, np.array([1.0, 0.0]), delimiter=",")
    np.savetxt(pred, np.array([1.0, float(r)]), delimiter=",")
    return pred, ref


def evolve_unhoisted(v, e_half, e_full, phi, nsub):
    """ETDRK4 as written out by Kassam & Trefethen, through np.fft.

    The reference that kernels.spectral_evolve must equal bit for bit.
    """
    q, f1, f2, f3 = phi
    n = 2 * (np.shape(v)[-1] - 1)
    v = np.array(v, dtype=np.complex128, copy=True)
    for _ in range(nsub):
        nv = np.fft.rfft(np.fft.irfft(v, n) ** 2)
        a = e_half * v + q * nv
        na = np.fft.rfft(np.fft.irfft(a, n) ** 2)
        b = e_half * v + q * na
        nb = np.fft.rfft(np.fft.irfft(b, n) ** 2)
        c = e_half * a + q * (2.0 * nb - nv)
        nc = np.fft.rfft(np.fft.irfft(c, n) ** 2)
        v = e_full * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
    return v


@pytest.fixture
def golden_rows():
    return GOLDEN_ROWS
