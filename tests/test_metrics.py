"""Metric math: numerator transform, score assembly, error metrics, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecol2 import (
    CarbonLedger,
    DomainError,
    EcoL2Params,
    ParameterError,
    ValidationError,
    ecol2,
    ecol2_numerator,
    error_metrics,
    sweep,
)

# Frozen against an arbitrary-precision evaluation of 1 - r**(1/ln(alpha)).
NUMERATOR_CASES = (
    (1e-2, 10.0, 0.8646647167633873),
    (1.0 / 50.0, 50.0, 0.6321205588285577),
    (4.78e-4, 100.0, 0.8099154016974480),
)


class TestNumerator:
    @pytest.mark.parametrize("r, alpha, expected", NUMERATOR_CASES)
    def test_frozen_values(self, r, alpha, expected):
        assert ecol2_numerator(r, alpha) == pytest.approx(expected, rel=1e-13)

    def test_log_base_reciprocal_is_one_minus_inv_e(self):
        # r = 1/alpha makes the base-alpha log exactly -1.
        for alpha in (10.0, 100.0, 617.0, 1000.0):
            assert ecol2_numerator(1.0 / alpha, alpha) == pytest.approx(
                1.0 - 1.0 / math.e, rel=1e-12
            )

    @pytest.mark.parametrize("r", (0.0, -1e-3, 1.0, 1.5, float("nan"), float("inf")))
    def test_r_outside_open_unit_interval(self, r):
        with pytest.raises((DomainError, ParameterError)):
            ecol2_numerator(r, 100.0)

    @pytest.mark.parametrize("alpha", (1.0, 0.5, 0.0, -3.0, float("nan")))
    def test_degenerate_log_base(self, alpha):
        with pytest.raises(ParameterError):
            ecol2_numerator(1e-3, alpha)

    @given(
        r=st.floats(1e-8, 0.999, exclude_max=True),
        alpha=st.floats(10.0, 1000.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_change_of_base_identity(self, r, alpha):
        direct = 1.0 - math.exp(math.log(r) / math.log(alpha))
        via_power = 1.0 - r ** (1.0 / math.log(alpha))
        value = ecol2_numerator(r, alpha)
        assert abs(value - direct) <= 1e-12 * max(abs(direct), 1e-300)
        assert abs(value - via_power) <= 1e-12 * max(abs(via_power), 1e-300)


class TestScore:
    def test_reported_rows_reproduce(self, golden_rows):
        misses = []
        for label, r, ce, cd, co, ci, reported in golden_rows:
            carbon = CarbonLedger(ce, cd, co, ci)
            got = ecol2(r, carbon).value
            if abs(got - reported) > 0.005:
                misses.append((label, got, reported))
        assert not misses, f"rows off by more than 5e-3: {misses}"

    def test_degenerate_carbon_scores_near_numerator(self):
        carbon = CarbonLedger()
        params = EcoL2Params(alpha=100.0, beta=1.0)
        score = ecol2(1e-2, carbon, params)
        assert score.value == pytest.approx(score.numerator)
        assert any("numerator" in w for w in score.warnings)

    def test_beta_zero_scores_numerator_with_warning(self):
        carbon = CarbonLedger(c_operational=1e-3)
        for beta in (0.0, 0.5):
            EcoL2Params(beta=beta)
        score = ecol2(1e-2, carbon, EcoL2Params(alpha=100.0, beta=0.0))
        assert score.value == score.numerator
        assert score.denominator == 1.0
        assert any("beta=0" in w for w in score.warnings)
        assert not ecol2(1e-2, carbon, EcoL2Params(alpha=100.0, beta=0.5)).warnings

    def test_reciprocal_alpha_tiny_carbon_beta_one(self):
        carbon = CarbonLedger(c_operational=1e-15)
        score = ecol2(1e-2, carbon, EcoL2Params(alpha=100.0, beta=1.0))
        assert score.value == pytest.approx(1.0 - 1.0 / math.e, abs=1e-6)

    def test_inaccurate_flag_threshold(self):
        carbon = CarbonLedger(c_operational=1e-3)
        assert not ecol2(0.0999, carbon).inaccurate
        flagged = ecol2(0.1, carbon)
        assert flagged.inaccurate
        assert 0.0 < flagged.value < 1.0  # still computed

    def test_perfect_prediction_clamps(self):
        score = ecol2(0.0, CarbonLedger(c_operational=1e-4))
        assert any("clamped" in w for w in score.warnings)
        assert 0.0 < score.value < 1.0
        assert score.numerator > 0.999

    def test_alpha_outside_calibrated_range_warns(self):
        score = ecol2(1e-3, CarbonLedger(c_operational=1e-4),
                      EcoL2Params(alpha=5000.0))
        assert any("alpha" in w for w in score.warnings)

    def test_invalid_params_raise(self):
        with pytest.raises(ParameterError):
            EcoL2Params(alpha=1.0)
        with pytest.raises(ParameterError):
            EcoL2Params(beta=-1.0)
        with pytest.raises(ParameterError):
            EcoL2Params(n_infer=-1)

    def test_bool_n_infer_rejected(self):
        for flag in (True, False):
            with pytest.raises(ParameterError):
                EcoL2Params(n_infer=flag)

    @pytest.mark.parametrize("scalar", (np.float32, np.float64, np.float16))
    def test_numpy_real_scalars_score_like_floats(self, scalar):
        carbon = CarbonLedger(c_operational=1e-4)
        r = scalar(0.01)
        assert ecol2(r, carbon) == ecol2(float(r), carbon)
        assert ecol2_numerator(r, 100.0) == ecol2_numerator(float(r), 100.0)

    @pytest.mark.parametrize("r", (True, False, np.bool_(False), np.float32("nan"),
                                   np.float64("inf"), "0.01", 0.01 + 0j))
    def test_non_real_or_non_finite_r_rejected(self, r):
        with pytest.raises(DomainError):
            ecol2(r, CarbonLedger(c_operational=1e-4))
        with pytest.raises(DomainError):
            ecol2_numerator(r, 100.0)

    def test_negative_component_rejected(self):
        with pytest.raises(ValidationError):
            CarbonLedger(c_operational=-1e-3)

    @given(
        r=st.floats(1e-8, 0.1, exclude_max=True),
        alpha=st.floats(10.0, 1000.0),
        beta=st.floats(0.0, 1e4),
        parts=st.tuples(*[st.floats(1e-12, 10.0)] * 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_open_unit_interval(self, r, alpha, beta, parts):
        carbon = CarbonLedger(*parts)
        value = ecol2(r, carbon, EcoL2Params(alpha=alpha, beta=beta)).value
        assert 0.0 < value < 1.0


class TestLedgerTotals:
    def test_total_is_componentwise_sum(self):
        carbon = CarbonLedger(1e-4, 2e-4, 3e-4, 5e-6)
        assert carbon.total(1) == pytest.approx(6e-4 + 5e-6, rel=1e-12)
        assert carbon.total(3) == pytest.approx(6e-4 + 15e-6, rel=1e-12)

    def test_zero_inferences_exclude_inference_carbon(self):
        carbon = CarbonLedger(1e-4, 2e-4, 3e-4, 5e-6)
        assert carbon.total(0) == pytest.approx(6e-4, rel=1e-12)


class TestErrorMetrics:
    def test_identity_all_zero(self):
        field = np.linspace(-1.0, 2.0, 40)
        report = error_metrics(field, field)
        assert report.relative_l2 == 0.0
        assert report.rmse == 0.0
        assert report.max_error == 0.0
        assert report.mae == 0.0

    def test_hand_computed_triple(self):
        report = error_metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 2.0]))
        assert report.relative_l2 == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report.rmse == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
        assert report.max_error == pytest.approx(1.0, rel=1e-12)
        assert report.mae == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_stacked_predictions_average_first(self):
        rng = np.random.default_rng(5)
        ref = rng.standard_normal(30)
        runs = ref + rng.standard_normal((3, 30))
        stacked = error_metrics(runs, ref)
        premeaned = error_metrics(runs.mean(axis=0), ref)
        assert stacked.relative_l2 == pytest.approx(premeaned.relative_l2, rel=1e-12)
        assert stacked.rmse == pytest.approx(premeaned.rmse, rel=1e-12)

    def test_zero_reference_leaves_relative_undefined(self):
        report = error_metrics(np.array([1.0, -1.0]), np.zeros(2))
        assert report.relative_l2 is None
        assert report.rmse == pytest.approx(1.0)
        assert report.max_error == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            error_metrics(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            error_metrics(np.zeros(0), np.zeros(0))

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mae_rmse_max_ordering(self, n, seed):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal(n)
        ref = rng.standard_normal(n)
        report = error_metrics(pred, ref)
        tol = 1e-12 * max(report.max_error, 1.0)
        assert report.mae <= report.rmse + tol
        assert report.rmse <= report.max_error + tol


class TestSweep:
    def test_degenerate_grid_matches_single_call(self):
        carbon = CarbonLedger(c_operational=2e-3)
        grid = sweep(1e-3, carbon, [100.0], [100.0])
        assert grid[0][0].value == ecol2(1e-3, carbon).value

    def test_alpha_direction(self):
        # Larger alpha weakens the error transform, so the score drops.
        carbon = CarbonLedger(c_operational=1e-4)
        grid = sweep(1e-4, carbon, [10.0, 20.0, 50.0, 100.0, 300.0, 1000.0], [100.0])
        values = [row[0].value for row in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_beta_direction(self):
        carbon = CarbonLedger(c_operational=1e-4)
        grid = sweep(1e-4, carbon, [100.0], [1.0, 10.0, 100.0, 1e3, 1e4])
        values = grid[0]
        assert all(a.value > b.value for a, b in zip(values, values[1:]))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError):
            sweep(1e-3, CarbonLedger(), [], [100.0])
        with pytest.raises(ValidationError):
            sweep(1e-3, CarbonLedger(), [100.0], [])
