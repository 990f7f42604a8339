"""Solvers and data generation: analytic forms, FD schemes, spectral core."""

import itertools
import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from ecol2 import (
    LedgerStore,
    PowerModel,
    SolverError,
    ValidationError,
    VirtualClock,
    error_metrics,
)
from ecol2.workloads import (
    BACKEND,
    Grid1D,
    InitialConditionSpec,
    analytic_advection,
    analytic_reaction,
    analytic_wave,
    default_grid,
    fd_solve,
    fourier_resample,
    generate_dataset,
    generate_initial_condition,
    run_pipeline,
    spectral_solve,
    spectral_solve_batch,
)
from ecol2 import tracking
from ecol2.tracking import charge_work
from ecol2.workloads import datasets as datasets_module
from ecol2.workloads.datasets import write_dataset
from ecol2.workloads import pipeline as pipeline_module
from ecol2.workloads import _kernels_py, spectral as spectral_module

from conftest import evolve_reference


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestGrid:
    def test_periodic_excludes_duplicate_endpoint(self):
        grid = Grid1D(length=2.0 * np.pi, nx=8, nt=2, t_final=1.0)
        assert grid.x[0] == 0.0
        assert grid.x[-1] < 2.0 * np.pi
        assert grid.dx == pytest.approx(2.0 * np.pi / 8)

    def test_non_periodic_includes_both_ends(self):
        grid = Grid1D(length=1.0, nx=9, nt=2, t_final=1.0, periodic=False)
        assert grid.x[0] == 0.0
        assert grid.x[-1] == 1.0
        assert grid.dx == pytest.approx(1.0 / 8)

    @pytest.mark.parametrize("kwargs", (
        dict(length=1.0, nx=4, nt=2, t_final=1.0),
        dict(length=1.0, nx=8, nt=1, t_final=1.0),
        dict(length=1.0, nx=8, nt=2, t_final=0.0),
        dict(length=-1.0, nx=8, nt=2, t_final=1.0),
    ))
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            Grid1D(**kwargs)

    def test_default_grids_match_workload_conventions(self):
        assert default_grid("advection").length == pytest.approx(2.0 * np.pi)
        assert default_grid("wave").periodic is False
        assert default_grid("kdv").length == 128.0
        assert default_grid("kdv").nx == 100
        assert default_grid("ks").nx == 256
        assert default_grid("ks").t_final == 10.0
        with pytest.raises(ValidationError):
            default_grid("burgers")


class TestFourierResample:
    def test_band_limited_upsample_exact(self):
        n, m = 32, 128
        x_n = 2.0 * np.pi * np.arange(n) / n
        x_m = 2.0 * np.pi * np.arange(m) / m
        u = np.sin(3.0 * x_n) + 0.2 * np.cos(5.0 * x_n)
        np.testing.assert_allclose(
            fourier_resample(u, m), np.sin(3.0 * x_m) + 0.2 * np.cos(5.0 * x_m),
            atol=1e-12)

    def test_downsample_keeps_low_modes(self):
        n, m = 128, 32
        x_n = 2.0 * np.pi * np.arange(n) / n
        x_m = 2.0 * np.pi * np.arange(m) / m
        u = np.sin(3.0 * x_n)
        np.testing.assert_allclose(fourier_resample(u, m), np.sin(3.0 * x_m),
                                   atol=1e-12)

    def test_identity(self):
        u = np.random.default_rng(2).standard_normal(64)
        # the input itself, so a caller that copies on assignment copies once
        assert fourier_resample(u, 64) is u
        np.testing.assert_array_equal(fourier_resample(u, 64), u)

    def test_zero_stays_zero_exactly(self):
        assert not fourier_resample(np.zeros(64), 100).any()


class TestAnalytic:
    def test_advection_values(self):
        grid = Grid1D(length=2.0 * np.pi, nx=64, nt=11, t_final=1.0)
        sol = analytic_advection(grid)
        assert sol.values[0, 16] == pytest.approx(1.0)  # u(pi/2, 0) = sin(pi/2)
        np.testing.assert_allclose(sol.values[0], np.sin(grid.x), atol=1e-15)
        # wrap-around: x = 0 and x = 2*pi see the same characteristic
        for j, t in enumerate(grid.t):
            assert sol.values[j, 0] == pytest.approx(np.sin(2.0 * np.pi - 10.0 * t))

    def test_reaction_values(self):
        grid = Grid1D(length=2.0 * np.pi, nx=64, nt=11, t_final=1.0)
        sol = analytic_reaction(grid)
        h = np.exp(-((grid.x - np.pi) ** 2) / (2.0 * (np.pi / 4.0) ** 2))
        np.testing.assert_allclose(sol.values[0], h, atol=1e-15)
        assert np.all(sol.values > 0.0) and np.all(sol.values <= 1.0)
        np.testing.assert_allclose(sol.values[:, 32], 1.0, atol=1e-15)  # x = pi row

    def test_wave_values(self):
        grid = Grid1D(length=1.0, nx=65, nt=1001, t_final=1.0, periodic=False)
        sol = analytic_wave(grid)
        assert sol.values[0, 32] == pytest.approx(0.5)  # 1 + 0.5*sin(3*pi/2)
        np.testing.assert_allclose(sol.values[:, 0], 0.0, atol=1e-14)
        np.testing.assert_allclose(sol.values[:, -1], 0.0, atol=1e-14)
        # zero initial velocity: one-sided 2nd-order difference at t = 0
        dt = grid.t[1] - grid.t[0]
        ut0 = (-3.0 * sol.values[0] + 4.0 * sol.values[1] - sol.values[2]) / (2.0 * dt)
        assert np.max(np.abs(ut0)) < 1e-3

    def test_closed_forms_record_no_work(self):
        # a closed form takes no steps, so nothing is charged for it
        for problem, reference in (("advection", analytic_advection),
                                   ("reaction", analytic_reaction),
                                   ("wave", analytic_wave)):
            assert reference(default_grid(problem)).work_points == 0, problem


class TestInitialConditions:
    def test_zero_amplitudes_give_zero_field(self):
        spec = InitialConditionSpec(amplitudes=(0.0, 0.0), frequencies=(1, 2),
                                    phases=(0.3, 0.7))
        grid = default_grid("ks")
        assert not generate_initial_condition(spec, grid).any()

    def test_single_term_is_plain_sine(self):
        spec = InitialConditionSpec(amplitudes=(1.0,), frequencies=(1,), phases=(0.0,))
        grid = Grid1D(length=2.0 * np.pi, nx=64, nt=2, t_final=1.0)
        np.testing.assert_allclose(generate_initial_condition(spec, grid),
                                   np.sin(grid.x), atol=1e-15)

    def test_value_at_origin_is_amplitude_weighted_phase_sines(self):
        spec = InitialConditionSpec(amplitudes=(0.4, 0.1, 0.25),
                                    frequencies=(1, 3, 5),
                                    phases=(0.2, -1.0, 2.5))
        grid = default_grid("ks")
        expected = sum(a * math.sin(p) for a, p in zip(spec.amplitudes, spec.phases))
        assert generate_initial_condition(spec, grid)[0] == pytest.approx(expected,
                                                                          rel=1e-12)

    def test_periodic_by_construction(self):
        spec = InitialConditionSpec.sample(0)
        grid = default_grid("ks")
        u = spec.evaluate(np.array([0.0, grid.length]), grid.length)
        assert u[0] == pytest.approx(u[1], abs=1e-12)

    def test_sample_distribution(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            spec = InitialConditionSpec.sample(rng)
            assert spec.n_terms == 5
            assert all(0.1 <= a <= 0.5 for a in spec.amplitudes)
            assert all(isinstance(f, int) and 1 <= f <= 5 for f in spec.frequencies)

    def test_perturbation_bounds(self):
        base = InitialConditionSpec.sample(1)
        rng = np.random.default_rng(2)
        for _ in range(100):
            pert = base.perturbed(rng)
            for a0, a1 in zip(base.amplitudes, pert.amplitudes):
                assert abs(a1 - a0) <= 0.05 * abs(a0) + 1e-15
            for p0, p1 in zip(base.phases, pert.phases):
                assert abs(p1 - p0) <= 0.25 + 1e-15

    def test_frequency_range_enforced(self):
        with pytest.raises(ValidationError):
            InitialConditionSpec(amplitudes=(1.0,), frequencies=(6,), phases=(0.0,))
        with pytest.raises(ValidationError):
            InitialConditionSpec(amplitudes=(1.0,), frequencies=(0,), phases=(0.0,))


class TestFiniteDifference:
    def test_advection_converges_under_refinement(self):
        errs = []
        for nx in (64, 128, 256):
            grid = replace(default_grid("advection"), nx=nx)
            errs.append(rel_l2(fd_solve("advection", grid).values,
                               analytic_advection(grid).values))
        assert errs[0] > errs[1] > errs[2]

    def test_wave_converges_under_refinement(self):
        errs = []
        for nx in (65, 129, 257):
            grid = replace(default_grid("wave"), nx=nx)
            errs.append(rel_l2(fd_solve("wave", grid).values,
                               analytic_wave(grid).values))
        assert errs[0] > errs[1] > errs[2]

    def test_reaction_equilibrium_is_fixed_point(self):
        # logistic growth with u = 1 everywhere never moves
        grid = default_grid("reaction")
        sol = fd_solve("reaction", grid)
        # grid initial condition peaks at exactly 1 at x = pi; that column stays 1
        peak = np.argmax(sol.values[0])
        np.testing.assert_allclose(sol.values[:, peak], 1.0, atol=1e-12)

    def test_advection_against_independent_reference(self):
        # independent single-file Lax-Wendroff, periodic, same stepping rule
        grid = replace(default_grid("advection"), nx=128, nt=11)
        beta = 10.0
        sol = fd_solve("advection", grid)
        nsub = sol.nsub
        dt = grid.dt_out / nsub
        nu = beta * dt / grid.dx
        u = np.sin(grid.x)
        mine = [u.copy()]
        for _ in range(grid.nt - 1):
            for _ in range(nsub):
                um, up = np.roll(u, 1), np.roll(u, -1)
                u = u - 0.5 * nu * (up - um) + 0.5 * nu * nu * (up - 2.0 * u + um)
            mine.append(u.copy())
        r_theirs = rel_l2(sol.values, analytic_advection(grid).values)
        r_mine = rel_l2(np.array(mine), analytic_advection(grid).values)
        assert r_theirs == pytest.approx(r_mine, rel=1e-12)

    @pytest.mark.parametrize("nx", (64, 65, 128, 129, 256))
    def test_steps_are_stable_by_construction(self, nx):
        # each step is 0.8 of its stability limit: Lax-Wendroff and leapfrog
        # need a Courant number <= 1, the reaction's RK4 rate * dt <= 2
        numbers = {}
        for problem in ("advection", "reaction", "wave"):
            grid = replace(default_grid(problem), nx=nx)
            sol = fd_solve(problem, grid)
            nsub = sol.nsub
            assert sol.work_points == (grid.nt - 1) * nsub * grid.nx
            dt = grid.dt_out / nsub
            numbers[problem] = {
                "advection": 10.0 * dt / grid.dx,
                "wave": math.sqrt(3.0) * dt / grid.dx,
                "reaction": 5.0 * dt / 2.0,
            }[problem]
        assert all(0.0 < value <= 0.8 for value in numbers.values()), numbers

    @pytest.mark.parametrize("nx", (64, 65, 128, 256, 257))
    def test_model_starts_from_its_reference_initial_condition(self, nx):
        for problem, reference in (("advection", analytic_advection),
                                   ("reaction", analytic_reaction),
                                   ("wave", analytic_wave)):
            grid = replace(default_grid(problem), nx=nx)
            start = fd_solve(problem, grid).values[0]
            exact = reference(grid).values[0]
            if problem == "reaction":
                # the closed form's h / (h + 1 - h) at t = 0 is h up to rounding
                np.testing.assert_allclose(start, exact, rtol=0.0, atol=2.3e-16)
            else:
                assert start.tobytes() == exact.tobytes(), problem

    def test_grid_periodicity_requirements(self):
        with pytest.raises(ValidationError):
            fd_solve("advection", replace(default_grid("advection"), periodic=False))
        with pytest.raises(ValidationError):
            fd_solve("wave", replace(default_grid("wave"), periodic=True))

    def test_provenance_and_shape(self):
        grid = default_grid("reaction")
        sol = fd_solve("reaction", grid)
        assert sol.values.shape == (grid.nt, grid.nx)
        assert sol.work_points > 0


def soliton_field(grid, speed, center):
    arg = grid.x[None, :] - speed * grid.t[:, None] - center
    arg = (arg + grid.length / 2.0) % grid.length - grid.length / 2.0
    return 3.0 * speed / np.cosh(np.sqrt(speed) * arg / 2.0) ** 2


class TestSpectral:
    def test_zero_initial_data_stays_zero_exactly(self):
        for eq, grid in (("kdv", default_grid("kdv")), ("ks", default_grid("ks"))):
            sol = spectral_solve(eq, np.zeros(grid.nx), grid)
            assert not sol.values.any()

    def test_first_row_is_input_bit_for_bit(self):
        grid = default_grid("ks")
        u0 = generate_initial_condition(
            InitialConditionSpec.sample(3), grid)
        sol = spectral_solve("ks", u0, grid)
        assert np.array_equal(sol.values[0], u0)

    def test_soliton_translates_at_speed_c(self):
        grid = Grid1D(length=128.0, nx=256, nt=21, t_final=2.0)
        ref = soliton_field(grid, speed=0.5, center=32.0)
        sol = spectral_solve("kdv", ref[0], grid)
        assert rel_l2(sol.values, ref) < 1e-4

    def test_mass_and_momentum_conservation(self):
        grid = replace(default_grid("kdv"), nx=256)
        u0 = generate_initial_condition(
            InitialConditionSpec.sample(8), grid)
        sol = spectral_solve("kdv", u0, grid)
        mass = sol.values.mean(axis=1)
        momentum = (sol.values ** 2).sum(axis=1) * grid.dx
        assert np.max(np.abs(mass - mass[0])) <= 1e-8 * max(1.0, abs(mass[0]))
        assert np.max(np.abs(momentum - momentum[0])) <= 1e-4 * momentum[0]

    def test_real_data_stays_real(self):
        grid = default_grid("ks")
        u0 = generate_initial_condition(
            InitialConditionSpec.sample(21), grid)
        sol = spectral_solve("ks", u0, grid)
        assert sol.max_imag_residue <= 1e-10
        assert sol.values.dtype == np.float64

    def test_ks_self_convergence_short_horizon(self):
        grid = Grid1D(length=64.0, nx=256, nt=11, t_final=2.0)
        u0 = generate_initial_condition(
            InitialConditionSpec.sample(7), grid)
        coarse = spectral_solve("ks", u0, grid)
        dt = grid.dt_out / coarse.nsub
        fine = spectral_solve("ks", u0, grid, dt=dt / 2.0)
        assert rel_l2(coarse.values[-1], fine.values[-1]) < 1e-6

    def test_blow_up_reports_failure_time(self):
        grid = Grid1D(length=64.0, nx=64, nt=11, t_final=10.0)
        u0 = 40.0 * np.sin(2.0 * np.pi * grid.x / grid.length)
        with pytest.raises(SolverError, match=r"blew up by t = "):
            spectral_solve("kdv", u0, grid, dt=0.5, internal_nx=64)

    def test_output_restriction_to_coarse_grid(self):
        # default kdv grid stores 100 points; internal solve runs wider
        grid = default_grid("kdv")
        ref = soliton_field(grid, speed=0.5, center=32.0)
        sol = spectral_solve("kdv", ref[0], grid)
        assert sol.values.shape == (grid.nt, 100)
        assert rel_l2(sol.values[-1], ref[-1]) < 1e-3

    @pytest.mark.parametrize("kwargs, err", (
        (dict(internal_nx=100), ValidationError),   # not a power of two
        (dict(internal_nx=8), ValidationError),     # too small
        (dict(dt=0.0), ValidationError),
    ))
    def test_parameter_validation(self, kwargs, err):
        grid = default_grid("ks")
        u0 = np.zeros(grid.nx)
        with pytest.raises(err):
            spectral_solve("ks", u0, grid, **kwargs)

    def test_equation_and_grid_validation(self):
        grid = default_grid("ks")
        with pytest.raises(ValidationError):
            spectral_solve("burgers", np.zeros(grid.nx), grid)
        with pytest.raises(ValidationError):
            spectral_solve("ks", np.zeros(grid.nx + 1), grid)
        bad = replace(grid, periodic=False)
        with pytest.raises(ValidationError):
            spectral_solve("ks", np.zeros(bad.nx), bad)


def assert_same_solution(a, b):
    assert np.array_equal(a.values, b.values)
    assert a.work_points == b.work_points
    assert a.max_imag_residue == b.max_imag_residue


class TestSpectralBatch:
    @pytest.mark.parametrize("equation", ("kdv", "ks"))
    def test_rows_equal_separate_solves_bit_for_bit(self, equation):
        # kdv stores 100 points and solves on 256 modes; ks solves on its grid
        grid = replace(default_grid(equation), nt=21, t_final=2.0)
        base = generate_initial_condition(InitialConditionSpec.sample(5), grid)
        scales = (1.0, 4.0, 0.5, 4.0, 2.5)
        u0s = np.stack([s * base for s in scales])
        batch = spectral_solve_batch(equation, u0s, grid)
        alone = [spectral_solve(equation, u0, grid) for u0 in u0s]
        # rows with different amplitudes step with different substep counts
        assert len({sol.work_points for sol in alone}) >= 3
        assert len(batch) == len(alone)
        for b, a in zip(batch, alone):
            assert_same_solution(b, a)

    def test_forced_modes_and_dt_rows_equal_separate_solves(self):
        grid = Grid1D(length=64.0, nx=64, nt=6, t_final=1.0)
        u0s = np.stack([
            generate_initial_condition(InitialConditionSpec.sample(seed), grid)
            for seed in (1, 2, 3)
        ])
        batch = spectral_solve_batch("ks", u0s, grid, dt=0.01, modes=[128] * 3)
        for b, u0 in zip(batch, u0s):
            assert_same_solution(b, spectral_solve("ks", u0, grid, dt=0.01, internal_nx=128))

    # the blow-up is reported by the SolverError alone, not by numpy warnings
    @pytest.mark.filterwarnings("error")
    def test_blow_up_names_lowest_row_at_first_failing_time(self):
        # alone, amplitude 5 blows up by t = 5, amplitudes 15 and 20 by t = 2
        grid = Grid1D(length=64.0, nx=64, nt=11, t_final=10.0)
        wave = np.sin(2.0 * np.pi * grid.x / grid.length)
        u0s = np.stack([a * wave for a in (0.1, 5.0, 15.0, 20.0)])
        with pytest.raises(SolverError, match=r"blew up by t = 2 ") as info:
            spectral_solve_batch("kdv", u0s, grid, dt=0.5, modes=[64] * 4)
        assert info.value.row == 2

    def test_blow_up_names_caller_row_when_step_order_differs(self, monkeypatch):
        # nsub 46/138/46/183: rows step in the order 3, 1, 0, 2, and rows 1
        # and 3 both pass the lowered limit at the first output time
        grid = Grid1D(length=64.0, nx=64, nt=6, t_final=1.0)
        wave = np.sin(2.0 * np.pi * grid.x / grid.length)
        u0s = np.stack([a * wave for a in (0.5, 3.0, 0.2, 4.0)])
        assert [s.nsub for s in spectral_solve_batch("kdv", u0s, grid)] == [46, 138, 46, 183]
        monkeypatch.setattr(spectral_module, "_BLOWUP_LIMIT", 2.0)
        with pytest.raises(SolverError, match=r"blew up by t = 0\.2 ") as info:
            spectral_solve_batch("kdv", u0s, grid)
        assert info.value.row == 1
        # row 1's own dt, 0.2 / 138, not row 3's 0.2 / 183
        assert "(dt = 0.001449, internal nx = 256)" in str(info.value)

    def test_coefficients_computed_once_per_substep_level(self, monkeypatch):
        # rows with one nsub share their dt, dt_out / nsub, and so their
        # ETDRK4 and ETD-AB4 coefficients
        calls = []
        coefficients = spectral_module.etd_coefficients

        def counted(*args, **kwargs):
            calls.append(args[0])
            return coefficients(*args, **kwargs)

        monkeypatch.setattr(spectral_module, "etd_coefficients", counted)
        samples, reference, model = generate_dataset(
            "kdv", 4, InitialConditionSpec.sample(0), 0, default_grid("kdv"))
        rows = samples + [reference, model]
        assert len(calls) == len({sol.nsub for sol in rows}) < len(rows), calls

    def test_evolve_equals_unhoisted_formula_bit_for_bit(self):
        n = 256
        k = 2.0 * np.pi * np.fft.rfftfreq(n, d=0.5)
        nonlinear = -0.5j * k * (np.arange(k.size) < n / 3)
        e_half, e_full, phi = [], [], []
        for dt in (1e-3, 2e-3, 5e-4, 1.5e-3, 1e-3):
            half, full, weights = spectral_module.etd_coefficients(dt, 1j * k**3)
            e_half.append(half)
            e_full.append(full)
            phi.append(weights * nonlinear)
        e_half, e_full = np.stack(e_half), np.stack(e_full)
        phi = np.stack(phi, axis=1)
        x = np.arange(n) * 2.0 * np.pi / n
        v = np.fft.rfft(np.stack([a * np.cos(x + a) for a in (0.5, 1.0, 1.5, 2.0, 2.5)]))
        # rows from a fresh start to a full history, so that the ETDRK4
        # startup and the ETD-AB4 steps both run, and in one call
        history = np.zeros((3,) + v.shape, dtype=np.complex128)
        taken = np.array([5, 3, 2, 1, 0])
        hoisted = _kernels_py.spectral_evolve(v, e_half, e_full, phi, 50, history, taken)
        unhoisted = evolve_reference(v, e_half, e_full, phi, 50, history, taken)
        for got, want in zip(hoisted, unhoisted):
            assert got.tobytes() == want.tobytes()

    def test_contour_weights_approach_small_step_limits(self):
        # Q -> h/2 and f1, f2, f3 -> h/6 as hL -> 0, and ETD-AB4's weights
        # -> those of the fourth-order Adams-Bashforth method; hL = 0
        # exactly for the mean mode, where the closed forms are 0/0
        h = 0.01
        for symbol in (1j * np.array([0.0, 1e-6, 1e-3]) ** 3, np.array([0.0, -1e-8, -1e-4])):
            e_half, e_full, weights = spectral_module.etd_coefficients(h, symbol)
            # the weights are real exactly when the symbol is: kdv's is
            # imaginary, ks's real
            assert np.isrealobj(weights) == np.isrealobj(symbol)
            q, f1, f2, f3, b0, b1, b2, b3 = weights
            np.testing.assert_allclose(e_full, np.exp(h * symbol), rtol=1e-15)
            limits = ((q, h / 2), (f1, h / 6), (f2, h / 6), (f3, h / 6), (b0, 55 * h / 24),
                      (b1, -59 * h / 24), (b2, 37 * h / 24), (b3, -9 * h / 24))
            for weight, limit in limits:
                np.testing.assert_allclose(weight, limit, rtol=1e-6)
                np.testing.assert_allclose(weight[0], limit, rtol=1e-14)

    def test_residue_is_what_a_full_inverse_transform_discards(self, monkeypatch):
        # after every step, each row holds imaginary parts at its mean and
        # Nyquist modes, which irfft drops
        imag_mean, imag_nyquist = np.array([0.0, 1e-6, -2e-9]), np.array([3e-7, 0.0, 5e-9])
        evolve = _kernels_py.spectral_evolve
        stepped = []

        def injected(*args):
            v, history = evolve(*args)
            v[:, 0] = v[:, 0].real + 1j * imag_mean[:len(v)]
            v[:, -1] = v[:, -1].real + 1j * imag_nyquist[:len(v)]
            stepped.append(v.copy())
            return v, history

        monkeypatch.setattr(_kernels_py, "spectral_evolve", injected)
        grid = replace(default_grid("kdv"), nx=64, nt=3, t_final=0.2)
        u0 = generate_initial_condition(InitialConditionSpec.sample(0), grid)
        solutions = spectral_solve_batch("kdv", np.stack([u0, u0, u0]), grid, modes=[64] * 3)
        v = stepped[-1]
        full = np.concatenate([v, np.conj(v[:, -2:0:-1])], axis=1)
        discarded = np.fft.ifft(full)
        np.testing.assert_allclose(
            _kernels_py.to_physical(v), discarded.real, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            [s.max_imag_residue for s in solutions], np.max(np.abs(discarded.imag), axis=1),
            rtol=0, atol=1e-15)

    def test_masked_row_residue_is_taken_at_its_own_nyquist_mode(self, monkeypatch):
        # after every step, each row holds imaginary part a at mode 64 and b
        # at mode 128; the mean mode's stays exactly 0.  The 256-mode row's
        # Nyquist mode is 128, the 128-mode row's is 64, and both divide by
        # the batch's 256 points
        a, b = 2.0**-10, 2.0**-6
        evolve = _kernels_py.spectral_evolve

        def injected(*args):
            v, history = evolve(*args)
            v[:, 64] = v[:, 64].real + 1j * a
            v[:, 128] = v[:, 128].real + 1j * b
            return v, history

        monkeypatch.setattr(_kernels_py, "spectral_evolve", injected)
        grid = replace(default_grid("kdv"), nt=3, t_final=0.2)
        u0 = generate_initial_condition(InitialConditionSpec.sample(0), grid)
        full, masked = spectral_solve_batch("kdv", np.stack([u0, u0]), grid, modes=[256, 128])
        assert full.max_imag_residue == b / 256
        assert masked.max_imag_residue == a / 256

    @pytest.mark.parametrize("equation, bounds", (
        # the u(T) error of the integrating-factor RK4 this stepper replaced
        ("kdv", (6.84e-10, 1.87e-10, 1.29e-10, 8.85e-11)),
        ("ks", (1.35e-8, 4.48e-9, 9.09e-9, 1.41e-8)),
    ))
    def test_final_state_error_against_eighth_step(self, equation, bounds):
        grid = default_grid(equation)
        for seed, bound in zip((0, 1, 2, 7), bounds):
            u0 = generate_initial_condition(InitialConditionSpec.sample(seed), grid)
            coarse = spectral_solve(equation, u0, grid)
            fine = spectral_solve(equation, u0, grid, dt=grid.dt_out / coarse.nsub / 8.0)
            assert rel_l2(coarse.final_state, fine.final_state) <= bound, seed

    @pytest.mark.parametrize("equation", ("kdv", "ks"))
    def test_halving_the_step_cuts_the_error_sixteenfold(self, equation):
        # ETD-AB4 and its ETDRK4 startup are fourth order: at the default
        # step, h and h/2 against h/16 at seed 0 read 16.4 (kdv) and 15.9 (ks)
        grid = default_grid(equation)
        u0 = generate_initial_condition(InitialConditionSpec.sample(0), grid)
        coarse = spectral_solve(equation, u0, grid)
        h = grid.dt_out / coarse.nsub
        half, fine = (spectral_solve(equation, u0, grid, dt=h / d) for d in (2.0, 16.0))
        assert (half.nsub, fine.nsub) == (2 * coarse.nsub, 16 * coarse.nsub)
        ratio = (rel_l2(coarse.final_state, fine.final_state)
                 / rel_l2(half.final_state, fine.final_state))
        assert 14.0 <= ratio <= 18.0, ratio

    def test_rows_below_three_substeps_equal_separate_solves(self):
        # rows at nsub 3, 1, 5 and 2: in each output interval the rows still
        # starting up are a trailing block, which mixes ETDRK4 and ETD-AB4
        # rows in one call, and the slowest row takes three intervals to
        # fill its history
        grid = Grid1D(length=128.0, nx=100, nt=11, t_final=0.08)
        wave = np.sin(2.0 * np.pi * grid.x / grid.length)
        u0s = np.stack([a * wave for a in (3.0, 1.0, 5.0, 2.0)])
        batch = spectral_solve_batch("kdv", u0s, grid)
        assert [sol.nsub for sol in batch] == [3, 1, 5, 2]
        for b, u0 in zip(batch, u0s):
            assert_same_solution(b, spectral_solve("kdv", u0, grid))

    @pytest.mark.parametrize("equation", ("kdv", "ks"))
    def test_masked_row_follows_standalone_solve(self, equation):
        # a 128-mode row zero-padded into a 256-mode batch and dealiased at
        # 128/3 steps the standalone 128-point trajectory, up to rounding
        grid = default_grid(equation)
        for seed in (0, 2, 7):
            u0 = generate_initial_condition(InitialConditionSpec.sample(seed), grid)
            full, masked = spectral_solve_batch(
                equation, np.stack([u0, u0]), grid, modes=[256, 128])
            alone = spectral_solve(equation, u0, grid, internal_nx=128)
            assert_same_solution(full, spectral_solve(equation, u0, grid))
            scale = np.max(np.abs(alone.values))
            assert np.max(np.abs(masked.values - alone.values)) <= 1e-12 * scale, seed
            assert masked.work_points == alone.work_points
            assert masked.nsub == alone.nsub
            assert masked.points == 128

    @pytest.mark.parametrize("equation", ("kdv", "ks"))
    def test_row_without_modes_takes_grid_default(self, equation):
        # a row's None is the grid's default, 256 on both default grids; a
        # one-row spectral_solve passes modes=[None] unless told otherwise
        grid = replace(default_grid(equation), nt=21, t_final=2.0)
        u0 = generate_initial_condition(InitialConditionSpec.sample(7), grid)
        u0s = np.stack([u0, 0.5 * u0])
        default = spectral_solve_batch(equation, u0s, grid, modes=[None, 128])
        given = spectral_solve_batch(equation, u0s, grid, modes=[256, 128])
        for d, g in zip(default, given):
            assert d.values.tobytes() == g.values.tobytes()
            assert (d.nsub, d.points, d.max_imag_residue) == (g.nsub, g.points, g.max_imag_residue)
        assert [s.points for s in default] == [256, 128]

    @pytest.mark.parametrize("modes", ([100, 256], [8, 256], [256], [128, 256, 256]))
    def test_modes_validated(self, modes):
        # each count a power of two >= 16, one count per row
        grid = default_grid("ks")
        with pytest.raises(ValidationError):
            spectral_solve_batch("ks", np.zeros((2, grid.nx)), grid, modes=modes)

    def test_stack_shape_validated(self):
        grid = default_grid("ks")
        for bad in (np.zeros(grid.nx), np.zeros((0, grid.nx)), np.zeros((2, grid.nx + 1))):
            with pytest.raises(ValidationError):
                spectral_solve_batch("ks", bad, grid)


class TestBackends:
    def test_backend_is_python(self):
        # the numpy kernels are the only backend; the name fills the
        # backend column of bench output
        assert BACKEND == "python"


class TestDatasets:
    def make_grid(self):
        return Grid1D(length=64.0, nx=64, nt=6, t_final=1.0)

    def test_unperturbed_single_sample_matches_base_trajectory(self):
        grid = self.make_grid()
        base = InitialConditionSpec(amplitudes=(0.3, 0.2), frequencies=(1, 2),
                                    phases=(0.0, 1.0), eps_amplitude=0.0,
                                    eps_phase=0.0, seed=0)
        samples, _, _ = generate_dataset("ks", 1, base, 5, grid)
        u0 = generate_initial_condition(base, grid)
        ref = spectral_solve("ks", u0, grid)
        np.testing.assert_array_equal(samples[0].values[0], u0)
        np.testing.assert_array_equal(samples[0].final_state, ref.values[-1])

    def test_same_seed_bit_identical(self):
        grid = self.make_grid()
        base = InitialConditionSpec.sample(4)
        a, _, _ = generate_dataset("ks", 3, base, 11, grid)
        b, _, _ = generate_dataset("ks", 3, base, 11, grid)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values[0], sb.values[0])
            np.testing.assert_array_equal(sa.final_state, sb.final_state)

    def test_different_seed_differs(self):
        grid = self.make_grid()
        base = InitialConditionSpec.sample(4)
        a, _, _ = generate_dataset("ks", 1, base, 11, grid)
        b, _, _ = generate_dataset("ks", 1, base, 12, grid)
        assert not np.array_equal(a[0].values[0], b[0].values[0])

    def test_embodied_record_is_power_times_time(self):
        res = run_pipeline("ks", power=PowerModel.fixed(50.0), region="CH", seed=4)
        (rec,) = [r for r in res.records if r.label == "dataset"]
        assert rec.stage == "embodied"
        assert rec.duration_s > 0.0
        assert rec.energy_kwh == pytest.approx(50.0 * rec.duration_s / 3.6e6,
                                               rel=1e-12)
        assert rec.emissions_kg == pytest.approx(rec.energy_kwh * 34.84 / 1000.0,
                                                 rel=1e-12)

    def test_dataset_files_round_trip_full_precision(self, tmp_path):
        grid = self.make_grid()
        base = InitialConditionSpec.sample(4)
        samples, _, _ = generate_dataset("ks", 2, base, 11, grid)
        write_dataset(tmp_path / "ds", "ks", 11, base, grid, samples)
        header = json.loads((tmp_path / "ds" / "header.json").read_text())
        assert header["equation"] == "ks"
        assert header["count"] == 2
        assert header["seed"] == 11
        u0 = np.loadtxt(tmp_path / "ds" / "u0.csv", delimiter=",", ndmin=2)
        ut = np.loadtxt(tmp_path / "ds" / "uT.csv", delimiter=",", ndmin=2)
        for i, sample in enumerate(samples):
            np.testing.assert_array_equal(u0[i], sample.values[0])
            np.testing.assert_array_equal(ut[i], sample.final_state)

    def test_blow_up_names_the_sample(self, monkeypatch):
        def sample_fails(equation, u0s, grid, **kwargs):
            raise SolverError("non-finite state", row=0)

        monkeypatch.setattr(datasets_module, "spectral_solve_batch", sample_fails)
        grid = Grid1D(length=64.0, nx=64, nt=11, t_final=10.0)
        calm = InitialConditionSpec(amplitudes=(0.1,), frequencies=(1,),
                                    phases=(0.0,), seed=1)
        with pytest.raises(SolverError, match="dataset sample 0 failed"):
            generate_dataset("kdv", 2, calm, 7, grid)

    def test_reference_row_leaves_samples_unchanged(self):
        # kdv stores 100 points and solves on 256 modes, so every row's
        # trajectory is resampled
        grid = replace(default_grid("kdv"), nt=11, t_final=1.0)
        base = InitialConditionSpec.sample(4)
        samples, reference, _ = generate_dataset("kdv", 3, base, 11, grid)
        rng = np.random.default_rng(11)
        assert len(samples) == 3
        # each sample is what a one-row solve gives, trajectory and work bit
        # for bit; the reference row adds neither a sample nor a charge
        for sample in samples:
            alone_u0 = generate_initial_condition(base.perturbed(rng), grid)
            alone = spectral_solve("kdv", alone_u0, grid)
            assert sample.values[0].tobytes() == alone_u0.tobytes()
            assert sample.final_state.tobytes() == alone.values[-1].tobytes()
            assert_same_solution(sample, alone)
        u0 = generate_initial_condition(base, grid)
        assert_same_solution(reference, spectral_solve("kdv", u0, grid))

    def test_blow_up_in_reference_row_names_the_reference(self, monkeypatch):
        def reference_fails(equation, u0s, grid, **kwargs):
            raise SolverError("non-finite state", row=len(u0s) - 1)

        monkeypatch.setattr(datasets_module, "spectral_solve_batch", reference_fails)
        grid = Grid1D(length=64.0, nx=64, nt=11, t_final=10.0)
        calm = InitialConditionSpec(amplitudes=(0.1,), frequencies=(1,),
                                    phases=(0.0,), seed=1)
        with pytest.raises(SolverError, match="reference solve failed") as info:
            generate_dataset("kdv", 2, calm, 7, grid)
        assert "sample" not in str(info.value)

    def test_blow_up_in_model_row_names_the_model(self, monkeypatch):
        # the model rides second to last, just before the reference
        def model_fails(equation, u0s, grid, **kwargs):
            assert kwargs["modes"][-2:] == [datasets_module.MODEL_MODES, 256]
            raise SolverError("non-finite state", row=len(u0s) - 2)

        monkeypatch.setattr(datasets_module, "spectral_solve_batch", model_fails)
        grid = Grid1D(length=64.0, nx=64, nt=11, t_final=10.0)
        calm = InitialConditionSpec(amplitudes=(0.1,), frequencies=(1,),
                                    phases=(0.0,), seed=1)
        with pytest.raises(SolverError, match="model solve failed") as info:
            generate_dataset("kdv", 2, calm, 7, grid)
        assert "sample" not in str(info.value)

    def test_count_must_be_positive(self):
        base = InitialConditionSpec.sample(4)
        with pytest.raises(ValidationError):
            generate_dataset("ks", 0, base, 1, self.make_grid())


class TestPipeline:
    def test_advection_stage_signature(self):
        res = run_pipeline("advection", power=PowerModel.fixed(50.0), region="CH",
                           seed=1)
        assert res.carbon.c_embodied == 0.0
        assert res.carbon.c_developmental > 0.0
        assert res.carbon.c_operational > 0.0
        assert res.carbon.c_inference > 0.0
        assert 0.0 < res.score.value < 1.0

    def test_kdv_has_all_four_stages(self):
        res = run_pipeline("kdv", power=PowerModel.fixed(50.0), region="CH", seed=1)
        carbon = res.carbon
        assert min(carbon.c_embodied, carbon.c_developmental,
                   carbon.c_operational, carbon.c_inference) > 0.0

    def test_seeded_run_is_reproducible(self):
        a = run_pipeline("wave", power=PowerModel.fixed(50.0), region="CH", seed=9)
        b = run_pipeline("wave", power=PowerModel.fixed(50.0), region="CH", seed=9)
        assert a.score.value == b.score.value
        assert a.carbon == b.carbon
        assert a.error.relative_l2 == b.error.relative_l2

    def test_store_persistence(self, tmp_path):
        from ecol2 import aggregate

        store = LedgerStore(tmp_path)
        res = run_pipeline("reaction", power=PowerModel.fixed(50.0), region="CH",
                           seed=2, store=store)
        stored = aggregate(store)
        assert stored == res.carbon

    def test_spectral_run_makes_one_batch_solve(self, monkeypatch):
        batches, solves = [], []

        def count_batch(equation, u0s, grid, **kwargs):
            batches.append((len(u0s), kwargs["modes"]))
            return spectral_solve_batch(equation, u0s, grid, **kwargs)

        def count_solve(equation, u0, grid, **kwargs):
            solves.append(kwargs.get("internal_nx"))
            return spectral_solve(equation, u0, grid, **kwargs)

        monkeypatch.setattr(datasets_module, "spectral_solve_batch", count_batch)
        monkeypatch.setattr(pipeline_module, "spectral_solve", count_solve)
        run_pipeline("kdv", power=PowerModel.fixed(50.0), region="CH", seed=2)
        # the 4 dataset samples, the 128-mode model as row 4 and the reference
        # as row 5; every later stage uses one of those two
        assert batches == [(6, [256] * 4 + [128, 256])]
        assert solves == []

    @pytest.mark.parametrize("workload", ("kdv", "ks"))
    def test_batched_reference_equals_standalone_solve(self, workload, monkeypatch):
        fields = []

        def capture(model, reference):
            fields.append(reference)
            return error_metrics(model, reference)

        monkeypatch.setattr(pipeline_module, "error_metrics", capture)
        res = run_pipeline(workload, power=PowerModel.fixed(50.0), region="CH", seed=2)
        grid = default_grid(workload)
        u0 = generate_initial_condition(InitialConditionSpec.sample(2), grid)
        reference = spectral_solve(workload, u0, grid)
        model = spectral_solve(workload, u0, grid, internal_nx=128)
        assert fields and all(f.tobytes() == reference.values.tobytes() for f in fields)
        # the model is a masked row of the batch, on the 128-mode trajectory
        # up to rounding
        expected = error_metrics(model.values, reference.values).relative_l2
        assert res.error.relative_l2 == pytest.approx(expected, rel=1e-12, abs=0)

    def test_stage_charges_match_unbatched_solves(self):
        seed = 2
        res = run_pipeline("kdv", power=PowerModel.fixed(50.0), region="CH", seed=seed)
        # replay the charges of one solve per sample and per stage on a fresh
        # clock, in the order the stages run
        grid = default_grid("kdv")
        base = InitialConditionSpec.sample(seed)
        rng = np.random.default_rng(seed)
        samples = [generate_initial_condition(base.perturbed(rng), grid) for _ in range(4)]
        u0 = generate_initial_condition(base, grid)
        stage_points = {
            "dataset": [spectral_solve("kdv", u, grid).work_points for u in samples],
            "reference-solve": [spectral_solve("kdv", u0, grid).work_points],
            "trial-modes128": [spectral_solve("kdv", u0, grid, internal_nx=128).work_points],
            "trial-modes256": [spectral_solve("kdv", u0, grid, internal_nx=256).work_points],
            "final-solve": [spectral_solve("kdv", u0, grid, internal_nx=128).work_points],
            "evaluation": [grid.nt * grid.nx],
        }
        clock = VirtualClock()
        expected = {}
        for label, points in stage_points.items():
            t0 = clock.now()
            for p in points:
                charge_work(clock, p)
            expected[label] = clock.now() - t0
        assert {r.label: r.duration_s for r in res.records} == expected

    def test_failed_stage_releases_the_sampler(self, monkeypatch):
        # a sampled session polls the counters on its own thread and holds
        # them for the process; a stage that raises must release both, or no
        # later sampled session can start
        monkeypatch.setattr(tracking, "_hardware_energy_reader",
                            lambda: itertools.count(0.0, 20.0).__next__)
        threads = threading.active_count()

        def fails(*args, **kwargs):
            raise SolverError("stage failed")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "fd_solve", fails)
            with pytest.raises(SolverError, match="stage failed"):
                run_pipeline("advection", PowerModel.sampled(), "CH")
        assert threading.active_count() == threads
        res = run_pipeline("advection", PowerModel.sampled(), "CH")
        assert [r.label for r in res.records] == [
            "trial-nx64", "trial-nx128", "final-solve", "evaluation"]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workload, name, fail_on, kept, dataset_written", (
        ("kdv", "generate_dataset", 1, [], False),
        ("kdv", "error_metrics", 1, ["dataset", "reference-solve", "trial-modes128",
                                     "trial-modes256", "final-solve"], True),
        ("advection", "fd_solve", 3, ["trial-nx64", "trial-nx128"], False),
    ))
    def test_failed_stage_leaves_no_record(self, tmp_path, monkeypatch, workload,
                                           name, fail_on, kept, dataset_written):
        real, calls = getattr(pipeline_module, name), []

        def fails_once(*args, **kwargs):
            calls.append(name)
            if len(calls) == fail_on:
                raise SolverError("stage failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, name, fails_once)
        store = LedgerStore(tmp_path)
        with pytest.raises(SolverError, match="stage failed"):
            run_pipeline(workload, PowerModel.fixed(50.0), "CH", seed=2, store=store)
        stored = [r.label for recs in store.read_all().values() for r in recs]
        assert sorted(stored) == sorted(kept)
        assert (tmp_path / "dataset").exists() == dataset_written

    def test_model_error_is_moderate(self):
        # the coarse stand-in solver should be imperfect but usable
        for workload in ("advection", "ks"):
            res = run_pipeline(workload, power=PowerModel.fixed(50.0), region="CH",
                               seed=3)
            assert 0.0 < res.error.relative_l2 < 0.1
            assert not res.score.inaccurate
