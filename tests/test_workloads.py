"""Solvers and data generation: analytic forms, FD schemes, spectral core."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ecol2 import PowerModel, SolverError, StabilityError, ValidationError, VirtualClock
from ecol2.workloads import (
    BACKEND,
    Grid1D,
    InitialConditionSpec,
    PdeCoefficients,
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
from ecol2.tracking import charge_work
from ecol2.workloads import datasets as datasets_module
from ecol2.workloads import pipeline as pipeline_module
from ecol2.workloads._backend import available_backends


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

    def test_coefficients_positive(self):
        with pytest.raises(ValidationError):
            PdeCoefficients(advection_speed=0.0)

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
        np.testing.assert_allclose(fourier_resample(u, 64), u, atol=1e-13)

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
        assert sol.provenance == "analytic"

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
        sol = fd_solve("advection", grid, scheme_order=2)
        nsub = sol.work_points // ((grid.nt - 1) * grid.nx)
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

    def test_first_order_scheme_is_worse(self):
        grid = replace(default_grid("advection"), nx=128)
        ref = analytic_advection(grid).values
        e1 = rel_l2(fd_solve("advection", grid, scheme_order=1).values, ref)
        e2 = rel_l2(fd_solve("advection", grid, scheme_order=2).values, ref)
        assert e1 > e2

    def test_advection_cfl_violation_names_bound(self):
        with pytest.raises(StabilityError, match="CFL") as err:
            fd_solve("advection", default_grid("advection"), dt=0.1)
        assert "> 1" in str(err.value)

    def test_wave_cfl_violation(self):
        with pytest.raises(StabilityError, match="CFL"):
            fd_solve("wave", default_grid("wave"), dt=0.5)

    def test_reaction_rate_step_bound(self):
        # dt is capped at the output spacing, so force a coarse output grid
        # where a full 1 s step is actually taken: rate * dt = 5 > 2.
        coarse = replace(default_grid("reaction"), nt=2)
        with pytest.raises(StabilityError):
            fd_solve("reaction", coarse, dt=1.0)

    def test_grid_periodicity_requirements(self):
        with pytest.raises(ValidationError):
            fd_solve("advection", replace(default_grid("advection"), periodic=False))
        with pytest.raises(ValidationError):
            fd_solve("wave", replace(default_grid("wave"), periodic=True))

    def test_provenance_and_shape(self):
        grid = default_grid("reaction")
        sol = fd_solve("reaction", grid)
        assert sol.provenance == "model-numeric"
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
        nsub = coarse.work_points // ((grid.nt - 1) * 256)
        dt = grid.dt_out / nsub
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
    assert a.provenance == b.provenance


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
        kwargs = dict(internal_nx=128, dt=0.01, provenance="model-numeric")
        batch = spectral_solve_batch("ks", u0s, grid, **kwargs)
        for b, u0 in zip(batch, u0s):
            assert_same_solution(b, spectral_solve("ks", u0, grid, **kwargs))

    def test_blow_up_names_lowest_row_at_first_failing_time(self):
        # alone, amplitude 5 blows up by t = 4, amplitudes 10 and 15 by t = 2
        grid = Grid1D(length=64.0, nx=64, nt=11, t_final=10.0)
        wave = np.sin(2.0 * np.pi * grid.x / grid.length)
        u0s = np.stack([a * wave for a in (0.1, 5.0, 10.0, 15.0)])
        with pytest.raises(SolverError, match=r"blew up by t = 2 ") as info:
            spectral_solve_batch("kdv", u0s, grid, dt=0.5, internal_nx=64)
        assert info.value.row == 2

    def test_stack_shape_validated(self):
        grid = default_grid("ks")
        for bad in (np.zeros(grid.nx), np.zeros((0, grid.nx)), np.zeros((2, grid.nx + 1))):
            with pytest.raises(ValidationError):
                spectral_solve_batch("ks", bad, grid)


class TestBackends:
    def test_both_backends_importable_here(self):
        # the build in this repo compiles the extension; tests cover both
        assert BACKEND in ("compiled", "python")

    def test_spectral_kernels_agree(self):
        impls = available_backends()
        if set(impls) != {"compiled", "python"}:
            pytest.skip("compiled backend not built")
        n = 256
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=0.5)
        dt = 1e-3
        half = np.exp(0.5 * dt * 1j * k**3)
        full = half * half
        modes = np.rint(np.fft.fftfreq(n) * n).astype(int)
        gain = -0.5j * dt * k * (np.abs(modes) < n / 3)
        u0 = np.cos(np.arange(n) * 2.0 * np.pi / n)
        outs = {}
        for name, kern in impls.items():
            v = kern.spectral_evolve(kern.from_physical(u0), half, full, gain, 200)
            outs[name], _ = kern.to_physical(v)
        np.testing.assert_allclose(outs["python"], outs["compiled"], atol=1e-12)

    def test_fd_kernels_agree_exactly(self):
        impls = available_backends()
        if set(impls) != {"compiled", "python"}:
            pytest.skip("compiled backend not built")
        u0 = np.sin(np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False))
        w0 = np.sin(np.pi * np.linspace(0.0, 1.0, 128))
        for name in ("advection_upwind", "advection_lax_wendroff"):
            a = getattr(impls["python"], name)(u0, 0.7, 40)
            b = getattr(impls["compiled"], name)(u0, 0.7, 40)
            np.testing.assert_array_equal(a, b)
        pa, ca = impls["python"].wave_leapfrog(w0, w0, 0.5, 33)
        pb, cb = impls["compiled"].wave_leapfrog(w0, w0, 0.5, 33)
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(ca, cb)
        ra = impls["python"].reaction_rk4(np.abs(u0), 5.0, 1e-3, 40)
        rb = impls["compiled"].reaction_rk4(np.abs(u0), 5.0, 1e-3, 40)
        np.testing.assert_array_equal(ra, rb)


class TestDatasets:
    def make_grid(self):
        return Grid1D(length=64.0, nx=64, nt=6, t_final=1.0)

    def test_unperturbed_single_sample_matches_base_trajectory(self):
        grid = self.make_grid()
        base = InitialConditionSpec(amplitudes=(0.3, 0.2), frequencies=(1, 2),
                                    phases=(0.0, 1.0), eps_amplitude=0.0,
                                    eps_phase=0.0, seed=0)
        pairs, _ = generate_dataset("ks", 1, base, 5, grid, internal_nx=128)
        u0 = generate_initial_condition(base, grid)
        ref = spectral_solve("ks", u0, grid, internal_nx=128)
        np.testing.assert_array_equal(pairs[0][0], u0)
        np.testing.assert_array_equal(pairs[0][1], ref.values[-1])

    def test_same_seed_bit_identical(self):
        grid = self.make_grid()
        base = InitialConditionSpec.sample(4)
        a, _ = generate_dataset("ks", 3, base, 11, grid, internal_nx=128)
        b, _ = generate_dataset("ks", 3, base, 11, grid, internal_nx=128)
        for (u0a, uta), (u0b, utb) in zip(a, b):
            np.testing.assert_array_equal(u0a, u0b)
            np.testing.assert_array_equal(uta, utb)

    def test_different_seed_differs(self):
        grid = self.make_grid()
        base = InitialConditionSpec.sample(4)
        a, _ = generate_dataset("ks", 1, base, 11, grid, internal_nx=128)
        b, _ = generate_dataset("ks", 1, base, 12, grid, internal_nx=128)
        assert not np.array_equal(a[0][0], b[0][0])

    def test_embodied_record_is_power_times_time(self):
        grid = self.make_grid()
        base = InitialConditionSpec.sample(4)
        _, rec = generate_dataset(
            "ks", 2, base, 11, grid, power=PowerModel.fixed(50.0), region="CH",
            clock=VirtualClock(), internal_nx=128)
        assert rec.stage == "embodied"
        assert rec.duration_s > 0.0
        assert rec.energy_kwh == pytest.approx(50.0 * rec.duration_s / 3.6e6,
                                               rel=1e-12)
        assert rec.emissions_kg == pytest.approx(rec.energy_kwh * 34.84 / 1000.0,
                                                 rel=1e-12)

    def test_dataset_files_round_trip_full_precision(self, tmp_path):
        grid = self.make_grid()
        base = InitialConditionSpec.sample(4)
        pairs, _ = generate_dataset("ks", 2, base, 11, grid, internal_nx=128,
                                    out_dir=tmp_path / "ds")
        header = json.loads((tmp_path / "ds" / "header.json").read_text())
        assert header["equation"] == "ks"
        assert header["count"] == 2
        assert header["seed"] == 11
        u0 = np.loadtxt(tmp_path / "ds" / "u0.csv", delimiter=",", ndmin=2)
        ut = np.loadtxt(tmp_path / "ds" / "uT.csv", delimiter=",", ndmin=2)
        for i, (u0_i, ut_i) in enumerate(pairs):
            np.testing.assert_array_equal(u0[i], u0_i)
            np.testing.assert_array_equal(ut[i], ut_i)

    def test_blow_up_names_the_sample(self):
        grid = Grid1D(length=64.0, nx=64, nt=11, t_final=10.0)
        bad = InitialConditionSpec(amplitudes=(40.0,), frequencies=(2,),
                                   phases=(0.0,), seed=1)
        with pytest.raises(SolverError, match="sample 0"):
            generate_dataset("kdv", 2, bad, 7, grid, dt=0.5, internal_nx=64)

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
        from ecol2 import LedgerStore, aggregate

        store = LedgerStore(tmp_path)
        res = run_pipeline("reaction", power=PowerModel.fixed(50.0), region="CH",
                           seed=2, store=store)
        stored = aggregate(store)
        assert stored == res.carbon

    def test_spectral_run_makes_three_distinct_solves(self, monkeypatch):
        batches, solves = [], []

        def count_batch(equation, u0s, grid, **kwargs):
            batches.append(len(u0s))
            return spectral_solve_batch(equation, u0s, grid, **kwargs)

        def count_solve(equation, u0, grid, **kwargs):
            solves.append(kwargs.get("internal_nx"))
            return spectral_solve(equation, u0, grid, **kwargs)

        monkeypatch.setattr(datasets_module, "spectral_solve_batch", count_batch)
        monkeypatch.setattr(pipeline_module, "spectral_solve", count_solve)
        run_pipeline("kdv", power=PowerModel.fixed(50.0), region="CH", seed=2)
        # the dataset batch, the reference, the 128-mode trial; the 256-mode
        # trial reuses the reference and the final solve the 128-mode trial
        assert batches == [4]
        assert solves == [None, 128]

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

    def test_model_error_is_moderate(self):
        # the coarse stand-in solver should be imperfect but usable
        for workload in ("advection", "ks"):
            res = run_pipeline(workload, power=PowerModel.fixed(50.0), region="CH",
                               seed=3)
            assert 0.0 < res.error.relative_l2 < 0.1
            assert not res.score.inaccurate
