"""Acceptance checklist.

Ten ordered end-to-end checks covering the score, the emission model, the
error metrics, the solvers, the pipeline, and the record store.  Each test
carries an inline wall-clock budget so a regression in speed fails just as
loudly as one in values.

test_04_score_response_to_alpha_and_beta encodes the documented response
surface as stated, including the alpha direction that the metric's closed
form contradicts; see the assertion comment there before touching it.
"""

import json
import math
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from ecol2 import (
    CarbonLedger,
    EcoL2Params,
    EmissionRecord,
    LedgerStore,
    PowerModel,
    VirtualClock,
    aggregate,
    ecol2,
    ecol2_numerator,
    error_metrics,
    start_session,
    stop_session,
    summarize,
    what_if_region,
)
from ecol2.cli import main
from ecol2.regions import RegionRegistry
from ecol2.workloads import (
    Grid1D,
    InitialConditionSpec,
    default_grid,
    generate_initial_condition,
    spectral_solve,
)

from conftest import GOLDEN_ROWS, build_fixture_store, make_record, write_fields_for_r

CH = 34.84
ZA = 707.69

SPOT_SCORES = {"adv-pinns": 0.332, "kdv-fno": 0.581, "ks-deeponet": 0.213}


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f} s, budget {seconds} s"


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_01_scorecard_reproduction(tmp_path, capsys):
    """The published scorecard is reproduced through the score command."""
    with budget(1.0):
        computed = {}
        for label, r, ce, cd, co, ci, reported in GOLDEN_ROWS:
            root = tmp_path / label
            build_fixture_store(root, (ce, cd, co, ci))
            pred, ref = write_fields_for_r(tmp_path, r, tag=label)
            code = main([
                "score", "--ledger", str(root),
                "--prediction", str(pred), "--reference", str(ref),
                "--format", "json",
            ])
            out = capsys.readouterr().out
            assert code == 0
            computed[label] = json.loads(out)[0]["ecol2"]
        misses = {
            label: (computed[label], reported)
            for label, r, ce, cd, co, ci, reported in GOLDEN_ROWS
            if abs(computed[label] - reported) > 0.005
        }
        assert len(GOLDEN_ROWS) - len(misses) >= 13, f"off-tolerance rows: {misses}"
        for label, expected in SPOT_SCORES.items():
            assert computed[label] == pytest.approx(expected, abs=0.005)


def test_02_score_bounded_and_identity_on_random_tuples():
    """10,000 random valid tuples score strictly inside (0, 1); the
    change-of-base identity holds to 1e-12 relative on each."""
    rng = np.random.default_rng(0)
    n = 10_000
    rs = 10.0 ** rng.uniform(-8.0, -1.0, n)
    alphas = 10.0 ** rng.uniform(1.0, 3.0, n)
    betas = 10.0 ** rng.uniform(0.0, 4.0, n)
    comps = (1.0 - rng.random((n, 4))) * 10.0  # components in (0, 10]
    with budget(5.0):
        for i in range(n):
            params = EcoL2Params(alpha=alphas[i], beta=betas[i], n_infer=1)
            score = ecol2(rs[i], CarbonLedger(*comps[i]), params)
            assert 0.0 < score.value < 1.0
            direct = ecol2_numerator(rs[i], alphas[i])
            alt = 1.0 - rs[i] ** (1.0 / math.log(alphas[i]))
            assert abs(direct - alt) <= 1e-12 * abs(alt)


def test_03_limit_behavior():
    """Score approaches 1 when error and carbon vanish together, and
    vanishes when either carbon or error grows."""
    with budget(1.0):
        # alpha = 10: the error transform is strong enough that the
        # approach clears 0.999 within twelve decades
        params = EcoL2Params(alpha=10.0, beta=100.0, n_infer=1)
        toward_one = [
            ecol2(10.0 ** -k, CarbonLedger(c_operational=10.0 ** -k), params).value
            for k in range(1, 13)
        ]
        assert all(b > a for a, b in zip(toward_one, toward_one[1:]))
        assert toward_one[-1] > 0.999

        params = EcoL2Params(alpha=100.0, beta=100.0, n_infer=1)
        carbon_decay = [
            ecol2(1e-3, CarbonLedger(c_operational=10.0 ** k), params).value
            for k in range(0, 10)
        ]
        assert all(b < a for a, b in zip(carbon_decay, carbon_decay[1:]))
        assert carbon_decay[-1] < 1e-6

        error_decay = [
            ecol2(r, CarbonLedger(c_operational=1e-3), params).value
            for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999)
        ]
        assert all(b < a for a, b in zip(error_decay, error_decay[1:]))
        assert error_decay[-1] < 1e-4


def test_04_score_response_to_alpha_and_beta():
    """Response of the score to its two weights at fixed error and carbon."""
    carbon = CarbonLedger(c_operational=1e-4)
    with budget(1.0):
        beta_scores = [
            ecol2(1e-4, carbon, EcoL2Params(alpha=100.0, beta=b, n_infer=1)).value
            for b in np.geomspace(1.0, 1e4, 13)
        ]
        assert all(b < a for a, b in zip(beta_scores, beta_scores[1:]))

        alpha_scores = [
            ecol2(1e-4, carbon, EcoL2Params(alpha=a, beta=100.0, n_infer=1)).value
            for a in np.geomspace(10.0, 1000.0, 13)
        ]
    # Expected ascending here; the closed form says otherwise: the numerator
    # 1 - r^(1/ln alpha) falls as alpha grows for any r < 1 (its derivative
    # carries the sign of ln r).  Kept as stated so the discrepancy stays
    # visible instead of being silently rewritten to match the code.
    assert all(b > a for a, b in zip(alpha_scores, alpha_scores[1:])), (
        f"score decreases in alpha: {alpha_scores[0]:.6f} .. {alpha_scores[-1]:.6f}"
    )


def fixed_session_record(watts, seconds, region, registry=None):
    clock = VirtualClock()
    session = start_session(
        "operational", PowerModel.parse(f"fixed:{watts}"), region,
        label="acceptance", registry=registry, clock=clock,
    )
    clock.advance(seconds)
    return stop_session(session)


def test_05_emission_model_exactness():
    """Fixed-power emissions follow P * t * I exactly, scale linearly in
    each factor, and what-if moves scale by the intensity ratio."""
    with budget(1.0):
        base = fixed_session_record(50.0, 7200.0, "CH")
        assert base.emissions_kg == pytest.approx(3.484e-3, rel=1e-12)

        assert fixed_session_record(100.0, 7200.0, "CH").emissions_kg == pytest.approx(
            2.0 * base.emissions_kg, rel=1e-12
        )
        assert fixed_session_record(50.0, 14400.0, "CH").emissions_kg == pytest.approx(
            2.0 * base.emissions_kg, rel=1e-12
        )
        doubled = RegionRegistry({"CH": 2.0 * CH})
        assert fixed_session_record(
            50.0, 7200.0, "CH", registry=doubled
        ).emissions_kg == pytest.approx(2.0 * base.emissions_kg, rel=1e-12)

        moved = what_if_region(base, "ZA")
        assert moved.emissions_kg == base.emissions_kg * (ZA / CH)
        assert moved.energy_kwh == base.energy_kwh


def naive_error_metrics(pred, ref):
    """Independent plain-loop reference for the four error metrics."""
    n = len(pred)
    sq = 0.0
    ab = 0.0
    mx = 0.0
    ref_sq = 0.0
    for p, q in zip(pred, ref):
        d = p - q
        sq += d * d
        ab += abs(d)
        mx = max(mx, abs(d))
        ref_sq += q * q
    return {
        "rmse": math.sqrt(sq / n),
        "mae": ab / n,
        "max_error": mx,
        "relative_l2": math.sqrt(sq) / math.sqrt(ref_sq),
    }


def test_06_error_metrics_match_naive_oracle():
    """100 random field pairs agree with a plain-loop implementation to
    1e-12 relative, and mae <= rmse <= max_error on every pair."""
    rng = np.random.default_rng(1)
    with budget(2.0):
        for _ in range(100):
            n = int(rng.integers(3, 200))
            ref = rng.normal(0.0, 1.0, n)
            pred = ref + rng.normal(0.0, 0.3, n)
            report = error_metrics(pred, ref)
            expected = naive_error_metrics(pred.tolist(), ref.tolist())
            assert report.rmse == pytest.approx(expected["rmse"], rel=1e-12)
            assert report.mae == pytest.approx(expected["mae"], rel=1e-12)
            assert report.max_error == pytest.approx(expected["max_error"], rel=1e-12)
            assert report.relative_l2 == pytest.approx(
                expected["relative_l2"], rel=1e-12
            )
            assert report.mae <= report.rmse <= report.max_error


def test_07_kdv_soliton_physics():
    """A single soliton translates at its speed with small error, mass is
    conserved, and zero initial data stays exactly zero."""
    with budget(60.0):
        grid = Grid1D(length=128.0, nx=256, nt=101, t_final=10.0)
        x = grid.x
        t = grid.t
        arg = x[None, :] - 0.5 * t[:, None] - 32.0
        arg = (arg + grid.length / 2.0) % grid.length - grid.length / 2.0
        exact = 1.5 / np.cosh(np.sqrt(0.5) * arg / 2.0) ** 2

        sol = spectral_solve("kdv", exact[0], grid)
        assert rel_l2(sol.values, exact) < 1e-3

        mass = sol.values.mean(axis=1)
        assert np.max(np.abs(mass - mass[0])) <= 1e-8 * abs(mass[0])

        quiet = spectral_solve("kdv", np.zeros(grid.nx), grid)
        assert np.all(quiet.values == 0.0)


def test_08_ks_self_convergence():
    """Halving the internal step changes the t = 10 chaotic field by less
    than 1e-4 relative, from a seeded random initial condition."""
    with budget(120.0):
        grid = default_grid("ks")  # 64-long domain, nx 256, t up to 10
        u0 = generate_initial_condition(InitialConditionSpec.sample(7), grid)
        coarse = spectral_solve("ks", u0, grid)
        fine = spectral_solve("ks", u0, grid, dt=grid.dt_out / coarse.nsub / 2.0)
        assert rel_l2(coarse.values[-1], fine.values[-1]) < 1e-4


def run_bench(workload, ledger):
    proc = subprocess.run(
        [
            sys.executable, "-m", "ecol2.cli", "bench", workload,
            "--seed", "7", "--region", "CH",
            "--ledger", str(ledger), "--format", "json",
        ],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_09_pipeline_stages_and_determinism(tmp_path):
    """bench charges the right lifecycle stages and repeated seeded runs
    are byte-identical under the synthetic power model."""
    with budget(300.0):
        out_a = run_bench("advection", tmp_path / "adv-a")
        out_b = run_bench("advection", tmp_path / "adv-b")
        assert out_a == out_b
        row = json.loads(out_a)[0]
        assert row["c_embodied"] == 0.0  # nothing to pregenerate
        assert row["c_developmental"] > 0
        assert row["c_operational"] > 0
        assert row["c_inference"] > 0
        stored = aggregate(LedgerStore(tmp_path / "adv-a"))
        assert stored.c_embodied == 0.0
        assert stored.c_developmental == row["c_developmental"]

        out_a = run_bench("kdv", tmp_path / "kdv-a")
        out_b = run_bench("kdv", tmp_path / "kdv-b")
        assert out_a == out_b
        row = json.loads(out_a)[0]
        assert row["c_embodied"] > 0  # dataset generation is charged
        assert row["c_developmental"] > 0
        assert row["c_operational"] > 0
        assert row["c_inference"] > 0


def random_record(rng):
    stage = ("embodied", "developmental", "operational", "inference")[
        rng.integers(0, 4)
    ]
    trace = None
    if rng.random() < 0.3:
        times = sorted(float(v) for v in rng.uniform(0.0, 100.0, 4))
        trace = tuple((v, float(rng.uniform(5.0, 200.0))) for v in times)
    return EmissionRecord(
        stage=stage,
        label=f"run-{rng.integers(0, 10 ** 6)}",
        energy_kwh=float(rng.uniform(0.0, 2.0)),
        duration_s=float(rng.uniform(0.0, 1e4)),
        region=str(rng.choice(["CH", "ZA", "NZ", "unknown"])),
        emissions_kg=float(rng.uniform(0.0, 1.0)),
        inference_count=int(rng.integers(1, 50)) if stage == "inference" else None,
        power_trace=trace,
        failed=bool(rng.random() < 0.1),
    )


def test_10_store_round_trip_and_aggregation(tmp_path):
    """1,000 random records survive the store byte-exactly; folding them is
    order-independent and additive across disjoint sets."""
    rng = np.random.default_rng(2)
    records = [random_record(rng) for _ in range(1000)]
    with budget(10.0):
        store = LedgerStore(tmp_path)
        for rec in records:
            store.record(rec)
        reread = [rec for recs in store.read_all().values() for rec in recs]
        assert len(reread) == len(records)
        assert Counter(reread) == Counter(records)

        base = summarize(records)
        for seed in range(3):
            shuffled = list(records)
            np.random.default_rng(seed).shuffle(shuffled)
            assert summarize(shuffled) == base

        half_a, half_b = records[:500], records[500:]
        fold_a, fold_b = summarize(half_a), summarize(half_b)
        for field in ("c_embodied", "c_developmental", "c_operational"):
            assert getattr(base, field) == pytest.approx(
                getattr(fold_a, field) + getattr(fold_b, field), rel=1e-12
            )
        # the inference component is per run, so the additive quantity is
        # the emission mass: per-run value times the run count
        count = lambda recs: sum(
            r.inference_count or 1 for r in recs if r.stage == "inference"
        )
        assert base.c_inference * count(records) == pytest.approx(
            fold_a.c_inference * count(half_a) + fold_b.c_inference * count(half_b),
            rel=1e-12,
        )
        assert base.total(0) == pytest.approx(
            base.c_embodied + base.c_developmental + base.c_operational, rel=1e-15
        )
        assert base.total(7) == pytest.approx(
            base.total(0) + 7 * base.c_inference, rel=1e-15
        )
