"""Region registry, power models, emission sessions, what-if rescaling."""

import math
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecol2.tracking as tracking
from ecol2 import (
    EmissionRecord,
    ParameterError,
    PowerModel,
    RegionError,
    RegionRegistry,
    TrackingError,
    ValidationError,
    VirtualClock,
    default_registry,
    region_lookup,
    start_session,
    stop_session,
    trapezoid_energy_kwh,
    what_if_region,
)
from ecol2.tracking import EmissionSession, charge_work

BUNDLED = {"NZ": 112.76, "ZA": 707.69, "CH": 34.84, "AE": 561.14, "GB": 237.59, "US": 369.47}


class TestRegistry:
    @pytest.mark.parametrize("code, intensity", sorted(BUNDLED.items()))
    def test_bundled_values_exact(self, code, intensity):
        assert region_lookup(code) == intensity

    def test_miss_lists_known_codes(self):
        with pytest.raises(RegionError, match="XX") as err:
            region_lookup("XX")
        for code in BUNDLED:
            assert code in str(err.value)

    def test_overlay_csv(self, tmp_path):
        extra = tmp_path / "extra.csv"
        extra.write_text("iso_code,intensity_g_per_kwh\nFR,56.0\nCH,40.0\n")
        reg = RegionRegistry.from_csv(extra)
        assert reg.lookup("FR") == 56.0
        assert reg.lookup("CH") == 40.0  # user row wins
        assert reg.lookup("ZA") == 707.69  # bundled rows survive

    @pytest.mark.parametrize("body", (
        "wrong,header\nCH,1.0\n",
        "iso_code,intensity_g_per_kwh\nCH\n",
        "iso_code,intensity_g_per_kwh\nCH,zero\n",
        "iso_code,intensity_g_per_kwh\nCH,-5\n",
        "iso_code,intensity_g_per_kwh\n,5\n",
    ))
    def test_malformed_csv_rejected(self, tmp_path, body):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        with pytest.raises(RegionError):
            RegionRegistry.from_csv(bad)


class TestPowerModel:
    def test_parse_forms(self):
        assert PowerModel.parse("sample").kind == "sampled-hardware"
        rated = PowerModel.parse("rated:75")
        assert (rated.kind, rated.watts) == ("constant-rated", 75.0)
        fixed = PowerModel.parse("fixed:50")
        assert (fixed.kind, fixed.watts) == ("synthetic-fixed", 50.0)

    @pytest.mark.parametrize("text", ("", "rated:", "rated:watts", "50", "sampled"))
    def test_parse_rejects(self, text):
        with pytest.raises(ParameterError):
            PowerModel.parse(text)

    @pytest.mark.parametrize("watts", (0.0, -5.0, None))
    def test_wattage_must_be_positive(self, watts):
        with pytest.raises(ParameterError):
            PowerModel(kind="synthetic-fixed", watts=watts)


def run_fixed_session(watts, seconds, region, **kwargs):
    clock = VirtualClock()
    session = start_session("operational", PowerModel.fixed(watts), region,
                            clock=clock, **kwargs)
    clock.advance(seconds)
    return stop_session(session)


class TestSessions:
    def test_fixed_power_direct_substitution(self):
        # 50 W x 7200 s = 0.1 kWh; CH at 34.84 g/kWh -> 3.484e-3 kg
        rec = run_fixed_session(50.0, 7200.0, "CH")
        assert rec.energy_kwh == pytest.approx(0.1, rel=1e-12)
        assert rec.emissions_kg == pytest.approx(3.484e-3, rel=1e-12)
        assert rec.duration_s == pytest.approx(7200.0, rel=1e-12)

    def test_linearity_in_power_time_intensity(self):
        base = run_fixed_session(50.0, 100.0, "CH")
        assert run_fixed_session(100.0, 100.0, "CH").emissions_kg == pytest.approx(
            2 * base.emissions_kg, rel=1e-12)
        assert run_fixed_session(50.0, 200.0, "CH").emissions_kg == pytest.approx(
            2 * base.emissions_kg, rel=1e-12)
        doubled = RegionRegistry({"CH": 2 * 34.84})
        assert run_fixed_session(50.0, 100.0, "CH", registry=doubled
                                 ).emissions_kg == pytest.approx(
            2 * base.emissions_kg, rel=1e-12)

    def test_unknown_region_needs_override(self):
        with pytest.raises(RegionError):
            start_session("operational", PowerModel.fixed(50.0), "XX")
        rec = run_fixed_session(50.0, 3600.0, "XX", intensity_g_per_kwh=100.0)
        assert rec.emissions_kg == pytest.approx(0.05 * 100.0 / 1000.0, rel=1e-12)

    def test_bad_stage_rejected(self):
        with pytest.raises(ValidationError):
            start_session("prep", PowerModel.fixed(50.0), "CH")

    def test_double_stop(self):
        session = start_session("operational", PowerModel.fixed(50.0), "CH",
                                clock=VirtualClock())
        stop_session(session)
        with pytest.raises(TrackingError):
            stop_session(session)

    def test_inference_count_only_on_inference_stage(self):
        clock = VirtualClock()
        session = start_session("inference", PowerModel.fixed(50.0), "CH", clock=clock)
        clock.advance(10.0)
        rec = stop_session(session, inference_count=25)
        assert rec.inference_count == 25
        other = start_session("operational", PowerModel.fixed(50.0), "CH",
                              clock=VirtualClock())
        with pytest.raises(ValidationError):
            stop_session(other, inference_count=25)

    def test_failed_runs_keep_their_carbon(self):
        clock = VirtualClock()
        session = start_session("developmental", PowerModel.fixed(50.0), "CH",
                                clock=clock)
        clock.advance(60.0)
        rec = stop_session(session, failed=True)
        assert rec.failed
        assert rec.emissions_kg > 0.0

    def test_records_are_immutable(self):
        rec = run_fixed_session(50.0, 10.0, "CH")
        with pytest.raises(AttributeError):
            rec.emissions_kg = 0.0


class FakeCounter:
    """Cumulative-joules stub standing in for hardware counters."""

    def __init__(self, watts=20.0):
        self.watts = watts
        self.readings = []

    def __call__(self):
        # 1 "second" of fake elapsed time per poll
        self.readings.append((self.readings[-1] if self.readings else 0.0) + self.watts)
        return self.readings[-1]


class TestSampledSessions:
    def test_exclusive_access(self, monkeypatch):
        monkeypatch.setattr(tracking, "_hardware_energy_reader", lambda: FakeCounter())
        first = start_session("operational", PowerModel.sampled(), "CH")
        try:
            with pytest.raises(TrackingError, match="already active"):
                start_session("operational", PowerModel.sampled(), "CH")
        finally:
            rec = stop_session(first)
        assert rec.power_trace is not None
        # released: a new sampled session may start again
        second = start_session("operational", PowerModel.sampled(), "CH")
        stop_session(second)

    def test_no_counters_available(self, monkeypatch):
        monkeypatch.setattr(tracking, "_hardware_energy_reader", lambda: None)
        with pytest.raises(TrackingError, match="rated:<W> or fixed:<W>"):
            start_session("operational", PowerModel.sampled(), "CH")

    def test_abandon_releases_sampler(self, monkeypatch):
        monkeypatch.setattr(tracking, "_hardware_energy_reader", lambda: FakeCounter())
        session = start_session("operational", PowerModel.sampled(), "CH")
        session.abandon()
        follow_up = start_session("operational", PowerModel.sampled(), "CH")
        stop_session(follow_up)

    def test_energy_is_the_counter_difference(self, monkeypatch):
        counter = FakeCounter(watts=10.0)
        monkeypatch.setattr(tracking, "_hardware_energy_reader", lambda: counter)
        monkeypatch.setattr(tracking, "POLL_INTERVAL_S", 0.1)
        session = start_session("operational", PowerModel.sampled(), "CH")
        deadline = time.monotonic() + 10.0
        for polls, watts in ((2, 100.0), (4, 1.0)):
            while len(counter.readings) < polls and time.monotonic() < deadline:
                time.sleep(0.01)
            counter.watts = watts  # the power steps
        rec = stop_session(session)
        assert len(counter.readings) >= 5
        # the trapezoid over the (t, W) trace would not give this back
        delta = counter.readings[-1] - counter.readings[0]
        assert rec.energy_kwh == pytest.approx(delta / 3.6e6, rel=1e-12)
        assert rec.power_trace is not None

    def test_sampled_refuses_custom_clock(self, monkeypatch):
        monkeypatch.setattr(tracking, "_hardware_energy_reader", lambda: FakeCounter())
        with pytest.raises(TrackingError):
            EmissionSession("operational", PowerModel.sampled(), "CH",
                            clock=VirtualClock())


class TestTrapezoid:
    @given(n=st.integers(2, 200), watts=st.floats(1.0, 500.0),
           span=st.floats(0.5, 5000.0))
    @settings(max_examples=150, deadline=None)
    def test_constant_trace_equals_p_times_t(self, n, watts, span):
        times = [span * i / (n - 1) for i in range(n)]
        trace = [(t, watts) for t in times]
        expected = watts * span / 3.6e6
        assert math.isclose(trapezoid_energy_kwh(trace), expected, rel_tol=1e-9)

    def test_short_trace_rejected(self):
        with pytest.raises(TrackingError):
            trapezoid_energy_kwh([(0.0, 50.0)])

    def test_time_reversal_rejected(self):
        with pytest.raises(TrackingError):
            trapezoid_energy_kwh([(0.0, 50.0), (2.0, 50.0), (1.0, 50.0)])


class TestWhatIf:
    def test_same_region_is_identity(self):
        rec = run_fixed_session(50.0, 7200.0, "CH")
        assert what_if_region(rec, "CH") == rec

    def test_ratio_is_exact(self):
        rec = run_fixed_session(50.0, 7200.0, "CH")
        za = what_if_region(rec, "ZA")
        assert za.emissions_kg == rec.emissions_kg * (707.69 / 34.84)
        assert za.energy_kwh == rec.energy_kwh
        assert za.duration_s == rec.duration_s

    def test_ch_record_maps_to_published_za_value(self):
        rec = run_fixed_session(50.0, 7200.0, "CH")  # 3.484e-3 kg
        za = what_if_region(rec, "ZA")
        assert za.emissions_kg == pytest.approx(7.0769e-2, rel=1e-12)

    def test_round_trip_recovers_original(self):
        rec = run_fixed_session(50.0, 1234.0, "NZ")
        back = what_if_region(what_if_region(rec, "ZA"), "NZ")
        assert back.emissions_kg == pytest.approx(rec.emissions_kg, rel=1e-12)

    def test_unknown_target(self):
        rec = run_fixed_session(50.0, 10.0, "CH")
        with pytest.raises(RegionError):
            what_if_region(rec, "XX")

    def test_unknown_source_cannot_rescale(self):
        rec = EmissionRecord(stage="operational", label="import", energy_kwh=0.0,
                             duration_s=1.0, region="unknown", emissions_kg=1e-3)
        with pytest.raises(RegionError):
            what_if_region(rec, "CH")


class TestVirtualClock:
    def test_charge_work_advances_virtual_only(self):
        clock = VirtualClock()
        charge_work(clock, 1000)
        assert clock.now() == pytest.approx(1000 * tracking.VIRTUAL_SECONDS_PER_POINT)

        class Frozen:
            def now(self):
                return 42.0

        frozen = Frozen()
        charge_work(frozen, 10**9)  # silently ignored for non-virtual clocks
        assert frozen.now() == 42.0

    def test_cannot_rewind(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_deterministic_emissions_across_threads(self):
        # same nominal work on two different virtual clocks -> same record
        results = []

        def work():
            results.append(run_fixed_session(50.0, 3600.0, "CH").emissions_kg)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
