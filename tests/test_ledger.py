"""Record persistence: layout, round-trips, locking, aggregation algebra."""

import fcntl
import json
import threading

import pytest

from conftest import STAGE_ORDER, make_record
from ecol2 import (
    CarbonLedger,
    EmissionRecord,
    LedgerError,
    LedgerStore,
    ValidationError,
    aggregate,
    summarize,
)

STAGE_DIRS = {
    "embodied": "Embodied",
    "developmental": "Developmental",
    "operational": "Operational",
    "inference": "Inference",
}


def random_record(rng, stage=None):
    stage = stage or STAGE_ORDER[rng.integers(0, 4)]
    trace = None
    if rng.random() < 0.3:
        times = sorted(float(t) for t in rng.uniform(0.0, 100.0, size=4))
        trace = tuple((t, float(rng.uniform(5.0, 200.0))) for t in times)
    return EmissionRecord(
        stage=stage,
        label=f"run-{rng.integers(0, 10**6)}",
        energy_kwh=float(rng.uniform(0.0, 2.0)),
        duration_s=float(rng.uniform(0.0, 1e4)),
        region=str(rng.choice(["CH", "ZA", "NZ", "unknown"])),
        emissions_kg=float(rng.uniform(0.0, 1.0)),
        inference_count=int(rng.integers(1, 50)) if stage == "inference" else None,
        power_trace=trace,
        failed=bool(rng.random() < 0.1),
    )


class TestLayout:
    def test_directory_layout(self, tmp_path):
        store = LedgerStore(tmp_path / "led")
        for stage, sub in STAGE_DIRS.items():
            store.record(make_record(stage, 1e-4))
            assert (tmp_path / "led" / "Emissions" / sub).is_dir()

    def test_files_are_one_json_document_each(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = store.record(make_record("operational", 2e-3, label="final solve"))
        data = json.loads(path.read_text())
        assert data["stage"] == "operational"
        assert data["emissions_kg"] == 2e-3
        assert path.name.endswith("-final-solve.json")

    def test_collision_gets_numeric_suffix(self, tmp_path):
        store = LedgerStore(tmp_path)
        names = {store.record(make_record("operational", 1e-5, label="same")).name
                 for _ in range(3)}
        assert len(names) == 3  # millis may collide; suffixes keep names unique

    def test_disabled_stage_reads_empty(self, tmp_path):
        store = LedgerStore(tmp_path)
        assert not store.stage_dir("embodied").is_dir()
        assert store.read_stage("embodied") == []

    def test_read_in_filename_order(self, tmp_path):
        # a collision suffix sorts before its base name: "-" < "."
        store = LedgerStore(tmp_path)
        stage_dir = store.stage_dir("operational")
        stage_dir.mkdir(parents=True)
        for name in ("1700000000002-a", "1700000000001-b", "1700000000001-b-2",
                     "1700000000000-c", "1700000000001-b-1"):
            payload = json.dumps(make_record("operational", 1e-5, label=name).to_dict())
            (stage_dir / f"{name}.json").write_text(payload, encoding="utf-8")
        assert [r.label for r in store.read_stage("operational")] == [
            "1700000000000-c", "1700000000001-b-1", "1700000000001-b-2",
            "1700000000001-b", "1700000000002-a"]

    def test_recording_enables_stage(self, tmp_path):
        store = LedgerStore(tmp_path)
        store.record(make_record("embodied", 1e-4))
        assert store.stage_dir("embodied").is_dir()


class TestRoundTrip:
    def test_field_identical_with_traces(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(0)
        store = LedgerStore(tmp_path)
        originals = [random_record(rng) for _ in range(40)]
        for rec in originals:
            store.record(rec)
        loaded = [r for recs in store.read_all().values() for r in recs]
        assert sorted(loaded, key=lambda r: r.label) == sorted(
            originals, key=lambda r: r.label)

    def test_corrupt_file_named_in_error(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = store.record(make_record("operational", 1e-4))
        path.write_text("{not json")
        with pytest.raises(LedgerError, match=str(path.name)):
            store.read_stage("operational")

    def test_non_finite_value_named_in_error(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = store.record(make_record("operational", 1e-4))
        data = json.loads(path.read_text())
        data["emissions_kg"] = float("inf")
        path.write_text(json.dumps(data))
        assert "Infinity" in path.read_text()
        with pytest.raises(LedgerError, match=str(path.name)):
            aggregate(store)

    @pytest.mark.parametrize("field", ("energy_kwh", "duration_s", "emissions_kg"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
    def test_record_rejects_non_finite_values(self, field, value):
        fields = dict(stage="operational", label="x", energy_kwh=1.0,
                      duration_s=1.0, region="CH", emissions_kg=1e-3)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            EmissionRecord(**dict(fields, **{field: value}))

    def test_stage_mismatch_detected(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = store.record(make_record("operational", 1e-4))
        data = json.loads(path.read_text())
        data["stage"] = "embodied"
        path.write_text(json.dumps(data))
        with pytest.raises(LedgerError):
            store.read_stage("operational")


class TestAggregation:
    def test_single_embodied_record(self, tmp_path):
        store = LedgerStore(tmp_path)
        store.record(make_record("embodied", 1.9e-4))
        assert aggregate(store).c_embodied == pytest.approx(1.9e-4, rel=1e-12)

    def test_stage_totals_add(self, tmp_path):
        store = LedgerStore(tmp_path)
        store.record(make_record("operational", 1e-3))
        store.record(make_record("operational", 2e-3))
        assert aggregate(store).c_operational == pytest.approx(3e-3, rel=1e-12)

    def test_reported_component_sum(self):
        # one model's four stage values; total must be their plain sum
        records = [
            make_record("embodied", 3.70e-3),
            make_record("developmental", 1.25e-2),
            make_record("operational", 3.86e-3),
            make_record("inference", 3.17e-6),
        ]
        carbon = summarize(records)
        expected = 3.70e-3 + 1.25e-2 + 3.86e-3 + 3.17e-6  # ~2.01e-2
        assert carbon.total(1) == pytest.approx(expected, rel=1e-12)

    def test_inference_component_is_per_inference(self):
        # 0.02 kg over 10 logged inferences + 0.01 over 5 -> 0.002 per inference
        records = [
            make_record("inference", 0.02, inference_count=10),
            make_record("inference", 0.01, inference_count=5),
        ]
        carbon = summarize(records)
        assert carbon.c_inference == pytest.approx(0.002, rel=1e-12)
        assert carbon.total(15) == pytest.approx(0.03, rel=1e-12)
        assert carbon.total(0) == 0.0

    def test_empty_store_is_zero(self, tmp_path):
        carbon = aggregate(LedgerStore(tmp_path))
        assert carbon == CarbonLedger()
        assert carbon.total(100) == 0.0

    def test_order_independence(self):
        import numpy as np

        rng = np.random.default_rng(3)
        records = [random_record(rng) for _ in range(60)]
        base = summarize(records)
        for seed in range(5):
            shuffled = list(records)
            np.random.default_rng(seed).shuffle(shuffled)
            assert summarize(shuffled) == base

    def test_union_additivity(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(4)
        a = [random_record(rng, stage="operational") for _ in range(20)]
        b = [random_record(rng, stage="operational") for _ in range(20)]
        joint = summarize(a + b)
        assert joint.c_operational == pytest.approx(
            summarize(a).c_operational + summarize(b).c_operational, rel=1e-12)


class TestLocking:
    def test_concurrent_writers_all_land(self, tmp_path):
        store = LedgerStore(tmp_path)
        errors = []

        def write(i):
            try:
                store.record(make_record("operational", 1e-6, label=f"w{i}"))
            except Exception as err:  # noqa: BLE001 - collected for the assert
                errors.append(err)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store.read_stage("operational")) == 16

    def test_held_lock_times_out(self, tmp_path):
        store = LedgerStore(tmp_path)
        store.record(make_record("operational", 1e-6))
        # another open file description on the lock file, as another
        # process's writer would hold
        with open(tmp_path / "Emissions" / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            with pytest.raises(LedgerError, match="locked by another writer"):
                LedgerStore(tmp_path, lock_timeout=0.2).record(
                    make_record("operational", 1e-6))
        assert len(store.read_stage("operational")) == 1

    def test_leftover_lock_file_does_not_block(self, tmp_path):
        store = LedgerStore(tmp_path)
        store.record(make_record("operational", 1e-6))
        # what a writer killed mid-record under the old scheme left behind
        (tmp_path / "Emissions" / ".lock").write_text("12345")
        LedgerStore(tmp_path, lock_timeout=0.2).record(make_record("operational", 1e-6))
        assert len(store.read_stage("operational")) == 2
