"""Record persistence: layout, round-trips, concurrent writers, aggregation algebra."""

import dataclasses
import errno
import fcntl
import json
import os
import re
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import ecol2.ledger as ledger
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
from ecol2.tracking import STAGES

ROOT = Path(__file__).resolve().parents[1]

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
        path = Path(store.record(make_record("operational", 2e-3, label="final solve")))
        data = json.loads(path.read_text())
        assert data["stage"] == "operational"
        assert data["emissions_kg"] == 2e-3
        assert path.name.endswith("-final-solve.json")

    def test_collision_gets_numeric_suffix(self, tmp_path):
        store = LedgerStore(tmp_path)
        names = {Path(store.record(make_record("operational", 1e-5, label="same"))).name
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
        path = Path(store.record(make_record("operational", 1e-4)))
        path.write_text("{not json")
        with pytest.raises(LedgerError, match=str(path.name)):
            store.read_stage("operational")

    def test_non_finite_value_named_in_error(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = Path(store.record(make_record("operational", 1e-4)))
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

    @pytest.mark.parametrize("count", (-1, 0, 2.5, True, "3"))
    def test_inference_count_must_be_a_positive_int(self, count):
        with pytest.raises(ValidationError, match="inference_count"):
            make_record("inference", 1e-4, inference_count=count)

    @pytest.mark.parametrize("stage", ("embodied", "developmental", "operational"))
    def test_inference_count_only_on_inference_records(self, stage):
        with pytest.raises(ValidationError, match="inference stage"):
            make_record(stage, 1e-4, inference_count=1)

    def test_inference_record_counts_one_by_default(self):
        fields = dict(stage="inference", label="x", energy_kwh=0.0,
                      duration_s=1.0, region="CH", emissions_kg=1e-4)
        assert EmissionRecord(**fields).inference_count == 1
        assert EmissionRecord.from_dict(fields).inference_count == 1

    @pytest.mark.parametrize("count", (-1, 0, 2.5, True, "2"))
    def test_bad_inference_count_on_disk_named_in_error(self, tmp_path, count):
        store = LedgerStore(tmp_path)
        path = Path(store.record(make_record("inference", 1e-4)))
        data = json.loads(path.read_text())
        data["inference_count"] = count
        path.write_text(json.dumps(data))
        with pytest.raises(LedgerError, match=str(path.name)):
            aggregate(store)

    def test_stage_mismatch_detected(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = Path(store.record(make_record("operational", 1e-4)))
        data = json.loads(path.read_text())
        data["stage"] = "embodied"
        path.write_text(json.dumps(data))
        with pytest.raises(LedgerError, match=re.escape(str(path))):
            store.read_stage("operational")

    @pytest.mark.parametrize("spoil", [
        lambda b: b"{not json",
        lambda b: b.replace(b'"fixture"', b'"fix\xffture"'),  # invalid UTF-8
        lambda b: b"\xef\xbb\xbf" + b,  # UTF-8 BOM
        lambda b: b.decode("utf-8").encode("utf-16"),
        lambda b: b.decode("utf-8").encode("utf-16-le"),
    ], ids=["json", "utf-8", "bom", "utf-16", "utf-16-le"])
    def test_undecodable_file_named_in_error(self, tmp_path, spoil):
        store = LedgerStore(tmp_path)
        path = Path(store.record(make_record("operational", 1e-4)))
        spoilt = spoil(path.read_bytes())
        assert spoilt != path.read_bytes()
        path.write_bytes(spoilt)
        with pytest.raises(LedgerError, match=re.escape(str(path))):
            store.read_stage("operational")

    def test_unreadable_entry_named_in_error(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = Path(store.record(make_record("operational", 1e-4))).with_name("x.json")
        path.mkdir()
        with pytest.raises(LedgerError, match=re.escape(str(path))):
            store.read_stage("operational")

    def test_only_json_files_are_read(self, tmp_path):
        store = LedgerStore(tmp_path)
        kept = [Path(store.record(make_record("operational", 1e-4, label=f"r{i}"))) for i in range(2)]
        stage_dir = kept[0].parent
        # what an interrupted writer leaves, and names no writer makes
        for name in ("1700000000000-x.json.tmp", "notes.txt", "upper.JSON", "json"):
            (stage_dir / name).write_text("{not json")
        assert [r.label for r in store.read_stage("operational")] == ["r0", "r1"]

    def test_record_larger_than_one_read_chunk(self, tmp_path):
        store = LedgerStore(tmp_path)
        trace = tuple((0.1 * i, 50.0 + 0.123456789 * (i % 7)) for i in range(3000))
        rec = EmissionRecord(stage="operational", label="sampled", energy_kwh=1e-3,
                             duration_s=300.0, region="CH", emissions_kg=3.484e-5,
                             power_trace=trace)
        path = Path(store.record(rec))
        assert path.stat().st_size > ledger._READ_CHUNK
        assert store.read_stage("operational") == [rec]

    def test_large_ledger_matches_a_plain_read(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(5)
        store = LedgerStore(tmp_path)
        for _ in range(1000):
            store.record(random_record(rng))
        expected = {}
        for stage, sub in STAGE_DIRS.items():
            stage_dir = tmp_path / "Emissions" / sub
            paths = sorted(stage_dir.glob("*.json"), key=lambda p: p.name)
            expected[stage] = [
                EmissionRecord.from_dict(json.loads(p.read_text(encoding="utf-8")))
                for p in paths
            ]
        assert sum(map(len, expected.values())) == 1000
        assert store.read_all() == expected
        assert aggregate(store) == summarize(
            rec for recs in expected.values() for rec in recs)


class TestAggregation:
    def test_carbon_fields_are_the_stages_in_order(self):
        # summarize builds its CarbonLedger by these names
        names = [f.name for f in dataclasses.fields(CarbonLedger)]
        assert names == [f"c_{stage}" for stage in STAGES]

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

    def test_leftover_lock_file_does_not_block(self, tmp_path):
        store = LedgerStore(tmp_path)
        store.record(make_record("operational", 1e-6))
        # what a writer killed mid-record under the old scheme left behind
        (tmp_path / "Emissions" / ".lock").write_text("12345")
        store.record(make_record("operational", 1e-6))
        assert len(store.read_stage("operational")) == 2

    def test_processes_writing_one_label_all_land(self, tmp_path):
        # each writer reports ready, then all start on one "go", so their
        # names collide within the same milliseconds
        script = (
            "import sys\n"
            "from conftest import make_record\n"
            "from ecol2 import LedgerStore\n"
            "store = LedgerStore(sys.argv[1])\n"
            "print('ready', flush=True)\n"
            "sys.stdin.readline()\n"
            "for _ in range(int(sys.argv[2])):\n"
            "    store.record(make_record('operational', 1e-6, label='same'))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")]))
        writers, per_writer = 4, 150
        procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path), str(per_writer)],
                                  env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(writers)]
        try:
            for proc in procs:
                assert proc.stdout.readline() == "ready\n", proc.stderr.read()
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            for proc in procs:
                _, err = proc.communicate(timeout=60)
                assert proc.returncode == 0, err
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        stage_dir = LedgerStore(tmp_path).stage_dir("operational")
        names = os.listdir(stage_dir)
        assert len(names) == writers * per_writer
        assert all(re.fullmatch(r"\d+-same(-\d+)?\.json", n) for n in names)
        assert len(LedgerStore(tmp_path).read_stage("operational")) == writers * per_writer

    def test_stale_tmp_and_held_lock_file_do_not_block(self, tmp_path):
        store = LedgerStore(tmp_path)
        stage_dir = store.stage_dir("operational")
        stage_dir.mkdir(parents=True)
        # what an interrupted writer leaves, under this scheme and the old one
        (stage_dir / "1700000000000-record.json.tmp").write_text("{half")
        (stage_dir / "1700000000000-record.1-1.json.tmp").write_text("{half")
        with open(tmp_path / "Emissions" / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            start = time.monotonic()
            store.record(make_record("operational", 1e-6))
            assert time.monotonic() - start < 1.0
        assert len(store.read_stage("operational")) == 1


class TestRecordFiles:
    def test_record_returns_a_str_not_interned(self, tmp_path):
        path = LedgerStore(tmp_path).record(make_record("operational", 1e-6, label="fresh"))
        # a new string equal to the name; pathlib would have interned the name
        name = "".join(os.path.basename(path))
        assert sys.intern(name) is name
        assert isinstance(path, str)

    def test_mode_is_that_of_a_plain_new_file(self, tmp_path):
        store = LedgerStore(tmp_path)
        path = store.record(make_record("operational", 1e-6))
        probe = store.stage_dir("operational") / "probe"
        with open(probe, "w"):
            pass
        assert stat.S_IMODE(os.stat(path).st_mode) == stat.S_IMODE(probe.stat().st_mode)

    def test_regular_file_in_the_path_is_a_ledger_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(LedgerError, match=re.escape(str(blocker))):
            LedgerStore(blocker / "sub").record(make_record("operational", 1e-6))

    def test_failed_link_is_a_ledger_error_and_leaves_nothing(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(errno.EPERM, "Operation not permitted", dst)

        monkeypatch.setattr(ledger.os, "link", refuse)
        store = LedgerStore(tmp_path)
        with pytest.raises(LedgerError, match=re.escape(str(tmp_path))):
            store.record(make_record("operational", 1e-6))
        assert os.listdir(store.stage_dir("operational")) == []

    def test_record_file_leaves_out_fields_at_their_defaults(self, tmp_path):
        store = LedgerStore(tmp_path)
        plain = Path(store.record(make_record("operational", 1e-6)))
        assert sorted(json.loads(plain.read_text())) == [
            "duration_s", "emissions_kg", "energy_kwh", "label", "region", "stage"]
        traced = EmissionRecord(stage="inference", label="x", energy_kwh=1e-6,
                                duration_s=2.0, region="CH", emissions_kg=1e-8,
                                power_trace=((0.0, 5.0), (2.0, 6.0)), failed=True)
        data = json.loads(Path(store.record(traced)).read_text())
        assert data["inference_count"] == 1
        assert data["power_trace"] == [[0.0, 5.0], [2.0, 6.0]]
        assert data["failed"] is True


class TestRunFile:
    ROW = {"workload": "advection", "r": 0.01, "alpha": 10.0, "n_infer": 2}

    def test_published_whole_and_read_back(self, tmp_path):
        store = LedgerStore(tmp_path)
        assert store.read_run() is None
        store.write_run(self.ROW)
        assert store.run_file.read_text() == json.dumps(self.ROW, sort_keys=True, indent=1) + "\n"
        r, params, workload = store.read_run()
        assert (r, params.alpha, params.beta, params.n_infer, workload) == (
            0.01, 10.0, 100.0, 2, "advection")
        assert os.listdir(tmp_path) == ["run.json"]

    def test_existing_run_file_is_never_replaced(self, tmp_path):
        store = LedgerStore(tmp_path)
        store.run_file.write_text("{}")
        with pytest.raises(LedgerError, match=re.escape(str(store.run_file))):
            store.write_run(self.ROW)
        assert store.run_file.read_text() == "{}"
        assert os.listdir(tmp_path) == ["run.json"]

    def test_unwritable_ledger_is_a_ledger_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(LedgerError, match=re.escape(str(blocker))):
            LedgerStore(blocker).write_run(self.ROW)

    def test_held_lists_run_file_dataset_then_records(self, tmp_path):
        store = LedgerStore(tmp_path)
        assert store.held() == []
        records = sorted(Path(store.record(make_record(stage, 1e-6)))
                         for stage in ("operational", "embodied"))
        store.dataset_dir.mkdir()
        store.write_run(self.ROW)
        assert store.held() == [store.run_file, store.dataset_dir, *records]
