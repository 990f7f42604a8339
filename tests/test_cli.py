"""Command-line interface tests.

Everything runs in process through ecol2.cli.main so exit codes and
stdout/stderr can be asserted directly; the track subcommand still spawns
its child as a real subprocess, which is the behavior under test.
"""

import csv
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ecol2
from ecol2 import LedgerStore, aggregate, cli
from ecol2.cli import _build_parser, main

from conftest import GOLDEN_ROWS, build_fixture_store, make_record, write_fields_for_r

CH = 34.84
ZA = 707.69

# kdv-fno golden row: the score the CLI must reproduce end to end
KDV_FNO = next(row for row in GOLDEN_ROWS if row[0] == "kdv-fno")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out), err


class TestTrack:
    def track(self, capsys, ledger, *extra, stage="operational", child=("python3", "-c", "pass")):
        return run_cli(
            capsys,
            "track", "--stage", stage, "--region", "CH",
            "--ledger", str(ledger), *extra, "--", *child,
        )

    def test_records_consistent_emissions(self, tmp_path, capsys):
        code, out, err = self.track(capsys, tmp_path)
        assert code == 0
        assert "recorded operational" in out
        (rec,) = LedgerStore(tmp_path).read_stage("operational")
        assert rec.region == "CH"
        assert rec.duration_s > 0
        # fixed 50 W model: energy and emissions follow from the wall time
        assert rec.energy_kwh == pytest.approx(50.0 * rec.duration_s / 3.6e6, rel=1e-9)
        assert rec.emissions_kg == pytest.approx(rec.energy_kwh * CH / 1000.0, rel=1e-12)
        assert not rec.failed

    def test_child_exit_code_propagates(self, tmp_path, capsys):
        code, _, _ = self.track(
            capsys, tmp_path, child=("python3", "-c", "import sys; sys.exit(3)")
        )
        assert code == 3
        (rec,) = LedgerStore(tmp_path).read_stage("operational")
        assert rec.failed
        assert rec.emissions_kg > 0  # failed runs still burned the energy

    def test_stage_routing(self, tmp_path, capsys):
        code, _, _ = self.track(capsys, tmp_path, stage="embodied")
        assert code == 0
        assert (tmp_path / "Emissions" / "Embodied").is_dir()
        assert LedgerStore(tmp_path).read_stage("operational") == []

    def test_label_defaults_to_command_name(self, tmp_path, capsys):
        self.track(capsys, tmp_path)
        (rec,) = LedgerStore(tmp_path).read_stage("operational")
        assert rec.label == "python3"

    def test_explicit_label(self, tmp_path, capsys):
        self.track(capsys, tmp_path, "--label", "warmup")
        (rec,) = LedgerStore(tmp_path).read_stage("operational")
        assert rec.label == "warmup"

    def test_unknown_stage_rejected(self, tmp_path, capsys):
        code, _, err = self.track(capsys, tmp_path, stage="training")
        assert code == 1
        assert "--stage" in err
        assert not (tmp_path / "Emissions").exists()

    def test_no_command_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "track", "--stage", "operational", "--region", "CH",
            "--ledger", str(tmp_path),
        )
        assert code == 1
        assert "no command" in err

    def test_missing_region_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ECOL2_REGION", raising=False)
        code, _, err = run_cli(
            capsys, "track", "--stage", "operational", "--ledger", str(tmp_path),
            "--", "python3", "-c", "pass",
        )
        assert code == 1
        assert "--region" in err

    def test_region_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ECOL2_REGION", "NZ")
        code, _, _ = run_cli(
            capsys, "track", "--stage", "operational", "--ledger", str(tmp_path),
            "--", "python3", "-c", "pass",
        )
        assert code == 0
        (rec,) = LedgerStore(tmp_path).read_stage("operational")
        assert rec.region == "NZ"

    def test_unrunnable_command_leaves_no_record(self, tmp_path, capsys):
        code, _, err = self.track(
            capsys, tmp_path, child=("definitely-not-a-binary-zz",)
        )
        assert code == 1
        assert "cannot run" in err
        assert LedgerStore(tmp_path).read_stage("operational") == []

    def test_undefined_flag_before_the_child_is_named(self, tmp_path, capsys):
        marker = tmp_path / "child-ran"
        for argv in (
            ("--alpha", "10", "--stage", "operational"),
            ("--stage", "operational", "--alpha", "10"),
        ):
            code, _, err = run_cli(
                capsys, "track", *argv, "--region", "CH", "--ledger", str(tmp_path),
                "--", "python3", "-c", f"open({str(marker)!r}, 'w')",
            )
            assert code == 1
            assert "unrecognized arguments: --alpha" in err
        assert not marker.exists()
        assert not (tmp_path / "Emissions").exists()

    @pytest.mark.parametrize("option", ("power", "regions"))
    def test_non_finite_input_rejected_before_the_child(self, tmp_path, capsys, option):
        regions = tmp_path / "extra.csv"
        regions.write_text("iso_code,intensity_g_per_kwh\nXX,inf\n")
        flags, message = {
            "power": (("--power", "rated:inf"), "needs finite watts > 0"),
            "regions": (("--regions", str(regions)), f"{regions}:2: intensity must be finite"),
        }[option]
        marker = tmp_path / "child-ran"
        code, _, err = self.track(
            capsys, tmp_path, *flags,
            child=("python3", "-c", f"open({str(marker)!r}, 'w')"),
        )
        assert code == 1
        assert message in err
        assert not marker.exists()
        assert not (tmp_path / "Emissions").exists()

    def test_everything_after_the_separator_reaches_the_child(self, tmp_path, capsys):
        argv_file = tmp_path / "argv.json"
        script = f"import json, sys; open({str(argv_file)!r}, 'w').write(json.dumps(sys.argv[1:]))"
        code, _, err = self.track(
            capsys, tmp_path,
            child=("python3", "-c", script, "--stage", "embodied", "--", "-x"),
        )
        assert code == 0, err
        assert json.loads(argv_file.read_text()) == ["--stage", "embodied", "--", "-x"]
        assert len(LedgerStore(tmp_path).read_stage("operational")) == 1

    @pytest.mark.parametrize("signum", (signal.SIGINT, signal.SIGTERM),
                             ids=("SIGINT", "SIGTERM"))
    def test_interrupted_child_is_recorded_as_failed(self, tmp_path, signum):
        marker = tmp_path / "child-started"
        ledger = tmp_path / "ledger"
        child = f"import time; open({str(marker)!r}, 'w').close(); time.sleep(60)"
        env = dict(os.environ, PYTHONPATH=str(Path(ecol2.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ecol2.cli", "track", "--stage", "operational",
             "--region", "CH", "--ledger", str(ledger),
             "--", sys.executable, "-c", child],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert marker.exists(), "tracked child never started"
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=30.0)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 128 + signum, err.decode()
        assert b"recorded operational" in out
        (rec,) = LedgerStore(ledger).read_stage("operational")
        assert rec.failed
        assert rec.duration_s > 0

    def test_child_gets_time_to_clean_up_after_a_terminal_interrupt(self, tmp_path):
        # ^C at a terminal signals the whole foreground group, track and its
        # child alike; a child that saves its work on SIGINT must get to
        # finish before track kills it
        marker = tmp_path / "child-started"
        saved = tmp_path / "child-saved"
        ledger = tmp_path / "ledger"
        child = (
            "import signal, sys, time\n"
            "def save(signum, frame):\n"
            "    time.sleep(0.05)\n"
            f"    open({str(saved)!r}, 'w').close()\n"
            "    sys.exit(0)\n"
            "signal.signal(signal.SIGINT, save)\n"
            f"open({str(marker)!r}, 'w').close()\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ecol2.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ecol2.cli", "track", "--stage", "operational",
             "--region", "CH", "--ledger", str(ledger),
             "--", sys.executable, "-c", child],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert marker.exists(), "tracked child never started"
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=30.0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert proc.returncode == 128 + signal.SIGINT, err.decode()
        assert saved.exists(), "child was killed before its SIGINT handler finished"
        (rec,) = LedgerStore(ledger).read_stage("operational")
        assert rec.failed

    @pytest.mark.parametrize("signum", (signal.SIGINT, signal.SIGTERM),
                             ids=("SIGINT", "SIGTERM"))
    def test_signal_while_the_child_starts_kills_and_reaps_it(
            self, tmp_path, capsys, monkeypatch, signum):
        # the signal lands after the child exists but before Popen returns
        # its handle, the window in which nothing else could reach the child
        started = []

        class SignalledPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)
                os.kill(os.getpid(), signum)

        monkeypatch.setattr(cli.subprocess, "Popen", SignalledPopen)
        try:
            code, out, err = self.track(
                capsys, tmp_path, child=(sys.executable, "-c", "import time; time.sleep(60)"))
            (child,) = started
            assert code == 128 + signum, err
            assert "recorded operational" in out
            (rec,) = LedgerStore(tmp_path).read_stage("operational")
            assert rec.failed
            # reaped: the handle holds the exit status of the kill
            assert child.returncode == -signal.SIGKILL
        finally:
            for proc in started:
                proc.kill()
                proc.wait()

    def test_records_count_toward_a_later_score(self, tmp_path, capsys):
        (bench,), _ = run_json(
            capsys, "bench", "advection", "--region", "CH", "--ledger", str(tmp_path)
        )
        code, _, err = self.track(capsys, tmp_path, "--label", "tuning",
                                  stage="developmental")
        assert code == 0, err
        (tracked,) = [rec for rec in LedgerStore(tmp_path).read_stage("developmental")
                      if rec.label == "tuning"]
        (row,), _ = run_json(
            capsys, "score", "--ledger", str(tmp_path), "--r", repr(bench["r"])
        )
        assert row["c_developmental"] == pytest.approx(
            bench["c_developmental"] + tracked.emissions_kg, rel=1e-12
        )


class TestScore:
    def fixture_store(self, root):
        _, r, ce, cd, co, ci, reported = KDV_FNO
        build_fixture_store(root, (ce, cd, co, ci))
        return r, reported

    def test_golden_score_from_fields(self, tmp_path, capsys):
        r, reported = self.fixture_store(tmp_path)
        pred, ref = write_fields_for_r(tmp_path, r)
        rows, _ = run_json(
            capsys, "score", "--ledger", str(tmp_path),
            "--prediction", str(pred), "--reference", str(ref),
        )
        (row,) = rows
        assert row["r"] == pytest.approx(r, rel=1e-12)
        assert row["ecol2"] == pytest.approx(reported, abs=5e-4)
        assert row["inaccurate"] is False
        assert row["c_total"] == pytest.approx(sum(KDV_FNO[2:6]), rel=1e-12)

    def test_r_flag_matches_field_path(self, tmp_path, capsys):
        r, _ = self.fixture_store(tmp_path)
        pred, ref = write_fields_for_r(tmp_path, r)
        via_fields, _ = run_json(
            capsys, "score", "--ledger", str(tmp_path),
            "--prediction", str(pred), "--reference", str(ref),
        )
        via_r, _ = run_json(
            capsys, "score", "--ledger", str(tmp_path), "--r", repr(r)
        )
        assert via_r[0]["ecol2"] == via_fields[0]["ecol2"]
        # field metrics are only available on the field path
        assert via_fields[0]["rmse"] is not None
        assert via_r[0]["rmse"] is None

    def test_multiple_predictions_are_averaged(self, tmp_path, capsys):
        self.fixture_store(tmp_path)
        ref = tmp_path / "ref.csv"
        ref.write_text("1.0\n2.0\n3.0\n")
        hi = tmp_path / "hi.csv"
        hi.write_text("1.5\n2.5\n3.5\n")
        lo = tmp_path / "lo.csv"
        lo.write_text("0.5\n1.5\n2.5\n")
        # run mean equals the reference, so the error clamps at the floor
        rows, err = run_json(
            capsys, "score", "--ledger", str(tmp_path),
            "--prediction", str(hi), "--prediction", str(lo),
            "--reference", str(ref),
        )
        assert rows[0]["r"] == 0.0
        assert "clamped" in err

    def test_identical_fields_warn_and_clamp(self, tmp_path, capsys):
        self.fixture_store(tmp_path)
        pred, ref = write_fields_for_r(tmp_path, 0.0)
        rows, err = run_json(
            capsys, "score", "--ledger", str(tmp_path),
            "--prediction", str(pred), "--reference", str(ref),
        )
        assert "clamped" in err
        assert 0.0 < rows[0]["ecol2"] < 1.0

    def test_empty_ledger_scores_numerator(self, tmp_path, capsys):
        # no emission records at all: the score collapses to the accuracy term
        rows, err = run_json(
            capsys, "score", "--ledger", str(tmp_path), "--r", "4.78e-4"
        )
        assert rows[0]["c_total"] == 0.0
        assert rows[0]["ecol2"] == pytest.approx(0.8099154016974480, rel=1e-12)
        assert "numerator" in err

    def test_alpha_one_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path), "--r", "1e-2",
            "--alpha", "1",
        )
        assert code == 1
        assert "alpha" in err

    def test_missing_inputs_message(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "score", "--ledger", str(tmp_path))
        assert code == 1
        assert "--prediction" in err and "--reference" in err

    def test_r_and_fields_exclusive(self, tmp_path, capsys):
        pred, ref = write_fields_for_r(tmp_path, 1e-2)
        code, _, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path), "--r", "1e-2",
            "--prediction", str(pred), "--reference", str(ref),
        )
        assert code == 1
        assert "exclusive" in err

    def test_bad_inference_count_on_disk_is_runtime_failure(self, tmp_path, capsys):
        store = LedgerStore(tmp_path)
        store.record(make_record("inference", 1e-4, inference_count=1))
        bad = Path(store.record(make_record("inference", 1e-4, label="bad")))
        data = json.loads(bad.read_text())
        data["inference_count"] = -1
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path), "--r", "0.01"
        )
        assert code == 2
        assert str(bad) in err
        assert out == ""

    def test_stacked_prediction_against_one_row_reference_rejected(
        self, tmp_path, capsys
    ):
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(",".join(["1.0"] * 8) for _ in range(5)) + "\n")
        ref = tmp_path / "ref.csv"
        ref.write_text(",".join(["2.0"] * 8) + "\n")
        code, out, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path),
            "--prediction", str(pred), "--reference", str(ref),
        )
        assert code == 1
        assert "(5, 8)" in err and "(8,)" in err
        assert out == ""

    def test_shape_mismatch_names_the_files(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        pred.write_text("1.0\n2.0\n")
        ref = tmp_path / "r.csv"
        ref.write_text("1.0\n2.0\n3.0\n")
        code, out, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path),
            "--prediction", str(pred), "--reference", str(ref),
        )
        assert code == 1
        assert err == (f"error: {pred} against {ref}: "
                       "prediction shape (2,) does not match reference (3,)\n")
        assert out == ""

    def test_zero_norm_reference_names_the_files(self, tmp_path, capsys):
        preds = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        for pred in preds:
            pred.write_text("1.0\n2.0\n")
        ref = tmp_path / "r.csv"
        ref.write_text("0.0\n0.0\n")
        code, out, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path),
            "--prediction", str(preds[0]), "--prediction", str(preds[1]),
            "--reference", str(ref),
        )
        assert code == 1
        assert err == (f"error: {preds[0]}, {preds[1]} against {ref}: "
                       "reference field has zero norm; relative error undefined\n")
        assert out == ""

    def test_stored_n_infer_sets_c_total(self, tmp_path, capsys):
        # c_total does not depend on r, so a given r must not drop the
        # stored run's inference count
        ledger = str(tmp_path)
        bench, _ = run_json(capsys, "bench", "advection", "--region", "CH",
                            "--n-infer", "3", "--ledger", ledger)
        scored, _ = run_json(capsys, "score", "--ledger", ledger, "--r", "0.0123")
        regions, _ = run_json(capsys, "regions", "CH", "--ledger", ledger,
                              "--r", "0.0123")
        assert scored[0]["c_total"] == regions[0]["c_total"] == bench[0]["c_total"]

    def test_corrupt_run_file_rejected(self, tmp_path, capsys):
        self.fixture_store(tmp_path)
        (tmp_path / "run.json").write_text('{"r": 1e-2,')
        code, out, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        assert code == 1
        assert str(tmp_path / "run.json") in err
        assert out == ""

    def test_corrupt_ledger_is_runtime_failure(self, tmp_path, capsys):
        stage_dir = tmp_path / "Emissions" / "Operational"
        stage_dir.mkdir(parents=True)
        (stage_dir / "bad.json").write_text("not json at all")
        code, _, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        assert code == 2
        assert "bad.json" in err


# record-file values of the wrong JSON type; each loaded before as
# something else (true as 1 kg, "5" as 5.0, "no" as a failed run) or, for
# a list region, made `regions` die with a TypeError
WRONG_TYPES = [
    ("emissions_kg", True),
    ("energy_kwh", "5"),
    ("duration_s", False),
    ("failed", "no"),
    ("failed", 0),
    ("stage", ["operational"]),
    ("label", 7),
    ("region", ["CH"]),
    ("power_trace", [[0.0, "50"]]),
    ("power_trace", [[0.0, True]]),
]


class TestWrongTypesOnDisk:
    def spoil(self, root, field, value):
        store = LedgerStore(root)
        store.record(make_record("operational", 1e-4, region="CH"))
        path = Path(store.record(make_record("operational", 1e-4, region="CH",
                                             label="spoiled")))
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("field, value", WRONG_TYPES)
    def test_score_names_the_file(self, tmp_path, capsys, field, value):
        path = self.spoil(tmp_path, field, value)
        code, out, err = run_cli(capsys, "score", "--ledger", str(tmp_path), "--r", "0.01")
        assert code == 2
        assert err.startswith(f"error: corrupt record file {path}: ")
        assert out == ""

    @pytest.mark.parametrize("field, value", WRONG_TYPES)
    def test_regions_names_the_file(self, tmp_path, capsys, field, value):
        path = self.spoil(tmp_path, field, value)
        code, out, err = run_cli(capsys, "regions", "CH,ZA", "--ledger", str(tmp_path),
                                 "--r", "0.01")
        assert code == 2
        assert err.startswith(f"error: corrupt record file {path}: ")
        assert "Traceback" not in err
        assert out == ""


class TestBench:
    def bench(self, capsys, ledger, workload, *extra):
        return run_json(
            capsys, "bench", workload, "--region", "CH", "--seed", "7",
            "--ledger", str(ledger), *extra,
        )

    def test_advection_components(self, tmp_path, capsys):
        rows, _ = self.bench(capsys, tmp_path, "advection")
        (row,) = rows
        assert row["workload"] == "advection"
        assert row["seed"] == 7
        assert row["c_embodied"] == 0.0  # no dataset to build
        assert row["c_developmental"] > 0
        assert row["c_operational"] > 0
        assert row["c_inference"] > 0
        assert 0.0 < row["r"] < 0.1
        assert 0.0 < row["ecol2"] < 1.0

    def test_run_file_written(self, tmp_path, capsys):
        rows, _ = self.bench(capsys, tmp_path, "advection")
        stored = json.loads((tmp_path / "run.json").read_text())
        assert stored["r"] == rows[0]["r"]
        assert stored["ecol2"] == rows[0]["ecol2"]
        assert stored["power"] == "fixed:50"

    def test_kdv_has_all_lifecycle_stages(self, tmp_path, capsys):
        rows, _ = self.bench(capsys, tmp_path, "kdv")
        (row,) = rows
        assert row["c_embodied"] > 0  # dataset generation is charged here
        assert row["c_developmental"] > 0
        assert row["c_operational"] > 0
        assert row["c_inference"] > 0
        carbon = aggregate(LedgerStore(tmp_path))
        assert carbon.total(1) == pytest.approx(row["c_total"], rel=1e-12)

    def test_seeded_runs_are_identical(self, tmp_path, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--seed", "7",
            "--ledger", str(tmp_path / "a"), "--format", "csv",
        )
        code_b, out_b, _ = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--seed", "7",
            "--ledger", str(tmp_path / "b"), "--format", "csv",
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_sweep_alpha_rows_decrease(self, tmp_path, capsys):
        rows, _ = self.bench(
            capsys, tmp_path, "advection", "--sweep-alpha", "10,100,1000"
        )
        assert [row["alpha"] for row in rows] == [10.0, 100.0, 1000.0]
        scores = [row["ecol2"] for row in rows]
        # larger alpha weakens the error transform, so the score drops
        assert scores[0] > scores[1] > scores[2]
        assert all(0.0 < s < 1.0 for s in scores)

    def test_score_notes_go_to_stderr_in_bench_and_report(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--seed", "7",
            "--ledger", str(tmp_path), "--alpha", "5", "--beta", "0",
        )
        assert code == 0
        assert "note:" not in out
        notes = err.splitlines()
        assert [note.split(" ")[1] for note in notes] == ["alpha=5", "beta=0"]
        assert all(note.startswith("note: ") for note in notes)
        code, out, err = run_cli(capsys, "report", str(tmp_path))
        assert code == 0
        assert "note:" not in out
        assert err.splitlines() == notes

    def test_sweep_prints_each_distinct_note_once(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--seed", "7",
            "--ledger", str(tmp_path), "--beta", "0", "--sweep-alpha", "5,7",
        )
        assert code == 0
        # both rows warn that beta=0 ignores carbon; that note prints once
        assert [note.split(" ")[1] for note in err.splitlines()] == [
            "alpha=5", "beta=0", "alpha=7"
        ]

    def test_sweep_alpha_bad_value(self, tmp_path, capsys):
        # rejected before the run: nothing is solved, recorded or stored
        for i, (value, message) in enumerate((
            ("10,oops", "bad --sweep-alpha"),
            (",", "at least one value"),
            ("10,1", "alpha == 1"),
        )):
            ledger = tmp_path / str(i)
            code, out, err = run_cli(
                capsys, "bench", "advection", "--region", "CH",
                "--ledger", str(ledger), "--sweep-alpha", value,
            )
            assert code == 1
            assert message in err
            assert out == ""
            assert not (ledger / "Emissions").exists()
            assert not (ledger / "run.json").exists()

    def test_second_bench_into_a_ledger_is_refused(self, tmp_path, capsys):
        # one bench run per ledger: a second run's records would be summed
        # into the first's by every later score
        (first,), _ = self.bench(capsys, tmp_path, "advection")
        count = sum(len(recs) for recs in LedgerStore(tmp_path).read_all().values())
        run_file = (tmp_path / "run.json").read_bytes()
        code, out, err = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--seed", "7",
            "--ledger", str(tmp_path), "--format", "json",
        )
        assert code == 1
        assert str(tmp_path / "run.json") in err
        assert out == ""
        assert sum(len(recs) for recs in LedgerStore(tmp_path).read_all().values()) == count
        assert (tmp_path / "run.json").read_bytes() == run_file
        (row,), _ = run_json(capsys, "report", str(tmp_path))
        assert row["r"] == first["r"]
        assert row["c_total"] == pytest.approx(first["c_total"], rel=1e-12)
        assert row["ecol2"] == pytest.approx(first["ecol2"], rel=1e-12)

    @pytest.mark.parametrize("left", ("record", "dataset"))
    def test_interrupted_bench_output_in_a_ledger_is_refused(self, tmp_path, capsys, left):
        # an interrupted bench leaves stage records, or its dataset, but no
        # run file; a rerun's records would be summed with them
        if left == "record":
            held = LedgerStore(tmp_path).record(
                make_record("embodied", 1e-7, label="dataset"))
        else:
            held = tmp_path / "dataset"
            held.mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--ledger", str(tmp_path)
        )
        assert code == 1
        assert str(held) in err
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_run_file_publish_leaves_no_run_file(self, tmp_path, capsys, monkeypatch):
        link = os.link

        def refuse_run_file(src, dst):
            if os.path.basename(dst) == "run.json":
                raise PermissionError(13, "Permission denied", dst)
            return link(src, dst)

        monkeypatch.setattr(os, "link", refuse_run_file)
        code, out, err = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--ledger", str(tmp_path)
        )
        assert code == 2
        assert err.startswith(f"error: cannot write the run file to ledger {tmp_path}: ")
        assert out == ""
        assert not (tmp_path / "run.json").exists()
        assert list(tmp_path.rglob("*.json.tmp")) == []

    def test_run_file_written_meanwhile_is_not_replaced(self, tmp_path, capsys, monkeypatch):
        # another writer's run file lands while this bench runs: it is kept
        # as it is, and this run fails
        theirs = b'{"r": 0.5, "workload": "wave"}\n'
        run_pipeline = cli.run_pipeline

        def run_and_collide(*args, **kwargs):
            result = run_pipeline(*args, **kwargs)
            (tmp_path / "run.json").write_bytes(theirs)
            return result

        monkeypatch.setattr(cli, "run_pipeline", run_and_collide)
        code, out, err = run_cli(
            capsys, "bench", "advection", "--region", "CH", "--ledger", str(tmp_path)
        )
        assert code == 2
        assert str(tmp_path / "run.json") in err
        assert out == ""
        assert (tmp_path / "run.json").read_bytes() == theirs
        assert list(tmp_path.rglob("*.json.tmp")) == []

    def test_unpublished_record_does_not_block_bench(self, tmp_path, capsys):
        # readers skip a writer's *.json.tmp, and so does the check
        stage_dir = LedgerStore(tmp_path).stage_dir("embodied")
        stage_dir.mkdir(parents=True)
        (stage_dir / "1-dataset.1-2.json.tmp").write_text("{")
        rows, _ = self.bench(capsys, tmp_path, "advection")
        assert rows[0]["workload"] == "advection"

    @pytest.mark.parametrize("workload", ("kdv", "advection"))
    def test_negative_seed_rejected(self, tmp_path, capsys, workload):
        ledger = tmp_path / "ledger"
        code, out, err = run_cli(
            capsys, "bench", workload, "--region", "CH", "--seed", "-1",
            "--ledger", str(ledger),
        )
        assert code == 1
        assert "--seed" in err
        assert out == ""
        assert not ledger.exists()

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "bench", "burgers", "--region", "CH", "--ledger", str(tmp_path)
        )
        assert code == 1
        assert "burgers" in err

    def test_missing_region_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ECOL2_REGION", raising=False)
        code, _, err = run_cli(
            capsys, "bench", "advection", "--ledger", str(tmp_path)
        )
        assert code == 1
        assert "--region" in err


# charged carbon of `bench <workload> --seed 0 --power fixed:50 --region CH`:
# (c_embodied, c_developmental, c_operational, c_inference, c_total) and the
# record count of each stage directory.  These follow from the work each
# stage is charged on the virtual clock, not from the floating-point
# rounding of the solves, so they stay fixed while a solver is reworked.
PINNED_CARBON = {
    "advection": ((0.0, 2.452736e-08, 7.358208e-08, 1.2387555555555563e-08,
                   1.1049699555555556e-07), (0, 2, 1, 1)),
    "reaction": ((0.0, 9.197759999999999e-09, 1.226368e-08, 1.2387555555555553e-08,
                  3.384899555555555e-08), (0, 2, 1, 1)),
    "wave": ((0.0, 2.452736e-08, 7.358208e-08, 1.2387555555555563e-08,
              1.1049699555555556e-07), (0, 2, 1, 1)),
    "kdv": ((6.131840000000001e-07, 1.532960000000001e-07, 3.065920000000004e-08,
             4.8388888888888944e-09, 8.019780888888891e-07), (2, 2, 1, 1)),
    "ks": ((5.3960192e-07, 1.410323200000001e-07, 3.065920000000004e-08,
            1.238755555555559e-08, 7.236809955555556e-07), (2, 2, 1, 1)),
}


@pytest.mark.parametrize("workload", sorted(PINNED_CARBON))
def test_charged_carbon_is_pinned(tmp_path, capsys, workload):
    carbon, counts = PINNED_CARBON[workload]
    rows, _ = run_json(
        capsys, "bench", workload, "--seed", "0", "--power", "fixed:50",
        "--region", "CH", "--ledger", str(tmp_path),
    )
    (row,) = rows
    keys = ("c_embodied", "c_developmental", "c_operational", "c_inference", "c_total")
    assert tuple(row[k] for k in keys) == carbon
    stage_dirs = ("Embodied", "Developmental", "Operational", "Inference")
    found = tuple(
        len(list((tmp_path / "Emissions" / d).glob("*.json"))) for d in stage_dirs
    )
    assert found == counts


class TestRegions:
    INTENSITY_ORDER = ("CH", "NZ", "GB", "US", "AE", "ZA")

    def seed_store(self, root):
        store = LedgerStore(root)
        store.record(make_record(
            "operational", 3.484e-3, region="CH",
            energy_kwh=0.1, duration_s=7200.0,
        ))
        store.record(make_record(
            "inference", 1e-6, region="CH",
            energy_kwh=1e-5, duration_s=2.0,
        ))
        return store

    def test_ordering_follows_intensity(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        rows, _ = run_json(
            capsys, "regions", *self.INTENSITY_ORDER,
            "--ledger", str(tmp_path), "--r", "1e-2",
        )
        assert [row["region"] for row in rows] == list(self.INTENSITY_ORDER)
        totals = [row["c_total"] for row in rows]
        assert totals == sorted(totals)
        scores = [row["ecol2"] for row in rows]
        assert scores == sorted(scores, reverse=True)  # more carbon, lower score
        assert len({row["duration_s"] for row in rows}) == 1  # moving changes nothing but carbon

    def test_same_region_is_identity(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        rows, _ = run_json(
            capsys, "regions", "CH", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        assert rows[0]["c_operational"] == 3.484e-3
        assert rows[0]["c_inference"] == 1e-6

    def test_za_scales_by_intensity_ratio(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        rows, _ = run_json(
            capsys, "regions", "CH,ZA", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        ch, za = rows
        assert za["c_operational"] == pytest.approx(
            ch["c_operational"] * ZA / CH, rel=1e-12
        )

    def test_r_read_from_stored_run(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"r": 1e-2}))
        stored, _ = run_json(capsys, "regions", "CH", "--ledger", str(tmp_path))
        explicit, _ = run_json(
            capsys, "regions", "CH", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        assert stored == explicit

    def test_stored_run_parameters_score_the_row(self, tmp_path, capsys):
        # the row means what bench's and report's rows mean on the same ledger
        ledger = str(tmp_path)
        bench, _ = run_json(capsys, "bench", "advection", "--region", "CH",
                            "--alpha", "10", "--ledger", ledger)
        regions, _ = run_json(capsys, "regions", "CH", "--ledger", ledger)
        report, _ = run_json(capsys, "report", ledger)
        assert bench[0]["ecol2"] == regions[0]["ecol2"] == report[0]["ecol2"]
        assert regions[0]["ecol2"] == 0.9701484505300683
        # a flag given on the command line overrides the stored value
        given, _ = run_json(capsys, "regions", "CH", "--ledger", ledger,
                            "--alpha", "100")
        assert given[0]["ecol2"] != regions[0]["ecol2"]
        # a given r leaves the stored parameters in force
        explicit, _ = run_json(capsys, "regions", "CH", "--ledger", ledger,
                               "--r", repr(bench[0]["r"]))
        assert explicit == regions
        scored, _ = run_json(capsys, "score", "--ledger", ledger,
                             "--r", repr(bench[0]["r"]))
        # every column score shares with bench, but the error norms it was
        # not given, reads the same
        shared = set(scored[0]) - {"rmse", "max_error", "mae"}
        assert shared <= set(bench[0])
        assert {k: scored[0][k] for k in shared} == {k: bench[0][k] for k in shared}

    def test_score_note_printed_once_for_all_targets(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        code, out, err = run_cli(
            capsys, "regions", "CH,NZ,ZA", "--ledger", str(tmp_path), "--r", "1e-2",
            "--alpha", "5",
        )
        assert code == 0
        assert len(out.splitlines()) == 4  # header and three rows
        assert err == (
            "note: alpha=5 outside calibrated range [10, 1000]; "
            "bounds in (0, 1) not guaranteed\n"
        )

    def test_missing_r_rejected(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        code, _, err = run_cli(capsys, "regions", "CH", "--ledger", str(tmp_path))
        assert code == 1
        assert "--r" in err

    def test_corrupt_run_file_rejected(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        (tmp_path / "run.json").write_text('{"r": 1e-2,')
        code, _, err = run_cli(capsys, "regions", "NZ", "--ledger", str(tmp_path))
        assert code == 1
        assert str(tmp_path / "run.json") in err
        assert "Traceback" not in err

    def test_non_finite_stored_r_names_the_run_file(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        (tmp_path / "run.json").write_text('{"r": NaN}')
        code, _, err = run_cli(capsys, "regions", "NZ", "--ledger", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: {tmp_path / 'run.json'}: ")

    def test_empty_ledger_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "regions", "CH", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        assert code == 1
        assert "no emission records" in err

    def test_unknown_target_rejected(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        code, _, err = run_cli(
            capsys, "regions", "XX", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        assert code == 1
        assert "unknown region" in err

    def test_custom_registry_file(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        table = tmp_path / "extra.csv"
        table.write_text("iso_code,intensity_g_per_kwh\nXX,69.68\n")
        rows, _ = run_json(
            capsys, "regions", "CH,XX", "--ledger", str(tmp_path),
            "--r", "1e-2", "--regions", str(table),
        )
        ch, xx = rows
        # 69.68 is exactly twice the CH intensity
        assert xx["c_operational"] == pytest.approx(2 * ch["c_operational"], rel=1e-12)


class TestReport:
    # advection golden rows keyed by the model directory name to report on
    MODELS = {
        "pinns": ("adv-pinns", 0.332),
        "spinn": ("adv-spinn", 0.103),
        "pinnsformer": ("adv-pinnsformer", 0.022),
    }

    def build_roots(self, base):
        roots = []
        for name, (label, _) in self.MODELS.items():
            row = next(r for r in GOLDEN_ROWS if r[0] == label)
            root = base / name
            build_fixture_store(root, row[2:6])
            (root / "run.json").write_text(json.dumps({
                "workload": "advection",
                "r": row[1],
                "alpha": 100.0,
                "beta": 100.0,
                "n_infer": 1,
            }))
            roots.append(root)
        return roots

    def test_scores_reproduce_golden_rows(self, tmp_path, capsys):
        roots = self.build_roots(tmp_path)
        rows, _ = run_json(capsys, "report", *map(str, roots))
        assert [row["model"] for row in rows] == list(self.MODELS)
        for row, (_, expected) in zip(rows, self.MODELS.values()):
            assert row["ecol2"] == pytest.approx(expected, abs=5e-4)
            assert row["workload"] == "advection"
        scores = [row["ecol2"] for row in rows]
        assert scores[0] > scores[1] > scores[2]

    def test_single_root(self, tmp_path, capsys):
        root = self.build_roots(tmp_path)[0]
        rows, _ = run_json(capsys, "report", str(root))
        assert len(rows) == 1
        assert rows[0]["model"] == "pinns"

    def test_dot_is_named_after_the_directory(self, tmp_path, capsys, monkeypatch):
        root = self.build_roots(tmp_path)[0]
        monkeypatch.chdir(root)
        (dot,), _ = run_json(capsys, "report", ".")
        (named,), _ = run_json(capsys, "report", str(root))
        assert dot["model"] == named["model"] == "pinns"
        assert dot == named

    def test_missing_run_file_rejected(self, tmp_path, capsys):
        build_fixture_store(tmp_path / "bare", (0.0, 1e-3, 1e-4, 1e-6))
        code, _, err = run_cli(capsys, "report", str(tmp_path / "bare"))
        assert code == 1
        assert "run.json" in err

    @pytest.mark.parametrize("content", ("{not json", '{"workload": "advection"}',
                                         '{"r": null}', '["r", 0.01]', '{"r": NaN}',
                                         '{"r": 0.01, "alpha": "abc"}',
                                         '{"r": 0.01, "alpha": null}',
                                         '{"r": 0.01, "n_infer": 2.7}',
                                         '{"r": 0.01, "workload": ["kdv"]}',
                                         '{"r": 0.01, "workload": null}'))
    def test_corrupt_or_r_less_run_file_rejected(self, tmp_path, capsys, content):
        root = self.build_roots(tmp_path)[0]
        (root / "run.json").write_text(content)
        code, _, err = run_cli(capsys, "report", str(root))
        assert code == 1
        assert err.startswith(f"error: {root / 'run.json'}: ")

    def test_csv_round_trips_json_values(self, tmp_path, capsys):
        roots = self.build_roots(tmp_path)
        json_rows, _ = run_json(capsys, "report", *map(str, roots))
        code, out, _ = run_cli(
            capsys, "report", *map(str, roots), "--format", "csv"
        )
        assert code == 0
        parsed = list(csv.DictReader(out.splitlines()))
        assert len(parsed) == len(json_rows)
        for got, want in zip(parsed, json_rows):
            # csv cells hold repr(float), so the round trip is exact
            assert float(got["ecol2"]) == want["ecol2"]
            assert float(got["r"]) == want["r"]
            assert got["model"] == want["model"]


SHARED_FLAGS = {
    "--region": "NZ", "--power": "fixed:1", "--ledger": "elsewhere",
    "--alpha": "10", "--beta": "0", "--n-infer": "2", "--format": "csv",
    "--regions": "extra.csv", "--seed": "5",
}

# the shared flags each subcommand accepts: exactly those its cmd_* reads
KEPT_FLAGS = {
    "track": ("--region", "--power", "--ledger", "--regions"),
    "score": ("--ledger", "--alpha", "--beta", "--n-infer", "--format"),
    "bench": tuple(SHARED_FLAGS),
    "regions": ("--ledger", "--alpha", "--beta", "--n-infer", "--format", "--regions"),
    "report": ("--format",),
}

REMOVED_FLAGS = [
    (command, flag)
    for command, kept in KEPT_FLAGS.items()
    for flag in SHARED_FLAGS
    if flag not in kept
]


class _ReadLog:
    """Parsed arguments that log each attribute a subcommand reads."""

    def __init__(self, args):
        self._args = args
        self.reads = set()

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self._args, name)


class TestSharedFlags:
    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        ledger = str(tmp_path)
        before_flag, after_flag = {
            "track": (["--stage", "operational", "--ledger", ledger],
                      ["--", "python3", "-c", "pass"]),
            "score": (["--ledger", ledger, "--r", "1e-2"], []),
            "regions": (["CH", "--ledger", ledger, "--r", "1e-2"], []),
            "report": ([ledger], []),
        }[command]
        code, out, err = run_cli(
            capsys, command, *before_flag, flag, SHARED_FLAGS[flag], *after_flag
        )
        assert code == 1
        assert err.startswith("usage error: unrecognized arguments: ")
        assert flag in err
        assert out == ""
        assert not (tmp_path / "Emissions").exists()

    def test_every_kept_flag_is_read(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        extra = tmp_path / "extra.csv"
        extra.write_text("iso_code,intensity_g_per_kwh\nXX,1.0\n")
        values = dict(SHARED_FLAGS, **{"--ledger": ledger, "--regions": str(extra)})
        # bench first: it leaves the records and run.json the others read
        commands = {
            "bench": ["advection"],
            "track": ["--stage", "developmental"],
            "score": ["--r", "1e-2"],
            "regions": ["CH"],
            "report": [ledger],
        }
        for command, own in commands.items():
            argv = [command, *own]
            for flag in KEPT_FLAGS[command]:
                argv += [flag, values[flag]]
            if command == "track":
                argv += ["--", "python3", "-c", "pass"]
            args = _build_parser().parse_args(argv)
            log = _ReadLog(args)
            assert args.func(log) == 0, command
            capsys.readouterr()
            unread = {flag for flag in KEPT_FLAGS[command]
                      if flag[2:].replace("-", "_") not in log.reads}
            assert unread == set(), command


class TestRegionsFile:
    @pytest.mark.parametrize("command", ("regions", "bench", "track"))
    def test_missing_file_is_an_input_error(self, tmp_path, capsys, monkeypatch, command):
        ledger = tmp_path / "ledger"
        missing = tmp_path / "missing.csv"
        marker = tmp_path / "child-ran"
        monkeypatch.setattr("ecol2.cli.run_pipeline", lambda *a, **k: pytest.fail("ran"))
        argv = {
            "regions": ["regions", "CH", "--ledger", str(ledger), "--r", "1e-2"],
            "bench": ["bench", "advection", "--region", "CH", "--ledger", str(ledger)],
            "track": ["track", "--stage", "operational", "--region", "CH",
                      "--ledger", str(ledger)],
        }[command]
        argv += ["--regions", str(missing)]
        if command == "track":
            argv += ["--", "python3", "-c", f"open({str(marker)!r}, 'w')"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert str(missing) in err
        assert out == ""
        assert not ledger.exists()
        assert not marker.exists()


class TestUnwritableLedger:
    @pytest.mark.parametrize("command, workload", (
        pytest.param("bench", "advection", id="bench"),
        pytest.param("bench", "kdv", id="bench-kdv"),
        pytest.param("track", None, id="track"),
    ))
    def test_regular_file_in_the_path_is_a_ledger_error(
            self, tmp_path, capsys, monkeypatch, command, workload):
        # a regular file as a parent directory fails even for root
        blocker = tmp_path / "file"
        blocker.write_text("")
        # both commands check the ledger before the work whose records
        # would otherwise be lost: track before its child runs, bench
        # before its first solve
        marker = tmp_path / "child-ran"
        for name in ("fd_solve", "generate_dataset"):
            monkeypatch.setattr(f"ecol2.workloads.pipeline.{name}",
                                lambda *a, **k: pytest.fail("solved"))
        argv = {
            "bench": ["bench", workload, "--region", "CH", "--ledger", str(blocker / "sub")],
            "track": ["track", "--stage", "operational", "--region", "CH",
                      "--ledger", str(blocker), "--", sys.executable, "-c",
                      f"open({str(marker)!r}, 'w').close()"],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: cannot write a record to ledger ")
        assert str(blocker) in err
        assert out == ""
        assert not marker.exists()


class TestOutputFormats:
    def test_csv_headers(self, tmp_path, capsys):
        ledger = str(tmp_path)
        carbon = ["c_embodied", "c_developmental", "c_operational", "c_inference",
                  "c_total"]
        expected = {
            ("bench", "advection", "--region", "CH", "--ledger", ledger): [
                "workload", "seed", "backend", "region", "alpha", "beta", "n_infer",
                "r", "rmse", "max_error", "mae", *carbon, "ecol2", "inaccurate"],
            ("score", "--ledger", ledger, "--r", "1e-3"): [
                "r", "rmse", "max_error", "mae", *carbon, "ecol2", "inaccurate"],
            ("regions", "CH,NZ", "--ledger", ledger): [
                "region", "duration_s", "c_operational", "c_inference", "c_total",
                "ecol2"],
            ("report", ledger): ["model", "workload", "r", "c_total", "ecol2"],
        }
        for argv, header in expected.items():
            code, out, err = run_cli(capsys, *argv, "--format", "csv")
            assert code == 0, err
            assert out.splitlines()[0] == ",".join(header), argv[0]

    def score_args(self, root):
        build_fixture_store(root, (0.0, 1e-3, 1e-4, 1e-6))
        return ("score", "--ledger", str(root), "--r", "1e-2")

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        args = self.score_args(tmp_path)
        for fmt in ("table", "csv", "json"):
            _, first, _ = run_cli(capsys, *args, "--format", fmt)
            _, second, _ = run_cli(capsys, *args, "--format", fmt)
            assert first == second
            assert first.strip()

    def test_table_renders_missing_as_dash(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, *self.score_args(tmp_path))
        assert code == 0
        header, values = out.splitlines()[:2]
        assert header.split()[:4] == ["r", "rmse", "max_error", "mae"]
        assert values.split()[1:4] == ["-", "-", "-"]

    def test_csv_renders_missing_as_empty(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, *self.score_args(tmp_path), "--format", "csv")
        row = next(csv.DictReader(out.splitlines()))
        assert row["rmse"] == ""
        assert float(row["r"]) == 1e-2

    def test_json_renders_missing_as_null(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, *self.score_args(tmp_path), "--format", "json")
        (row,) = json.loads(out)
        assert row["rmse"] is None
