"""Command-line interface tests.

Everything runs in process through ecol2.cli.main so exit codes and
stdout/stderr can be asserted directly; the track subcommand still spawns
its child as a real subprocess, which is the behavior under test.
"""

import csv
import json

import pytest

from ecol2 import LedgerStore, aggregate
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

    def test_corrupt_ledger_is_runtime_failure(self, tmp_path, capsys):
        stage_dir = tmp_path / "Emissions" / "Operational"
        stage_dir.mkdir(parents=True)
        (stage_dir / "bad.json").write_text("not json at all")
        code, _, err = run_cli(
            capsys, "score", "--ledger", str(tmp_path), "--r", "1e-2"
        )
        assert code == 2
        assert "bad.json" in err


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

    def test_missing_run_file_rejected(self, tmp_path, capsys):
        build_fixture_store(tmp_path / "bare", (0.0, 1e-3, 1e-4, 1e-6))
        code, _, err = run_cli(capsys, "report", str(tmp_path / "bare"))
        assert code == 1
        assert "run.json" in err

    @pytest.mark.parametrize("content", ("{not json", '{"workload": "advection"}',
                                         '{"r": null}', '["r", 0.01]'))
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


class TestOutputFormats:
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
