"""tools/bench_pairs.py: its summary on synthetic paired runs, and what
it records of a checkout.  Tier-1 does not run the benchmark.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("op_p50_s", "lower"), ("ops_per_s", "higher")]


def run(op_p50_s, attempted=10, failed=0):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"op_p50_s": op_p50_s, "ops_per_s": 1.0 / op_p50_s}}


def test_paired_ratios_quartiles_and_counts():
    parent = [0.30, 0.28, 0.26, 0.32, 0.29]
    change = [0.21, 0.20, 0.27, 0.22, 0.19]
    pairs = [{"parent": run(p), "change": run(c)} for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["pairs"] == summary["complete_pairs"] == 5
    assert summary["failed_op_share"] == {"parent": 0.0, "change": 0.0}

    op = summary["op_p50_s"]
    assert op["better"] == "lower"
    assert op["parent_median"] == pytest.approx(0.29)
    assert op["parent_quartiles"] == pytest.approx([0.28, 0.30])
    assert op["parent_spread"] == pytest.approx(0.02 / 0.29)
    assert op["change_median"] == pytest.approx(0.21)
    ratios = sorted(c / p for p, c in zip(parent, change))
    assert op["ratio_median"] == pytest.approx(ratios[2])
    assert op["ratio_quartiles"] == pytest.approx([ratios[1], ratios[3]])
    assert (op["change_better"], op["change_worse"], op["equal"]) == (4, 1, 0)
    assert op["median_gain_over_parent_iqr"] == pytest.approx((0.29 - 0.21) / 0.02)

    # a rate is better higher: the same pairs count the same way
    rate = summary["ops_per_s"]
    assert (rate["change_better"], rate["change_worse"]) == (4, 1)
    assert rate["median_gain_over_parent_iqr"] > 0


def test_pair_with_a_failed_run_is_left_out():
    pairs = [
        {"parent": run(0.3, failed=1), "change": run(0.2)},
        {"parent": run(0.3), "change": run(0.3)},
        {"parent": {"error": "exit 1: no op completed"}, "change": run(0.1)},
    ]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert (summary["pairs"], summary["complete_pairs"]) == (3, 2)
    assert summary["failed_op_share"] == {"parent": 0.05, "change": 0.0}
    op = summary["op_p50_s"]
    assert (op["change_better"], op["change_worse"], op["equal"]) == (1, 0, 1)
    # no quartile distance on the parent's side: the gain has no unit
    assert op["median_gain_over_parent_iqr"] is None


def test_one_pair_has_its_values_as_quartiles():
    summary = bench_pairs.summarize([{"parent": run(0.4), "change": run(0.2)}], METRICS)
    op = summary["op_p50_s"]
    assert op["ratio_quartiles"] == [0.5, 0.5]
    assert op["ratio_median"] == 0.5


def test_run_seconds_is_read_from_run_py(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'import argparse\n'
        'parser = argparse.ArgumentParser()\n'
        'parser.add_argument("--seed", type=int, default=0)\n'
        'parser.add_argument("--seconds", type=float, default=12.5)\n')
    assert bench_pairs.run_seconds(tmp_path) == 12.5


def test_source_trees_match_a_later_commit_of_the_same_files(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    for part in ("src", "perfbench"):
        (tmp_path / part).mkdir()
        (tmp_path / part / "a.py").write_text(f"# {part}\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    # an uncommitted edit, an untracked file and an ignored one
    (tmp_path / ".gitignore").write_text("__pycache__/\n")
    (tmp_path / "src" / "a.py").write_text("# edited\n")
    (tmp_path / "src" / "b.py").write_text("# new\n")
    (tmp_path / "src" / "__pycache__").mkdir()
    (tmp_path / "src" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    first = git("rev-parse", "HEAD")

    recorded = bench_pairs.source(tmp_path)
    assert recorded["git_sha"] == first
    # the checkout's own index is untouched
    assert git("status", "--porcelain", "src") == "M src/a.py\n?? src/b.py"

    git("add", "-A")
    git("commit", "-q", "-m", "second")
    assert recorded["tree"] == {part: git("rev-parse", f"HEAD:{part}")
                                for part in ("src", "perfbench")}


def test_a_checkout_outside_git_is_refused(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text('{"end_to_end": []}')
    out = tmp_path / "out.json"
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "fd-lifecycle", "--out", str(out)])
    assert code == 2
    assert "not a git repository" in capsys.readouterr().err
    assert not out.exists()
