"""Digests of the seeded output of the five built-in workloads.

For each workload and seed, `bench <workload> --seed <seed> --region CH`
runs into a fresh ledger, then `score --r 1e-3`, `regions CH,NZ,ZA` and
`report` run on that ledger, all in process through `ecol2.cli.main`.
What is kept of each run:

- commands: each command's exit code and the SHA-256 of its stdout and
  stderr;
- records: the SHA-256 of each emission record, keyed by its path under
  the ledger with the timestamp stripped from its file name;
- files: the SHA-256 of `run.json` and of each `dataset/` file (only
  the spectral workloads write a dataset);
- r and ecol2 of the stored run, as plain numbers.

tests/test_seeded_outputs.py compares a fresh run against the pinned
copy in tests/data/seeded_outputs.json.  A change that moves output by
design regenerates the pinned copy in the same commit:

    PYTHONPATH=src python tests/seeded_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from ecol2.cli import main
from ecol2.workloads import WORKLOADS

PINNED = Path(__file__).with_name("data") / "seeded_outputs.json"

SEEDS = (0, 7)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
    }


def _record_key(path: Path, root: Path) -> str:
    """Path under the ledger root, without the `<millis>-` prefix of the name."""
    rel = path.relative_to(root)
    return str(rel.with_name(rel.name.split("-", 1)[1]))


def run_seeded(workload: str, seed: int, root: Path) -> dict:
    """Bench one workload at one seed into root/<workload>-<seed>, then
    score, what-if and report on that ledger; the digests of it all."""
    ledger = root / f"{workload}-{seed}"
    commands = {
        "bench": _run(
            "bench", workload, "--seed", str(seed), "--region", "CH",
            "--ledger", str(ledger),
        ),
        "score": _run("score", "--r", "1e-3", "--ledger", str(ledger)),
        "regions": _run("regions", "CH,NZ,ZA", "--ledger", str(ledger)),
        "report": _run("report", str(ledger)),
    }
    records = {
        _record_key(path, ledger): _sha256(path.read_bytes())
        for path in sorted((ledger / "Emissions").glob("*/*.json"))
    }
    files = {
        str(path.relative_to(ledger)): _sha256(path.read_bytes())
        for path in [ledger / "run.json", *sorted(ledger.glob("dataset/*"))]
    }
    run = json.loads((ledger / "run.json").read_text(encoding="utf-8"))
    return {
        "commands": commands,
        "records": records,
        "files": files,
        "r": run["r"],
        "ecol2": run["ecol2"],
    }


def collect(root: Path) -> dict:
    """Every workload at every seed, run under root."""
    return {
        "numpy": np.__version__,
        "runs": {
            f"{workload}-{seed}": run_seeded(workload, seed, root)
            for workload in WORKLOADS
            for seed in SEEDS
        },
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = collect(Path(tmp))
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINNED} ({len(pinned['runs'])} runs, numpy {pinned['numpy']})", file=sys.stderr)
