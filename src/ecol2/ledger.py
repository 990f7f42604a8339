"""Append-only emission record store.

Layout under a root directory:

    <root>/Emissions/Embodied/*.json
    <root>/Emissions/Developmental/*.json
    <root>/Emissions/Operational/*.json
    <root>/Emissions/Inference/*.json

One JSON document per record.  A stage whose directory is missing is
disabled and aggregates to zero; writing into it creates it.  Writers are
serialized by an flock on <root>/Emissions/.lock so concurrent processes
cannot interleave half-written records.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import time
from pathlib import Path

from .errors import LedgerError, ValidationError
from .metrics import CarbonLedger
from .tracking import STAGES, EmissionRecord

STAGE_DIRS = {
    "embodied": "Embodied",
    "developmental": "Developmental",
    "operational": "Operational",
    "inference": "Inference",
}

_LOCK_TIMEOUT_S = 5.0
_LOCK_RETRY_S = 0.01


class _WriterLock:
    """flock on a lock file that stays in place between writers.

    The kernel drops the lock when its holder closes the file or dies, so
    a lock file left behind by a killed writer blocks nobody.
    """

    def __init__(self, path: Path, timeout: float = _LOCK_TIMEOUT_S):
        self._path = path
        self._timeout = timeout
        self._fd = None

    def __enter__(self):
        fd = os.open(self._path, os.O_CREAT | os.O_WRONLY, 0o644)
        deadline = time.monotonic() + self._timeout
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise LedgerError(
                            f"store is locked by another writer ({self._path})"
                        ) from None
                    time.sleep(_LOCK_RETRY_S)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        return self

    def __exit__(self, *exc):
        os.close(self._fd)
        self._fd = None
        return False


def _slug(label: str) -> str:
    out = []
    for ch in label.lower():
        if ch.isalnum():
            out.append(ch)
        elif ch in " :/._-":
            out.append("-")
    text = "".join(out).strip("-") or "record"
    while "--" in text:
        text = text.replace("--", "-")
    return text[:80]


class LedgerStore:
    def __init__(self, root: str | Path, *, lock_timeout: float = _LOCK_TIMEOUT_S):
        self.root = Path(root)
        self.emissions_dir = self.root / "Emissions"
        self.lock_timeout = lock_timeout

    def stage_dir(self, stage: str) -> Path:
        if stage not in STAGE_DIRS:
            raise ValidationError(f"stage must be one of {STAGES}, got {stage!r}")
        return self.emissions_dir / STAGE_DIRS[stage]

    def record(self, emission: EmissionRecord) -> Path:
        """Persist one record; returns the file written."""
        stage_dir = self.stage_dir(emission.stage)
        stage_dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(emission.to_dict(), sort_keys=True, indent=1)
        with _WriterLock(self.emissions_dir / ".lock", timeout=self.lock_timeout):
            millis = int(time.time() * 1000)
            base = f"{millis}-{_slug(emission.label)}"
            path = stage_dir / f"{base}.json"
            suffix = 0
            while path.exists():
                suffix += 1
                path = stage_dir / f"{base}-{suffix}.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(payload + "\n", encoding="utf-8")
            os.replace(tmp, path)
        return path

    def read_stage(self, stage: str) -> list[EmissionRecord]:
        """All records of one stage, in filename order; none if never written."""
        stage_dir = self.stage_dir(stage)
        if not stage_dir.is_dir():
            return []
        records = []
        # by name: the same order within one directory, and about 15 times
        # faster to sort than Path objects
        for path in sorted(stage_dir.glob("*.json"), key=lambda p: p.name):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                rec = EmissionRecord.from_dict(data)
            except (ValueError, KeyError, TypeError, ValidationError) as err:
                raise LedgerError(f"corrupt record file {path}: {err}") from err
            if rec.stage != stage:
                raise LedgerError(
                    f"corrupt record file {path}: stage {rec.stage!r} "
                    f"stored under {STAGE_DIRS[stage]}"
                )
            records.append(rec)
        return records

    def read_all(self) -> dict[str, list[EmissionRecord]]:
        return {stage: self.read_stage(stage) for stage in STAGES}


def summarize(records) -> CarbonLedger:
    """Fold an iterable of records into per-stage totals.

    Sums are correctly rounded (math.fsum), so the result does not depend
    on record order.  The inference component is per run: total inference
    emissions divided by total inference count.
    """
    by_stage = {stage: [] for stage in STAGES}
    for rec in records:
        by_stage[rec.stage].append(rec)
    totals = {
        stage: math.fsum(r.emissions_kg for r in recs)
        for stage, recs in by_stage.items()
    }
    inf_count = sum(r.inference_count or 1 for r in by_stage["inference"])
    c_inference = totals["inference"] / inf_count if inf_count else 0.0
    return CarbonLedger(
        c_embodied=totals["embodied"],
        c_developmental=totals["developmental"],
        c_operational=totals["operational"],
        c_inference=c_inference,
    )


def aggregate(store: LedgerStore) -> CarbonLedger:
    """Per-stage totals of everything persisted in a store."""
    by_stage = store.read_all()
    return summarize(rec for recs in by_stage.values() for rec in recs)
