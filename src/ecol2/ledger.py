"""Append-only emission record store; the one owner of a ledger's files.

Layout under a root directory:

    <root>/Emissions/Embodied/*.json
    <root>/Emissions/Developmental/*.json
    <root>/Emissions/Operational/*.json
    <root>/Emissions/Inference/*.json
    <root>/run.json     the scored row of the run `bench` made here
    <root>/dataset/     the samples a spectral `bench` generated

One JSON document per record.  A stage whose directory is missing is
disabled and aggregates to zero; writing into it creates it.  A writer
writes the whole record to a temporary `*.json.tmp` of its own, then
publishes it under its final name with a hard link, which the filesystem
refuses for a name that exists.  So concurrent writers, in one process or
many, never end on one name, readers never see part of a record, and no
writer waits on another.  The run file is published the same way, and
never replaced.  The ledger must sit on a filesystem with hard links.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
from dataclasses import fields
from pathlib import Path

from .errors import LedgerError, ValidationError, shown
from .metrics import CarbonLedger, EcoL2Params, ecol2
from .tracking import STAGES, EmissionRecord

# bytes per os.read of a record file; a record is a few hundred bytes
_READ_CHUNK = 1 << 16


def _read_bytes(path: str) -> bytes:
    """The whole content of a file, read to EOF in chunks."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


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


@contextlib.contextmanager
def _temporary(base: str, payload: str):
    """Yield a `<base>.<pid>-<thread id>.json.tmp` holding payload, which
    no other writer touches; it is removed on exit, its links stay."""
    tmp = f"{base}.{os.getpid()}-{threading.get_ident()}.json.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(payload)
        yield tmp
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


class LedgerStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.emissions_dir = self.root / "Emissions"
        self.run_file = self.root / "run.json"
        self.dataset_dir = self.root / "dataset"

    def stage_dir(self, stage: str) -> Path:
        if stage not in STAGES:
            raise ValidationError(f"stage must be one of {STAGES}, got {stage!r}")
        return self.emissions_dir / stage.capitalize()

    def _write_error(self, err: OSError) -> LedgerError:
        return LedgerError(f"cannot write a record to ledger {self.root}: {err}")

    def make_stage_dir(self, stage: str) -> str:
        """Create a stage's directory if missing; returns it as a str prefix
        ending in a separator.  Raises LedgerError if the ledger cannot
        take records."""
        prefix = os.path.join(self.stage_dir(stage), "")
        try:
            os.makedirs(prefix, exist_ok=True)
        except OSError as err:
            raise self._write_error(err) from err
        return prefix

    def record(self, emission: EmissionRecord) -> str:
        """Persist one record; returns the path of the file written.

        Names are `<millis>-<slug>[-N].json`, N counting up past the names
        other writers took first.  Paths are plain strings: pathlib would
        intern every new file name for the life of the process.
        """
        prefix = self.make_stage_dir(emission.stage)
        payload = json.dumps(emission.to_dict(), sort_keys=True, indent=1) + "\n"
        base = f"{prefix}{int(time.time() * 1000)}-{_slug(emission.label)}"
        try:
            with _temporary(base, payload) as tmp:
                path = f"{base}.json"
                suffix = 0
                while True:
                    try:
                        os.link(tmp, path)
                        return path
                    except FileExistsError:
                        suffix += 1
                        path = f"{base}-{suffix}.json"
        except OSError as err:
            raise self._write_error(err) from err

    def write_run(self, row: dict) -> None:
        """Publish `row` as the run file, linked in whole as a record is.
        A run file that exists is never replaced: that, as any OSError,
        raises LedgerError."""
        payload = json.dumps(row, sort_keys=True, indent=1) + "\n"
        try:
            with _temporary(os.path.splitext(self.run_file)[0], payload) as tmp:
                os.link(tmp, self.run_file)
        except OSError as err:
            raise LedgerError(f"cannot write the run file to ledger {self.root}: {err}") from err

    def read_run(self) -> tuple[float, EcoL2Params, str | None] | None:
        """(r, score parameters, workload) of the run `bench` stored in this
        ledger, or None if there is none.

        r and the score parameters (defaults for those absent) must pass
        the scorer's own checks, and a workload must be a string; a run
        file that fails them or is not a JSON object raises
        ValidationError naming the file.
        """
        path = self.run_file
        if not path.is_file():
            return None
        try:
            stored = json.loads(path.read_text(encoding="utf-8"))
        # JSON nested deeper than the recursion limit raises RecursionError
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
            raise ValidationError(f"{path}: unreadable run file: {err}") from None
        if not isinstance(stored, dict):
            raise ValidationError(f"{path}: run file is not a JSON object")
        try:
            params = EcoL2Params(
                **{f.name: stored[f.name] for f in fields(EcoL2Params) if f.name in stored}
            )
            ecol2(stored.get("r"), CarbonLedger(), params)  # checks r's domain
            if type(stored.get("workload", "")) is not str:
                raise ValidationError(f"workload must be a string, got {shown(stored['workload'])}")
        except ValidationError as err:
            raise ValidationError(f"{path}: {err}") from None
        return stored["r"], params, stored.get("workload")

    def held(self) -> list[Path]:
        """What runs left here: the run file, the dataset, then published
        records in path order (not `*.json.tmp`); empty if fresh."""
        held = [p for p in (self.run_file, self.dataset_dir) if p.exists()]
        return held + sorted(self.emissions_dir.glob("*/*.json"))

    def read_stage(self, stage: str) -> list[EmissionRecord]:
        """All records of one stage, in filename order; none if never written.

        Every call reads, decodes and validates every `*.json` file of the
        stage directory; nothing is cached between calls.
        """
        stage_dir = self.stage_dir(stage)
        if not stage_dir.is_dir():
            return []
        prefix = os.path.join(stage_dir, "")
        records = []
        # plain names and str paths: a Path per record cost more than its read
        for name in sorted(n for n in os.listdir(prefix) if n.endswith(".json")):
            path = prefix + name
            try:
                # decoded first: json.loads would also take UTF-16 or a BOM
                data = json.loads(_read_bytes(path).decode("utf-8"))
                rec = EmissionRecord.from_dict(data)
            except (OSError, ValueError, KeyError, TypeError, RecursionError,
                    ValidationError) as err:
                raise LedgerError(f"corrupt record file {path}: {err}") from err
            if rec.stage != stage:
                raise LedgerError(
                    f"corrupt record file {path}: stage {rec.stage!r} "
                    f"stored under {stage.capitalize()}"
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
    inf_count = sum(r.inference_count for r in by_stage["inference"])
    totals["inference"] = totals["inference"] / inf_count if inf_count else 0.0
    return CarbonLedger(**{f"c_{stage}": total for stage, total in totals.items()})


def aggregate(store: LedgerStore) -> CarbonLedger:
    """Per-stage totals of everything persisted in a store."""
    by_stage = store.read_all()
    return summarize(rec for recs in by_stage.values() for rec in recs)
