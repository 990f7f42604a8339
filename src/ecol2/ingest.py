"""Adapters for externally produced CSVs.

Two shapes are understood: per-run emission logs (one row per tracked run,
column names configurable) and plain numeric field dumps (rows x columns,
no header) for predictions and references.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import IngestError
from .regions import RegionRegistry, default_registry
from .tracking import STAGES, EmissionRecord, emissions_kg_from_energy

DEFAULT_COLUMNS = {
    "emissions": "emissions",
    "energy": "energy_consumed",
    "duration": "duration",
    "region": "country_iso_code",
}

# stated and computed emissions may disagree up to this relative deviation
# before we warn (different intensity vintages are common)
CONSISTENCY_TOLERANCE = 0.05

UNKNOWN_REGION = "unknown"


class IngestWarning(UserWarning):
    pass


def _cell(row: dict, column: str) -> str | None:
    value = row.get(column)
    if value is None:
        return None
    value = value.strip()
    return value or None


def _parse_float(text: str, what: str, path: Path, row_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestError(
            f"{path}, row {row_no}: {what} {text!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise IngestError(f"{path}, row {row_no}: {what} {text!r} is not finite")
    return value


def import_emissions_csv(
    path: str | Path,
    stage: str,
    column_map: dict[str, str] | None = None,
    registry: RegionRegistry | None = None,
) -> list[EmissionRecord]:
    """Read an external emission log into records for one stage.

    Rows may state emissions directly (kg), or energy (kWh) plus a region
    to compute them from, or both.  Emissions-only rows get region
    "unknown".  When both routes are present and disagree by more than 5%
    the stated value is kept and a warning is issued.  Row numbers in
    errors count data rows from 1.  A file that cannot be read or decoded,
    or that is malformed CSV, raises IngestError naming it.
    """
    path = Path(path)
    if stage not in STAGES:
        raise IngestError(f"{path}: stage must be one of {STAGES}, got {stage!r}")
    registry = registry or default_registry()
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(DEFAULT_COLUMNS)
        if unknown:
            raise IngestError(
                f"unknown column_map keys {sorted(unknown)}; "
                f"expected a subset of {sorted(DEFAULT_COLUMNS)}"
            )
        columns.update(column_map)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            if column_map:
                missing = [c for c in column_map.values() if c not in header]
                if missing:
                    raise IngestError(f"{path}: mapped columns {missing} not in header")
            records = []
            for row_no, row in enumerate(reader, start=1):
                records.append(
                    _row_to_record(row, row_no, stage, columns, registry, path)
                )
    except (OSError, UnicodeDecodeError) as err:
        raise IngestError(f"{path}: {err}") from err
    except csv.Error as err:
        # the csv reader's own line_num counts the failing line too, which
        # DictReader's does not; both count the header's
        raise IngestError(f"{path}, line {reader.reader.line_num}: {err}") from err
    return records


def _row_to_record(row, row_no, stage, columns, registry, path) -> EmissionRecord:
    stated = _cell(row, columns["emissions"])
    energy = _cell(row, columns["energy"])
    region = _cell(row, columns["region"])
    duration = _cell(row, columns["duration"])

    energy_kwh = (
        _parse_float(energy, "energy", path, row_no) if energy is not None else 0.0
    )
    duration_s = (
        _parse_float(duration, "duration", path, row_no) if duration is not None else 0.0
    )
    if energy_kwh < 0:
        raise IngestError(f"{path}, row {row_no}: negative energy")
    if duration_s < 0:
        raise IngestError(f"{path}, row {row_no}: negative duration")

    if stated is not None:
        emissions_kg = _parse_float(stated, "emissions", path, row_no)
        if emissions_kg < 0:
            raise IngestError(f"{path}, row {row_no}: negative emissions")
        if energy is not None and region is not None and region in registry:
            computed = emissions_kg_from_energy(energy_kwh, registry.lookup(region))
            if computed > 0 and abs(emissions_kg - computed) / computed > CONSISTENCY_TOLERANCE:
                warnings.warn(
                    f"{path}, row {row_no}: stated emissions {emissions_kg:g} kg "
                    f"deviate from energy x intensity ({computed:g} kg) by more "
                    f"than {CONSISTENCY_TOLERANCE:.0%}; keeping the stated value",
                    IngestWarning,
                    stacklevel=3,
                )
        if region is None:
            region = UNKNOWN_REGION
    else:
        if energy is None or region is None:
            raise IngestError(
                f"{path}, row {row_no}: need either emissions or both "
                "energy and region"
            )
        emissions_kg = emissions_kg_from_energy(energy_kwh, registry.lookup(region))
        if not math.isfinite(emissions_kg):
            raise IngestError(f"{path}, row {row_no}: energy x intensity overflows")

    return EmissionRecord(
        stage=stage,
        label=f"{path.stem}-row{row_no}",
        energy_kwh=energy_kwh,
        duration_s=duration_s,
        region=region,
        emissions_kg=emissions_kg,
    )


def import_field_csv(paths) -> np.ndarray:
    """Load one field from one or more run dumps, averaging runs.

    Every file must hold at least one value, all finite, and parse to the
    same shape; a mismatch reports both shapes, a non-finite value its
    file and row (data rows counted from 1).  Returns the element-wise
    mean across files.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    paths = [Path(p) for p in paths]
    if not paths:
        raise IngestError("no field files given")
    fields = []
    for p in paths:
        try:
            with warnings.catch_warnings():
                # an empty file is rejected below, naming it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # (rows, columns) even for one row or one column
                rows = np.loadtxt(p, delimiter=",", ndmin=2, dtype=np.float64)
        except (ValueError, OSError) as err:
            raise IngestError(f"{p}: {err}") from err
        if rows.size == 0:
            raise IngestError(f"{p}: no values in field file")
        bad = np.argwhere(~np.isfinite(rows))
        if len(bad):
            row, col = bad[0]
            raise IngestError(
                f"{p}, row {row + 1}: value {float(rows[row, col])!r} is not finite"
            )
        # the shape np.loadtxt gives with ndmin=1: one row or column is 1-D
        fields.append(np.atleast_1d(rows.squeeze()))
    shape = fields[0].shape
    for p, arr in zip(paths[1:], fields[1:]):
        if arr.shape != shape:
            raise IngestError(
                f"{p}: shape {arr.shape} does not match {paths[0]}: {shape}"
            )
    if len(fields) == 1:
        return fields[0]
    return np.mean(np.stack(fields), axis=0)
