"""Adapters for externally produced CSVs.

Two shapes are understood: per-run emission logs (one row per tracked run,
column names configurable) and plain numeric field dumps (rows x columns,
no header) for predictions and references.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .errors import IngestError
from .regions import RegionRegistry, default_registry
from .tracking import EmissionRecord, emissions_kg_from_energy

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


def _cell(row: dict, column: str | None) -> str | None:
    if column is None:
        return None
    value = row.get(column)
    if value is None:
        return None
    value = value.strip()
    return value or None


def _parse_float(text: str, what: str, path: Path, row_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise IngestError(
            f"{path}, row {row_no}: {what} {text!r} is not a number"
        ) from None


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
    errors count data rows from 1.
    """
    path = Path(path)
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

    return EmissionRecord(
        stage=stage,
        label=f"{path.stem}-row{row_no}",
        energy_kwh=energy_kwh,
        duration_s=duration_s,
        region=region,
        emissions_kg=emissions_kg,
        inference_count=1 if stage == "inference" else None,
    )


def import_field_csv(paths) -> np.ndarray:
    """Load one field from one or more run dumps, averaging runs.

    Every file must parse to the same shape; a mismatch reports both
    shapes.  Returns the element-wise mean across files.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    paths = [Path(p) for p in paths]
    if not paths:
        raise IngestError("no field files given")
    fields = []
    for p in paths:
        try:
            arr = np.loadtxt(p, delimiter=",", ndmin=1, dtype=np.float64)
        except (ValueError, OSError) as err:
            raise IngestError(f"{p}: {err}") from err
        fields.append(arr)
    shape = fields[0].shape
    for p, arr in zip(paths[1:], fields[1:]):
        if arr.shape != shape:
            raise IngestError(
                f"{p}: shape {arr.shape} does not match {paths[0]}: {shape}"
            )
    if len(fields) == 1:
        return fields[0]
    return np.mean(np.stack(fields), axis=0)
