"""Grid carbon-intensity registry.

Intensities are stored in grams of CO2-equivalent per kWh, the unit used by
the public yearly country averages the bundled table is drawn from.  The
emission formula converts to kilograms.
"""

from __future__ import annotations

import csv
from importlib import resources
from pathlib import Path

from .errors import RegionError

_EXPECTED_HEADER = ["iso_code", "intensity_g_per_kwh"]


class RegionRegistry:
    """Mapping from ISO country code to grid intensity in gCO2/kWh."""

    def __init__(self, intensities: dict[str, float]):
        self._intensities = dict(intensities)

    @classmethod
    def bundled(cls) -> "RegionRegistry":
        """Registry holding the table shipped with the package."""
        ref = resources.files("ecol2").joinpath("data/regions.csv")
        with ref.open("r", encoding="utf-8") as fh:
            return cls(_parse(fh, source="bundled regions.csv"))

    @classmethod
    def from_csv(cls, path: str | Path) -> "RegionRegistry":
        """Bundled registry extended (or overridden) by a user CSV."""
        reg = cls.bundled()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reg._intensities.update(_parse(fh, source=str(path)))
        except OSError as err:
            raise RegionError(f"{path}: cannot read regions file: {err.strerror}") from None
        return reg

    def lookup(self, iso_code: str) -> float:
        """Intensity for ``iso_code``; unknown codes raise RegionError."""
        try:
            return self._intensities[iso_code]
        except KeyError:
            known = ", ".join(sorted(self._intensities))
            raise RegionError(
                f"unknown region {iso_code!r}; known codes: {known}"
            ) from None

    def __contains__(self, iso_code: str) -> bool:
        return iso_code in self._intensities

    def codes(self) -> list[str]:
        return sorted(self._intensities)


def _parse(fh, source: str) -> dict[str, float]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _EXPECTED_HEADER:
        raise RegionError(
            f"{source}: expected header {','.join(_EXPECTED_HEADER)!r}, "
            f"got {header!r}"
        )
    out: dict[str, float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 2:
            raise RegionError(f"{source}:{lineno}: expected 2 columns, got {len(row)}")
        code = row[0].strip()
        try:
            value = float(row[1])
        except ValueError:
            raise RegionError(
                f"{source}:{lineno}: intensity {row[1]!r} is not a number"
            ) from None
        if not code:
            raise RegionError(f"{source}:{lineno}: empty iso_code")
        if not value > 0:
            raise RegionError(f"{source}:{lineno}: intensity must be positive")
        out[code] = value
    return out


_default: RegionRegistry | None = None


def default_registry() -> RegionRegistry:
    """Shared instance of the bundled registry."""
    global _default
    if _default is None:
        _default = RegionRegistry.bundled()
    return _default


def region_lookup(iso_code: str, registry: RegionRegistry | None = None) -> float:
    return (registry or default_registry()).lookup(iso_code)
