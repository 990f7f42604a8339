"""Emission sessions and power models.

A session brackets a piece of work, measures its energy, and converts to
kgCO2 through the regional grid intensity.  Three power sources:

* sampled-hardware: cumulative energy counters polled on a background
  thread (Linux powercap RAPL); at most one active sampled session per
  process because the counters are machine-global.
* constant-rated: a fixed wattage times measured wall time.
* synthetic-fixed: a fixed wattage times session-clock time; with a
  virtual clock this gives fully deterministic emissions.
"""

from __future__ import annotations

import glob
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

from .errors import ParameterError, RegionError, TrackingError, ValidationError
from .regions import RegionRegistry, default_registry

STAGES = ("embodied", "developmental", "operational", "inference")

JOULES_PER_KWH = 3.6e6

SAMPLE_INTERVAL_MIN = 0.1
SAMPLE_INTERVAL_MAX = 60.0

POWER_KINDS = ("sampled-hardware", "constant-rated", "synthetic-fixed")


@dataclass(frozen=True)
class PowerModel:
    kind: str
    watts: float | None = None
    sample_interval: float = 1.0

    def __post_init__(self):
        if self.kind not in POWER_KINDS:
            raise ParameterError(
                f"power kind must be one of {POWER_KINDS}, got {self.kind!r}"
            )
        if self.kind == "sampled-hardware":
            if not SAMPLE_INTERVAL_MIN <= self.sample_interval <= SAMPLE_INTERVAL_MAX:
                raise ParameterError(
                    f"sample_interval must lie in [{SAMPLE_INTERVAL_MIN}, "
                    f"{SAMPLE_INTERVAL_MAX}] s, got {self.sample_interval}"
                )
        else:
            if self.watts is None or not self.watts > 0:
                raise ParameterError(
                    f"{self.kind} power model needs watts > 0, got {self.watts}"
                )

    @classmethod
    def sampled(cls, sample_interval: float = 1.0) -> "PowerModel":
        return cls(kind="sampled-hardware", sample_interval=sample_interval)

    @classmethod
    def rated(cls, watts: float) -> "PowerModel":
        return cls(kind="constant-rated", watts=watts)

    @classmethod
    def fixed(cls, watts: float) -> "PowerModel":
        return cls(kind="synthetic-fixed", watts=watts)

    @classmethod
    def parse(cls, text: str) -> "PowerModel":
        """Parse a CLI power spec: sample | rated:<W> | fixed:<W>."""
        if text == "sample":
            return cls.sampled()
        for prefix, ctor in (("rated:", cls.rated), ("fixed:", cls.fixed)):
            if text.startswith(prefix):
                try:
                    watts = float(text[len(prefix):])
                except ValueError:
                    raise ParameterError(f"bad wattage in power spec {text!r}") from None
                return ctor(watts)
        raise ParameterError(
            f"bad power spec {text!r}; expected sample, rated:<W> or fixed:<W>"
        )


@dataclass(frozen=True)
class EmissionRecord:
    """One persisted measurement of a work unit."""

    stage: str
    label: str
    energy_kwh: float
    duration_s: float
    region: str
    emissions_kg: float
    inference_count: int | None = None
    power_trace: tuple[tuple[float, float], ...] | None = None
    failed: bool = False

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValidationError(f"stage must be one of {STAGES}, got {self.stage!r}")
        for name in ("energy_kwh", "duration_s", "emissions_kg"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v >= 0):
                raise ValidationError(f"{name} must be >= 0, got {v!r}")

    def to_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "label": self.label,
            "energy_kwh": self.energy_kwh,
            "duration_s": self.duration_s,
            "region": self.region,
            "emissions_kg": self.emissions_kg,
        }
        if self.inference_count is not None:
            out["inference_count"] = self.inference_count
        if self.power_trace is not None:
            out["power_trace"] = [[t, w] for t, w in self.power_trace]
        if self.failed:
            out["failed"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EmissionRecord":
        trace = data.get("power_trace")
        return cls(
            stage=data["stage"],
            label=data["label"],
            energy_kwh=float(data["energy_kwh"]),
            duration_s=float(data["duration_s"]),
            region=data["region"],
            emissions_kg=float(data["emissions_kg"]),
            inference_count=(
                int(data["inference_count"]) if "inference_count" in data else None
            ),
            power_trace=(
                tuple((float(t), float(w)) for t, w in trace)
                if trace is not None
                else None
            ),
            failed=bool(data.get("failed", False)),
        )


def emissions_kg_from_energy(energy_kwh: float, intensity_g_per_kwh: float) -> float:
    return energy_kwh * intensity_g_per_kwh / 1000.0


def trapezoid_energy_kwh(trace) -> float:
    """Trapezoidal integral of a [(t_s, watts), ...] trace, in kWh."""
    pts = list(trace)
    if len(pts) < 2:
        raise TrackingError("power trace needs at least 2 samples")
    joules = 0.0
    for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
        if t1 < t0:
            raise TrackingError("power trace timestamps must be non-decreasing")
        joules += 0.5 * (p0 + p1) * (t1 - t0)
    return joules / JOULES_PER_KWH


class VirtualClock:
    """Deterministic session clock advanced explicitly by work performed."""

    def __init__(self):
        self._t = 0.0

    def now(self) -> float:
        return self._t

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._t += seconds


# nominal cost of one grid-point update on the virtual clock; any fixed
# positive value works, it only has to be deterministic
VIRTUAL_SECONDS_PER_POINT = 1e-6


def charge_work(clock, points: int) -> None:
    """Advance a virtual clock by the nominal cost of `points` updates.

    Real clocks measure the work as it happens; only VirtualClock needs
    the explicit charge.
    """
    if isinstance(clock, VirtualClock):
        clock.advance(points * VIRTUAL_SECONDS_PER_POINT)


class _WallClock:
    def now(self) -> float:
        return time.monotonic()


# --- hardware energy counters (Linux powercap RAPL) ---

_RAPL_GLOB = "/sys/class/powercap/intel-rapl:*"


class _RaplReader:
    """Sums package-level cumulative energy counters, unwrapping overflow."""

    def __init__(self, domains: list[str]):
        self._domains = domains
        self._ranges = []
        self._last = []
        self._offsets = [0.0] * len(domains)
        for d in domains:
            try:
                with open(f"{d}/max_energy_range_uj") as fh:
                    self._ranges.append(float(fh.read().strip()))
            except OSError:
                self._ranges.append(0.0)
            self._last.append(None)

    def read_joules(self) -> float:
        total = 0.0
        for i, d in enumerate(self._domains):
            with open(f"{d}/energy_uj") as fh:
                raw = float(fh.read().strip())
            last = self._last[i]
            if last is not None and raw < last and self._ranges[i] > 0:
                self._offsets[i] += self._ranges[i]
            self._last[i] = raw
            total += raw + self._offsets[i]
        return total / 1e6


def _hardware_energy_reader() -> Callable[[], float] | None:
    """Callable returning cumulative joules, or None when unavailable."""
    domains = sorted(glob.glob(_RAPL_GLOB))
    if not domains:
        return None
    try:
        reader = _RaplReader(domains)
        reader.read_joules()
    except OSError:
        return None
    return reader.read_joules


_sampler_guard = threading.Lock()
_sampler_busy = False


class EmissionSession:
    """An open measurement bracket; produced by start_session."""

    def __init__(
        self,
        stage: str,
        power: PowerModel,
        region: str,
        *,
        label: str = "",
        registry: RegionRegistry | None = None,
        intensity_g_per_kwh: float | None = None,
        clock=None,
    ):
        if stage not in STAGES:
            raise ValidationError(f"stage must be one of {STAGES}, got {stage!r}")
        registry = registry or default_registry()
        if intensity_g_per_kwh is None:
            intensity_g_per_kwh = registry.lookup(region)
        elif not intensity_g_per_kwh > 0:
            raise RegionError("intensity override must be positive")
        if clock is not None and power.kind == "sampled-hardware":
            raise TrackingError("sampled sessions run on the wall clock only")
        self.stage = stage
        self.power = power
        self.region = region
        self.label = label or stage
        self.intensity = intensity_g_per_kwh
        self.clock = clock if clock is not None else _WallClock()
        self._closed = False
        self._thread = None
        self._stop_event = None
        self._samples: list[tuple[float, float]] = []
        self._reader = None

        if power.kind == "sampled-hardware":
            global _sampler_busy
            with _sampler_guard:
                if _sampler_busy:
                    raise TrackingError(
                        "a sampled session is already active; "
                        "hardware counters cannot be shared"
                    )
                reader = _hardware_energy_reader()
                if reader is None:
                    raise TrackingError(
                        "no hardware energy counters readable; "
                        "use rated:<W> or fixed:<W>"
                    )
                _sampler_busy = True
            self._reader = reader
            self._stop_event = threading.Event()
        self._t0 = self.clock.now()
        if self._reader is not None:
            self._samples.append((self._t0, self._reader()))
            self._thread = threading.Thread(target=self._sample_loop, daemon=True)
            self._thread.start()

    def _sample_loop(self):
        while not self._stop_event.wait(self.power.sample_interval):
            self._samples.append((self.clock.now(), self._reader()))

    def stop(self, *, inference_count: int | None = None, failed: bool = False) -> EmissionRecord:
        if self._closed:
            raise TrackingError("session already stopped")
        self._closed = True
        t1 = self.clock.now()
        duration = t1 - self._t0
        trace = None
        if self.power.kind == "sampled-hardware":
            self._stop_event.set()
            self._thread.join()
            self._samples.append((t1, self._reader()))
            global _sampler_busy
            with _sampler_guard:
                _sampler_busy = False
            trace = _power_trace(self._samples)
            energy_kwh = trapezoid_energy_kwh(trace)
        else:
            energy_kwh = self.power.watts * duration / JOULES_PER_KWH
        if inference_count is not None:
            if self.stage != "inference":
                raise ValidationError("inference_count only applies to the inference stage")
            if inference_count < 1:
                raise ValidationError("inference_count must be >= 1")
        elif self.stage == "inference":
            inference_count = 1
        return EmissionRecord(
            stage=self.stage,
            label=self.label,
            energy_kwh=energy_kwh,
            duration_s=duration,
            region=self.region,
            emissions_kg=emissions_kg_from_energy(energy_kwh, self.intensity),
            inference_count=inference_count,
            power_trace=trace,
            failed=failed,
        )

    def abandon(self) -> None:
        """Release resources without producing a record."""
        if self._closed:
            return
        self._closed = True
        if self.power.kind == "sampled-hardware":
            self._stop_event.set()
            self._thread.join()
            global _sampler_busy
            with _sampler_guard:
                _sampler_busy = False


def _power_trace(samples: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Cumulative (t, joules) samples to a relative (t, watts) trace."""
    t0 = samples[0][0]
    pts: list[tuple[float, float]] = []
    for (ta, ea), (tb, eb) in zip(samples, samples[1:]):
        if tb <= ta:
            continue
        pts.append((tb - t0, (eb - ea) / (tb - ta)))
    if not pts:
        # counters never ticked between start and stop; session was too short
        pts = [(samples[-1][0] - t0, 0.0)]
    # backfill t=0 with the first observed power so the trace spans the session
    return tuple([(0.0, pts[0][1])] + pts)


def start_session(
    stage: str,
    power: PowerModel,
    region: str,
    *,
    label: str = "",
    registry: RegionRegistry | None = None,
    intensity_g_per_kwh: float | None = None,
    clock=None,
) -> EmissionSession:
    return EmissionSession(
        stage,
        power,
        region,
        label=label,
        registry=registry,
        intensity_g_per_kwh=intensity_g_per_kwh,
        clock=clock,
    )


def stop_session(
    session: EmissionSession,
    *,
    inference_count: int | None = None,
    failed: bool = False,
) -> EmissionRecord:
    return session.stop(inference_count=inference_count, failed=failed)


def what_if_region(
    record: EmissionRecord,
    target_region: str,
    registry: RegionRegistry | None = None,
) -> EmissionRecord:
    """Copy of a record with emissions rescaled to another grid.

    Scales by intensity(target) / intensity(source); energy and duration
    are physical and stay put.  Records with an unknown source region
    (e.g. emissions-only imports) cannot be retargeted.
    """
    registry = registry or default_registry()
    target_intensity = registry.lookup(target_region)
    if record.region not in registry:
        raise RegionError(
            f"record region {record.region!r} is not in the registry; "
            "cannot rescale its emissions"
        )
    source_intensity = registry.lookup(record.region)
    scale = target_intensity / source_intensity
    return replace(
        record,
        region=target_region,
        emissions_kg=record.emissions_kg * scale,
    )
