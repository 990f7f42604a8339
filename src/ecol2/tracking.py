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
import sys
import threading
import time
from dataclasses import dataclass, fields
from typing import Callable

from .errors import ParameterError, RegionError, TrackingError, ValidationError, shown
from .regions import RegionRegistry, default_registry

STAGES = ("embodied", "developmental", "operational", "inference")

JOULES_PER_KWH = 3.6e6

# seconds between counter polls of a sampled session; the polls feed the
# power trace and catch each counter wrap between start and stop
POLL_INTERVAL_S = 1.0

POWER_KINDS = ("sampled-hardware", "constant-rated", "synthetic-fixed")


@dataclass(frozen=True)
class PowerModel:
    kind: str
    watts: float | None = None

    def __post_init__(self):
        if self.kind not in POWER_KINDS:
            raise ParameterError(
                f"power kind must be one of {POWER_KINDS}, got {shown(self.kind)}"
            )
        watts = self.watts
        if self.kind == "sampled-hardware" and watts is not None:
            raise ParameterError(f"a sampled power model takes no watts, got {shown(watts)}")
        if self.kind != "sampled-hardware" and not (_is_amount(watts) and watts > 0):
            raise ParameterError(
                f"{self.kind} power model needs finite watts > 0, got {shown(watts)}")

    @classmethod
    def sampled(cls) -> "PowerModel":
        return cls(kind="sampled-hardware")

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


@dataclass(frozen=True, slots=True)
class EmissionRecord:
    """One persisted measurement of a work unit.

    Every field is checked here, for a record built in code and one read
    from a file alike.  An amount, as each number of the power trace's
    (t, watts) pairs, is a finite int or float >= 0, not a bool.
    inference_count is the number of inference passes the record covers:
    only an inference record has one, an int >= 1, and 1 when none is given.
    """

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
            raise ValidationError(f"stage must be one of {STAGES}, got {shown(self.stage)}")
        if type(self.label) is not str:
            raise ValidationError(f"label must be a string, got {shown(self.label)}")
        if type(self.region) is not str:
            raise ValidationError(f"region must be a string, got {shown(self.region)}")
        # no loop over the names unless one fails: it costs more than the checks
        if not (_is_amount(self.energy_kwh) and _is_amount(self.duration_s)
                and _is_amount(self.emissions_kg)):
            name = next(n for n in _AMOUNTS if not _is_amount(getattr(self, n)))
            raise ValidationError(
                f"{name} must be finite and >= 0, got {shown(getattr(self, name))}")
        count = self.inference_count
        if count is None:
            if self.stage == "inference":
                object.__setattr__(self, "inference_count", 1)
        elif self.stage != "inference":
            raise ValidationError("inference_count only applies to the inference stage")
        elif type(count) is not int or count < 1:
            raise ValidationError(f"inference_count must be an integer >= 1, got {shown(count)}")
        trace = self.power_trace
        if trace is not None and not (type(trace) is tuple and all(
            type(p) is tuple and len(p) == 2 and _is_amount(p[0]) and _is_amount(p[1])
            for p in trace
        )):
            raise ValidationError("power_trace must be None or a tuple of (t, watts) "
                                  "tuples of finite numbers >= 0")
        if type(self.failed) is not bool:
            raise ValidationError(f"failed must be a bool, got {shown(self.failed)}")

    def to_dict(self) -> dict:
        """The record's fields, less those at their defaults; a record
        file holds this as JSON, where the power trace's pairs are lists."""
        return {
            name: value
            for name, default in _FIELD_DEFAULTS
            if (value := getattr(self, name)) != default
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EmissionRecord":
        """The record a record file holds, its trace's JSON lists as tuples.
        A missing key raises KeyError; a document that is no JSON object,
        TypeError at "stage", the first key taken."""
        return cls(
            stage=data["stage"],
            label=data["label"],
            energy_kwh=data["energy_kwh"],
            duration_s=data["duration_s"],
            region=data["region"],
            emissions_kg=data["emissions_kg"],
            inference_count=data.get("inference_count"),
            power_trace=_tuples(data.get("power_trace")),
            failed=data.get("failed", False),
        )


# (name, default) of each record field, MISSING for those without one
_FIELD_DEFAULTS = tuple((f.name, f.default) for f in fields(EmissionRecord))
_AMOUNTS = ("energy_kwh", "duration_s", "emissions_kg")

# `0 <= x <= _FLOAT_MAX` is False for NaN, +-inf and an int beyond the float range
_FLOAT_MAX = sys.float_info.max


def _is_amount(x) -> bool:
    """Whether x is a finite int or float >= 0 (numpy's float64 too), not a bool."""
    return isinstance(x, (int, float)) and type(x) is not bool and 0 <= x <= _FLOAT_MAX


def _tuples(trace):
    """A JSON power trace's lists as tuples; any other value as it is."""
    if type(trace) is not list:
        return trace
    return tuple(tuple(p) if type(p) is list else p for p in trace)


def emissions_kg_from_energy(energy_kwh: float, intensity_g_per_kwh: float) -> float:
    return energy_kwh * intensity_g_per_kwh / 1000.0


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


# the counters are machine-global: held by the one active sampled session
_sampler_lock = threading.Lock()


class EmissionSession:
    """An open measurement bracket; `start_session` is this class."""

    def __init__(
        self,
        stage: str,
        power: PowerModel,
        region: str,
        *,
        label: str = "",
        registry: RegionRegistry | None = None,
        clock=None,
    ):
        if stage not in STAGES:
            raise ValidationError(f"stage must be one of {STAGES}, got {shown(stage)}")
        intensity = (registry or default_registry()).lookup(region)
        if clock is not None and power.kind == "sampled-hardware":
            raise TrackingError("sampled sessions run on the wall clock only")
        self.stage = stage
        self.power = power
        self.region = region
        self.label = label or stage
        self.intensity = intensity
        self.clock = clock if clock is not None else _WallClock()
        self._closed = False
        self._thread = None
        self._samples: list[tuple[float, float]] = []
        self._reader = None
        self._poll_error: TrackingError | None = None

        if power.kind != "sampled-hardware":
            self._t0 = self.clock.now()
            return
        if not _sampler_lock.acquire(blocking=False):
            raise TrackingError(
                "a sampled session is already active; "
                "hardware counters cannot be shared"
            )
        try:
            self._reader = _hardware_energy_reader()
            if self._reader is None:
                raise TrackingError(
                    "no hardware energy counters readable; "
                    "use rated:<W> or fixed:<W>"
                )
            self._stop_event = threading.Event()
            self._t0 = self.clock.now()
            self._samples.append((self._t0, self._read()))
            self._thread = threading.Thread(target=self._sample_loop, daemon=True)
            self._thread.start()
        except BaseException:
            _sampler_lock.release()
            raise

    def _read(self) -> float:
        try:
            return self._reader()
        except OSError as err:
            raise TrackingError(f"cannot read hardware energy counters: {err}") from err

    def _sample_loop(self):
        while not self._stop_event.wait(POLL_INTERVAL_S):
            try:
                self._samples.append((self.clock.now(), self._read()))
            except TrackingError as err:
                # a counter wrap in the unpolled gap would go uncounted, so
                # stop raises this instead of returning a record
                self._poll_error = err
                return

    def _close(self) -> None:
        """Stop the polling thread and release the counters."""
        self._closed = True
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            _sampler_lock.release()

    def stop(self, *, inference_count: int | None = None, failed: bool = False) -> EmissionRecord:
        if self._closed:
            raise TrackingError("session already stopped")
        t1 = self.clock.now()
        duration = t1 - self._t0
        self._close()
        if self._poll_error is not None:
            raise self._poll_error
        trace = None
        if self._reader is not None:
            self._samples.append((t1, self._read()))
            trace = _power_trace(self._samples)
            # the counters measured the energy; integrating the trace would
            # not give it back once the power varies
            energy_kwh = (self._samples[-1][1] - self._samples[0][1]) / JOULES_PER_KWH
        else:
            energy_kwh = self.power.watts * duration / JOULES_PER_KWH
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
        if not self._closed:
            self._close()


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


start_session = EmissionSession


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
    # a direct call: dataclasses.replace costs more than the copy itself
    return EmissionRecord(
        stage=record.stage,
        label=record.label,
        energy_kwh=record.energy_kwh,
        duration_s=record.duration_s,
        region=target_region,
        emissions_kg=record.emissions_kg * scale,
        inference_count=record.inference_count,
        power_trace=record.power_trace,
        failed=record.failed,
    )
