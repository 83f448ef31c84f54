"""Seeded discrete-event simulation of periodic LoRa uplinks.

Devices transmit once per period at an independent uniform random phase
(or a fixed one), frame counters count attempts, and packets on the
same spreading factor collide according to the configured model.
Different spreading factors never interact.  A run is deterministic for
a fixed seed, and per-device outcomes do not depend on which other
devices share the run unless they share a spreading factor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from . import kernels
from .netserver import PacketRecord

_EUI_RE = re.compile(r"^[0-9a-fA-F]{16}$")
_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class AnyOverlap:
    """Both packets are lost whenever two same-SF packets overlap at all."""

    def mark(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Lost flags for sorted same-channel events."""
        return kernels.mark_any_overlap(starts, ends)


@dataclass(frozen=True)
class VulnerabilityWindow:
    """A packet is lost iff another same-SF packet starts strictly inside
    the window of ``factor * airtime`` seconds ending at its own end.

    ``factor=2.0`` reproduces the any-overlap rule for equal airtimes;
    ``factor=1.0`` loses a packet only to transmissions that begin while
    it is on the air.
    """

    factor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 2.0:
            raise ValueError(f"window factor must be in (0, 2], got {self.factor}")

    def mark(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Lost flags for sorted same-channel events."""
        return kernels.mark_window(starts, ends, self.factor)


CollisionModel = Union[AnyOverlap, VulnerabilityWindow]


@dataclass(frozen=True)
class DeviceSpec:
    """One simulated end device."""

    device_id: str
    dev_eui: str
    sf: int
    period: float
    airtime: float
    phase: float | str = "random"
    active_from: float = 0.0
    active_until: float = math.inf

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ValueError("device id must be non-empty")
        if not _EUI_RE.match(self.dev_eui):
            raise ValueError(f"device EUI must be 16 hex characters, got {self.dev_eui!r}")
        if not 7 <= self.sf <= 12:
            raise ValueError(f"spreading factor must be 7..12, got {self.sf}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be finite and positive, got {self.period}")
        if not (math.isfinite(self.airtime) and self.airtime > 0):
            raise ValueError(f"airtime must be finite and positive, got {self.airtime}")
        if self.airtime >= self.period:
            raise ValueError("airtime must be shorter than the period")
        if self.phase != "random":
            p = float(self.phase)
            if not 0.0 <= p < self.period:
                raise ValueError("fixed phase must lie in [0, period)")
        if not self.active_from < self.active_until:
            raise ValueError("device on/off window is empty")


@dataclass(frozen=True)
class TransmissionEvent:
    device_id: str
    fcnt: int
    start: float
    end: float
    sf: int
    delivered: bool


@dataclass
class SimResult:
    """Outcome of one run: the collision-resolved packet timeline.

    Events are stored as parallel arrays sorted by (start, device id)
    and materialized into :class:`TransmissionEvent` objects on demand.
    """

    devices: list[DeviceSpec]
    start: np.ndarray
    end: np.ndarray
    sf: np.ndarray
    dev: np.ndarray
    fcnt: np.ndarray
    delivered: np.ndarray
    duration: float

    def sent_counts(self) -> dict[str, int]:
        sent = np.bincount(self.dev, minlength=len(self.devices))
        return {d.device_id: int(sent[i]) for i, d in enumerate(self.devices)}

    def delivered_counts(self) -> dict[str, int]:
        good = np.bincount(self.dev[self.delivered], minlength=len(self.devices))
        return {d.device_id: int(good[i]) for i, d in enumerate(self.devices)}

    @property
    def network_pdr(self) -> float:
        if self.dev.size == 0:
            raise ValueError("no transmissions in this run")
        return float(np.count_nonzero(self.delivered)) / self.dev.size

    def events(self) -> Iterator[TransmissionEvent]:
        for i in range(self.dev.size):
            d = self.devices[self.dev[i]]
            yield TransmissionEvent(
                device_id=d.device_id,
                fcnt=int(self.fcnt[i]),
                start=float(self.start[i]),
                end=float(self.end[i]),
                sf=int(self.sf[i]),
                delivered=bool(self.delivered[i]),
            )


def device_rng(seed: int, dev_eui: str) -> np.random.Generator:
    """Per-device random stream, independent of the rest of the fleet."""
    return np.random.default_rng([seed & _U64, int(dev_eui, 16)])


def draw_phase(spec: DeviceSpec, seed: int) -> float:
    if spec.phase == "random":
        return float(device_rng(seed, spec.dev_eui).uniform(0.0, spec.period))
    return float(spec.phase)


def device_id_rank(devices: list[DeviceSpec]) -> np.ndarray:
    """Each device's position in device-id order."""
    return np.argsort(np.argsort(np.array([d.device_id for d in devices])))


def timeline_order(start: np.ndarray, dev: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    """Indices that put events in timeline order: by start, equal starts
    by device id.  ``dev`` indexes the roster whose
    :func:`device_id_rank` is ``id_rank``."""
    return np.lexsort((id_rank[dev], start))


def resolve(starts: np.ndarray, ends: np.ndarray, sfs: np.ndarray,
            model: CollisionModel) -> np.ndarray:
    """Per-SF collision marking; arrays must be sorted by start."""
    lost = np.zeros(starts.shape[0], dtype=bool)
    for sf in np.unique(sfs):
        mask = sfs == sf
        lost[mask] = model.mark(starts[mask], ends[mask])
    return lost


def run(devices: Iterable[DeviceSpec], duration: float,
        model: CollisionModel = AnyOverlap(), seed: int = 0) -> SimResult:
    """Simulate all devices for ``duration`` seconds of channel time."""
    devices = list(devices)
    if not devices:
        raise ValueError("device set must be non-empty")
    if duration <= 0:
        raise ValueError("duration must be positive")
    euis = [d.dev_eui.lower() for d in devices]
    if len(set(euis)) != len(euis):
        raise ValueError("device EUIs must be unique within a run")
    if len({d.device_id for d in devices}) != len(devices):
        raise ValueError("device ids must be unique within a run")

    # attempts k = 0 .. n-1 start at first + period * k and must end
    # by the horizon of the device's active window
    period = np.array([d.period for d in devices], dtype=np.float64)
    airtime = np.array([d.airtime for d in devices], dtype=np.float64)
    first = np.array([d.active_from + draw_phase(d, seed) for d in devices], dtype=np.float64)
    horizon = np.minimum(np.array([d.active_until for d in devices], dtype=np.float64),
                         duration)
    last_allowed = horizon - airtime
    fits = first <= last_allowed
    counts = np.zeros(len(devices), dtype=np.int64)
    counts[fits] = np.floor((last_allowed[fits] - first[fits]) / period[fits]).astype(np.int64) + 1

    dev = np.repeat(np.arange(len(devices), dtype=np.int64), counts)
    fcnt = np.arange(dev.size, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    start = first[dev] + period[dev] * fcnt

    # global order (start, device id lexicographic) for determinism
    order = timeline_order(start, dev, device_id_rank(devices))
    start = start[order]
    dev = dev[order]
    fcnt = fcnt[order]
    del order
    end = start + airtime[dev]
    sf = np.array([d.sf for d in devices], dtype=np.int16)[dev]

    lost = resolve(start, end, sf, model)
    return SimResult(
        devices=devices,
        start=start,
        end=end,
        sf=sf,
        dev=dev,
        fcnt=fcnt,
        delivered=~lost,
        duration=duration,
    )


@dataclass(frozen=True)
class SfGroup:
    """A same-configuration device group for Monte-Carlo estimation."""

    sf: int
    count: int
    airtime: float

    def __post_init__(self) -> None:
        if not 7 <= self.sf <= 12:
            raise ValueError(f"spreading factor must be 7..12, got {self.sf}")
        if self.count < 0:
            raise ValueError("group device count cannot be negative")
        if not (math.isfinite(self.airtime) and self.airtime > 0):
            raise ValueError(f"airtime must be finite and positive, got {self.airtime}")


@dataclass(frozen=True)
class PdrEstimate:
    """Monte-Carlo delivery estimate with its binomial standard error."""

    delivered: int
    sent: int

    @property
    def pdr(self) -> float:
        if self.sent == 0:
            raise ValueError("no transmissions sampled")
        return self.delivered / self.sent

    @property
    def stderr(self) -> float:
        p = self.pdr
        return math.sqrt(p * (1.0 - p) / self.sent)


# Events the Monte-Carlo estimator draws and marks at a time; its memory
# is bounded by this, not by the number of rounds.
_CHUNK_EVENTS = 1 << 16


def _loss_rounds(count: int, period: float, airtime: float, rounds: int,
                 model: CollisionModel, rng: np.random.Generator) -> int:
    """Lost-transmission count over ``rounds`` independent periods.

    Each round places every device's start uniformly on a circle of
    circumference ``period``, so successive periods are independent
    samples and the closed-form no-collision law holds exactly.  Round
    ``r`` starts at ``stride * r``, far enough from the next round that
    none of its packets can reach it, so the rounds form one timeline
    the ordinary linear-time kernels can mark.

    Each round's phases are sorted on their own.  Phases below twice the
    airtime, a prefix of the sorted round, get a ghost copy one period
    later so collisions across the wraparound are seen.  Ghosts start
    after every real start of their round, so a round is laid out as
    its sorted real starts followed by its ghosts, and the timeline
    needs no global sort.  A device's packet is lost when its real event
    or its ghost is.

    Rounds are drawn and marked in chunks of about ``_CHUNK_EVENTS``
    events (at least one round each).  Consecutive draws continue one
    stream, so the result does not depend on the chunking.
    """
    stride = period + 4.0 * airtime
    per_chunk = max(1, _CHUNK_EVENTS // count)
    columns = np.arange(count)
    lost = 0
    for first in range(0, rounds, per_chunk):
        n = min(per_chunk, rounds - first)
        phases = np.sort(rng.uniform(0.0, period, size=(n, count)), axis=1)
        starts = ((stride * np.arange(first, first + n))[:, None] + phases).ravel()
        ghost = phases < 2.0 * airtime
        # row r begins after r full rows and the ghosts of the rows before it
        row_at = np.arange(n) * count
        row_at[1:] += np.cumsum(np.count_nonzero(ghost, axis=1)[:-1])
        real_at = (row_at[:, None] + columns).ravel()
        ghost = ghost.ravel()
        ghost_at = real_at[ghost] + count
        s = np.empty(real_at.size + ghost_at.size)
        s[real_at] = starts
        s[ghost_at] = starts[ghost] + period
        flags = model.mark(s, s + airtime)
        hit = flags[real_at]
        hit[ghost] |= flags[ghost_at]
        lost += int(np.count_nonzero(hit))
    return lost


def estimate_pdr(groups: Iterable[SfGroup], period: float, rounds: int,
                 model: CollisionModel = AnyOverlap(), seed: int = 0) -> PdrEstimate:
    """Network PDR over ``rounds`` independently-phased transmit periods.

    Unlike :func:`run`, every period draws fresh phases, which makes the
    sampled transmissions independent trials: the estimate converges to
    the closed-form law for the model and the binomial ``stderr`` is an
    honest uncertainty.  Groups on different spreading factors never
    interact and are simulated separately.
    """
    groups = [g for g in groups if g.count > 0]
    if not groups:
        raise ValueError("need at least one non-empty device group")
    if rounds < 1:
        raise ValueError("need at least one round")
    if len({g.sf for g in groups}) != len(groups):
        raise ValueError("one group per spreading factor")
    if not math.isfinite(period):
        raise ValueError(f"period must be finite, got {period}")
    for g in groups:
        if g.airtime >= period:
            raise ValueError("airtime must be shorter than the period")
    rng = np.random.default_rng(seed & _U64)
    sent = rounds * sum(g.count for g in groups)
    lost = 0
    for g in sorted(groups, key=lambda g: g.sf):
        lost += _loss_rounds(g.count, period, g.airtime, rounds, model, rng)
    return PdrEstimate(delivered=sent - lost, sent=sent)


def export_packet_log(result: SimResult) -> Iterator[PacketRecord]:
    """Packet records for the delivered events, ordered by receive time.

    Lost events produce no record; the receive timestamp is the event
    end time.
    """
    good = np.flatnonzero(result.delivered)
    # EUIs are unique, so their ranks sort like the strings themselves
    eui_rank = np.argsort(np.argsort(np.array([d.dev_eui for d in result.devices])))
    order = np.lexsort((result.fcnt[good], eui_rank[result.dev[good]], result.end[good]))
    for i in good[order]:
        d = result.devices[result.dev[i]]
        yield PacketRecord(
            dev_eui=d.dev_eui,
            fcnt=int(result.fcnt[i]),
            received_ts=float(result.end[i]),
            sf=int(result.sf[i]),
        )


def format_log_line(record: PacketRecord) -> str:
    """One packet log line: ts, EUI, frame counter and SF, tab separated."""
    return f"{record.received_ts:.6f}\t{record.dev_eui}\t{record.fcnt}\t{record.sf}"


def write_packet_log(result: SimResult, path) -> int:
    """Write the delivered-packet log; returns the record count."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for record in export_packet_log(result):
            fh.write(format_log_line(record) + "\n")
            n += 1
    return n
