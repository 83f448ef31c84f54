"""Seeded discrete-event simulation of periodic LoRa uplinks.

Devices transmit once per period at an independent uniform random phase
(or a fixed one), frame counters count attempts, and packets on the
same spreading factor collide according to the configured model.
Different spreading factors never interact.  A run is deterministic for
a fixed seed, and per-device outcomes do not depend on which other
devices share the run unless they share a spreading factor.
:func:`run` marks a whole timeline in one pass.  :class:`Edge` marks one a
step at a time, with the same outcomes: :class:`Timeline` steps it through
a run to stream a log, and :class:`lorascale.world.SimWorld` through its clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from . import kernels
from .netserver import check_devices
from .scaling import SfGroup, check_airtime, check_period, check_sf, sf_channels

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
        check_devices([(self.device_id, self.dev_eui)])
        check_sf(self.sf)
        check_period(self.period)
        check_airtime(self.airtime, self.period)
        if self.phase != "random":
            p = float(self.phase)
            if not 0.0 <= p < self.period:
                raise ValueError("fixed phase must lie in [0, period)")
        if not math.isfinite(self.active_from):
            raise ValueError(f"active_from must be finite, got {self.active_from}")
        if not self.active_from < self.active_until:
            raise ValueError("device on/off window is empty")


@dataclass
class SimResult:
    """Outcome of one run: the collision-resolved packet timeline, as
    parallel arrays sorted by (start, device id); ``dev`` indexes
    ``devices``."""

    devices: list[DeviceSpec]
    start: np.ndarray
    end: np.ndarray
    sf: np.ndarray
    dev: np.ndarray
    fcnt: np.ndarray
    delivered: np.ndarray


def device_rng(seed: int, dev_eui: str) -> np.random.Generator:
    """Per-device random stream, independent of the rest of the fleet.

    Its first ``uniform(0.0, period)`` is the device's random phase;
    :func:`draw_phases` computes that one draw for many devices at once.
    """
    return np.random.default_rng([seed & _U64, int(dev_eui, 16)])


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier as high and low 64-bit words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix of uint32 arrays; each call moves the constant on."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


def _mul64(a, b):
    """The 128-bit products of uint64 values as high and low words, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), mid << 32 | p00 & _M32


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * multiplier + inc`` modulo 2**128, on word arrays."""
    top, lo_product = _mul64(lo, _PCG_LO)
    lo_sum = lo_product + inc_lo
    return top + hi * _PCG_LO + lo * _PCG_HI + inc_hi + (lo_sum < inc_lo), lo_sum


def draw_phases(seed: int, dev_euis: list[str], periods: np.ndarray) -> np.ndarray:
    """Each device's ``device_rng(seed, eui).uniform(0.0, period)``, bit for
    bit, for all devices in one pass of integer arrays and no ``Generator``.

    This replays NumPy: SeedSequence pools the entropy words, the seed's
    and then the EUI's little-endian uint32 words (0 is one word ``[0]``;
    a pool slot past them hashes as 0, as a zero word does), and expands
    the pool into four uint64 words; PCG64 seeds its 128-bit state with
    them and steps once more for the draw, whose XSL-RR output gives the
    double ``(x >> 11) * 2**-53`` that scales the period.
    """
    seed &= _U64
    eui = np.array([int(e, 16) for e in dev_euis], dtype=np.uint64)
    words = [np.full(eui.size, w, dtype=np.uint32) for w in ([seed & _M32, seed >> 32]
                                                            if seed >> 32 else [seed])]
    words += [(eui & _M32).astype(np.uint32), (eui >> 32).astype(np.uint32)]
    words += [np.zeros(eui.size, dtype=np.uint32)] * (4 - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    hashmix = _hasher(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = (half[2 * j] | half[2 * j + 1] << 32 for j in range(4))
    # initstate is (w0, w1) and initseq (w2, w3), high word first; the first
    # step from state 0 leaves inc, to which initstate is added
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    for _ in range(2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return periods * ((x >> 11).astype(np.float64) * 2.0 ** -53)


class Roster(NamedTuple):
    """Per-device columns: period, airtime, SF (int16) and each device's
    position in device-id order."""

    period: np.ndarray
    airtime: np.ndarray
    sf: np.ndarray
    id_rank: np.ndarray


def roster(devices: list[DeviceSpec]) -> Roster:
    """The columns of ``devices``, whose specs each checked their own id and EUI."""
    check_devices(((d.device_id, d.dev_eui) for d in devices), forms=False)
    return Roster(np.array([d.period for d in devices], dtype=np.float64),
                  np.array([d.airtime for d in devices], dtype=np.float64),
                  np.array([d.sf for d in devices], dtype=np.int16),
                  np.argsort(np.argsort(np.array([d.device_id for d in devices]))))


def attempts(base, period, k0, limit):
    """How many lattice starts ``base + k * period`` with ``k >= k0`` lie
    below ``limit``; elementwise over arrays.

    The start is that float expression, the one both simulators
    evaluate, and it never decreases as ``k`` grows, so the starts below
    the limit are ``k0 .. k0 + count - 1``.  One ``ceil`` of
    ``(limit - base) / period`` estimates the first ``k`` at or past the
    limit; rounding can put that off by one (by more when ``period`` is
    near the float spacing at ``base``), so the estimate is stepped until
    the start of ``k`` is not below the limit and that of ``k - 1`` is.
    An estimate that is not finite or does not fit an int64 raises
    ``ValueError``.
    """
    k = np.maximum(np.ceil((limit - base) / period), k0)
    if not np.all(k < 2.0 ** 63):
        raise ValueError("attempt count is not finite or exceeds the int64 range")
    k = k.astype(np.int64)
    while True:
        short = base + k * period < limit
        over = (k > k0) & (base + (k - 1) * period >= limit)
        if not (short.any() or over.any()):
            return k - k0
        k = k + short - over


def _tie_order(key: np.ndarray, minor) -> np.ndarray:
    """Indices that order rows by ``key``, equal keys by the ``np.lexsort``
    keys (least significant first) that ``minor(rows)`` gives for the
    indexed rows: one unstable sort by key, then the rows that share a key
    (usually none) sorted by (key, minor keys) among the places they hold."""
    order = np.argsort(key)
    k = key[order]
    tie = np.zeros(k.size, dtype=bool)  # keys equal to a neighbour's
    tie[1:] = k[1:] == k[:-1]
    tie[:-1] |= tie[1:]
    sub = order[tie]
    order[tie] = sub[np.lexsort((*minor(sub), k[tie]))]
    return order


def lattice_events(columns: Roster, dev: np.ndarray, base: np.ndarray, k0: np.ndarray,
                   counts: np.ndarray, fcnt0: np.ndarray):
    """The events of lattice intervals as timeline-ordered ``start, end,
    sf, dev, fcnt`` arrays: by start, equal starts by device id.

    Interval ``j`` holds attempts ``k = k0[j] .. k0[j] + counts[j] - 1``
    of device ``dev[j]``; attempt ``k`` starts at ``base[j] + k * period``
    with the device's period and carries frame counter ``fcnt0[j] + k``.
    """
    interval = np.repeat(np.arange(dev.size), counts)
    k = k0[interval] + np.arange(interval.size) - np.repeat(np.cumsum(counts) - counts, counts)
    dev = dev[interval]
    start = base[interval] + k * columns.period[dev]
    fcnt = fcnt0[interval] + k
    del interval, k  # bounds the peak memory of a large run
    order = _tie_order(start, lambda rows: (columns.id_rank[dev[rows]],))
    start, dev, fcnt = start[order], dev[order], fcnt[order]
    del order
    return start, start + columns.airtime[dev], columns.sf[dev], dev, fcnt


def resolve(starts: np.ndarray, ends: np.ndarray, sfs: np.ndarray,
            model: CollisionModel) -> np.ndarray:
    """Per-SF collision marking; arrays must be sorted by start."""
    lost = np.zeros(starts.shape[0], dtype=bool)
    for sf in np.unique(sfs):
        mask = sfs == sf
        lost[mask] = model.mark(starts[mask], ends[mask])
    return lost


# Events drawn and marked at a time by the Monte-Carlo estimator and by a
# timeline step; memory is bounded by this, not by the length of the run.
_CHUNK_EVENTS = 1 << 16


class Edge:
    """The open edge of a timeline, resolved one step at a time.

    An event is final once it has ended (``end <= now``): every later
    event starts at or after ``now``, after it is over.  A same-SF event
    can only be hit by events that start less than one airtime before it,
    under either collision model, so the edge keeps the events that are
    still open plus the final ones that start within a look-back of twice
    the longest airtime before the earliest open start (or before
    ``now``, when nothing is open); older events leave it, and memory, as
    the kept ones are copied out of the step's buffer.  However time
    is cut into steps, the events, their floats and their outcomes are
    those of marking the whole timeline at once.
    """

    def __init__(self, columns: Roster, model: CollisionModel):
        self._model = model
        self._lookback = 2.0 * float(columns.airtime.max(initial=0.0))
        self._events = lattice_events(columns, *[np.empty(0, dtype=np.int64)] * 5)
        self.now = -math.inf

    def step(self, events, now: float):
        """Append ``events``, :func:`lattice_events` columns that start at or
        after ``self.now`` (so the buffer stays sorted), and move to ``now``;
        returns the columns of the events that ended in between, in timeline
        order, then their delivered flags.  A step that raises changes nothing."""
        buffer = tuple(map(np.concatenate, zip(self._events, events)))
        start, end, sf = buffer[:3]
        fresh = (end > self.now) & (end <= now)
        block = tuple(column[fresh] for column in buffer)
        lost = resolve(start, end, sf, self._model)[fresh] if block[0].size else np.zeros(0, bool)
        open_starts = start[end > now]
        edge = open_starts[0] if open_starts.size else now
        keep = int(np.searchsorted(start, edge - self._lookback, side="left"))
        self._events, self.now = tuple(column[keep:].copy() for column in buffer), now
        return (*block, ~lost)


class Timeline:
    """A run as :class:`SimResult` blocks, one per step of an :class:`Edge`.

    Attempt ``k`` of a device starts at ``active_from + phase + k * period``
    and is made if it starts no later than ``horizon - airtime``, where the
    horizon is the earlier of ``duration`` and ``active_until``.  The span
    of starts is cut into steps equal in time, not in events, of
    ``_CHUNK_EVENTS`` events on average.
    """

    def __init__(self, devices: Iterable[DeviceSpec], duration: float,
                 model: CollisionModel = AnyOverlap(), seed: int = 0):
        self.devices, self.model = list(devices), model
        if not self.devices:
            raise ValueError("device set must be non-empty")
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration must be finite and positive, got {duration}")
        self.columns = roster(self.devices)
        drawn = [i for i, d in enumerate(self.devices) if d.phase == "random"]
        phase = np.array([0.0 if d.phase == "random" else float(d.phase) for d in self.devices])
        phase[drawn] = draw_phases(seed, [self.devices[i].dev_eui for i in drawn],
                                   self.columns.period[drawn])
        self.first = np.array([d.active_from for d in self.devices]) + phase
        horizon = np.minimum([d.active_until for d in self.devices], duration)
        # a float start no later than x is one below the next float after x
        self.limit = np.nextafter(horizon - self.columns.airtime, np.inf)
        self.counts = attempts(self.first, self.columns.period, 0, self.limit)

    def __iter__(self) -> Iterator[SimResult]:
        steps = max(1, -(-int(self.counts.sum()) // _CHUNK_EVENTS))
        lo, hi = float(self.first.min()), float(self.limit.max())
        dev, edge = np.arange(len(self.devices)), Edge(self.columns, self.model)
        k = zeros = np.zeros(dev.size, dtype=np.int64)
        for i in range(1, steps + 1):
            now = lo + (hi - lo) * i / steps if i < steps else math.inf  # the last ends all
            counts = attempts(self.first, self.columns.period, k, np.minimum(self.limit, now))
            events = lattice_events(self.columns, dev, self.first, k, counts, zeros)
            k = k + counts
            yield SimResult(self.devices, *edge.step(events, now))


def run(devices: Iterable[DeviceSpec], duration: float,
        model: CollisionModel = AnyOverlap(), seed: int = 0) -> SimResult:
    """Simulate all devices for ``duration`` seconds of channel time: every
    attempt their :class:`Timeline` counts, marked in one pass."""
    timeline = Timeline(devices, duration, model, seed)
    n = len(timeline.devices)
    zeros = np.zeros(n, dtype=np.int64)
    start, end, sf, dev, fcnt = lattice_events(timeline.columns, np.arange(n), timeline.first,
                                               zeros, timeline.counts, zeros)
    return SimResult(timeline.devices, start, end, sf, dev, fcnt, ~resolve(start, end, sf, model))


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


def _loss_rounds(count: int, period: float, airtime: float, rounds: int,
                 model: CollisionModel, rng: np.random.Generator) -> int:
    """Lost-transmission count over ``rounds`` independent periods.

    Each round places every device's start uniformly on a circle of
    circumference ``period``, so successive periods are independent
    samples and the closed-form no-collision law holds exactly.  Round
    ``r`` starts at ``stride * r``, far enough from the next round that
    none of its packets can reach it, so the rounds form one timeline
    the ordinary linear-time kernels can mark.

    Each round's phases are sorted on their own and laid out as a row:
    the real starts, then ghosts one period later, so that collisions
    across the wraparound are seen.  Only ghosts of phases below one
    airtime are kept.  Under both models two events meet only if their
    starts lie less than one airtime apart (a window of ``factor <= 2``
    airtimes ends one airtime after its packet's start, so it opens at
    most one airtime before that start), and the ghost of phase ``p``
    starts more than ``p`` after every real start of its round; two
    ghosts repeat what their real events show.  The kept ghosts of a
    sorted row are a prefix of it, so a chunk's rows hold ghost columns
    only as wide as its widest prefix, ``g``; the columns past a row's
    own prefix are dropped with the other ghosts, and the ghost flags
    fold onto the first ``g`` devices.  Kept events of a row are in
    order, so the timeline needs no global sort.  A device's packet is
    lost when its real event or its ghost is.

    Rounds are drawn and marked in chunks of about ``_CHUNK_EVENTS``
    events (at least one round each).  Consecutive draws continue one
    stream, so the result does not depend on the chunking.
    """
    stride = period + 4.0 * airtime
    per_chunk = max(1, _CHUNK_EVENTS // count)
    lost = 0
    for first in range(0, rounds, per_chunk):
        n = min(per_chunk, rounds - first)
        phases = rng.uniform(0.0, period, size=(n, count))
        phases.sort(axis=1)
        ghost = phases < airtime  # a prefix of each sorted row
        g = int(np.count_nonzero(ghost.any(axis=0)))  # the widest prefix
        phases += (stride * np.arange(first, first + n))[:, None]  # each round's offset
        rows = np.concatenate((phases, phases[:, :g] + period), axis=1)
        keep = np.ones(rows.shape, dtype=bool)
        keep[:, count:] = ghost[:, :g]
        s = rows[keep]
        flags = np.zeros(rows.shape, dtype=bool)
        flags[keep] = model.mark(s, s + airtime)
        flags[:, :g] |= flags[:, count:]
        lost += int(np.count_nonzero(flags[:, :count]))
    return lost


def estimate_pdr(groups: Iterable[SfGroup], period: float, rounds: int,
                 model: CollisionModel = AnyOverlap(), seed: int = 0) -> PdrEstimate:
    """Network PDR over ``rounds`` independently-phased transmit periods.

    Unlike :func:`run`, every period draws fresh phases, which makes the
    sampled transmissions independent trials: the estimate converges to
    the closed-form law for the model and the binomial ``stderr`` is an
    honest uncertainty.  Groups on different spreading factors never
    interact and are simulated separately.  The mix and ``period`` are
    checked by :func:`~lorascale.scaling.sf_channels`, as the bounds are.
    """
    groups = sf_channels(groups, period)
    if rounds < 1:
        raise ValueError("need at least one round")
    rng = np.random.default_rng(seed & _U64)
    sent = rounds * sum(g.count for g in groups)
    lost = 0
    for g in sorted(groups, key=lambda g: g.sf):
        lost += _loss_rounds(g.count, period, g.airtime, rounds, model, rng)
    return PdrEstimate(delivered=sent - lost, sent=sent)


# Packet-log records formatted and written at a time; the writer's
# memory is bounded by this, not by the length of the log.
_LOG_CHUNK = 1 << 14

# One packet-log line: receive time, EUI, frame counter and SF.
_LOG_FORMAT = "%.6f\t%s\t%d\t%d\n"


def write_packet_log(result: SimResult | Timeline, path) -> int:
    """Write the delivered-packet log of a result or of a :class:`Timeline`,
    block by block; returns the record count.

    One ``ts<TAB>eui<TAB>fcnt<TAB>sf`` line per delivered event, with the
    event end as the receive time to six decimals; lost events produce
    no line.  Lines are ordered by receive time, then EUI, then frame
    counter: each block is sorted alone, as an end time falls in one
    block only, by end and then, among equal ends only, by EUI and
    counter.  Its lines are formatted ``_LOG_CHUNK`` at a time, by one
    ``%`` of the repeated line format over the chunk's interleaved
    columns.
    """
    euis = np.array([d.dev_eui for d in result.devices], dtype=object)
    # EUIs are unique, so their ranks sort like the strings themselves
    eui_rank = np.argsort(np.argsort(euis.astype(str)))
    written = 0
    with open(path, "w", encoding="ascii") as fh:
        for block in [result] if isinstance(result, SimResult) else result:
            end, dev, fcnt = block.end, block.dev, block.fcnt
            good = np.flatnonzero(block.delivered)
            rows = good[_tie_order(end[good], lambda tied: (fcnt[good[tied]],
                                                             eui_rank[dev[good[tied]]]))]
            for lo in range(0, rows.size, _LOG_CHUNK):
                chunk = rows[lo:lo + _LOG_CHUNK]
                fields = [None] * (4 * chunk.size)
                fields[0::4] = end[chunk].tolist()
                fields[1::4] = euis[dev[chunk]].tolist()
                fields[2::4] = fcnt[chunk].tolist()
                fields[3::4] = block.sf[chunk].tolist()
                fh.write(_LOG_FORMAT * chunk.size % tuple(fields))
            written += rows.size
    return written
