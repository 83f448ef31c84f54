"""Live co-simulated radio environment for orchestration runs.

Where :func:`lorascale.simulator.run` resolves a fixed schedule in one
shot, :class:`SimWorld` advances a virtual clock interactively: devices
are switched on and off while time passes, transmissions are generated
lazily, and collision outcomes are finalized as soon as no future
transmission can still touch them.  Delivered packets become queryable
through the same interface the network-server client exposes, so a
controller can be driven against the world directly.

The world resolves only the open edge of its timeline.  An event is
final once it has ended (``end <= now``): every later transmission
starts after it is over.  A same-SF event can only be hit by events
that start less than one airtime before it, under either collision
model, so the event buffer keeps the events that are still open plus
the final ones that start within a look-back of twice the longest
airtime before the earliest open start (or before ``now``, when nothing
is open); older events leave it.  Each event is recorded, once it is
final, in a per-device history kept in time order, which queries and
ground-truth counts bisect.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .netserver import PacketRecord
from .simulator import (AnyOverlap, CollisionModel, DeviceSpec, device_id_rank, device_rng,
                        resolve, timeline_order)


def closed_window(ts: list[float], from_ts: float, to_ts: float) -> slice:
    """Positions of the ascending ``ts`` that lie in [from_ts, to_ts]."""
    if not from_ts <= to_ts:  # also catches NaN bounds
        return slice(0, 0)
    return slice(bisect_left(ts, from_ts), bisect_right(ts, to_ts))


@dataclass
class _DeviceState:
    spec: DeviceSpec
    rng: np.random.Generator
    index: int  # roster position
    active: bool = False
    # start times are base + k * period (not accumulated) so long runs
    # produce the same floats as the batch simulator
    base: float | None = None
    k: int = 0
    next_fcnt: int = 0
    # finalized history, ascending in time
    attempt_ends: list[float] = field(default_factory=list)
    delivered: list[PacketRecord] = field(default_factory=list)
    delivered_ts: list[float] = field(default_factory=list)

    def next_start(self) -> float | None:
        if self.base is None:
            return None
        return self.base + self.k * self.spec.period


class SimWorld:
    """Mutable fleet simulation with on/off control and a query API.

    Device specs are reused from the batch simulator; their
    ``active_from``/``active_until`` windows are ignored here because
    activity is driven through :meth:`set_active`.  Frame counters keep
    counting across off/on cycles.
    """

    def __init__(self, devices, model: CollisionModel = AnyOverlap(), seed: int = 0):
        devices = list(devices)
        if len({d.device_id for d in devices}) != len(devices):
            raise ValueError("device ids must be unique")
        if len({d.dev_eui.lower() for d in devices}) != len(devices):
            raise ValueError("device EUIs must be unique")
        self._model = model
        self._order = [_DeviceState(spec=d, rng=device_rng(seed, d.dev_eui), index=i)
                       for i, d in enumerate(devices)]
        self._states = {s.spec.device_id: s for s in self._order}
        self._by_eui = {s.spec.dev_eui: s for s in self._order}
        self._id_rank = device_id_rank(devices)
        self._airtime = np.array([d.airtime for d in devices], dtype=np.float64)
        self._device_sf = np.array([d.sf for d in devices], dtype=np.int16)
        self._lookback = 2.0 * max((d.airtime for d in devices), default=0.0)
        self._now = 0.0
        # the open edge of the timeline in timeline order: unfinished
        # events plus the final ones that may still hit them
        self._start = np.empty(0)
        self._end = np.empty(0)
        self._sf = np.empty(0, dtype=np.int16)
        self._dev = np.empty(0, dtype=np.int64)
        self._fcnt = np.empty(0, dtype=np.int64)

    @property
    def now(self) -> float:
        return self._now

    def set_active(self, device_id: str, active: bool) -> None:
        """Toggle a device at the current time; idempotent."""
        state = self._states[device_id]
        if active == state.active:
            return
        state.active = active
        if active:
            spec = state.spec
            phase = spec.phase if spec.phase != "random" else float(
                state.rng.uniform(0.0, spec.period)
            )
            state.base = self._now + float(phase)
            state.k = 0
        else:
            state.base = None

    def advance(self, dt: float) -> None:
        """Move the clock forward, generating and finalizing transmissions."""
        if dt < 0:
            raise ValueError("cannot advance backwards")
        if not math.isfinite(dt):
            raise ValueError("advance step must be finite")
        horizon = self._now + dt
        starts: list[float] = []
        devs: list[int] = []
        fcnts: list[int] = []
        for state in self._order:
            while state.active and state.base is not None:
                start = state.next_start()
                if start >= horizon:
                    break
                starts.append(start)
                devs.append(state.index)
                fcnts.append(state.next_fcnt)
                state.next_fcnt += 1
                state.k += 1
        if starts:
            start = np.array(starts)
            dev = np.array(devs, dtype=np.int64)
            # every new event starts at or after the previous clock, past
            # all buffered starts, so appending keeps the buffer sorted
            order = timeline_order(start, dev, self._id_rank)
            start, dev = start[order], dev[order]
            self._start = np.concatenate((self._start, start))
            self._end = np.concatenate((self._end, start + self._airtime[dev]))
            self._sf = np.concatenate((self._sf, self._device_sf[dev]))
            self._dev = np.concatenate((self._dev, dev))
            self._fcnt = np.concatenate((self._fcnt, np.array(fcnts, dtype=np.int64)[order]))
        previous, self._now = self._now, horizon
        self._finalize(previous)

    def _finalize(self, previous: float) -> None:
        """Record the events that ended since ``previous``, then drop the
        final events that no open or future event can reach."""
        fresh = np.flatnonzero((self._end > previous) & (self._end <= self._now))
        if fresh.size:
            lost = resolve(self._start, self._end, self._sf, self._model)[fresh]
            for i, end, fcnt, lost_i in zip(self._dev[fresh].tolist(), self._end[fresh].tolist(),
                                            self._fcnt[fresh].tolist(), lost.tolist()):
                state = self._order[i]
                state.attempt_ends.append(end)
                if not lost_i:
                    spec = state.spec
                    state.delivered.append(PacketRecord(
                        dev_eui=spec.dev_eui, fcnt=fcnt, received_ts=end, sf=spec.sf))
                    state.delivered_ts.append(end)
        open_starts = self._start[self._end > self._now]
        edge = open_starts[0] if open_starts.size else self._now
        keep = int(np.searchsorted(self._start, edge - self._lookback, side="left"))
        if keep:
            self._start = self._start[keep:]
            self._end = self._end[keep:]
            self._sf = self._sf[keep:]
            self._dev = self._dev[keep:]
            self._fcnt = self._fcnt[keep:]

    def query(self, dev_euis: list[str], from_ts: float, to_ts: float
              ) -> list[list[PacketRecord]]:
        """Delivered packets of each device in the closed time window,
        one list per EUI in order, as the network-server client answers."""
        if from_ts > to_ts:
            raise ValueError("query window is empty (from > to)")
        out = []
        for eui in dev_euis:
            state = self._by_eui.get(eui)
            out.append([] if state is None
                       else state.delivered[closed_window(state.delivered_ts, from_ts, to_ts)])
        return out

    def delivered_records(self) -> list[PacketRecord]:
        return sorted((r for s in self._order for r in s.delivered),
                      key=lambda r: (r.received_ts, r.dev_eui, r.fcnt))

    def attempt_counts(self) -> dict[str, int]:
        """Finalized attempts per device (collided ones included)."""
        return {device_id: len(s.attempt_ends) for device_id, s in self._states.items()}

    def ground_truth(self, from_ts: float, to_ts: float) -> dict[str, tuple[int, int]]:
        """(delivered, attempted) per device over a receive-time window.

        Counts finalized transmissions whose end time falls inside the
        closed window; the delivered ones are exactly what
        :meth:`query` returns for that window.
        """
        truth = {}
        for device_id, s in self._states.items():
            got = closed_window(s.delivered_ts, from_ts, to_ts)
            tried = closed_window(s.attempt_ends, from_ts, to_ts)
            truth[device_id] = (got.stop - got.start, tried.stop - tried.start)
        return truth
