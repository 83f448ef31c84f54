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
is open); older events leave it.  Once final, an event's end time and
device join the world's attempt arrays, one chunk per advance, and a
delivered event becomes a record in a :class:`PacketStore`, so the world
answers a query exactly as the network server's store does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netserver import PacketRecord, PacketStore
from .simulator import (AnyOverlap, CollisionModel, DeviceSpec, device_id_rank, device_rng,
                        resolve, timeline_order)


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
        self._euis = [d.dev_eui for d in devices]
        self._sfs = [d.sf for d in devices]
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
        # finalized attempts: end times and roster positions, one chunk
        # per advance; the delivered ones are records in the store
        self._attempt_end = [np.empty(0)]
        self._attempt_dev = [np.empty(0, dtype=np.int64)]
        self._store = PacketStore()

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
            self._attempt_end.append(self._end[fresh])
            self._attempt_dev.append(self._dev[fresh])
            good = fresh[~lost]
            euis, sfs = self._euis, self._sfs
            self._store.ingest([
                PacketRecord(euis[i], fcnt, end, sfs[i])
                for i, fcnt, end in zip(self._dev[good].tolist(), self._fcnt[good].tolist(),
                                        self._end[good].tolist())
            ])
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
        return [self._store.query(eui, from_ts, to_ts) for eui in dev_euis]

    def _attempts(self) -> tuple[np.ndarray, np.ndarray]:
        """End times and roster positions of all finalized attempts."""
        if len(self._attempt_end) > 1:
            self._attempt_end = [np.concatenate(self._attempt_end)]
            self._attempt_dev = [np.concatenate(self._attempt_dev)]
        return self._attempt_end[0], self._attempt_dev[0]

    def attempt_counts(self) -> dict[str, int]:
        """Finalized attempts per device (collided ones included)."""
        _, dev = self._attempts()
        tried = np.bincount(dev, minlength=len(self._order)).tolist()
        return {s.spec.device_id: n for s, n in zip(self._order, tried)}

    def ground_truth(self, from_ts: float, to_ts: float) -> dict[str, tuple[int, int]]:
        """(delivered, attempted) per device over a receive-time window.

        Counts finalized transmissions whose end time falls inside the
        closed window; the delivered ones are exactly what
        :meth:`query` returns for that window, and ``from_ts > to_ts``
        raises as it does there.
        """
        end, dev = self._attempts()
        inside = (end >= from_ts) & (end <= to_ts)
        tried = np.bincount(dev[inside], minlength=len(self._order)).tolist()
        got = self.query(self._euis, from_ts, to_ts)
        return {s.spec.device_id: (len(records), n)
                for s, records, n in zip(self._order, got, tried)}
