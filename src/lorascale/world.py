"""Live co-simulated radio environment for orchestration runs.

Where :func:`lorascale.simulator.run` resolves a fixed schedule in one
shot, :class:`SimWorld` follows a virtual clock interactively: devices
are switched on and off while time passes, and delivered packets become
queryable through the same interface the network-server client exposes,
so a controller can be driven against the world directly.

Moving the clock does no work.  The world keeps each device's on-interval
(the lattice ``base + k * period`` of its attempt starts, the first
attempt not yet generated and the time it was switched off, if it was)
and resolves the timeline on demand: :meth:`SimWorld.query`,
:meth:`SimWorld.ground_truth` and :meth:`SimWorld.attempt_counts` first
generate every attempt that starts before ``now`` and has not been
generated yet, all devices at once, as :func:`lorascale.simulator.run`
counts and expands them, then make one step of the streamed resolver,
:class:`~lorascale.simulator.Edge`.  A count too large for an int64
raises ``ValueError``; a resolution that fails before it stores its
events leaves the world as it was.  The events the step finalizes join
the world's attempt arrays, one chunk per resolution, and the delivered
ones go into a :class:`PacketStore` through its one entry,
:meth:`~lorascale.netserver.PacketStore.ingest_rows`, as ``(EUI,
timestamp, counter)`` rows in timeline order, with no record object per
packet; the store builds each device's columns.  The world thus answers
a query exactly as the network server's store does, with its
:meth:`~lorascale.netserver.PacketStore.window` slices, the columns the
network-server client decodes; :meth:`SimWorld.ground_truth` counts each
device's deliveries with one bisection of its timestamp column.  However
the clock was moved between two resolutions, the attempts, their floats
and their collision outcomes are those of resolving after every step.
"""

from __future__ import annotations

import math

import numpy as np

from .netserver import Columns, PacketStore
from .simulator import (AnyOverlap, CollisionModel, Edge, attempts, device_rng,
                        draw_phases, lattice_events, roster)


class SimWorld:
    """Mutable fleet simulation with on/off control and a query API.

    Device specs are reused from the batch simulator; their
    ``active_from``/``active_until`` windows are ignored here because
    activity is driven through :meth:`set_active`.  Frame counters keep
    counting across off/on cycles.
    """

    def __init__(self, devices, model: CollisionModel = AnyOverlap(), seed: int = 0):
        devices = list(devices)
        self._columns = roster(devices)
        self._devices = devices
        self._index = {d.device_id: i for i, d in enumerate(devices)}
        self._euis = np.array([d.dev_eui for d in devices], dtype=object)
        # a random-phase device's first switch-on takes the first draw of its
        # stream, drawn here for all devices at once; the second builds the
        # stream's generator past that draw, and later ones continue it.
        # A device switched on once maps to None.
        self._seed = seed
        self._first_phase = draw_phases(seed, self._euis, self._columns.period)
        self._rngs: dict[int, np.random.Generator | None] = {}
        self._now = 0.0
        # each device's current on-interval: attempt k starts at base + k *
        # period (not an accumulated sum, so long runs produce the batch
        # simulator's floats); the attempts below k are generated
        self._on = np.zeros(len(devices), dtype=bool)
        self._base = np.zeros(len(devices))
        self._k = np.zeros(len(devices), dtype=np.int64)
        # switched-off intervals not generated to their end, in switch-off
        # order: (device, base, first k left, off time)
        self._closed: list[tuple[int, float, int, float]] = []
        # frame counter of attempt 0 in each device's earliest interval
        # not yet counted: its first one in _closed, else its current one
        self._fcnt0 = np.zeros(len(devices), dtype=np.int64)
        self._edge = Edge(self._columns, model)  # stepped to the clock at each resolution
        # finalized attempts: end times and roster positions, one chunk
        # per resolution; the delivered ones are rows in the store
        self._attempt_end = [np.empty(0)]
        self._attempt_dev = [np.empty(0, dtype=np.int64)]
        self._store = PacketStore()

    @property
    def now(self) -> float:
        return self._now

    def set_active(self, device_id: str, active: bool) -> None:
        """Toggle a device at the current time; idempotent."""
        i = self._index[device_id]
        if active == self._on[i]:
            return
        self._on[i] = active
        if active:
            spec = self._devices[i]
            phase = spec.phase
            if phase == "random" and i not in self._rngs:
                self._rngs[i] = None
                phase = self._first_phase[i]
            elif phase == "random":
                rng = self._rngs[i]
                if rng is None:
                    rng = self._rngs[i] = device_rng(self._seed, spec.dev_eui)
                    rng.uniform()  # the first draw, taken from draw_phases
                phase = rng.uniform(0.0, spec.period)
            self._base[i] = self._now + float(phase)
            self._k[i] = 0
        else:
            self._closed.append((i, float(self._base[i]), int(self._k[i]), self._now))

    def advance(self, dt: float) -> None:
        """Move the clock forward; the timeline is resolved when asked."""
        if dt < 0:
            raise ValueError("cannot advance backwards")
        if not math.isfinite(dt):
            raise ValueError("advance step must be finite")
        self._now += dt

    def _catch_up(self) -> None:
        """Generate every attempt that starts before ``now`` and is not
        generated yet, then record the events that ended since the last
        resolution."""
        if self._edge.now == self._now:
            return
        on = np.flatnonzero(self._on)
        c_dev, c_base, c_lo, c_off = zip(*self._closed) if self._closed else ((),) * 4
        dev = np.concatenate((np.array(c_dev, dtype=np.int64), on))
        base = np.concatenate((c_base, self._base[on]))
        lo = np.concatenate((np.array(c_lo, dtype=np.int64), self._k[on]))
        limit = np.concatenate((c_off, np.full(on.size, self._now)))
        counts = attempts(base, self._columns.period[dev], lo, limit)
        hi = lo + counts
        # a device's frame counters run on from one interval to the next
        fcnt0_next = self._fcnt0.copy()
        c_fcnt0 = []
        for i, stop in zip(c_dev, hi.tolist()):
            c_fcnt0.append(fcnt0_next[i])
            fcnt0_next[i] += stop
        fcnt0 = np.concatenate((np.array(c_fcnt0, dtype=np.int64), fcnt0_next[on]))
        events = lattice_events(self._columns, dev, base, lo, counts, fcnt0)
        # new events start at or after the last resolution, as a step needs;
        # the world changes only from here on, so a failed step changes nothing
        _, end, _, dev, fcnt, delivered = self._edge.step(events, self._now)
        self._closed.clear()
        self._k[on] = hi[len(c_dev):]
        self._fcnt0 = fcnt0_next
        if dev.size:
            self._attempt_end.append(end)
            self._attempt_dev.append(dev)
            # the delivered events as store rows, in start order
            good = np.flatnonzero(delivered)
            self._store.ingest_rows(zip(self._euis[dev[good]].tolist(), end[good].tolist(),
                                        fcnt[good].tolist()))

    def query(self, dev_euis: list[str], from_ts: float, to_ts: float) -> list[Columns]:
        """Delivered packets of each device in the closed time window, one
        ``(timestamps, counters)`` pair per EUI in order, as the
        network-server client answers."""
        if from_ts > to_ts:
            raise ValueError("query window is empty (from > to)")
        self._catch_up()
        window = self._store.window
        return [window(eui, from_ts, to_ts) for eui in dev_euis]

    def _attempts(self) -> tuple[np.ndarray, np.ndarray]:
        """End times and roster positions of all finalized attempts."""
        self._catch_up()
        if len(self._attempt_end) > 1:
            self._attempt_end = [np.concatenate(self._attempt_end)]
            self._attempt_dev = [np.concatenate(self._attempt_dev)]
        return self._attempt_end[0], self._attempt_dev[0]

    def attempt_counts(self) -> dict[str, int]:
        """Finalized attempts per device (collided ones included)."""
        _, dev = self._attempts()
        tried = np.bincount(dev, minlength=len(self._devices)).tolist()
        return {d.device_id: n for d, n in zip(self._devices, tried)}

    def ground_truth(self, from_ts: float, to_ts: float) -> dict[str, tuple[int, int]]:
        """(delivered, attempted) per device over a receive-time window.

        Counts finalized transmissions whose end time falls inside the
        closed window; the delivered ones are exactly what
        :meth:`query` returns for that window, and ``from_ts > to_ts``
        raises as it does there.
        """
        if from_ts > to_ts:
            raise ValueError("query window is empty (from > to)")
        end, dev = self._attempts()
        inside = (end >= from_ts) & (end <= to_ts)
        tried = np.bincount(dev[inside], minlength=len(self._devices)).tolist()
        window = self._store.window
        return {d.device_id: (len(window(d.dev_eui, from_ts, to_ts)[0]), n)
                for d, n in zip(self._devices, tried)}
