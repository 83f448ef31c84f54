"""Reference live world that re-resolves its whole event buffer.

The straightforward form of :class:`lorascale.world.SimWorld`: every
advance rebuilds arrays from all events generated so far, sorts them,
marks collisions over the whole history and emits the events that have
become final; queries scan every delivered record.  Its cost grows with
the square of the run length, but each step is easy to check by eye, so
the incremental world is tested against it.

:func:`row_feed` is the straightforward form of the world's store feed:
one resolution's delivered events as ``(EUI, timestamp, counter)`` rows
in timeline order, through :meth:`PacketStore.ingest_rows`, which groups
them into each EUI's columns.  The world builds those columns itself and
is tested to hand the store the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lorascale.netserver import PacketRecord, PacketStore
from lorascale.simulator import AnyOverlap, CollisionModel, DeviceSpec, device_rng, resolve


@dataclass
class _DeviceState:
    spec: DeviceSpec
    rng: np.random.Generator
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


class ReferenceWorld:
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
        self._states: dict[str, _DeviceState] = {
            d.device_id: _DeviceState(spec=d, rng=device_rng(seed, d.dev_eui))
            for d in devices
        }
        self._now = 0.0
        # event buffers, parallel lists
        self._start: list[float] = []
        self._end: list[float] = []
        self._sf: list[int] = []
        self._dev: list[str] = []
        self._fcnt: list[int] = []
        self._emitted: list[bool] = []
        self._delivered: list[PacketRecord] = []

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
        horizon = self._now + dt
        for state in self._states.values():
            while state.active and state.base is not None:
                start = state.next_start()
                if start >= horizon:
                    break
                spec = state.spec
                self._start.append(start)
                self._end.append(start + spec.airtime)
                self._sf.append(spec.sf)
                self._dev.append(spec.device_id)
                self._fcnt.append(state.next_fcnt)
                self._emitted.append(False)
                state.next_fcnt += 1
                state.k += 1
        self._now = horizon
        self._finalize()

    def _finalize(self) -> None:
        """Emit records for events that can no longer gain interferers.

        An event ending at or before the current time is final: every
        future transmission starts later than it ends, hence outside any
        collision window.  Marking the whole buffer is idempotent, so
        re-resolving on each advance is safe.
        """
        if not self._start:
            return
        start = np.asarray(self._start)
        end = np.asarray(self._end)
        sf = np.asarray(self._sf, dtype=np.int16)
        order = np.lexsort((np.asarray(self._dev), start))
        lost_sorted = resolve(start[order], end[order], sf[order], self._model)
        lost = np.empty_like(lost_sorted)
        lost[order] = lost_sorted
        for i in range(len(self._start)):
            if self._emitted[i] or self._end[i] > self._now:
                continue
            self._emitted[i] = True
            if not lost[i]:
                spec = self._states[self._dev[i]].spec
                self._delivered.append(PacketRecord(
                    dev_eui=spec.dev_eui,
                    fcnt=self._fcnt[i],
                    received_ts=self._end[i],
                ))

    def query(self, dev_eui: str, from_ts: float, to_ts: float) -> list[PacketRecord]:
        """Delivered packets of one device in the closed time window."""
        if from_ts > to_ts:
            raise ValueError("query window is empty (from > to)")
        hits = [r for r in self._delivered
                if r.dev_eui == dev_eui and from_ts <= r.received_ts <= to_ts]
        return sorted(hits, key=lambda r: (r.received_ts, r.fcnt))

    def delivered_records(self) -> list[PacketRecord]:
        return sorted(self._delivered, key=lambda r: (r.received_ts, r.dev_eui, r.fcnt))

    def attempt_counts(self) -> dict[str, int]:
        """Finalized attempts per device (collided ones included)."""
        counts = {device_id: 0 for device_id in self._states}
        for i, device_id in enumerate(self._dev):
            if self._emitted[i]:
                counts[device_id] += 1
        return counts

    def ground_truth(self, from_ts: float, to_ts: float) -> dict[str, tuple[int, int]]:
        """(delivered, attempted) per device over a receive-time window.

        Counts finalized transmissions whose end time falls inside the
        closed window; the delivered ones are exactly what
        :meth:`query` returns for that window.
        """
        delivered_keys = {(r.dev_eui, r.fcnt) for r in self._delivered
                          if from_ts <= r.received_ts <= to_ts}
        truth = {device_id: (0, 0) for device_id in self._states}
        for i, device_id in enumerate(self._dev):
            if not self._emitted[i] or not from_ts <= self._end[i] <= to_ts:
                continue
            eui = self._states[device_id].spec.dev_eui
            got, tried = truth[device_id]
            if (eui, self._fcnt[i]) in delivered_keys:
                got += 1
            truth[device_id] = (got, tried + 1)
        return truth


def row_feed(store: PacketStore, euis: np.ndarray, end: np.ndarray, fcnt: np.ndarray,
             delivered: np.ndarray) -> int:
    """Store one resolution's delivered events, each event's EUI in
    ``euis``, as rows in timeline order; returns how many were new."""
    good = np.flatnonzero(delivered)
    return store.ingest_rows(zip(euis[good].tolist(), end[good].tolist(), fcnt[good].tolist()))
