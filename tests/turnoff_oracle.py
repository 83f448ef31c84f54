"""Reference turn-off sequence that polls after every shutdown.

The straightforward form of :func:`lorascale.controller.turn_off_sequence`:
after each shutdown it waits out the recheck window and asks the server
about every still-silent device over that one window, so a late
responder is found, and moved to the middle tier, before the next
prompt.  It makes one query per shutdown, but each step is easy to check
by eye, so the settled turn-off is tested against it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from lorascale.controller import (Clock, DeviceMatrix, DeviceReport, Operator, ShutdownRecord,
                                  TurnOff, _poll)


def reference_turn_off_sequence(matrix: DeviceMatrix, reports: dict[str, DeviceReport],
                                operator: Operator, client, clock: Clock,
                                recheck_window: float, collect_failures: Iterable[str] = ()
                                ) -> tuple[list[ShutdownRecord], dict[str, str], dict[str, str]]:
    """(shutdown log, late responders, recheck failures), as the settled
    turn-off returns them."""
    high = deque(e.device_id for e in matrix if reports[e.device_id].delivered > 0)
    # still-silent devices not yet shut down, in matrix order
    unknown = set(collect_failures)
    pending = {e.device_id: e for e in matrix
               if reports[e.device_id].delivered == 0 and e.device_id not in unknown}
    middle: deque[str] = deque()
    late: dict[str, str] = {}
    failures: dict[str, str] = {}
    log: list[ShutdownRecord] = []
    retried: set[str] = set()

    def recheck(after_id: str, shutdown_at: float, middle_open: bool) -> None:
        clock.sleep(recheck_window)
        fresh, lost = _poll(pending.values(), shutdown_at, clock.now(), client)
        for device_id, reason in lost.items():
            # the poll is lost, not the run; the report keeps the reason
            failures.setdefault(device_id, f"turn-off recheck: {reason}")
        for device_id, (ts, _) in fresh.items():
            if len(ts):
                late[device_id] = after_id
                del pending[device_id]
                if middle_open:
                    middle.append(device_id)
                # once the low tier is formed, a late responder keeps
                # its slot there; the report still names it

    def drain(queue: deque[str], priority: str, middle_open: bool) -> None:
        while queue:
            device_id = queue.popleft()
            confirmed = operator.prompt(TurnOff(device_id))
            if not confirmed and device_id not in retried:
                retried.add(device_id)
                queue.append(device_id)
                continue
            pending.pop(device_id, None)
            shutdown_at = clock.now()
            log.append(ShutdownRecord(device_id, shutdown_at, confirmed, priority))
            recheck(device_id, shutdown_at, middle_open)

    drain(high, "high", middle_open=True)
    drain(middle, "middle", middle_open=True)
    logged = {r.device_id for r in log}
    drain(deque(d for d in matrix.ids() if d not in logged), "low", middle_open=False)
    return log, late, failures
