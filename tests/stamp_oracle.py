"""Reference timestamp-file writer: one ``(ts, eui, fcnt)`` tuple per
packet, sorted as tuples, one f-string per line.

This is the straightforward form of the timestamp half of
:func:`lorascale.controller.write_output`: the tuple order is the file's
order by definition (time, then EUI, then counter), and each line is
easy to check by eye, so the product's writer, which sorts the packets
by time alone and formats them a chunk at a time, is tested against it
byte for byte.
"""

from __future__ import annotations

from itertools import repeat

from lorascale.controller import NO_PACKETS, ExperimentResult


def reference_write_timestamps(result: ExperimentResult, path) -> None:
    """Write the ``eui fcnt ts`` line of every collected packet, ascending
    by (time, EUI, counter)."""
    stamped = []
    for device_id in result.matrix.ids():
        ts, fcnt = result.packets.get(device_id, NO_PACKETS)
        stamped += zip(ts, repeat(result.matrix.eui_for(device_id)), fcnt)
    stamped.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for ts, eui, fcnt in stamped:
            fh.write(f"{eui} {fcnt} {ts:.6f}\n")
