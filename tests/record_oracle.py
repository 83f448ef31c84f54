"""Reference packet-record encoders that go through one object per record.

The straightforward forms of the record path:
:func:`reference_write_packet_log` builds a :class:`PacketRecord` for
each delivered event and formats it with :func:`format_log_line`, and
the wire lines are ``json.dumps`` of the message dicts.  They cost an
object and a generic encoder call per record, but each step is easy to
check by eye, so :func:`lorascale.simulator.write_packet_log` and
:func:`lorascale.netserver.encode_packets` are tested against them byte
for byte.
"""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from lorascale.netserver import PacketRecord
from lorascale.simulator import SimResult


def format_log_line(record: PacketRecord) -> str:
    """One packet log line: ts, EUI, frame counter and SF, tab separated."""
    return f"{record.received_ts:.6f}\t{record.dev_eui}\t{record.fcnt}\t{record.sf}"


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


def reference_write_packet_log(result: SimResult, path) -> int:
    """Write the delivered-packet log; returns the record count."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for record in export_packet_log(result):
            fh.write(format_log_line(record) + "\n")
            n += 1
    return n


def packets_message(devices: list[tuple[str, list[PacketRecord]]]) -> dict:
    """The ``packets`` reply: one entry per ``(dev_eui, records)`` pair."""
    return {
        "type": "packets",
        "devices": [
            {"dev_eui": eui,
             "packets": [{"fcnt": r.fcnt, "ts": r.received_ts, "sf": r.sf} for r in got]}
            for eui, got in devices
        ],
    }


def reference_packets_line(devices: list[tuple[str, list[PacketRecord]]]) -> bytes:
    return (json.dumps(packets_message(devices)) + "\n").encode("utf-8")

