"""Reference packet-record encoders that go through one object per record,
and the record helpers of the tests.

The straightforward forms of the record path:
:func:`reference_write_packet_log` sorts the delivered events of a
result, or of each block of a timeline, with one ``np.lexsort`` by
receive time, EUI and counter, builds a :class:`LogRecord` for each
and formats it with :func:`format_log_line`, an f-string, and
the wire lines are ``json.dumps`` of the message dicts, whose columns
are gathered record by record and packed value by value with ``struct``
into little-endian bytes, then base64.  They cost an object and a generic
encoder call per record, but each step is easy to check by eye, so
:func:`lorascale.simulator.write_packet_log` and the server's replies
(:func:`served_line`) are tested against them byte for byte.

A log line carries the packet's SF, and the store drops it: a
:class:`LogRecord` is a log line's fields, SF included, and
:func:`stored` the :class:`PacketRecord` the store keeps of it.  The
product passes packets as columns, ``(timestamps, counters)`` pairs;
:func:`columns`, :func:`as_lists` and :func:`records_of` turn records
and pairs into one another, :func:`ingest_records` stores records as
rows through :meth:`PacketStore.ingest_rows`, which groups them into
each EUI's columns for :meth:`PacketStore.ingest_columns`, the store's
one entry, and :func:`parse_log_line` reads one log line as the record
the store keeps.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from lorascale import netserver
from lorascale.netserver import PacketRecord, PacketStore
from lorascale.simulator import SimResult, Timeline


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One packet-log line's fields: device EUI, frame counter, receive
    time and SF."""

    dev_eui: str
    fcnt: int
    received_ts: float
    sf: int


def stored(record: LogRecord) -> PacketRecord:
    """The record the store keeps of a log record: all but its SF."""
    return PacketRecord(record.dev_eui, record.fcnt, record.received_ts)


def format_log_line(record: LogRecord) -> str:
    """One packet log line: ts, EUI, frame counter and SF, tab separated."""
    return f"{record.received_ts:.6f}\t{record.dev_eui}\t{record.fcnt}\t{record.sf}"


def export_packet_log(result: SimResult) -> Iterator[LogRecord]:
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
        yield LogRecord(
            dev_eui=d.dev_eui,
            fcnt=int(result.fcnt[i]),
            received_ts=float(result.end[i]),
            sf=int(result.sf[i]),
        )


def reference_write_packet_log(result: SimResult | Timeline, path) -> int:
    """Write the delivered-packet log of a result, or of each block of a
    timeline in turn, one record at a time; returns the record count."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for block in [result] if isinstance(result, SimResult) else result:
            for record in export_packet_log(block):
                fh.write(format_log_line(record) + "\n")
                n += 1
    return n


def wire_column(values: list, code: str) -> str:
    """A column as a reply carries it: the base64 of its values packed
    little-endian with ``struct`` format ``code``, ``d`` for timestamps
    and ``q`` for counters."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def wire_values(text: str, code: str) -> list:
    """The values of a column as a reply carries it, unpacked with
    ``struct``: :func:`wire_column` undone."""
    raw = base64.b64decode(text, validate=True)
    return list(struct.unpack(f"<{len(raw) // 8}{code}", raw))


def packets_message(devices: list[tuple[str, list[PacketRecord]]]) -> dict:
    """The ``packets`` reply: one entry per ``(dev_eui, records)`` pair,
    holding the records' timestamp and counter columns as base64 strings."""
    entries = []
    for eui, got in devices:
        ts, fcnt = columns(got)
        entries.append({"dev_eui": eui, "ts": wire_column(ts, "d"),
                        "fcnt": wire_column(fcnt, "q")})
    return {"type": "packets", "devices": entries}


def reference_packets_line(devices: list[tuple[str, list[PacketRecord]]]) -> bytes:
    return (json.dumps(packets_message(devices)) + "\n").encode("utf-8")


def parse_log_line(line: str) -> PacketRecord:
    """The record of one packet-log line as the server reads it: the line
    ingested alone into a fresh store and read back from its window, named
    by the EUI as the line spells it.  A line the store does not keep is a
    ``ValueError``."""
    store = PacketStore()
    if store.ingest_lines([line]) != (1, 0):
        raise ValueError(f"not a packet-log line: {line!r}")
    dev_eui = line.split("\t")[1]  # a kept line is four tab-separated fields
    ((ts,), (fcnt,)) = store.window(dev_eui, -math.inf, math.inf)
    return PacketRecord(dev_eui, fcnt, ts)


def columns(records: Iterable[PacketRecord]) -> tuple[list[float], list[int]]:
    """The timestamp and counter columns of records, in their order."""
    records = list(records)
    return [r.received_ts for r in records], [r.fcnt for r in records]


def as_lists(packets) -> tuple[list, ...]:
    """A columns pair as two lists, so that pairs compare value for value
    whatever sequence types hold them."""
    return tuple(map(list, packets))


def records_of(dev_eui: str, packets) -> list[PacketRecord]:
    """One record per row of a device's columns."""
    ts, fcnt = packets
    return list(map(PacketRecord, repeat(dev_eui), fcnt, ts))


def ingest_records(store: PacketStore, records: Iterable[PacketRecord]) -> int:
    """Store records through ``ingest_rows``, one row each, in the
    records' order; returns how many were new."""
    return store.ingest_rows((r.dev_eui, r.received_ts, r.fcnt) for r in records)


def served_line(devices: list[tuple[str, list[PacketRecord]]]) -> bytes:
    """The server's reply line to a query for the EUIs of ``devices``, in
    order, over the widest finite window, from a store that holds their
    records.  With distinct EUIs, and each EUI's records in store order
    (by time, then counter) and free of duplicates, it is the reply that
    lists exactly ``devices``."""
    store = PacketStore()
    ingest_records(store, [r for _, got in devices for r in got])
    return netserver._answer(store, {"type": "query", "dev_euis": [eui for eui, _ in devices],
                                     "from": -sys.float_info.max, "to": sys.float_info.max})
