"""Reference packet-log parser and store that take the straightforward route.

:func:`reference_parse_log_line` converts each field with ``float`` and
``int``, and :class:`ReferenceStore` keeps a set of the keys it has seen
and answers a query by scanning the device's whole bucket; like the
store, it keys a device by its lower-case EUI, keeps no SF, and names the
records of a query by the EUI asked.  They are slow but easy to check by
eye, so :class:`lorascale.netserver.PacketStore` is tested against them.

The reference parser is more lenient than the log grammar
(:data:`lorascale.netserver._LOG_FIELDS`) on purpose: ``float`` and
``int`` also take signs, surrounding whitespace, underscores, exponents
and non-ASCII digits.
:func:`written_form` tells those lines apart.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import Iterable

from lorascale.netserver import EUI_PATTERN, PacketRecord
from record_oracle import LogRecord, stored


def reference_parse_log_line(line: str) -> LogRecord:
    """Parse one ``ts<TAB>eui<TAB>fcnt<TAB>sf`` log line; the timestamp
    must be finite."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
    ts_s, eui, fcnt_s, sf_s = fields
    ts = float(ts_s)
    fcnt = int(fcnt_s)
    sf = int(sf_s)
    if not math.isfinite(ts):
        raise ValueError(f"non-finite timestamp {ts_s!r}")
    if not EUI_PATTERN.fullmatch(eui):
        raise ValueError(f"bad EUI {eui!r}")
    if fcnt < 0:
        raise ValueError("negative frame counter")
    if not 7 <= sf <= 12:
        raise ValueError(f"bad SF {sf}")
    return LogRecord(dev_eui=eui, fcnt=fcnt, received_ts=ts, sf=sf)


def _ascii_digits(text: str) -> bool:
    return text != "" and all("0" <= c <= "9" for c in text)


def written_form(line: str) -> bool:
    """For a line :func:`reference_parse_log_line` accepts: whether its
    numbers are in the form ``write_packet_log`` writes.  The timestamp is
    an optional ``-``, ASCII digits and an optional ``.`` with more
    digits; the counter and the SF are ASCII digits, the SF without a
    leading zero.  The line may end in ``\\n`` or ``\\r\\n``."""
    body = line.removesuffix("\n").removesuffix("\r")
    ts, _, fcnt, sf = body.split("\t")
    whole, dot, fraction = ts.removeprefix("-").partition(".")
    return (_ascii_digits(whole) and (not dot or _ascii_digits(fraction))
            and _ascii_digits(fcnt) and _ascii_digits(sf) and sf[0] != "0")


class ReferenceStore:
    """Packet store with a seen-key set and a linear-scan query."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_eui: dict[str, list[PacketRecord]] = {}
        self._seen: set[tuple[str, int, float]] = set()

    def ingest(self, records: Iterable[PacketRecord]) -> int:
        records = list(records)
        for rec in records:
            if not math.isfinite(rec.received_ts):
                raise ValueError(f"non-finite timestamp in {rec!r}")
        return self._add(records)

    def _add(self, records: list[PacketRecord]) -> int:
        added = 0
        with self._lock:
            for rec in records:
                key = (rec.dev_eui.lower(), rec.fcnt, rec.received_ts)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self._by_eui.setdefault(key[0], []).append(rec)
                added += 1
            for bucket in self._by_eui.values():
                bucket.sort(key=lambda r: (r.received_ts, r.fcnt))
        return added

    def ingest_lines(self, lines: Iterable[str]) -> tuple[int, int]:
        good: list[PacketRecord] = []
        skipped = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                good.append(stored(reference_parse_log_line(line)))
            except ValueError:
                skipped += 1
        return self._add(good), skipped

    def query(self, dev_eui: str, from_ts: float, to_ts: float) -> list[PacketRecord]:
        if from_ts > to_ts:
            raise ValueError("query window is empty (from > to)")
        with self._lock:
            bucket = self._by_eui.get(dev_eui.lower(), [])
            return [replace(r, dev_eui=dev_eui) for r in bucket
                    if from_ts <= r.received_ts <= to_ts]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._by_eui.values())
