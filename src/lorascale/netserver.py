"""Mock LoRaWAN network server.

Stores uplink packet records and answers per-device, time-windowed
queries over a persistent TCP connection carrying newline-delimited
JSON messages.  A connection must authenticate before querying:

    client -> {"type": "auth", "token": "..."}
    server -> {"type": "auth_ok"} | {"type": "auth_fail", "reason": "..."}
    client -> {"type": "query", "dev_eui": "...", "from": t0, "to": t1}
    server -> {"type": "packets", "dev_eui": "...", "packets": [...]}

Any protocol violation is answered with {"type": "error", "reason": ...};
violations before authentication, unparseable frames and lines longer
than ``MAX_LINE_BYTES`` additionally close the connection.  Query
windows are closed intervals with finite bounds, and an unknown EUI
yields an empty packet list.  Persistence is an append-only log file
(the simulator's export format) replayed at startup.
"""

from __future__ import annotations

import hmac
import json
import math
import re
import socket
import socketserver
import threading
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable

# A device EUI: 16 hex digits, matched with ``fullmatch``.
EUI_PATTERN = re.compile(r"[0-9a-fA-F]{16}")

# One packet-log line, matched with ``fullmatch``: the receive time (an
# optional minus, digits and an optional fraction), the EUI, the frame
# counter and the SF (7-12), tab separated, with an optional line end.
# This is exactly what ``simulator.write_packet_log`` writes; signs,
# spaces, underscores, exponents, NaN and infinities are malformed.
LOG_LINE = re.compile(r"(-?[0-9]+(?:\.[0-9]+)?)\t(" + EUI_PATTERN.pattern
                      + r")\t([0-9]+)\t([7-9]|1[0-2])\r?\n?")

_INF = math.inf
_decode = json.JSONDecoder().decode  # what json.loads runs for a str


class ProtocolError(Exception):
    """The peer violated the wire protocol or rejected a request."""


class AuthError(ProtocolError):
    """Authentication was rejected by the server."""


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One stored uplink: device EUI, frame counter, receive time, SF."""

    dev_eui: str
    fcnt: int
    received_ts: float
    sf: int


def parse_log_line(line: str) -> PacketRecord:
    """Parse one ``ts<TAB>eui<TAB>fcnt<TAB>sf`` log line (:data:`LOG_LINE`);
    a timestamp whose digits overflow to infinity is malformed too."""
    match = LOG_LINE.fullmatch(line)
    if match is None:
        raise ValueError(f"not a packet-log line: {line!r}")
    ts_s, eui, fcnt, sf = match.groups()
    ts = float(ts_s)
    if not -_INF < ts < _INF:
        raise ValueError(f"timestamp {ts_s!r} overflows")
    return PacketRecord(eui, int(fcnt), ts, int(sf))


# Bucket order: by receive time, then frame counter.
_ORDER = attrgetter("received_ts", "fcnt")


class PacketStore:
    """Thread-safe packet storage with duplicate suppression.

    Exact duplicates (same EUI, counter, timestamp) are ingested once;
    queries see a consistent snapshot under a single-writer lock.  Each
    EUI's records are kept time-ordered next to a list of their
    timestamps, so a query is two bisections and a slice.  Every stored
    timestamp is finite.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # EUI -> (records, their timestamps), both in _ORDER
        self._by_eui: dict[str, tuple[list[PacketRecord], list[float]]] = {}

    def ingest(self, records: Iterable[PacketRecord]) -> int:
        """Store records; returns how many were new.

        A record with a non-finite timestamp is a ``ValueError``, and
        then none of the batch is stored.
        """
        records = list(records)
        for rec in records:
            if not math.isfinite(rec.received_ts):
                raise ValueError(f"non-finite timestamp in {rec!r}")
        return self._add(records)

    def _add(self, records: list[PacketRecord]) -> int:
        batches: defaultdict[str, list[PacketRecord]] = defaultdict(list)
        for rec in records:
            batches[rec.dev_eui].append(rec)
        added = 0
        with self._lock:
            for eui, batch in batches.items():
                old, _ = self._by_eui.get(eui, ((), ()))
                bucket = [*old, *batch]
                # stable: of two duplicates, now neighbours, the one stored first leads
                bucket.sort(key=_ORDER)
                kept: list[PacketRecord] = []
                times: list[float] = []
                for rec in bucket:
                    if times and rec.received_ts == times[-1] and rec.fcnt == kept[-1].fcnt:
                        continue
                    kept.append(rec)
                    times.append(rec.received_ts)
                self._by_eui[eui] = (kept, times)
                added += len(kept) - len(old)
        return added

    def ingest_lines(self, lines: Iterable[str]) -> tuple[int, int]:
        """Parse and store log lines; returns (ingested, skipped).

        Blank lines are ignored; every other line that
        :func:`parse_log_line` refuses is skipped.
        """
        good: list[PacketRecord] = []
        skipped = 0
        for line in lines:
            try:
                good.append(parse_log_line(line))
            except ValueError:
                if line and not line.isspace():
                    skipped += 1
        return self._add(good), skipped  # parsed timestamps are finite

    def ingest_file(self, path) -> tuple[int, int]:
        # a byte outside ASCII becomes U+FFFD, which no log line holds, so
        # it costs its line and not the whole file
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            return self.ingest_lines(fh)

    def query(self, dev_eui: str, from_ts: float, to_ts: float) -> list[PacketRecord]:
        """Records of one device with from_ts <= ts <= to_ts, time-ordered."""
        if not from_ts <= to_ts:
            if from_ts > to_ts:
                raise ValueError("query window is empty (from > to)")
            return []  # a NaN bound, which no timestamp lies within
        with self._lock:
            entry = self._by_eui.get(dev_eui)
            if entry is None:
                return []
            records, times = entry
            return records[bisect_left(times, from_ts):bisect_right(times, to_ts)]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(records) for records, _ in self._by_eui.values())


# Longest request line, newline included, that the server reads; a query
# is about 100 bytes, and a client that never sends a newline must not
# grow the server's buffer without bound.
MAX_LINE_BYTES = 64 * 1024


def _line(message: dict) -> bytes:
    """One wire message as the line ``json.dumps`` writes."""
    return (json.dumps(message) + "\n").encode("utf-8")


def encode_packets(dev_eui: str, records: list[PacketRecord]) -> bytes:
    """The ``packets`` reply line, byte for byte as ``json.dumps`` writes it.

    Frame counters and SFs are ints and timestamps finite floats (the
    store holds no others), which JSON writes as their ``repr``; the EUI
    goes through JSON's own string encoder.
    """
    packets = ", ".join([f'{{"fcnt": {r.fcnt!r}, "ts": {r.received_ts!r}, "sf": {r.sf!r}}}'
                         for r in records])
    return (f'{{"type": "packets", "dev_eui": {encode_basestring_ascii(dev_eui)}, '
            f'"packets": [{packets}]}}\n').encode("ascii")


def _json_bound(value) -> str:
    """JSON text of a query bound, which must be a finite int or float."""
    if type(value) is float and -_INF < value < _INF:
        return float.__repr__(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if finite:
            return int.__repr__(value) if isinstance(value, int) else float.__repr__(value)
    raise ProtocolError("query needs finite numeric from/to")


def encode_query(dev_eui: str, from_ts: float, to_ts: float) -> bytes:
    """The ``query`` request line, byte for byte as ``json.dumps`` writes it.

    Raises :class:`ProtocolError` for a request the server would refuse
    for its types: a non-string EUI, or a bound that is not a finite int
    or float (a ``bool``, NaN, an infinity, an int too large for a float).
    """
    if not isinstance(dev_eui, str):
        raise ProtocolError("query needs a string dev_eui")
    return (f'{{"type": "query", "dev_eui": {encode_basestring_ascii(dev_eui)}, '
            f'"from": {_json_bound(from_ts)}, "to": {_json_bound(to_ts)}}}\n').encode("ascii")


def _answer(store: PacketStore, msg: dict) -> bytes:
    """The reply line to one query: its packets, or why it is refused."""
    eui, lo, hi = msg.get("dev_eui"), msg.get("from"), msg.get("to")
    if type(eui) is not str:
        return _error("query needs a string dev_eui")
    # JSON numbers decode to exact ints and floats; a bool is no number
    if type(lo) is not float or type(hi) is not float:
        if type(lo) not in (int, float) or type(hi) not in (int, float):
            return _error("query needs numeric from/to")
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:
            lo = hi = _INF
    if not (-_INF < lo < _INF and -_INF < hi < _INF):
        return _error("query needs finite from/to")
    if lo > hi:
        return _error("empty window (from > to)")
    return encode_packets(eui, store.query(eui, lo, hi))


def _error(reason: str) -> bytes:
    return _line({"type": "error", "reason": reason})


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: PacketServer = self.server  # type: ignore[assignment]
        send = self.request.sendall
        authed = False
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(raw) > MAX_LINE_BYTES:
                send(_error(f"message longer than {MAX_LINE_BYTES} bytes"))
                return
            try:
                msg = _decode(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                send(_error("unparseable message"))
                return
            # json.loads makes plain dicts, lists, strs, ints, floats, bools
            kind = msg.get("type") if type(msg) is dict else None
            if type(kind) is not str:
                send(_error("message must be an object with a type"))
                return
            if kind == "query" and authed:
                send(_answer(server.store, msg))
            elif kind == "auth":
                token = msg.get("token")
                if type(token) is str and hmac.compare_digest(token, server.token):
                    authed = True
                    send(_line({"type": "auth_ok"}))
                else:
                    send(_line({"type": "auth_fail", "reason": "bad token"}))
                    return
            elif not authed:
                send(_error("authentication required"))
                return
            else:
                send(_error(f"unknown message type {kind!r}"))


class PacketServer(socketserver.ThreadingTCPServer):
    """TCP server over a :class:`PacketStore`; one thread per client."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], store: PacketStore, token: str):
        if not token:
            raise ValueError("auth token must be non-empty")
        super().__init__(address, _Handler)
        self.store = store
        self.token = token

    @property
    def bound_address(self) -> tuple[str, int]:
        return self.socket.getsockname()[:2]


def start_server(store: PacketStore, token: str,
                 address: tuple[str, int] = ("127.0.0.1", 0)) -> tuple[PacketServer, threading.Thread]:
    """Start a server on a background thread; caller shuts it down."""
    server = PacketServer(address, store, token)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class NetClient:
    """Client side of the query protocol; usable as a context manager."""

    def __init__(self, address: tuple[str, int], token: str, timeout: float = 10.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        try:
            self._auth(token)
        except BaseException:
            self.close()
            raise

    def _recv(self) -> dict:
        raw = self._rfile.readline()
        if not raw:
            raise ProtocolError("connection closed by server")
        try:
            msg = _decode(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"server sent an unparseable message: {exc}") from exc
        if type(msg) is not dict:
            raise ProtocolError("server sent a non-object message")
        return msg

    def _auth(self, token: str) -> None:
        self._sock.sendall(_line({"type": "auth", "token": token}))
        reply = self._recv()
        if reply.get("type") == "auth_ok":
            return
        if reply.get("type") == "auth_fail":
            raise AuthError(reply.get("reason", "authentication failed"))
        raise ProtocolError(f"unexpected auth reply {reply!r}")

    def query(self, dev_eui: str, from_ts: float, to_ts: float) -> list[PacketRecord]:
        """Records of one device in the closed window; a bad bound or EUI
        raises :class:`ProtocolError` before anything is sent."""
        self._sock.sendall(encode_query(dev_eui, from_ts, to_ts))
        reply = self._recv()
        kind, packets = reply.get("type"), reply.get("packets")
        if kind != "packets" or type(packets) is not list:
            if kind == "error":
                raise ProtocolError(reply.get("reason", "server error"))
            raise ProtocolError(f"unexpected query reply {reply!r}")
        named = reply.get("dev_eui")
        if named != dev_eui:
            raise ProtocolError(f"reply names device {named!r}, not the {dev_eui!r} asked for")
        try:
            return [PacketRecord(dev_eui, int(p["fcnt"]), float(p["ts"]), int(p["sf"]))
                    for p in packets]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed packet in query reply: {exc!r}") from exc

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
