"""Mock LoRaWAN network server.

Stores uplink packet records and answers time-windowed queries for a
batch of devices over a persistent TCP connection carrying
newline-delimited JSON messages.  A connection must authenticate before
querying:

    client -> {"type": "auth", "token": "..."}
    server -> {"type": "auth_ok"} | {"type": "auth_fail", "reason": "..."}
    client -> {"type": "query", "dev_euis": ["...", ...], "from": t0, "to": t1}
    server -> {"type": "packets", "devices": [entry, ...]}
    entry  =  {"dev_eui": "...", "packets": [...]}

A reply holds one entry per requested EUI, in request order, all over
the one window.  The client writes each request with ``json.dumps``, a
fixed number of EUIs at a time, and leaves judging it to the server.
Any protocol violation is answered with {"type": "error", "reason": ...}:
a ``dev_euis`` that is not a non-empty list of strings and a bad window
refuse the whole request.  Violations before authentication, unparseable
frames and lines longer than ``MAX_LINE_BYTES`` additionally close the
connection.  Query windows are closed intervals with finite bounds, and
an unknown EUI yields an empty packet list.  Persistence is an
append-only log file (the simulator's export format) replayed at
startup.
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

    A batch is sorted per EUI.  When its first (timestamp, counter) key
    lies no earlier than the last one stored for that EUI, as it does on
    every resolution of a live world, it is appended in place and only
    duplicates are dropped, at a cost that grows with the batch and not
    with the history.  Any other batch is sorted together with the
    EUI's stored records.
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
        batches: defaultdict[str, list[PacketRecord]] = defaultdict(list)
        for rec in records:
            if not -_INF < rec.received_ts < _INF:
                raise ValueError(f"non-finite timestamp in {rec!r}")
            batches[rec.dev_eui].append(rec)
        added = 0
        with self._lock:
            for eui, batch in batches.items():
                batch.sort(key=_ORDER)
                if eui not in self._by_eui:
                    self._by_eui[eui] = ([], [])
                kept, times = self._by_eui[eui]
                stored = len(kept)
                if kept and _ORDER(batch[0]) < _ORDER(kept[-1]):
                    # the batch reaches back into the bucket: sort the two together;
                    # stable, so of two duplicates, now neighbours, the stored one leads
                    batch = sorted([*kept, *batch], key=_ORDER)
                    kept.clear()
                    times.clear()
                for rec in batch:
                    if times and rec.received_ts == times[-1] and rec.fcnt == kept[-1].fcnt:
                        continue
                    kept.append(rec)
                    times.append(rec.received_ts)
                added += len(kept) - stored
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
        return self.ingest(good), skipped

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


# Longest request line, newline included, that the server reads; a client
# that never sends a newline must not grow the server's buffer without bound.
MAX_LINE_BYTES = 64 * 1024

# EUIs in one client request: 1 KiB of the line holds the head, the
# bounds and the newline (at most 672 bytes, for two 310-character ints the
# server accepts), and a 16-hex-digit EUI takes 20 bytes with its quotes
# and the ", " after it.  Only longer EUIs can overflow the line.
_EUIS_PER_REQUEST = (MAX_LINE_BYTES - 1024) // 20


def _line(message: dict) -> bytes:
    """One wire message as the line ``json.dumps`` writes."""
    return (json.dumps(message) + "\n").encode("utf-8")


def _device_entry(dev_eui: str, got: list[PacketRecord]) -> str:
    packets = ", ".join([f'{{"fcnt": {r.fcnt!r}, "ts": {r.received_ts!r}, "sf": {r.sf!r}}}'
                         for r in got])
    return f'{{"dev_eui": {encode_basestring_ascii(dev_eui)}, "packets": [{packets}]}}'


def encode_packets(devices: Iterable[tuple[str, list[PacketRecord]]]) -> bytes:
    """The ``packets`` reply line, byte for byte as ``json.dumps`` writes it.

    ``devices`` holds one ``(dev_eui, records)`` pair per requested EUI.
    Frame counters and SFs are ints and timestamps finite floats (the
    store holds no others), which JSON writes as their ``repr``; EUIs go
    through JSON's own string encoder.
    """
    entries = ", ".join([_device_entry(eui, got) for eui, got in devices])
    return f'{{"type": "packets", "devices": [{entries}]}}\n'.encode("ascii")


def _answer(store: PacketStore, msg: dict) -> bytes:
    """The reply line to one query: an entry per EUI, or why it is refused."""
    euis, lo, hi = msg.get("dev_euis"), msg.get("from"), msg.get("to")
    if type(euis) is not list or not euis or not all(type(e) is str for e in euis):
        return _error("query needs a non-empty dev_euis list of strings")
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
    query = store.query
    return encode_packets([(eui, query(eui, lo, hi)) for eui in euis])


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


# How often, in seconds, a server thread from ``start_server`` checks for a
# shutdown request; ``PacketServer.shutdown`` waits up to this long.
_SHUTDOWN_POLL_S = 0.05


def start_server(store: PacketStore, token: str,
                 address: tuple[str, int] = ("127.0.0.1", 0)) -> tuple[PacketServer, threading.Thread]:
    """Start a server on a background thread; caller shuts it down."""
    server = PacketServer(address, store, token)
    thread = threading.Thread(target=server.serve_forever, args=(_SHUTDOWN_POLL_S,), daemon=True)
    thread.start()
    return server, thread


def _message(raw: bytes) -> dict:
    """One received line as a JSON object, or :class:`ProtocolError`."""
    try:
        msg = _decode(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"server sent an unparseable message: {exc}") from exc
    if type(msg) is not dict:
        raise ProtocolError("server sent a non-object message")
    return msg


def _device_reply(item, dev_eui: str) -> list[PacketRecord] | ProtocolError:
    """One reply entry as the device's records, or why it fails."""
    named = item.get("dev_eui") if type(item) is dict else None
    if named != dev_eui:
        return ProtocolError(f"reply names device {named!r}, not the {dev_eui!r} asked for")
    packets = item.get("packets")
    if type(packets) is not list:
        return ProtocolError(f"reply entry for {dev_eui!r} holds no packets list")
    try:
        return [PacketRecord(dev_eui, int(p["fcnt"]), float(p["ts"]), int(p["sf"]))
                for p in packets]
    except (KeyError, TypeError, ValueError) as exc:
        return ProtocolError(f"malformed packet in query reply: {exc!r}")


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

    def _readline(self) -> bytes:
        raw = self._rfile.readline()
        if not raw:
            raise ProtocolError("connection closed by server")
        return raw

    def _auth(self, token: str) -> None:
        self._sock.sendall(_line({"type": "auth", "token": token}))
        reply = _message(self._readline())
        if reply.get("type") == "auth_ok":
            return
        if reply.get("type") == "auth_fail":
            raise AuthError(reply.get("reason", "authentication failed"))
        raise ProtocolError(f"unexpected auth reply {reply!r}")

    def query(self, dev_euis: list[str], from_ts: float, to_ts: float
              ) -> list[list[PacketRecord] | ProtocolError]:
        """One entry per EUI, in order: the device's records in the closed
        window, or the :class:`ProtocolError` that fails that device alone.

        The EUIs go in requests of ``_EUIS_PER_REQUEST`` each, which fit
        the server's line limit when every EUI is 16 hex digits.  An entry
        without a packets list fails its device; a reply that is no list of
        one entry per EUI fails each EUI of its request.  The server alone
        judges a request: a bad bound, a non-string EUI or an over-long line
        gets its ``error`` reply, which raises (the last also closes the
        connection).  A value JSON cannot write, a closed connection and a
        socket error raise too; each fails the whole call.
        """
        entries: list[list[PacketRecord] | ProtocolError] = []
        for start in range(0, len(dev_euis), _EUIS_PER_REQUEST):
            entries += self._request(dev_euis[start:start + _EUIS_PER_REQUEST], from_ts, to_ts)
        return entries

    def _request(self, euis: list[str], from_ts: float, to_ts: float
                 ) -> list[list[PacketRecord] | ProtocolError]:
        """Send one query line and read its reply, one entry per EUI."""
        try:
            line = _line({"type": "query", "dev_euis": euis, "from": from_ts, "to": to_ts})
        except TypeError as exc:  # such as a bytes EUI
            raise ProtocolError(f"query is not JSON: {exc}") from exc
        self._sock.sendall(line)
        raw = self._readline()
        try:
            reply = _message(raw)
        except ProtocolError as exc:
            return [exc] * len(euis)
        kind, devices = reply.get("type"), reply.get("devices")
        if kind == "error":
            raise ProtocolError(str(reply.get("reason", "server error")))
        if kind != "packets" or type(devices) is not list or len(devices) != len(euis):
            return [ProtocolError(f"query reply holds no list of {len(euis)} device entries")
                    ] * len(euis)
        return list(map(_device_reply, devices, euis))

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
