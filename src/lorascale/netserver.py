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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

# A device EUI: 16 hex digits, matched with ``fullmatch``.
EUI_PATTERN = re.compile(r"[0-9a-fA-F]{16}")


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
    return PacketRecord(dev_eui=eui, fcnt=fcnt, received_ts=ts, sf=sf)


class PacketStore:
    """Thread-safe packet storage with duplicate suppression.

    Exact duplicates (same EUI, counter, timestamp) are ingested once;
    queries see a consistent snapshot under a single-writer lock.  Every
    stored timestamp is finite.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_eui: dict[str, list[PacketRecord]] = {}
        self._seen: set[tuple[str, int, float]] = set()

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
        added = 0
        with self._lock:
            for rec in records:
                key = (rec.dev_eui, rec.fcnt, rec.received_ts)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self._by_eui.setdefault(rec.dev_eui, []).append(rec)
                added += 1
            for bucket in self._by_eui.values():
                bucket.sort(key=lambda r: (r.received_ts, r.fcnt))
        return added

    def ingest_lines(self, lines: Iterable[str]) -> tuple[int, int]:
        """Parse and store log lines; returns (ingested, skipped)."""
        good: list[PacketRecord] = []
        skipped = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                good.append(parse_log_line(line))
            except ValueError:
                skipped += 1
        return self._add(good), skipped  # parsed timestamps are finite

    def ingest_file(self, path) -> tuple[int, int]:
        with open(path, "r", encoding="ascii") as fh:
            return self.ingest_lines(fh)

    def query(self, dev_eui: str, from_ts: float, to_ts: float) -> list[PacketRecord]:
        """Records of one device with from_ts <= ts <= to_ts, time-ordered."""
        if from_ts > to_ts:
            raise ValueError("query window is empty (from > to)")
        with self._lock:
            bucket = self._by_eui.get(dev_eui, [])
            return [r for r in bucket if from_ts <= r.received_ts <= to_ts]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._by_eui.values())


# Longest request line, newline included, that the server reads; a query
# is about 100 bytes, and a client that never sends a newline must not
# grow the server's buffer without bound.
MAX_LINE_BYTES = 64 * 1024


def _send(wfile, message: dict) -> None:
    wfile.write((json.dumps(message) + "\n").encode("utf-8"))
    wfile.flush()


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


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: PacketServer = self.server  # type: ignore[assignment]
        authed = False
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(raw) > MAX_LINE_BYTES:
                _send(self.wfile, {"type": "error",
                                   "reason": f"message longer than {MAX_LINE_BYTES} bytes"})
                return
            try:
                msg = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                _send(self.wfile, {"type": "error", "reason": "unparseable message"})
                return
            if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
                _send(self.wfile, {"type": "error", "reason": "message must be an object with a type"})
                return
            kind = msg["type"]
            if kind == "auth":
                token = msg.get("token")
                if isinstance(token, str) and hmac.compare_digest(token, server.token):
                    authed = True
                    _send(self.wfile, {"type": "auth_ok"})
                else:
                    _send(self.wfile, {"type": "auth_fail", "reason": "bad token"})
                    return
            elif not authed:
                _send(self.wfile, {"type": "error", "reason": "authentication required"})
                return
            elif kind == "query":
                self._handle_query(server, msg)
            else:
                _send(self.wfile, {"type": "error", "reason": f"unknown message type {kind!r}"})

    def _handle_query(self, server: PacketServer, msg: dict) -> None:
        eui = msg.get("dev_eui")
        lo, hi = msg.get("from"), msg.get("to")
        if not isinstance(eui, str):
            _send(self.wfile, {"type": "error", "reason": "query needs a string dev_eui"})
            return
        if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)) or \
                isinstance(lo, bool) or isinstance(hi, bool):
            _send(self.wfile, {"type": "error", "reason": "query needs numeric from/to"})
            return
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:
            lo = hi = math.inf
        if not (math.isfinite(lo) and math.isfinite(hi)):
            _send(self.wfile, {"type": "error", "reason": "query needs finite from/to"})
            return
        if lo > hi:
            _send(self.wfile, {"type": "error", "reason": "empty window (from > to)"})
            return
        self.wfile.write(encode_packets(eui, server.store.query(eui, lo, hi)))
        self.wfile.flush()


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

    def _send(self, message: dict) -> None:
        self._sock.sendall((json.dumps(message) + "\n").encode("utf-8"))

    def _recv(self) -> dict:
        raw = self._rfile.readline()
        if not raw:
            raise ProtocolError("connection closed by server")
        try:
            msg = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"server sent an unparseable message: {exc}") from exc
        if not isinstance(msg, dict):
            raise ProtocolError("server sent a non-object message")
        return msg

    def _auth(self, token: str) -> None:
        self._send({"type": "auth", "token": token})
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
        if reply.get("type") == "error":
            raise ProtocolError(reply.get("reason", "server error"))
        if reply.get("type") != "packets" or not isinstance(reply.get("packets"), list):
            raise ProtocolError(f"unexpected query reply {reply!r}")
        if reply.get("dev_eui") != dev_eui:
            raise ProtocolError(f"reply names device {reply.get('dev_eui')!r}, "
                                f"not the {dev_eui!r} asked for")
        try:
            return [
                PacketRecord(
                    dev_eui=dev_eui,
                    fcnt=int(p["fcnt"]),
                    received_ts=float(p["ts"]),
                    sf=int(p["sf"]),
                )
                for p in reply["packets"]
            ]
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
