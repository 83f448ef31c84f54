"""Mock LoRaWAN network server.

Stores uplink packets, each device's as columns (see
:class:`PacketStore`), and answers time-windowed queries for a batch of
devices over a persistent TCP connection carrying
newline-delimited JSON messages.  A connection must authenticate before
querying:

    client -> {"type": "auth", "token": "..."}
    server -> {"type": "auth_ok"} | {"type": "auth_fail", "reason": "..."}
    client -> {"type": "query", "dev_euis": ["...", ...], "from": t0, "to": t1}
    server -> {"type": "packets", "devices": [entry, ...]}
    entry  =  {"dev_eui": "...", "packets": [...]}

Devices obey :func:`check_devices`, and the store keys each by its
lower-case EUI, so either case finds it.  A reply holds one entry per
requested EUI, named as asked, in request order, all over the one window.
The client refuses an EUI repeated in any case, then writes each request
with ``json.dumps``, a fixed number of EUIs at a time, for the server to
judge.  Any protocol violation is answered with {"type": "error",
"reason": ...}: a ``dev_euis`` that is not a non-empty list of distinct
(case-blind) strings and a bad window refuse the whole request.
Violations before authentication, unparseable frames and lines longer
than ``MAX_LINE_BYTES`` additionally close the connection.  Query windows
are closed intervals with finite bounds, and an unknown EUI yields an
empty packet list.  A reply is formatted straight from the store's column
slices, and the client decodes each entry straight into columns of the
same types; no record object is built on either side.  Persistence is an
append-only log file (the simulator's export format) replayed at startup,
parsed straight into columns a block of lines at a time, so that parsing
holds O(block) memory beyond the store.
"""

from __future__ import annotations

import hmac
import json
import math
import re
import socket
import socketserver
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter, lt
from typing import Iterable, Sequence

# A device EUI: 16 hex digits, matched with ``fullmatch``.
EUI_PATTERN = re.compile(r"[0-9a-fA-F]{16}")


def check_devices(devices: Iterable[tuple[str, str]], forms: bool = True) -> dict[str, str]:
    """Check ``(id, EUI)`` pairs in order: ids are one token and unique, EUIs
    16 hex digits (unless ``forms=False``) and unique in any case; id -> EUI."""
    eui_by_id, id_by_key = {}, {}  # id -> EUI, lower-case EUI -> id
    for device_id, eui in devices:
        # one token, so that the report's ``id delivered sent`` line splits in three
        if forms and device_id.split() != [device_id]:
            raise ValueError(f"device {device_id!r}: id is empty or holds whitespace")
        if forms and not EUI_PATTERN.fullmatch(eui):
            raise ValueError(f"device {device_id!r}: EUI {eui!r} is not 16 hex digits")
        if device_id in eui_by_id:
            raise ValueError(f"duplicate device id {device_id}")
        other = id_by_key.setdefault(eui.lower(), device_id)
        if other != device_id:
            raise ValueError(f"duplicate device EUI {eui}: devices {other} and {device_id}")
        eui_by_id[device_id] = eui
    return eui_by_id


# The fields of a packet-log line, tab separated: the receive time (an
# optional minus, digits and an optional fraction), the EUI, the frame
# counter and the SF (7-12).  This is exactly what
# ``simulator.write_packet_log`` writes; signs, spaces, underscores,
# exponents, NaN and infinities are malformed.
_LOG_FIELDS = (r"-?[0-9]+(?:\.[0-9]+)?", EUI_PATTERN.pattern, r"[0-9]+", r"[7-9]|1[0-2]")

# One packet-log line, matched with ``fullmatch``: the fields, each
# captured, with an optional line end.
LOG_LINE = re.compile("\t".join(f"({field})" for field in _LOG_FIELDS) + r"\r?\n?")

# A block of log lines joined by single spaces, matched with ``fullmatch``:
# each line the fields and one ``\n``.  The grammar leaves the repeat one
# way to match a clean block; a block that fails is given back one line at a
# time, which about doubles the cost of the check.  Whitespace separates
# every field, so ``str.split`` of a matching block gives four fields per
# line.
_LOG_BLOCK = re.compile("(?:{0}\n )*{0}\n".format(
    "\t".join(f"(?:{field})" for field in _LOG_FIELDS)))

# Log lines that ``PacketStore.ingest_lines`` checks and converts at a time.
_INGEST_BLOCK = 1 << 14

_INF = math.inf
# A stored row's key, (timestamp, frame counter): each EUI's rows rise in it.
_KEY = itemgetter(0, 1)
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


# Largest frame counter a counter column (int64) holds.
_FCNT_MAX = 2**63 - 1


def _log_fields(line: str) -> tuple[str, float, int, int]:
    """The EUI, timestamp, frame counter and SF of one log line."""
    match = LOG_LINE.fullmatch(line)
    if match is None:
        raise ValueError(f"not a packet-log line: {line!r}")
    ts_s, eui, fcnt_s, sf = match.groups()
    ts, fcnt = float(ts_s), int(fcnt_s)
    if not -_INF < ts < _INF:
        raise ValueError(f"timestamp {ts_s!r} overflows")
    if fcnt > _FCNT_MAX:
        raise ValueError(f"frame counter {fcnt_s!r} does not fit an int64")
    return eui, ts, fcnt, int(sf)


def _block_fields(block: list[str]):
    """The EUIs, timestamps, counters and SFs of a block of log lines, as
    :func:`_log_fields` reads them, column by column; or ``None`` unless
    each line is one :data:`LOG_LINE` ended by exactly one ``\\n`` and
    every timestamp and counter fits its column.

    The block is one string, the lines joined by spaces: it matches
    :data:`_LOG_BLOCK` with as many lines as the block has elements only
    if no element holds a space, so the joining spaces are the only ones
    and each element is one line and its ``\\n``.
    """
    text = " ".join(block)
    if _LOG_BLOCK.fullmatch(text) is None:
        return None
    fields = text.split()
    if len(fields) != 4 * len(block):
        return None
    try:
        ts, fcnt = list(map(float, fields[0::4])), list(map(int, fields[2::4]))
    except ValueError:  # a counter longer than ``int`` reads
        return None
    if not (-_INF < min(ts) and max(ts) < _INF and max(fcnt) <= _FCNT_MAX):
        return None
    return fields[1::4], ts, fcnt, map(int, fields[3::4])


# One EUI's packets: receive times, frame counters and SFs, row by row.
Columns = tuple[Sequence[float], Sequence[int], Sequence[int]]

# Columns with no packet: an empty window, an unknown EUI, a failed query.
NO_PACKETS: Columns = ((), (), ())


def _typed_columns(eui: str, ts: Iterable[float], fcnt: Iterable[int], sf: Iterable[int]
                   ) -> tuple[array, array, bytearray]:
    """One EUI's packets as the store's columns: an ``array('d')`` of
    finite timestamps, an ``array('q')`` of counters and a ``bytearray``
    of SFs.  A value no column holds, a non-finite timestamp and columns
    of unequal length are each a ``ValueError``."""
    try:
        typed = array("d", ts), array("q", fcnt), bytearray(sf)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"packets of {eui!r} do not fit the store's columns: {exc}") from None
    if not len(typed[0]) == len(typed[1]) == len(typed[2]):
        raise ValueError(f"columns of {eui!r} differ in length")
    if not all(map(isfinite, typed[0])):
        raise ValueError(f"non-finite timestamp among the packets of {eui!r}")
    return typed


class PacketStore:
    """Thread-safe packet storage with duplicate suppression.

    Each EUI's packets are kept as three columns in (timestamp, counter)
    order: an ``array('d')`` of receive times, an ``array('q')`` of frame
    counters and a ``bytearray`` of SFs, with the lower-case EUI stored
    once as the key, about 17 bytes per packet.  A query is two
    bisections of the timestamp column and a slice: :meth:`window` returns
    the slices, which the server formats its replies from and the live
    world answers with.  :meth:`query` builds one record per packet of the
    slice; no product path calls it.  Queries see a consistent snapshot
    under a single-writer lock.

    Batches go in through :meth:`ingest_columns` or :meth:`ingest_lines`,
    one EUI's columns at a time.  A batch whose timestamps rise strictly,
    starting after the last one stored for its EUI (as on every resolution
    of a live world, and for each EUI of a log ``write_packet_log``
    wrote), is appended in place, at a cost that grows with the batch and
    not with the history.
    Any other batch is sorted together with the EUI's stored rows by
    (timestamp, counter), stably, so of two exact duplicates (same EUI,
    timestamp and counter) the one stored first is kept.

    The columns pin what a packet may hold: a finite timestamp (an ``int``
    one is stored, and returned, as the float ``float()`` gives), a frame
    counter that fits an int64 and an SF that fits a byte.  A batch with
    any other value is a ``ValueError``, and then none of it is stored.
    The client holds each reply entry to the same domain.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_eui: dict[str, tuple[array, array, bytearray]] = {}

    def ingest_columns(self, batches: Iterable[tuple[str, Sequence[float], Sequence[int],
                                                     Sequence[int]]]) -> int:
        """Store ``(dev_eui, timestamps, counters, SFs)`` batches, one row
        per packet; returns how many packets were new."""
        typed = []
        for eui, ts, fcnt, sf in batches:
            ts, fcnt, sf = _typed_columns(eui, ts, fcnt, sf)
            if ts:
                typed.append((eui, ts, fcnt, sf))
        added = 0
        with self._lock:
            for batch in typed:
                added += self._put(*batch)
        return added

    def _put(self, eui: str, ts: array, fcnt: array, sf: bytearray) -> int:
        eui = eui.lower()
        stored = self._by_eui.get(eui)
        # timestamps that rise strictly past the stored ones leave every key
        # new and in order
        if (stored is None or stored[0][-1] < ts[0]) and all(map(lt, ts, ts[1:])):
            if stored is None:
                self._by_eui[eui] = ts, fcnt, sf
            else:
                stored[0].extend(ts)
                stored[1].extend(fcnt)
                stored[2].extend(sf)
            return len(ts)
        # sort the batch into the stored rows; stable, so of two duplicates,
        # now neighbours, the stored one (or the earlier in the batch) leads
        stored = stored or NO_PACKETS
        rows = sorted(chain(zip(*stored), zip(ts, fcnt, sf)), key=_KEY)
        rows = [row for prev, row in zip([(None, None), *rows], rows) if _KEY(prev) != _KEY(row)]
        ts, fcnt, sf = zip(*rows)
        self._by_eui[eui] = array("d", ts), array("q", fcnt), bytearray(sf)
        return len(rows) - len(stored[0])

    def ingest_lines(self, lines: Iterable[str]) -> tuple[int, int]:
        """Parse and store log lines; returns (ingested, skipped).

        Blank lines are ignored; every other line that is no
        :data:`LOG_LINE`, or whose timestamp digits overflow to infinity or
        whose frame counter does not fit an int64, is skipped.  Each
        line's fields, which always fit the columns, go onto its EUI's
        columns, which are stored as they are, with no second check.

        Lines are taken ``_INGEST_BLOCK`` at a time, and a block is checked
        and converted whole (:func:`_block_fields`); a block that holds a
        line to skip or to ignore, a line end other than one ``\\n``, or a
        value no column holds is read line by line instead, so either way
        every line is read as :func:`_log_fields` reads it.
        """
        by_eui: dict[str, tuple[array, array, bytearray]] = {}
        skipped = 0
        lines = iter(lines)
        while block := list(islice(lines, _INGEST_BLOCK)):
            fields = _block_fields(block)
            if fields is not None:
                rows = zip(*fields)
            else:
                rows = []
                for line in block:
                    try:
                        rows.append(_log_fields(line))
                    except ValueError:
                        if line and not line.isspace():
                            skipped += 1
            for eui, ts, fcnt, sf in rows:
                columns = by_eui.get(eui)
                if columns is None:
                    by_eui[eui] = columns = (array("d"), array("q"), bytearray())
                columns[0].append(ts)
                columns[1].append(fcnt)
                columns[2].append(sf)
        with self._lock:
            added = sum(self._put(eui, *columns) for eui, columns in by_eui.items())
        return added, skipped

    def ingest_file(self, path) -> tuple[int, int]:
        # a byte outside ASCII becomes U+FFFD, which no log line holds, so
        # it costs its line and not the whole file
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            return self.ingest_lines(fh)

    def window(self, dev_eui: str, from_ts: float, to_ts: float) -> Columns:
        """Columns of one device's rows with from_ts <= ts <= to_ts, in
        time order: copies of the slices of its timestamps, counters and
        SFs."""
        if not from_ts <= to_ts:
            if from_ts > to_ts:
                raise ValueError("query window is empty (from > to)")
            return NO_PACKETS  # a NaN bound, which no timestamp lies within
        with self._lock:
            stored = self._by_eui.get(dev_eui.lower())
            if stored is None:
                return NO_PACKETS
            ts, fcnt, sf = stored
            lo, hi = bisect_left(ts, from_ts), bisect_right(ts, to_ts)
            return ts[lo:hi], fcnt[lo:hi], sf[lo:hi]

    def query(self, dev_eui: str, from_ts: float, to_ts: float) -> list[PacketRecord]:
        """Records of one device with from_ts <= ts <= to_ts, time-ordered:
        :meth:`window`'s rows, one record object each."""
        ts, fcnt, sf = self.window(dev_eui, from_ts, to_ts)
        return list(map(PacketRecord, repeat(dev_eui), fcnt, ts, sf))

    def __len__(self) -> int:
        with self._lock:
            return sum(len(ts) for ts, _, _ in self._by_eui.values())


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


def _entry(dev_eui: str, ts: Iterable[float], fcnt: Iterable[int], sf: Iterable[int]) -> str:
    """One reply entry, as ``json.dumps`` writes it, from the device's columns."""
    packets = ", ".join([f'{{"fcnt": {f!r}, "ts": {t!r}, "sf": {s!r}}}'
                         for t, f, s in zip(ts, fcnt, sf)])
    return f'{{"dev_eui": {encode_basestring_ascii(dev_eui)}, "packets": [{packets}]}}'


def _packets_line(entries: list[str]) -> bytes:
    return f'{{"type": "packets", "devices": [{", ".join(entries)}]}}\n'.encode("ascii")


def _answer(store: PacketStore, msg: dict) -> bytes:
    """The reply line to one query: an entry per EUI, or why it is refused.

    The ``packets`` line is byte for byte what ``json.dumps`` writes:
    frame counters and SFs are ints and timestamps finite floats (the
    store holds no others), which JSON writes as their ``repr``, and EUIs
    go through JSON's own string encoder.
    """
    euis, lo, hi = msg.get("dev_euis"), msg.get("from"), msg.get("to")
    if type(euis) is not list or not euis or not all(type(e) is str for e in euis):
        return _error("query needs a non-empty dev_euis list of strings")
    if len(set(map(str.lower, euis))) < len(euis):
        return _error("query needs distinct dev_euis")
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
    window = store.window
    return _packets_line([_entry(eui, *window(eui, lo, hi)) for eui in euis])


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


def _device_reply(item, dev_eui: str) -> Columns | ProtocolError:
    """One reply entry as the device's columns, of the store's types and
    value domain, or why it fails.  JSON's ``true`` and ``false`` are no
    numbers, though the columns would take them as 1 and 0."""
    named = item.get("dev_eui") if type(item) is dict else None
    if named != dev_eui:
        return ProtocolError(f"reply names device {named!r}, not the {dev_eui!r} asked for")
    packets = item.get("packets")
    if type(packets) is not list:
        return ProtocolError(f"reply entry for {dev_eui!r} holds no packets list")
    try:
        ts, fcnt, sf = ([p[key] for p in packets] for key in ("ts", "fcnt", "sf"))
        if bool in set(map(type, chain(ts, fcnt, sf))):
            raise TypeError("a packet value is a bool")
        return _typed_columns(dev_eui, ts, fcnt, sf)
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
              ) -> list[Columns | ProtocolError]:
        """One entry per EUI, in order: the device's columns in the closed
        window, an ``array('d')``, an ``array('q')`` and a ``bytearray``
        holding the rows of the server store's :meth:`PacketStore.window`,
        or the :class:`ProtocolError` that fails that device alone.

        The EUIs go in requests of ``_EUIS_PER_REQUEST`` each, which fit
        the server's line limit when every EUI is 16 hex digits.  An entry
        without a packets list, or with a packet the store's columns could
        not hold, fails its device; a reply that is no list of
        one entry per EUI fails each EUI of its request.  An EUI given twice
        (in either case) raises before anything is sent.  The server judges
        the rest: a bad bound, a non-string EUI or an over-long line gets its
        ``error`` reply, which raises (the last also closes the connection).
        A value JSON cannot write, a closed connection and a socket error
        raise too; each fails the whole call.
        """
        keys = [e.lower() for e in dev_euis if isinstance(e, str)]
        if len(set(keys)) < len(keys):
            raise ProtocolError("query needs distinct dev_euis")
        entries: list[Columns | ProtocolError] = []
        for start in range(0, len(dev_euis), _EUIS_PER_REQUEST):
            entries += self._request(dev_euis[start:start + _EUIS_PER_REQUEST], from_ts, to_ts)
        return entries

    def _request(self, euis: list[str], from_ts: float, to_ts: float
                 ) -> list[Columns | ProtocolError]:
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
