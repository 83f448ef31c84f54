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
    entry  =  {"dev_eui": "...", "ts": [...], "fcnt": [...], "sf": [...]}

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
are closed intervals with finite bounds.  An entry holds the device's
packets as the store does, as three columns of one length (an unknown EUI
has empty ones): the server writes the store's slices straight to the
wire, and the client decodes them straight into the store's types.
Packets enter a store only as rows, through
:meth:`PacketStore.ingest_rows`, held to one value domain.  Persistence
is an append-only log file (the simulator's export format) replayed at
startup, parsed into rows a block of 4,096 lines at a time, so that
parsing holds O(block) memory beyond the store.
Every block takes one path: its lines are joined by spaces, and one
pattern cuts out each stretch between two spaces that is not one log
line.  No log line holds a space, so a line that holds one is skipped
before the join, and each space is a seam between two lines.
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

# A stretch of a block of lines, joined by single spaces with one more
# space at each end, that is not one packet-log line: a space that the
# fields, an optional line end and the next space do not follow, and what
# lies up to that next space.  No field holds a space, so once the lines
# that hold one are dropped every space is a seam between two lines, and
# ``sub`` of this pattern leaves the packet-log lines and no other.  A
# match never repeats a line, so the search keeps no state per line.
_NOT_A_LOG_LINE = re.compile(r" (?!{}\r?\n?(?= ))[^ ]*".format(
    "\t".join(f"(?:{field})" for field in _LOG_FIELDS)))

# Log lines that ``PacketStore.ingest_lines`` parses at a time.
_INGEST_BLOCK = 1 << 12

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


def _fits(ts: str, fcnt: str) -> bool:
    """Whether a log line's timestamp and counter fit their columns."""
    try:
        return -_INF < float(ts) < _INF and int(fcnt) <= _FCNT_MAX
    except ValueError:  # a counter longer than ``int`` reads
        return False


def _block_rows(block: list[str]) -> tuple[int, Iterable[tuple[str, float, int, int]]]:
    """How many, and which, ``(EUI, timestamp, counter, SF)`` rows the log
    lines of a block give: one for each line that is a packet-log line
    whose timestamp and counter fit their columns, in order.

    The lines that hold no space are joined by single spaces, with one
    more space at each end, and every stretch between two spaces that is
    not one packet-log line is cut out (:data:`_NOT_A_LOG_LINE`).  What is
    left is split once and converted a column at a time; only a block with
    a value no column holds is filtered row by row.
    """
    text = " ".join(block)
    if text.count(" ") != len(block) - 1:  # a line holds a space, as no log line does
        text = " ".join([line for line in block if " " not in line])
    fields = _NOT_A_LOG_LINE.sub("", f" {text} ").split()
    ts_s, euis, fcnt_s, sfs = fields[0::4], fields[1::4], fields[2::4], fields[3::4]
    try:
        ts, fcnt = list(map(float, ts_s)), list(map(int, fcnt_s))
        fits = not ts or (-_INF < min(ts) and max(ts) < _INF and max(fcnt) <= _FCNT_MAX)
    except ValueError:  # a counter longer than ``int`` reads
        fits = False
    if fits:
        return len(ts), zip(euis, ts, fcnt, map(int, sfs))
    rows = [(eui, float(t), int(c), int(sf))
            for t, eui, c, sf in zip(ts_s, euis, fcnt_s, sfs) if _fits(t, c)]
    return len(rows), rows


# One EUI's packets: receive times, frame counters and SFs, row by row.
Columns = tuple[Sequence[float], Sequence[int], Sequence[int]]

# Columns with no packet: an empty window, an unknown EUI, a failed query.
NO_PACKETS: Columns = ((), (), ())


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

    Packets go in only through :meth:`ingest_rows`, which makes each EUI's
    rows of a call one batch.  A batch whose timestamps rise strictly,
    starting after the last one stored for its EUI (as on every resolution
    of a live world, and for each EUI of a log ``write_packet_log``
    wrote), is appended in place, at a cost that grows with the batch and
    not with the history.
    Any other batch is sorted together with the EUI's stored rows by
    (timestamp, counter), stably, so of two exact duplicates (same EUI,
    timestamp and counter) the one stored first is kept.

    The columns pin what a packet may hold, one rule for every caller: a
    finite timestamp (an ``int`` one is stored, and returned, as the float
    ``float()`` gives), a frame counter that fits an int64, an SF that
    fits a byte, and four fields to a row.  A call with any other row is
    a ``ValueError``, and then none of it is stored.  The client holds
    each reply entry to the same domain.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_eui: dict[str, tuple[array, array, bytearray]] = {}

    def ingest_rows(self, rows: Iterable[tuple[str, float, int, int]]) -> int:
        """Store ``(dev_eui, timestamp, counter, SF)`` rows, in any mix of
        EUIs, each onto its EUI's columns in order; returns how many were
        new.  A row outside the domain is a ``ValueError`` and stores none
        of the call.

        Finiteness is free where a batch is appended: a strictly rising
        column holds no NaN, so it is finite when its two ends are; only a
        batch sorted into the stored rows has each timestamp tested.
        """
        by_eui: dict[str, tuple[array, array, bytearray]] = {}
        try:
            for eui, ts, fcnt, sf in rows:
                columns = by_eui.get(eui)
                if columns is None:
                    by_eui[eui] = columns = (array("d"), array("q"), bytearray())
                columns[0].append(ts)
                columns[1].append(fcnt)
                columns[2].append(sf)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"a row does not fit the store's columns: {exc}") from None
        keys, rising = [], []
        for eui, (ts, _, _) in by_eui.items():
            up = all(map(lt, ts, ts[1:]))
            if not (-_INF < ts[0] and ts[-1] < _INF if up else all(map(isfinite, ts))):
                raise ValueError(f"non-finite timestamp among the packets of {eui!r}")
            keys.append(eui.lower())
            rising.append(up)
        with self._lock:
            return sum(map(self._put, keys, by_eui.values(), rising))

    def _put(self, key: str, columns: tuple[array, array, bytearray], rising: bool) -> int:
        stored = self._by_eui.get(key)
        ts = columns[0]
        # timestamps that rise strictly past the stored ones leave every key
        # new and in order
        if rising and (stored is None or stored[0][-1] < ts[0]):
            if stored is None:
                self._by_eui[key] = columns
            else:
                for column, new in zip(stored, columns):
                    column.extend(new)
            return len(ts)
        # sort the batch into the stored rows; stable, so of two duplicates,
        # now neighbours, the stored one (or the earlier in the batch) leads
        stored = stored or NO_PACKETS
        rows = sorted(chain(zip(*stored), zip(*columns)), key=_KEY)
        rows = [row for prev, row in zip([(None, None), *rows], rows) if _KEY(prev) != _KEY(row)]
        ts, fcnt, sf = zip(*rows)
        self._by_eui[key] = array("d", ts), array("q", fcnt), bytearray(sf)
        return len(rows) - len(stored[0])

    def ingest_lines(self, lines: Iterable[str]) -> tuple[int, int]:
        """Parse and store log lines; returns (ingested, skipped).

        Blank lines are ignored; every other line that is not a packet-log
        line (:data:`_LOG_FIELDS`, tab separated, and an optional ``\\r``
        and ``\\n``), or whose timestamp digits overflow to infinity or
        whose frame counter does not fit an int64, is skipped.  The other
        lines' fields go to :meth:`ingest_rows` as rows.

        Every block of ``_INGEST_BLOCK`` (4,096) lines takes one path,
        :func:`_block_rows`: its lines are joined by spaces, and each
        stretch between two spaces that is not one packet-log line is cut
        out.  A line that holds a space is skipped before the join, so each
        space of the joined text is a seam between two lines, and a line is
        never read across a seam.
        """
        skipped = 0

        def blocks(lines=iter(lines)):
            nonlocal skipped
            while block := list(islice(lines, _INGEST_BLOCK)):
                kept, rows = _block_rows(block)
                if kept < len(block):  # every line not kept is skipped, but a blank one
                    skipped += len(block) - kept - block.count("") - sum(map(str.isspace, block))
                yield rows

        added = self.ingest_rows(chain.from_iterable(blocks()))
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
    return (f'{{"dev_eui": {encode_basestring_ascii(dev_eui)}, "ts": {list(ts)!r}, '
            f'"fcnt": {list(fcnt)!r}, "sf": {list(sf)!r}}}')


def _answer(store: PacketStore, msg: dict) -> bytes:
    """The reply line to one query: an entry per EUI, or why it is refused.

    The ``packets`` line is byte for byte what ``json.dumps`` writes:
    frame counters and SFs are ints and timestamps finite floats (the
    store holds no others), so a column is written as the ``repr`` of its
    list, and EUIs go through JSON's own string encoder.
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
    entries = ", ".join([_entry(eui, *store.window(eui, lo, hi)) for eui in euis])
    return f'{{"type": "packets", "devices": [{entries}]}}\n'.encode("ascii")


def _error(reason: str) -> bytes:
    return _line({"type": "error", "reason": reason})


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: PacketServer = self.server  # type: ignore[assignment]
        send = self.request.sendall
        authed = False
        try:
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
        except OSError:  # the client reset or dropped the connection
            return


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
    ts, fcnt, sf = item.get("ts"), item.get("fcnt"), item.get("sf")
    if not (type(ts) is type(fcnt) is type(sf) is list and len(ts) == len(fcnt) == len(sf)):
        return ProtocolError(f"reply entry for {dev_eui!r} holds no three columns of one length")
    try:
        if bool in set(map(type, chain(ts, fcnt, sf))):
            raise TypeError("a packet value is a bool")
        columns = array("d", ts), array("q", fcnt), bytearray(sf)
        if not all(map(isfinite, columns[0])):
            raise ValueError("a timestamp is not finite")
        return columns
    except (TypeError, ValueError, OverflowError) as exc:
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
        that does not name its EUI and hold a ``ts``, an ``fcnt`` and an
        ``sf`` list of one length, or whose lists hold a value the store's
        columns could not, fails its device; a reply that is no list of
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
