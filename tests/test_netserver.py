import base64
import importlib
import json
import math
import pkgutil
import re
import socket
import struct
import sys
import threading
import tracemalloc
from array import array
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lorascale
from lorascale import netserver
from lorascale.controller import DeviceMatrix, RosterEntry, collect
from lorascale.simulator import DeviceSpec, run, write_packet_log
from lorascale.netserver import (
    MAX_LINE_BYTES,
    AuthError,
    NetClient,
    PacketRecord,
    PacketStore,
    ProtocolError,
    start_server,
)
from record_oracle import (LogRecord, as_lists, columns, format_log_line, ingest_records,
                           parse_log_line, records_of, reference_packets_line, served_line,
                           stored, wire_column, wire_values)
from store_oracle import ReferenceStore, reference_parse_log_line, written_form

TOKEN = "secret-token"


@contextmanager
def serving(store):
    srv, thread = start_server(store, TOKEN)
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def server():
    store = PacketStore()
    with serving(store) as srv:
        yield srv, store


def raw_connection(srv):
    sock = socket.create_connection(srv.server_address, timeout=5)
    return sock, sock.makefile("rb")


def send_json(sock, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())


def send_raw(sock, data: bytes):
    sock.sendall(data)


def read_json(rfile):
    line = rfile.readline()
    return json.loads(line) if line else None


# --- log parsing and store ---------------------------------------------------

# Lines that ``float`` and ``int`` would read but that write_packet_log
# never writes: signs, spaces, underscores, exponents, non-finite names,
# bare or trailing points, non-ASCII digits, a zero-padded SF.
LENIENT_LINES = [
    "1_0.5\t00000000000000aa\t3_0\t+7",
    "+12.5\t00000000000000aa\t3\t7",
    "12.5\t00000000000000aa\t+3\t7",
    "12.5\t00000000000000aa\t3\t+7",
    " 12.5\t00000000000000aa\t3\t7",
    "12.5 \t00000000000000aa\t3\t7",
    "12.5\t00000000000000aa\t 3\t7",
    "12.5\t00000000000000aa\t3 \t7",
    "12.5\t00000000000000aa\t3\t7 \n",
    "1e3\t00000000000000aa\t3\t7",
    "1.5E2\t00000000000000aa\t3\t7",
    "inf\t00000000000000aa\t3\t7",
    "Infinity\t00000000000000aa\t3\t7",
    "NaN\t00000000000000aa\t3\t7",
    ".5\t00000000000000aa\t3\t7",
    "5.\t00000000000000aa\t3\t7",
    "\uff11\uff12.5\t00000000000000aa\t3\t7",
    "12.5\t00000000000000aa\t\u0663\t7",
    "12.5\t00000000000000aa\t3\t07",
    "12.5\t00000000000000aa\t3\t7\n\n",
]
# Digits only, but beyond the float range: they read as an infinity.
OVERFLOW_LINE = "1" + "0" * 400 + "\t00000000000000aa\t3\t7"


def test_parse_log_line_roundtrip():
    rec = parse_log_line("12.500000\t00000000000000aa\t3\t7\n")
    assert rec == PacketRecord("00000000000000aa", 3, 12.5)


@given(
    dev_eui=st.from_regex(r"[0-9a-fA-F]{16}", fullmatch=True),
    fcnt=st.integers(0, 2**32),
    micros=st.integers(0, 10**14),
    sf=st.integers(7, 12),
)
def test_log_line_format_parse_roundtrip(dev_eui, fcnt, micros, sf):
    # timestamps already at the log's 6 fractional digits survive exactly;
    # the SF survives the log, and the store drops it
    ts = float(f"{micros // 10**6}.{micros % 10**6:06d}")
    record = LogRecord(dev_eui, fcnt, ts, sf)
    assert reference_parse_log_line(format_log_line(record)) == record
    assert parse_log_line(format_log_line(record)) == stored(record)


@pytest.mark.parametrize(
    "line",
    [
        "",
        "12.5\t00000000000000aa\t3",
        "x\t00000000000000aa\t3\t7",
        "12.5\tnot-an-eui\t3\t7",
        "12.5\t00000000000000aa\t-1\t7",
        "12.5\t00000000000000aa\t3\t13",
        "12.5\t00000000000000aa\n\t3\t7",
        "nan\t00000000000000aa\t3\t7",
        "-inf\t00000000000000aa\t3\t7",
        "1e400\t00000000000000aa\t3\t7",
        OVERFLOW_LINE,
        *LENIENT_LINES,
    ],
)
def test_parse_log_line_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_log_line(line)


@pytest.mark.parametrize("line", [
    "0\t00000000000000aa\t0\t12",
    "-0.5\t00000000000000AA\t0003\t10",
    "12.500000\t00000000000000aa\t3\t7\r\n",
    "1" + "0" * 300 + ".25\t00000000000000aa\t3\t7",
])
def test_parse_log_line_accepts_written_forms(line):
    assert parse_log_line(line) == stored(reference_parse_log_line(line))


def test_ingest_skips_lenient_lines():
    good = "12.500000\t00000000000000aa\t3\t7\n"
    store = PacketStore()
    lines = [good, *LENIENT_LINES, "\n", "  \r\n", OVERFLOW_LINE]
    assert store.ingest_lines(lines) == (1, len(LENIENT_LINES) + 1)
    assert store.query("00000000000000aa", -1e300, 1e300) == [
        PacketRecord("00000000000000aa", 3, 12.5)]


def test_ingest_file_skips_only_the_line_with_a_non_ascii_byte(tmp_path):
    log = tmp_path / "packets.log"
    log.write_bytes(b"1.000000\t00000000000000aa\t0\t7\n"
                    b"2.0\xff\t00000000000000aa\t1\t7\n"
                    b"3.000000\t00000000000000aa\t2\t7\n")
    store = PacketStore()
    assert store.ingest_file(log) == (2, 1)
    assert [r.fcnt for r in store.query("00000000000000aa", 0.0, 5.0)] == [0, 2]


def test_store_ingest_empty_stream():
    store = PacketStore()
    assert ingest_records(store, []) == 0
    assert store.ingest_lines([]) == (0, 0)
    assert len(store) == 0


def test_store_ingest_dedupe_and_skip_counting():
    store = PacketStore()
    lines = [
        "1.000000\t00000000000000aa\t0\t7",
        "2.000000\t00000000000000aa\t1\t7",
        "garbage line",
        "2.000000\t00000000000000aa\t1\t7",  # exact duplicate
    ]
    ingested, skipped = store.ingest_lines(lines)
    assert (ingested, skipped) == (2, 1)
    # re-ingesting the same data changes nothing
    ingested, _ = store.ingest_lines(lines[:2])
    assert ingested == 0
    assert len(store) == 2


def test_store_keys_a_device_by_its_lower_case_eui():
    """A log may name one device in either case: its lines go under one
    key, duplicates across the cases are dropped, and a query in either
    case finds them, named as it asked."""
    store = PacketStore()
    lines = [
        "1.000000\t00000000000000aa\t0\t7",
        "2.000000\t00000000000000AA\t1\t7",
        "2.000000\t00000000000000aA\t1\t7",  # a duplicate of the line above
        "1.000000\t00000000000000Aa\t0\t7",  # and of the first line
        "3.000000\t00000000000000Aa\t2\t7",
    ]
    assert store.ingest_lines(lines) == (3, 0)
    assert len(store) == 3
    for eui in ("00000000000000aa", "00000000000000AA", "00000000000000aA"):
        assert as_lists(store.window(eui, 0.0, 9.0)) == ([1.0, 2.0, 3.0], [0, 1, 2])
        assert [r.dev_eui for r in store.query(eui, 0.0, 9.0)] == [eui] * 3
    assert ingest_records(store, [PacketRecord("00000000000000AA", 2, 3.0)]) == 0


def test_store_holds_only_finite_timestamps():
    eui = "00000000000000aa"
    store = PacketStore()
    lines = [f"{ts}\t{eui}\t{fcnt}\t7" for fcnt, ts in enumerate(
        ["10.0", "nan", "30.0", "inf", "20.0"])]
    lines.append(f"nan\t{eui}\t1\t7")  # a duplicate of the NaN line
    assert store.ingest_lines(lines) == (3, 3)
    assert [(r.fcnt, r.received_ts) for r in store.query(eui, -1e300, 1e300)] == [
        (0, 10.0), (4, 20.0), (2, 30.0)]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ingest_records(store, [PacketRecord(eui, 9, 1.0), PacketRecord(eui, 8, bad)])
    assert len(store) == 3  # a rejected batch stores nothing


def test_store_query_windowing_and_order():
    store = PacketStore()
    recs = [
        PacketRecord("00000000000000aa", 2, 5.0),
        PacketRecord("00000000000000aa", 1, 5.0),  # ts tie, lower fcnt first
        PacketRecord("00000000000000aa", 0, 1.0),
        PacketRecord("00000000000000bb", 0, 5.0),
    ]
    ingest_records(store, recs)
    hits = store.query("00000000000000aa", 1.0, 5.0)  # closed on both ends
    assert [(r.fcnt, r.received_ts) for r in hits] == [(0, 1.0), (1, 5.0), (2, 5.0)]
    assert store.query("00000000000000aa", 1.5, 4.9) == []
    assert store.query("unknown0000000ee", 0.0, 10.0) == []
    with pytest.raises(ValueError):
        store.query("00000000000000aa", 5.0, 1.0)



def test_store_two_out_of_order_batches_sorted_and_windowed():
    a, b = "00000000000000aa", "00000000000000bb"
    store = PacketStore()
    ingest_records(store, [PacketRecord(a, 5, 50.0), PacketRecord(a, 1, 10.0),
                           PacketRecord(b, 0, 30.0), PacketRecord(a, 3, 30.0)])
    # the second batch lands between, before and after the first one's records
    ingest_records(store, [PacketRecord(a, 4, 40.0), PacketRecord(a, 0, 0.0),
                           PacketRecord(a, 6, 60.0), PacketRecord(a, 2, 30.0)])
    assert [(r.fcnt, r.received_ts) for r in store.query(a, -1.0, 100.0)] == [
        (0, 0.0), (1, 10.0), (2, 30.0), (3, 30.0), (4, 40.0), (5, 50.0), (6, 60.0)]
    assert [r.fcnt for r in store.query(a, 30.0, 40.0)] == [2, 3, 4]
    assert [r.fcnt for r in store.query(a, 30.5, 59.9)] == [4, 5]
    assert store.query(a, 60.5, 70.0) == []
    assert [r.fcnt for r in store.query(b, 0.0, 100.0)] == [0]


def test_store_query_nan_bound_matches_nothing():
    eui = "00000000000000aa"
    store = PacketStore()
    ingest_records(store, [PacketRecord(eui, 0, 1.0), PacketRecord(eui, 1, 2.0)])
    for lo, hi in ((math.nan, 5.0), (0.0, math.nan), (math.nan, math.nan)):
        assert store.query(eui, lo, hi) == []
    with pytest.raises(ValueError):
        store.query(eui, 2.0, 1.0)
    assert [r.fcnt for r in store.query(eui, -math.inf, math.inf)] == [0, 1]


def test_store_later_batch_keeps_timestamps_in_step():
    eui = "00000000000000aa"
    store = PacketStore()
    assert ingest_records(store, [PacketRecord(eui, 4, 4.0), PacketRecord(eui, 2, 2.0)]) == 2
    # a later batch with a duplicate, a tie and records on both sides
    assert ingest_records(store, [PacketRecord(eui, 2, 2.0), PacketRecord(eui, 1, 2.0),
                                  PacketRecord(eui, 5, 5.0), PacketRecord(eui, 0, 0.5)]) == 3
    assert store.query(eui, 2.0, 2.0) == [PacketRecord(eui, 1, 2.0),
                                          PacketRecord(eui, 2, 2.0)]  # the duplicate once
    assert [r.fcnt for r in store.query(eui, 0.5, 4.0)] == [0, 1, 2, 4]
    assert [r.fcnt for r in store.query(eui, 4.5, 5.0)] == [5]
    assert len(store) == 5


# --- the value domain of the store's columns ----------------------------------

AA, BB = "00000000000000aa", "00000000000000bb"


def test_log_line_counter_beyond_int64_is_malformed():
    top = f"1.000000\t{AA}\t{2**63 - 1}\t7"
    over = f"2.000000\t{AA}\t{2**63}\t7"
    assert parse_log_line(top) == PacketRecord(AA, 2**63 - 1, 1.0)
    with pytest.raises(ValueError):
        parse_log_line(over)
    store = PacketStore()
    assert store.ingest_lines([top, over, f"3.000000\t{AA}\t{10**40}\t7"]) == (1, 2)
    assert store.query(AA, 0.0, 5.0) == [PacketRecord(AA, 2**63 - 1, 1.0)]


@pytest.fixture()
def int_reads_4300_digits():
    """``int`` with its default digit limit (Python 3.11 on): a string of
    more than 4,300 digits is a ``ValueError``."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() reads any number of digits")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_counter_longer_than_int_reads_costs_only_its_line(int_reads_4300_digits):
    """Counters of 5,000 digits, one of them zeros and a 1, mid-block next
    to an overflowing timestamp and a counter beyond int64: each is
    skipped alone, and the block's other lines are stored."""
    good = [f"{k}.000000\t{AA}\t{k}\t7" for k in range(3)]
    lines = [good[0], f"0.500000\t{AA}\t{'1' * 5000}\t7", good[1],
             f"1.500000\t{AA}\t{'0' * 5000}1\t7", "9" * 400 + f"\t{AA}\t9\t7",
             f"1.750000\t{AA}\t{2**63}\t7", good[2]]
    store = PacketStore()
    assert store.ingest_lines(lines) == (3, 4)
    assert store.query(AA, -math.inf, math.inf) == [PacketRecord(AA, k, float(k))
                                                    for k in range(3)]


@pytest.mark.parametrize("bad", [
    PacketRecord(AA, 2**63, 3.0),
    PacketRecord(AA, -(2**63) - 1, 3.0),
    PacketRecord(AA, 3, 10**400),
    PacketRecord(AA, 3.0, 3.0),
    PacketRecord(AA, 3, "3.0"),
], ids=["fcnt-over-int64", "fcnt-under-int64", "int-ts-over-float", "float-fcnt", "str-ts"])
def test_store_refuses_a_batch_with_a_value_no_column_holds(bad):
    store = PacketStore()
    ingest_records(store, [PacketRecord(AA, 0, 0.0)])
    with pytest.raises(ValueError):
        ingest_records(store, [PacketRecord(AA, 1, 1.0), PacketRecord(BB, 0, 1.0), bad])
    with pytest.raises(ValueError):
        store.ingest_rows([(BB, 1.0, 0), (bad.dev_eui, bad.received_ts, bad.fcnt)])
    assert store.query(AA, -1e300, 1e300) == [PacketRecord(AA, 0, 0.0)]
    assert len(store) == 1  # none of either batch was stored


def test_store_refuses_columns_of_unequal_length():
    """A row short of a field, or with one too many, would leave the
    columns of unequal length: the call stores none of its rows."""
    store = PacketStore()
    for row in [(AA, 2.0), (AA, 2.0, 1, 7)]:
        with pytest.raises(ValueError):
            store.ingest_rows([(AA, 1.0, 0), (BB, 1.0, 0), row])
    assert len(store) == 0


NO_ROWS = ([], [])


@pytest.mark.parametrize("held", [[], [(AA, 0.0, 0)]], ids=["empty-store", "eui-held"])
@pytest.mark.parametrize("bad", [
    [(AA, math.nan, 1)],
    [(AA, math.inf, 1)],
    [(AA, -math.inf, 1)],
    [(AA, 1.0, 1), (AA, math.nan, 2), (AA, 3.0, 3)],
], ids=["nan", "inf", "minus-inf", "nan-inside-rising"])
def test_ingest_rows_refuses_a_non_finite_timestamp(held, bad):
    """A lone non-finite timestamp is a rising batch of one, and a NaN
    between finite ends leaves a batch not rising: each is refused, on
    the append path and the merge path alike, and another EUI's good rows
    of the call are not stored either."""
    store = PacketStore()
    assert store.ingest_rows(held) == len(held)
    for rows in ([(BB, 1.0, 0), *bad], [*bad, (BB, 1.0, 0)]):
        with pytest.raises(ValueError):
            store.ingest_rows(rows)
        assert as_lists(store.window(BB, -math.inf, math.inf)) == NO_ROWS
        assert as_lists(store.window(AA, -math.inf, math.inf)) == (
            ([0.0], [0]) if held else NO_ROWS)
        assert len(store) == len(held)


def batch(ts, fcnt):
    """One EUI's packets as the column entry takes them."""
    return array("d", ts), array("q", fcnt)


@pytest.mark.parametrize("bad", [
    ([1.0], array("q", [1])),
    (array("d", [1.0]), [1]),
    (array("f", [1.0]), array("q", [1])),
    (array("d", [1.0]), array("i", [1])),
    (array("d", [1.0, 2.0]), array("q", [1])),
    (array("d", [1.0]), array("q", [1, 2])),
    [array("d", [1.0]), array("q", [1])],
    (array("d", [1.0]), array("q", [1]), array("q", [7])),
    batch([math.nan], [1]),
    batch([math.inf], [1]),
    batch([-math.inf], [1]),
    batch([1.0, math.nan, 3.0], [1, 2, 3]),
    batch([3.0, math.inf, 1.0], [1, 2, 3]),
], ids=["list-ts", "list-fcnt", "typecode-ts", "typecode-fcnt", "short-fcnt", "short-ts",
        "list-pair", "three-columns", "nan", "inf", "minus-inf", "nan-inside-rising",
        "inf-inside-merged"])
@pytest.mark.parametrize("held", [False, True], ids=["empty-store", "eui-held"])
def test_ingest_columns_refuses_a_batch_of_another_form(bad, held):
    """Each EUI's batch is an ``array('d')`` and an ``array('q')`` of one
    length with finite timestamps; any other refuses the whole call, and
    the good batches before and after it are not stored either."""
    store = PacketStore()
    if held:
        assert store.ingest_columns({AA: batch([0.0], [0])}) == 1
    for batches in ({BB: batch([1.0], [0]), AA: bad}, {AA: bad, BB: batch([1.0], [0])}):
        with pytest.raises(ValueError):
            store.ingest_columns(batches)
        assert as_lists(store.window(BB, -math.inf, math.inf)) == NO_ROWS
        assert as_lists(store.window(AA, -math.inf, math.inf)) == (
            ([0.0], [0]) if held else NO_ROWS)
        assert len(store) == held


@pytest.mark.parametrize("eui", [5, None, AA.encode(), (AA,)],
                         ids=["int", "none", "bytes", "tuple"])
def test_store_refuses_an_eui_that_is_no_str(eui):
    """An EUI that is not a ``str``, among good ones, refuses the call by
    either entry, and nothing of it is stored."""
    store = PacketStore()
    with pytest.raises(ValueError):
        store.ingest_columns({AA: batch([1.0], [0]), eui: batch([1.0], [0]),
                              BB: batch([2.0], [1])})
    with pytest.raises(ValueError):
        store.ingest_rows([(AA, 1.0, 0), (eui, 1.0, 0), (BB, 2.0, 1)])
    assert len(store) == 0


def test_ingest_columns_merges_a_batch_that_does_not_rise():
    """A batch that does not rise strictly, or does not start past the
    stored rows, is merged into them by (timestamp, counter) and its exact
    duplicates dropped, as the same rows through ``ingest_rows`` are."""
    calls = [
        {AA: ([2.0, 1.0, 1.0, 3.0], [0, 5, 5, 1]), BB: ([1.0, 2.0], [0, 1])},
        {AA: ([3.0, 4.0], [1, 2]), BB: ([2.0, 2.0], [1, 0])},
        {AA: ([0.5, 5.0], [9, 9]), BB: ([], [])},
    ]
    store, by_rows = PacketStore(), PacketStore()
    for call, added in zip(calls, [5, 2, 2]):
        assert store.ingest_columns({eui: batch(*c) for eui, c in call.items()}) == added
        assert by_rows.ingest_rows((eui, t, f) for eui, c in call.items()
                                   for t, f in zip(*c)) == added
    for eui, want in [(AA, ([0.5, 1.0, 2.0, 3.0, 4.0, 5.0], [9, 5, 0, 1, 2, 9])),
                      (BB, ([1.0, 2.0, 2.0], [0, 0, 1]))]:
        got = store.window(eui, -math.inf, math.inf)
        assert [column.typecode for column in got] == ["d", "q"]
        assert as_lists(got) == as_lists(by_rows.window(eui, -math.inf, math.inf)) == want


def test_store_holds_the_ends_of_each_column_domain():
    """The largest and smallest counters and timestamps the columns hold
    come back exactly, and the server writes them as ``json.dumps`` does."""
    records = [PacketRecord(AA, -(2**63), -1.5e308), PacketRecord(AA, 2**63 - 1, 1.5e308),
               PacketRecord(AA, 0, -0.0), PacketRecord(AA, 1, 5e-324)]
    store = PacketStore()
    assert ingest_records(store, records) == 4
    got = store.query(AA, -math.inf, math.inf)
    assert got == sorted(records, key=lambda r: (r.received_ts, r.fcnt))
    assert math.copysign(1.0, got[1].received_ts) == -1.0
    msg = {"type": "query", "dev_euis": [AA], "from": -1.7e308, "to": 1.7e308}
    assert netserver._answer(store, msg) == reference_packets_line([(AA, got)])


def test_store_keeps_int_timestamps_as_floats():
    store = PacketStore()
    assert ingest_records(store, [PacketRecord(AA, 0, 5),
                                  PacketRecord(AA, 1, -(2**53))]) == 2
    got = store.query(AA, -math.inf, math.inf)
    assert got == [PacketRecord(AA, 1, -9007199254740992.0), PacketRecord(AA, 0, 5.0)]
    assert [type(r.received_ts) for r in got] == [float, float]
    # a later float copy of an int-stamped packet is its duplicate
    assert ingest_records(store, [PacketRecord(AA, 0, 5.0)]) == 0
    msg = {"type": "query", "dev_euis": [AA], "from": 0, "to": 10}
    assert netserver._answer(store, msg) == (
        b'{"type": "packets", "devices": [{"dev_eui": "00000000000000aa", "ts": "AAAAAAAAFEA=", '
        b'"fcnt": "AAAAAAAAAAA="}]}\n')


def test_store_holds_at_most_50_bytes_per_record(tmp_path):
    """The columns hold about 16 bytes per packet plus a few hundred per
    EUI; one PacketRecord per packet took about 186."""
    log = tmp_path / "packets.log"
    fleet = [DeviceSpec(f"dev{k:03d}", f"{0x1000_0000 + 7919 * k:016x}", 7,
                        600.0 * (1.0 + 0.06 * (k / 599 - 0.5)), 0.04122) for k in range(600)]
    written = write_packet_log(run(fleet, 24_000.0, seed=3), log)
    assert written >= 20_000
    tracemalloc.start()
    try:
        store = PacketStore()
        ingested, skipped = store.ingest_file(log)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (ingested, skipped) == (written, 0)
    assert held / ingested <= 50


def test_ingest_parses_in_memory_bounded_by_the_block(tmp_path):
    """Parsing a clean log of three blocks holds under 5 MB beyond the
    store it fills: its memory grows with the block, not with the log or
    with per-line matching state."""
    log = tmp_path / "packets.log"
    n = 3 * netserver._INGEST_BLOCK
    log.write_text("".join(f"{k / 100:.6f}\t{0x1000_0000 + k % 97:016x}\t{k // 97}\t7\n"
                           for k in range(n)))
    tracemalloc.start()
    try:
        store = PacketStore()
        counts = store.ingest_file(log)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == (n, 0)
    assert peak - held < 5 * 2**20


# a few EUIs and coarse timestamps, so that batches collide, tie and interleave
STORE_EUIS = ["00000000000000aa", "00000000000000bb", "00000000000000CC"]
store_eui_st = st.sampled_from(STORE_EUIS)
log_record_st = st.builds(LogRecord, store_eui_st, st.integers(0, 6),
                          st.sampled_from([-1.5, 0.0, -0.0, 0.5, 1.0, 2.0, 2.5, 7.0]),
                          st.integers(7, 12))
record_st = log_record_st.map(stored)
bound_or_nan_st = st.one_of(st.sampled_from([-2.0, 0.0, 0.5, 1.0, 2.0, 2.5, 7.0, 9.0, math.nan]),
                            st.floats(-3.0, 9.0))


def placed(place, batch, reference):
    """The batch as drawn, or with each EUI's timestamps moved relative to
    the last record the reference holds for it: wholly past it, around it
    (ties and boundary duplicates), or past it behind a copy of that
    record, which the store must not keep."""
    if place == "as drawn":
        return batch
    last = {eui: records[-1] for eui in {r.dev_eui for r in batch}
            if (records := reference.query(eui, -math.inf, math.inf))}
    offset = 0.0 if place == "around the end" else 10.0
    moved = [replace(r, received_ts=r.received_ts + offset
                     + (last[r.dev_eui].received_ts if r.dev_eui in last else 0.0))
             for r in batch]
    if place == "behind a copy of the end":
        moved += last.values()
    return moved


@given(batches=st.lists(st.tuples(st.sampled_from(["as drawn", "past the end", "around the end",
                                                   "behind a copy of the end"]),
                                  st.lists(record_st, max_size=12)), max_size=6),
       windows=st.lists(st.tuples(store_eui_st, bound_or_nan_st, bound_or_nan_st), max_size=10))
@settings(max_examples=300)
def test_store_matches_linear_scan_reference(batches, windows):
    store, reference = PacketStore(), ReferenceStore()
    for place, batch in batches:
        batch = placed(place, batch, reference)
        assert ingest_records(store, batch) == reference.ingest(batch)
        assert len(store) == len(reference)
    for eui, lo, hi in [*windows, *((eui, -math.inf, math.inf) for eui in STORE_EUIS)]:
        if lo > hi:
            with pytest.raises(ValueError):
                store.query(eui, lo, hi)
            continue
        got, want = store.query(eui, lo, hi), reference.query(eui, lo, hi)
        assert got == want
        # -0.0 and 0.0 are one key: the same copy must be kept
        assert [math.copysign(1.0, r.received_ts) for r in got] == \
            [math.copysign(1.0, r.received_ts) for r in want]


# Fragments a corrupted line is made from: what float and int would read
# and what they would not.
CORRUPTION_ST = st.sampled_from(["_", "+", "-", " ", "e", "E", ".", "\t", "\n", "\r", "x",
                                 "0", "9", "\u0663", "\x1c", "nan", "inf", "1e5"])
ENDING_ST = st.sampled_from(["", "\n", "\r\n"])


@st.composite
def log_line_st(draw, clean=False):
    """A log line; a ``clean`` one is written or short and ends in ``\\n``."""
    kind = draw(st.sampled_from(["written", "short"] if clean else
                                ["written", "written", "short", "blank", "corrupt"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "\n", "  \n", "\t\r\n", "\r"]))
    rec = draw(log_record_st)
    if kind == "short":  # the other number forms write_packet_log's grammar allows
        ts = draw(st.sampled_from(["2", "-1.5", "0.50", "007.0", "-0"]))
        line = f"{ts}\t{rec.dev_eui}\t{rec.fcnt}\t{rec.sf}"
    else:
        line = format_log_line(rec)
    if kind == "corrupt":
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 2))
        line = line[:at] + draw(CORRUPTION_ST) + line[at + cut:]
    return line + ("\n" if clean else draw(ENDING_ST))


# Up to 30 lines of any kind, or lines with runs of clean ones, so that
# whole blocks of a few lines are too.
log_lines_st = st.one_of(
    st.lists(log_line_st(), max_size=30),
    st.lists(st.one_of(log_line_st().map(lambda line: [line]),
                       st.lists(log_line_st(clean=True), min_size=1, max_size=7)),
             max_size=10).map(lambda runs: [line for run in runs for line in run]))


@given(lines=log_lines_st, again=st.lists(log_line_st(), max_size=8),
       block=st.sampled_from([1, 2, 3, netserver._INGEST_BLOCK]))
@settings(max_examples=400)
def test_ingest_lines_matches_reference_parser(lines, again, block):
    """Whatever the block size, so also across the seams of blocks."""
    with mock.patch.object(netserver, "_INGEST_BLOCK", block):
        store, reference = PacketStore(), ReferenceStore()
        for batch in (lines, lines[:3] + again):  # the second batch repeats lines
            # the reference reads some lines the log grammar rejects on purpose
            lenient = []
            for line in batch:
                try:
                    reference_parse_log_line(line)
                except ValueError:
                    continue
                if not written_form(line):
                    lenient.append(line)
            kept = [line for line in batch if line not in lenient]
            ingested, skipped = reference.ingest_lines(kept)
            assert store.ingest_lines(batch) == (ingested, skipped + len(lenient))
        for eui in ("00000000000000aa", "00000000000000bb", "00000000000000CC", "00000000000000cc"):
            assert store.query(eui, -10.0, 10.0) == reference.query(eui, -10.0, 10.0)
            assert store.query(eui, 0.0, 2.0) == reference.query(eui, 0.0, 2.0)


def test_ingest_lines_reads_each_element_as_one_line():
    """Elements that join into well-formed lines are still read one by one:
    two lines in one element are one malformed line."""
    a, b = f"1.000000\t{AA}\t0\t7\n", f"2.000000\t{AA}\t1\t7\n"
    for lines in ([a + " " + b, a], [a, a + " " + b], [a, b + b]):
        assert PacketStore().ingest_lines(lines) == (1, 1)


def test_ingest_file_skips_only_the_bad_lines_of_a_block(tmp_path, monkeypatch):
    """A log of ten 4-line blocks: an overflowing timestamp, a counter
    beyond int64 and a non-ASCII byte each cost their own line and no
    other line of their block, and the store matches the reference; CRLF
    and CR line ends read as ``\\n``, and an unfinished last line is read."""
    monkeypatch.setattr(netserver, "_INGEST_BLOCK", 4)
    lines = [f"{k}.{k:06d}\t{STORE_EUIS[k % 3]}\t{k}\t{7 + k % 6}\n" for k in range(40)]
    lines[5] = "9" * 400 + ".5\t00000000000000aa\t5\t7\n"  # block 1
    lines[10] = f"10.5\t00000000000000bb\t{2**63}\t7\n"  # block 2
    lines[13] = lines[13].replace("\n", "\r\n")  # block 3
    lines[17] = lines[17].replace("\n", "\r")  # block 4
    lines[26] = lines[26].replace("\t", "\xff\t", 1)  # block 6
    lines[39] = lines[39].rstrip("\n")  # block 9
    log = tmp_path / "packets.log"
    log.write_bytes("".join(lines).encode("latin-1"))
    with open(log, encoding="ascii", errors="replace") as fh:
        read = list(fh)
    assert len(read) == 40 and "\r" not in "".join(read)

    store, reference = PacketStore(), ReferenceStore()
    # the reference stores any counter; the store's log parser skips one
    # beyond int64
    ingested, skipped = reference.ingest_lines(read[:10] + read[11:])
    assert store.ingest_file(log) == (ingested, skipped + 1) == (37, 3)
    for eui in STORE_EUIS:
        assert store.query(eui, -math.inf, math.inf) == reference.query(eui, -math.inf, math.inf)


def regex_syntax(pattern: re.Pattern, parser) -> set[str]:
    """The names of every opcode of a compiled pattern, nested ones too."""
    names, nodes = set(), [parser.parse(pattern.pattern, pattern.flags)]
    while nodes:
        node = nodes.pop()
        if isinstance(node, parser.SubPattern):
            nodes += node.data
        elif isinstance(node, (list, tuple)):
            nodes += node
        elif hasattr(node, "name"):  # an opcode
            names.add(node.name)
    return names


def test_no_pattern_needs_python_3_11():
    """Atomic groups and possessive repeats compile only from Python 3.11
    on, and the package supports 3.10: no pattern a module of the package
    holds may use either."""
    parser = pytest.importorskip("re._parser")  # Python 3.11 on
    newer = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}
    assert regex_syntax(re.compile(r"(?>a|b)c*+"), parser) >= newer  # the check sees both
    patterns = [value for module in pkgutil.iter_modules(lorascale.__path__)
                for value in vars(importlib.import_module(f"lorascale.{module.name}")).values()
                if isinstance(value, re.Pattern)]
    assert {netserver.EUI_PATTERN, netserver._NOT_A_LOG_LINE} <= set(patterns)
    for pattern in patterns:
        assert not regex_syntax(pattern, parser) & newer, pattern.pattern


# --- wire protocol ------------------------------------------------------------

def test_auth_ok_then_query(server):
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", 0, 1.0)])
    with NetClient(srv.server_address, TOKEN) as client:
        entries = client.query(["00000000000000aa", "00000000000000bb"], 0.0, 2.0)
    assert list(map(as_lists, entries)) == [columns([PacketRecord("00000000000000aa", 0, 1.0)]),
                                            columns([])]


def test_bad_token_rejected_and_closed(server):
    srv, _ = server
    with pytest.raises(AuthError):
        NetClient(srv.server_address, "wrong")
    sock, rfile = raw_connection(srv)
    send_json(sock, {"type": "auth", "token": "wrong"})
    assert read_json(rfile)["type"] == "auth_fail"
    assert rfile.readline() == b""  # server closed the connection
    sock.close()


def test_query_before_auth_errors_and_closes(server):
    srv, _ = server
    sock, rfile = raw_connection(srv)
    send_json(sock, {"type": "query", "dev_euis": ["00000000000000aa"], "from": 0, "to": 1})
    reply = read_json(rfile)
    assert reply["type"] == "error"
    assert rfile.readline() == b""
    sock.close()


def test_unparseable_json_errors_and_closes(server):
    srv, _ = server
    sock, rfile = raw_connection(srv)
    send_raw(sock, b"this is not json\n")
    assert read_json(rfile)["type"] == "error"
    assert rfile.readline() == b""
    sock.close()


def test_over_long_line_errors_and_closes(server):
    srv, _ = server
    sock, rfile = raw_connection(srv)
    auth = json.dumps({"type": "auth", "token": TOKEN}).encode()
    # a line of exactly the limit, newline included, is still read
    send_raw(sock, auth + b" " * (MAX_LINE_BYTES - len(auth) - 1) + b"\n")
    assert read_json(rfile)["type"] == "auth_ok"
    # one byte more without a newline is refused before any is parsed
    send_raw(sock, b"x" * (MAX_LINE_BYTES + 1))
    reply = read_json(rfile)
    assert reply["type"] == "error" and str(MAX_LINE_BYTES) in reply["reason"]
    assert rfile.readline() == b""
    sock.close()


def authed_connection(srv):
    sock, rfile = raw_connection(srv)
    send_json(sock, {"type": "auth", "token": TOKEN})
    assert read_json(rfile)["type"] == "auth_ok"
    return sock, rfile


# one packet, ts 1.0 and fcnt 0, as the little-endian bytes of a binary64
# and an int64 in base64
AA_ENTRY = {"dev_eui": "00000000000000aa", "ts": "AAAAAAAA8D8=", "fcnt": "AAAAAAAAAAA="}


def test_semantic_errors_keep_connection(server):
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", 0, 1.0)])
    sock, rfile = authed_connection(srv)
    send_json(sock, {"type": "query", "dev_euis": ["00000000000000aa"], "from": 2, "to": 1})
    assert read_json(rfile)["type"] == "error"
    send_json(sock, {"type": "bogus"})
    assert read_json(rfile)["type"] == "error"
    # still usable afterwards
    send_json(sock, {"type": "query", "dev_euis": ["00000000000000aa"], "from": 0, "to": 2})
    reply = read_json(rfile)
    assert reply == {"type": "packets", "devices": [AA_ENTRY]}
    sock.close()


def test_server_refuses_request_without_eui_list_and_keeps_connection(server):
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", 0, 1.0)])
    sock, rfile = authed_connection(srv)
    for fields in ({"dev_eui": "00000000000000aa"},  # the single-device form is gone
                   {"dev_euis": "00000000000000aa"},  # not a list
                   {"dev_euis": {"00000000000000aa": 1}},
                   {"dev_euis": []},
                   {}):
        assert_refused_then_usable(sock, rfile, fields)
    sock.close()


def test_server_refuses_a_non_string_eui_and_keeps_connection(server):
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", 0, 1.0)])
    sock, rfile = authed_connection(srv)
    # a non-string EUI anywhere in the list refuses the whole request
    for euis in ([170, "00000000000000aa", None],
                 ["00000000000000aa", ["x"]],
                 [1.5, True]):
        assert_refused_then_usable(sock, rfile, {"dev_euis": euis})
    sock.close()


def test_server_refuses_a_repeated_eui_and_keeps_connection(server):
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", 0, 1.0)])
    sock, rfile = authed_connection(srv)
    # a reply would format the EUI's window once per mention
    for euis in (["00000000000000aa"] * 3_000,
                 ["00000000000000aa", "00000000000000bb", "00000000000000aa"],
                 ["00000000000000cc", "00000000000000cc"],
                 ["00000000000000aa", "00000000000000AA"]):  # one device, in two cases
        assert_refused_then_usable(sock, rfile, {"dev_euis": euis})
    sock.close()


def assert_refused_then_usable(sock, rfile, fields):
    send_json(sock, {"type": "query", **fields, "from": 0, "to": 2})
    reply = read_json(rfile)
    assert reply["type"] == "error" and "dev_euis" in reply["reason"], fields
    send_json(sock, {"type": "query", "dev_euis": ["00000000000000aa", "00000000000000bb"],
                     "from": 0, "to": 2})
    assert read_json(rfile) == {"type": "packets", "devices": [
        AA_ENTRY, {"dev_eui": "00000000000000bb", "ts": "", "fcnt": ""}]}


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_non_finite_window_errors_and_keeps_connection(server, bound):
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", 0, 1.0)])
    sock, rfile = authed_connection(srv)
    for lo, hi in ((bound, 2.0), (0.0, bound), (bound, bound)):
        send_json(sock, {"type": "query", "dev_euis": ["00000000000000aa"], "from": lo, "to": hi})
        reply = read_json(rfile)
        assert reply["type"] == "error" and "finite" in reply["reason"]
    send_json(sock, {"type": "query", "dev_euis": ["00000000000000aa"], "from": 0, "to": 2})
    assert read_json(rfile)["devices"] == [AA_ENTRY]
    sock.close()


def assert_refused_then_answered(server, queries):
    """Each of ``queries``, as (dev_euis, from, to, a word of the reason),
    raises ``ProtocolError`` with that reason, and the next good query on
    the same client still answers."""
    srv, store = server
    ingest_records(store, [PacketRecord(AA, 0, 0.5)])
    with NetClient(srv.server_address, TOKEN) as client:
        for euis, lo, hi, word in queries:
            with pytest.raises(ProtocolError, match=word):
                client.query(euis, lo, hi)
            assert list(map(as_lists, client.query([AA], 0.0, 1.0))) == [
                columns([PacketRecord(AA, 0, 0.5)])], (euis, lo, hi)


def test_client_raises_protocol_error_on_bad_query(server):
    assert_refused_then_answered(server, [([AA], 5.0, 1.0, "window")])


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="10**400"),
                                   pytest.param(-(2**1024), id="-2**1024"),
                                   True, False, None, "1", [1.0]])
def test_client_rejects_bad_bound_before_sending(server, bound):
    """The server refuses a bad bound before it sends any packets; the
    client raises the server's reason."""
    assert_refused_then_answered(server, [([AA], bound, 1.0, "from/to"),
                                          ([AA], 0.0, bound, "from/to")])


def test_client_non_string_eui_fails_the_whole_call(server):
    """The server refuses a query naming a non-string EUI, so the whole
    call raises.  A bytes EUI is no JSON value, so only that query never
    reaches the server."""
    bad = {"int": int(AA, 16), "None": None, "bytes": AA.encode(), "list": [AA]}
    assert_refused_then_answered(server, [
        *(([AA, v], 0.0, 1.0, "JSON" if k == "bytes" else "dev_euis") for k, v in bad.items()),
        (list(bad.values()), 0.0, 1.0, "JSON"),
    ])


def test_client_over_long_request_raises(server):
    srv, _ = server
    with NetClient(srv.server_address, TOKEN) as client:
        with pytest.raises(ProtocolError, match=str(MAX_LINE_BYTES)):
            client.query(["x" * MAX_LINE_BYTES], 0.0, 1.0)


class GarbageServer:
    """Accepts one client, authenticates it, then answers each query with
    the raw line configured for the tuple of EUIs it names.  A request
    with no configured reply stops the fake, so the client's next query
    fails."""

    def __init__(self, replies: dict[tuple, bytes], auth_reply: bytes = b'{"type": "auth_ok"}\n'):
        self.replies, self.auth_reply = replies, auth_reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rb") as rfile:
            for raw in rfile:
                msg = json.loads(raw)
                if msg["type"] == "auth":
                    conn.sendall(self.auth_reply)
                elif tuple(msg["dev_euis"]) in self.replies:
                    conn.sendall(self.replies[tuple(msg["dev_euis"])])
                else:
                    return

    def client_gone(self, timeout=5.0):
        """True once the client has closed its end of the connection."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)


EUI_A, EUI_B = "00000000000000a1", "00000000000000a2"
GOOD_B = {"dev_eui": EUI_B, "ts": "AAAAAAAAKEA=", "fcnt": "BAAAAAAAAAA="}  # 12.0 and 4


def packets_line(**fields) -> bytes:
    return (json.dumps({"type": "packets", **fields}) + "\n").encode()


ONE_TS, ONE_FCNT = AA_ENTRY["ts"], AA_ENTRY["fcnt"]

# (ts, fcnt) columns, as JSON values, of one packet that the client cannot
# decode: a short column on either side, a list timestamp column, a
# counter column with a character outside base64, a null timestamp
# column, a list counter column, columns that lack their padding.
MALFORMED_PACKETS = [
    (ONE_TS, ""),
    ("", ONE_FCNT),
    ([1.0], ONE_FCNT),
    (ONE_TS, "AAAAAAAA!AA="),
    (None, ONE_FCNT),
    (ONE_TS, [0]),
    (ONE_TS[:-1], ONE_FCNT[:-1]),
]


def entry(dev_eui=EUI_A, ts=(1.0,), fcnt=(0,)) -> dict:
    """A reply entry with the given column values, each written as the
    wire does; a column given as ``None`` is left out."""
    given = {"ts": (ts, "d"), "fcnt": (fcnt, "q")}
    return {"dev_eui": dev_eui, **{k: wire_column(list(v), code)
                                   for k, (v, code) in given.items() if v is not None}}


def collect_a_and_b(reply: bytes):
    """Query a and b, first straight and then through ``collect``, from a
    fake that answers the pair with ``reply``."""
    fake = GarbageServer({(EUI_A, EUI_B): reply})
    try:
        with NetClient(fake.address, TOKEN) as client:
            entries = client.query([EUI_A, EUI_B], 0.0, 20.0)
            matrix = DeviceMatrix([RosterEntry("a", EUI_A), RosterEntry("b", EUI_B)])
            packets, failures = collect(matrix, 0.0, 20.0, client)
    finally:
        fake.close()
    return entries, packets, failures


@pytest.mark.parametrize("entry_a", [
    *({"dev_eui": EUI_A, "ts": ts, "fcnt": fcnt} for ts, fcnt in MALFORMED_PACKETS),
    {"dev_eui": EUI_A},
    {"dev_eui": EUI_A, "ts": "none", "fcnt": "none"},  # 3 bytes each, no whole value
    {"dev_eui": EUI_A, "error": "no such device"},  # no columns
    entry(EUI_B),
    "junk",
    # cases only a column entry has: unequal lengths, a missing column, a
    # column that is no base64 string, and an entry in an older form
    pytest.param(entry(ts=[1.0, 2.0, 3.0], fcnt=[0, 1]), id="unequal-lengths"),
    *(pytest.param(entry(**{key: None}), id=f"no-{key}") for key in ("ts", "fcnt")),
    pytest.param({**entry(), "ts": "1.0"}, id="string-column"),  # decimal text
    pytest.param({**entry(), "fcnt": {"0": 0}}, id="object-column"),
    pytest.param({**entry(), "fcnt": None}, id="null-column"),
    pytest.param({**entry(), "ts": "AAAAAAAA8D8\u00e9"}, id="non-ascii-column"),
    pytest.param({**entry(), "fcnt": "AAAA AAAAAA="}, id="space-in-column"),
    pytest.param({"dev_eui": EUI_A, "ts": [1.0], "fcnt": [0]}, id="list-form"),
    pytest.param({"dev_eui": EUI_A, "packets": [{"fcnt": 0, "ts": 1.0}]},
                 id="packets-form"),
])
def test_client_malformed_reply_flags_only_that_device(entry_a):
    entries, packets, failures = collect_a_and_b(packets_line(devices=[entry_a, GOOD_B]))
    assert isinstance(entries[0], ProtocolError)
    assert as_lists(entries[1]) == columns([PacketRecord(EUI_B, 4, 12.0)])
    assert set(failures) == {"a"} and isinstance(failures["a"], str)
    assert {d: as_lists(got) for d, got in packets.items()} == {
        "a": columns([]), "b": columns([PacketRecord(EUI_B, 4, 12.0)])}


@pytest.mark.parametrize("reply", [
    b"this is not json\n",
    b"\xff\xfe garbage\n",
    b"[1, 2]\n",
    packets_line(packets=[]),
    packets_line(devices=[GOOD_B]),
    packets_line(devices=[GOOD_B, GOOD_B, GOOD_B]),
    packets_line(devices={"a": 1, "b": 2}),
    (json.dumps({"type": "nonsense", "devices": [GOOD_B, GOOD_B]}) + "\n").encode(),
], ids=["json", "utf-8", "non-object", "no-devices", "short", "long", "object", "type"])
def test_client_unreadable_reply_flags_every_device_of_its_request(reply):
    entries, packets, failures = collect_a_and_b(reply)
    assert [type(e) for e in entries] == [ProtocolError, ProtocolError]
    assert set(failures) == {"a", "b"}
    assert all(isinstance(f, str) for f in failures.values())
    assert {d: as_lists(got) for d, got in packets.items()} == {"a": columns([]), "b": columns([])}


# The (ts, fcnt) columns of an entry, as JSON text, that the store's
# columns could not take: the bytes of a NaN or infinite timestamp after a
# good one, JSON's bools or quoted decimal text where a column goes.  No
# value of a binary column is a bool, a fractional counter, a counter past
# int64 or a timestamp past the float range, so a bool or quoted text can
# only stand in for a whole column.
OUT_OF_DOMAIN = {
    "true-fcnt": (json.dumps(wire_column([0.5, 1.0], "d")), "true"),
    "quoted-fcnt": (json.dumps(wire_column([0.5, 1.0], "d")), '"12"'),
    "nan-ts": (json.dumps(wire_column([0.5, math.nan], "d")), json.dumps(wire_column([0, 1], "q"))),
    "infinite-ts": (json.dumps(wire_column([0.5, math.inf], "d")),
                    json.dumps(wire_column([0, 1], "q"))),
    "negative-infinite-ts": (json.dumps(wire_column([0.5, -math.inf], "d")),
                             json.dumps(wire_column([0, 1], "q"))),
    "quoted-ts": ('"1e400"', json.dumps(wire_column([0, 1], "q"))),
    "true-ts": ("true", json.dumps(wire_column([0, 1], "q"))),
}


def decoded(entry_a: str) -> list:
    """The client's entries for a and b from one hand-made reply line, in
    which b's entry is ``GOOD_B``."""
    line = (f'{{"type": "packets", "devices": [{entry_a}, {json.dumps(GOOD_B)}]}}\n').encode()
    msg = netserver._message(line)
    return list(map(netserver._device_reply, msg["devices"], [EUI_A, EUI_B]))


@pytest.mark.parametrize("packet", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN.keys())
def test_client_refuses_a_packet_value_no_store_column_holds(packet):
    """A reply column is decoded into the store's own column type: a value
    outside the store's domain fails its device alone."""
    ts, fcnt = packet
    a, b = decoded(f'{{"dev_eui": "{EUI_A}", "ts": {ts}, "fcnt": {fcnt}}}')
    assert isinstance(a, ProtocolError)
    assert as_lists(b) == columns([PacketRecord(EUI_B, 4, 12.0)])


def test_client_decodes_the_ends_of_each_column_domain():
    """The extreme values the store holds decode into the store's column
    types, bit for bit; an int timestamp becomes its float.  An entry that
    still carries an ``sf`` list decodes to the same two columns as one
    without it."""
    (ts, fcnt), _ = decoded(json.dumps(entry(ts=[-1.5e308, -0.0, 5],
                                             fcnt=[-(2**63), 2**63 - 1, 0])))
    assert (type(ts), type(fcnt)) == (array, array)
    assert ts.tobytes() == array("d", [-1.5e308, -0.0, 5.0]).tobytes()
    assert list(fcnt) == [-(2**63), 2**63 - 1, 0]
    empty, _ = decoded(json.dumps(entry(ts=[], fcnt=[])))
    assert empty == (array("d"), array("q"))
    # finite timestamps whose sum overflows to infinity are still finite
    (ts, _), _ = decoded(json.dumps(entry(ts=[1.7e308, 1.7e308, -0.0], fcnt=[0, 1, 2])))
    assert list(ts) == [1.7e308, 1.7e308, -0.0]
    entries, _, failures = collect_a_and_b(
        packets_line(devices=[{**entry(), "sf": [7]}, {**GOOD_B, "sf": [12]}]))
    assert failures == {}
    assert entries == [(array("d", [1.0]), array("q", [0])), (array("d", [12.0]), array("q", [4]))]


def test_an_entry_carries_each_column_as_base64_of_little_endian_values():
    """Pinned by hand: 1.0 is the binary64 bytes 00 .. 00 f0 3f, and 0 the
    int64 zero; both sides agree with ``struct``."""
    assert (wire_column([1.0], "d"), wire_column([0], "q")) == ("AAAAAAAA8D8=", "AAAAAAAAAAA=")
    assert netserver._entry(AA, array("d", [1.0]), array("q", [0])) == json.dumps(
        {**AA_ENTRY, "dev_eui": AA})
    assert netserver._entry(AA, *netserver.NO_PACKETS) == json.dumps(
        {"dev_eui": AA, "ts": "", "fcnt": ""})
    assert netserver._device_reply(AA_ENTRY, AA) == (array("d", [1.0]), array("q", [0]))


def test_a_big_endian_host_swaps_each_column_on_both_ends(monkeypatch):
    """With the host taken to be big-endian, a column's bytes are swapped
    on the way out and back, so that the wire stays little-endian; the
    store's own slice is left as it was."""
    ts, fcnt = array("d", [1.0, -0.0, 5e-324]), array("q", [0, -(2**63), 2**63 - 1])
    native = ts.tobytes(), fcnt.tobytes()
    monkeypatch.setattr(netserver, "_BIG_ENDIAN", True)
    line = netserver._entry(AA, ts, fcnt)
    assert (ts.tobytes(), fcnt.tobytes()) == native
    sent = json.loads(line)
    for key, column in (("ts", ts), ("fcnt", fcnt)):
        swapped = array(column.typecode, column)
        swapped.byteswap()
        assert base64.b64decode(sent[key]) == swapped.tobytes()
    got = netserver._device_reply(sent, AA)
    assert (got[0].tobytes(), got[1].tobytes()) == native


extreme_ts_st = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                           1e-310, -1e-310, 1.7e308, -1.7e308,
                                           sys.float_info.max, -sys.float_info.max]),
                          st.floats(allow_nan=False, allow_infinity=False))
extreme_fcnt_st = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
                            st.integers(-(2**63), 2**63 - 1))


@given(rows=st.lists(st.tuples(store_eui_st, extreme_ts_st, extreme_fcnt_st), max_size=30),
       euis=st.lists(st.one_of(store_eui_st, st.just("00000000000000ff")), min_size=1,
                     max_size=4, unique_by=str.lower))
@settings(max_examples=200)
def test_store_to_wire_to_columns_is_the_identity(rows, euis):
    """Store, reply line, decoded columns: each device's columns come back
    as the store's window, bit for bit, in the store's column types; an
    EUI with no packets comes back as two empty columns."""
    store = PacketStore()
    ingest_records(store, [PacketRecord(eui, f, ts) for eui, ts, f in rows])
    lo, hi = -sys.float_info.max, sys.float_info.max
    msg = netserver._message(netserver._answer(
        store, {"type": "query", "dev_euis": euis, "from": lo, "to": hi}))
    for eui, item in zip(euis, msg["devices"], strict=True):
        ts, fcnt = netserver._device_reply(item, eui)
        want_ts, want_fcnt = store.window(eui, lo, hi)
        assert (type(ts), type(fcnt)) == (array, array)
        assert ts.tobytes() == array("d", want_ts).tobytes()
        assert fcnt.tobytes() == array("q", want_fcnt).tobytes()


@pytest.mark.parametrize("auth_reply", [b"not json\n", b"\xc3\x28\n"])
def test_client_unparseable_auth_reply_is_protocol_error(auth_reply):
    fake = GarbageServer({}, auth_reply=auth_reply)
    try:
        # the held exception keeps the failed client's frame alive, so its
        # socket must have been closed explicitly
        with pytest.raises(ProtocolError) as excinfo:
            NetClient(fake.address, TOKEN)
        assert fake.client_gone(), excinfo
    finally:
        fake.close()


def test_server_ends_a_reset_connection_quietly(server, capfd):
    """A client that resets its connection right after a large query ends
    that connection alone: no traceback reaches stderr, and the server
    answers the next client."""
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", 0, 1.0)])
    before = set(threading.enumerate())
    sock, rfile = authed_connection(srv)
    send_json(sock, {"type": "query", "dev_euis": [f"{k:016x}" for k in range(3_000)],
                     "from": 0, "to": 2})
    # a zero linger time makes close send a reset instead of a FIN
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    rfile.close()
    sock.close()
    for handler in set(threading.enumerate()) - before:
        handler.join(timeout=5)
        assert not handler.is_alive()
    assert capfd.readouterr().err == ""
    sock, rfile = authed_connection(srv)
    send_json(sock, {"type": "query", "dev_euis": ["00000000000000aa"], "from": 0, "to": 2})
    assert read_json(rfile) == {"type": "packets", "devices": [AA_ENTRY]}
    rfile.close()
    sock.close()


def test_concurrent_clients(server):
    srv, store = server
    ingest_records(store, [PacketRecord("00000000000000aa", i, float(i)) for i in range(10)])
    clients = [NetClient(srv.server_address, TOKEN) for _ in range(5)]
    try:
        for i, client in enumerate(clients):
            (got, _), = client.query(["00000000000000aa"], 0.0, float(i))
            assert len(got) == i + 1
    finally:
        for client in clients:
            client.close()


def test_windowing_matches_linear_scan_oracle(server):
    import random

    srv, store = server
    rnd = random.Random(12345)
    euis = [f"{i:016x}" for i in range(8)]
    records = [
        PacketRecord(rnd.choice(euis), rnd.randrange(500), round(rnd.uniform(0, 100), 6))
        for _ in range(1000)
    ]
    ingest_records(store, records)
    stored = []  # replicate dedupe for the oracle
    seen = set()
    for rec in records:
        key = (rec.dev_eui, rec.fcnt, rec.received_ts)
        if key not in seen:
            seen.add(key)
            stored.append(rec)
    with NetClient(srv.server_address, TOKEN) as client:
        for _ in range(50):
            eui = rnd.choice(euis)
            a, b = sorted((rnd.uniform(0, 100), rnd.uniform(0, 100)))
            expected = sorted(
                (r for r in stored if r.dev_eui == eui and a <= r.received_ts <= b),
                key=lambda r: (r.received_ts, r.fcnt),
            )
            assert [records_of(eui, got) for got in client.query([eui], a, b)] == [expected]


# --- batches split across requests ----------------------------------------------

@pytest.fixture(scope="module")
def shared_server():
    """One server for several tests; each test or example gives it its own store."""
    with serving(PacketStore()) as srv:
        yield srv


def recorded_requests(monkeypatch):
    """The EUI lists of the queries the server answers, in order."""
    seen = []
    answer = netserver._answer

    def recording(store, msg):
        seen.append(msg["dev_euis"])
        return answer(store, msg)

    monkeypatch.setattr(netserver, "_answer", recording)
    return seen


def split_store():
    store = PacketStore()
    ingest_records(store, [PacketRecord(f"{k:016x}", f, 10.0 * k + f)
                           for k in range(0, 8, 2) for f in range(3)])
    return store


def test_client_splits_a_batch_at_the_line_limit(shared_server, monkeypatch):
    srv = shared_server
    srv.store = store = split_store()
    euis = [f"{k:016x}" for k in range(7)]
    lo, hi = 0.0, 61.0
    monkeypatch.setattr(netserver, "_EUIS_PER_REQUEST", 3)
    seen = recorded_requests(monkeypatch)
    with NetClient(srv.server_address, TOKEN) as client:
        assert list(map(as_lists, client.query(euis, lo, hi))) == [
            as_lists(store.window(e, lo, hi)) for e in euis]
        assert seen == [euis[0:3], euis[3:6], euis[6:]]
        monkeypatch.setattr(netserver, "_EUIS_PER_REQUEST", 2)
        seen.clear()
        assert list(map(as_lists, client.query(euis, lo, hi))) == [
            as_lists(store.window(e, lo, hi)) for e in euis]
        assert seen == [euis[0:2], euis[2:4], euis[4:6], euis[6:]]


def test_client_refuses_a_repeated_eui_across_requests(shared_server, monkeypatch):
    """A repeated EUI fails the call before anything is sent, even when its
    copies would go in two requests; a non-string EUI is still the server's
    to refuse, as a ProtocolError, and the connection stays usable."""
    srv = shared_server
    srv.store = store = split_store()
    monkeypatch.setattr(netserver, "_EUIS_PER_REQUEST", 1)
    seen = recorded_requests(monkeypatch)
    eui = f"{2:016x}"
    with NetClient(srv.server_address, TOKEN) as client:
        for euis in ([eui, eui], [eui, f"{0:016x}", eui], [AA, AA.upper()]):
            with pytest.raises(ProtocolError, match="query needs distinct dev_euis"):
                client.query(euis, 0.0, 61.0)
        assert seen == []
        with pytest.raises(ProtocolError, match="dev_euis list of strings"):
            client.query([["x"]], 0.0, 61.0)
        assert list(map(as_lists, client.query([eui], 0.0, 61.0))) == [
            as_lists(store.window(eui, 0.0, 61.0))]
    assert seen == [[["x"]], [eui]]


@pytest.mark.parametrize("lo, hi", [(-1.7976931348623157e308, -(10**308)),
                                    (-(2**1024 - 2**970 - 1), -(10**308))],
                         ids=["float-int", "int-int"])
def test_client_full_request_with_the_longest_bounds_fits_the_line(shared_server, monkeypatch,
                                                                   lo, hi):
    """A request of ``_EUIS_PER_REQUEST`` 16-hex EUIs goes out whole and is
    answered, even with the longest bounds the server accepts (the second
    pair is two 310-character ints that round to finite floats)."""
    srv = shared_server
    srv.store = store = PacketStore()
    euis = [f"{k:016x}" for k in range(netserver._EUIS_PER_REQUEST)]
    ingest_records(store, [PacketRecord(euis[-1], 0, -1.5e308)])
    seen = recorded_requests(monkeypatch)
    with NetClient(srv.server_address, TOKEN) as client:
        entries = client.query(euis, lo, hi)
    assert seen == [euis]
    assert list(map(as_lists, entries)) == [columns([])] * (len(euis) - 1) + [
        columns([PacketRecord(euis[-1], 0, -1.5e308)])]


eui_pool_st = st.lists(st.from_regex(r"[0-9a-f]{16}", fullmatch=True), min_size=1, max_size=6,
                       unique=True)


@given(
    known=eui_pool_st,
    stamps=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 50), st.floats(-1e3, 1e3)),
                    max_size=60),
    picks=st.lists(st.integers(0, 9), min_size=6, max_size=10, unique=True),
    window=st.lists(st.floats(-2e3, 2e3) | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=2).map(sorted),
)
@settings(max_examples=60, deadline=None)
def test_client_batch_agrees_with_store(shared_server, known, stamps, picks, window):
    """For any store, window and batch of known and unknown EUIs that
    spans several requests, the client gets what the store answers per
    EUI."""
    store = PacketStore()
    ingest_records(store, [PacketRecord(known[k % len(known)], f, ts)
                           for k, f, ts in stamps])
    euis = known + [f"{0xffff0000 + k:016x}" for k in range(10 - len(known))]
    batch = [euis[k] for k in picks]
    lo, hi = window
    srv = shared_server
    srv.store = store
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netserver, "_EUIS_PER_REQUEST", 2)
        seen = []
        answer = netserver._answer
        mp.setattr(netserver, "_answer", lambda s, msg: seen.append(msg) or answer(s, msg))
        with NetClient(srv.server_address, TOKEN) as client:
            assert list(map(as_lists, client.query(batch, lo, hi))) == [
                as_lists(store.window(e, lo, hi)) for e in batch]
    assert len(seen) >= 3


# any finite float, with integral and negative values drawn often
finite_ts_st = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-10**6, 10**6).map(float))


@given(rows=st.lists(st.tuples(st.sampled_from(STORE_EUIS), finite_ts_st,
                               st.integers(-(2**63), 2**63 - 1)),
                     max_size=40),
       window=st.lists(finite_ts_st, min_size=2, max_size=2).map(sorted))
@settings(max_examples=100, deadline=None)
def test_client_columns_equal_the_store_window(shared_server, rows, window):
    """The columns the client decodes from a reply are the server store's
    ``window`` slices, value for value and bit for bit, in the store's
    column types."""
    store = PacketStore()
    ingest_records(store, [PacketRecord(eui, f, ts) for eui, ts, f in rows])
    shared_server.store = store
    euis = [*STORE_EUIS, "00000000000000ff"]
    with NetClient(shared_server.server_address, TOKEN) as client:
        for lo, hi in (window, (-sys.float_info.max, sys.float_info.max)):
            for eui, got in zip(euis, client.query(euis, lo, hi), strict=True):
                ts, fcnt = store.window(eui, lo, hi)
                assert (type(got[0]), type(got[1])) == (array, array)
                assert got[0].tobytes() == array("d", ts).tobytes()
                assert got[1] == array("q", fcnt)


# --- message round-trips -------------------------------------------------------

eui_st = st.from_regex(r"[0-9a-f]{16}", fullmatch=True)
ts_st = st.floats(allow_nan=False, allow_infinity=False, width=64)

message_st = st.one_of(
    st.fixed_dictionaries({"type": st.just("auth"), "token": st.text(max_size=50)}),
    st.fixed_dictionaries({"type": st.just("auth_ok")}),
    st.fixed_dictionaries({"type": st.just("auth_fail"), "reason": st.text(max_size=50)}),
    st.fixed_dictionaries(
        {"type": st.just("query"), "dev_euis": st.lists(eui_st, min_size=1, max_size=5),
         "from": ts_st, "to": ts_st}
    ),
    st.fixed_dictionaries({"type": st.just("error"), "reason": st.text(max_size=80)}),
)


@given(message=message_st)
@settings(max_examples=200)
def test_serialize_parse_identity(message):
    assert json.loads(json.dumps(message)) == message


def in_store_order(packets):
    """(fcnt, ts) packets as a store holds them: by time, then counter."""
    return sorted(packets, key=lambda p: (p[1], p[0]))


# one packet per (ts, fcnt) key, as the store keeps them
packet_tuples_st = st.lists(
    st.tuples(st.integers(0, 2**32), st.floats(0, 1e9)), max_size=20,
    unique_by=lambda p: (p[1], p[0])).map(in_store_order)


@given(devices=st.lists(st.tuples(eui_st, packet_tuples_st), min_size=1, max_size=4,
                        unique_by=lambda d: d[0]))
def test_packets_message_roundtrip(devices):
    got = [(eui, [PacketRecord(eui, f, t) for f, t in packets]) for eui, packets in devices]
    back = json.loads(served_line(got))
    assert back["type"] == "packets"
    assert all(list(e) == ["dev_eui", "ts", "fcnt"] for e in back["devices"])
    rebuilt = [(e["dev_eui"], records_of(e["dev_eui"], (wire_values(e["ts"], "d"),
                                                        wire_values(e["fcnt"], "q"))))
               for e in back["devices"]]
    assert rebuilt == got


# --- encoders against the json.dumps reference -----------------------------------

any_eui_st = st.one_of(st.from_regex(r"[0-9a-fA-F]{16}", fullmatch=True), st.text(max_size=20))


@given(
    devices=st.lists(
        st.tuples(
            any_eui_st,
            st.lists(st.tuples(st.integers(0, 2**32), ts_st), max_size=20,
                     unique_by=lambda p: (p[1], p[0])).map(in_store_order),
        ),
        min_size=1, max_size=5, unique_by=lambda d: d[0],
    ),
)
@settings(max_examples=300)
def test_packets_reply_bytes_match_json_dumps(devices):
    """The server's reply, formatted from the store's columns, is byte for
    byte ``json.dumps`` of the records it lists."""
    got = [(eui, [PacketRecord(eui, f, t) for f, t in entry]) for eui, entry in devices]
    if len({eui.lower() for eui, _ in devices}) < len(devices):  # case variants name one device
        assert served_line(got) == netserver._error("query needs distinct dev_euis")
        return
    assert served_line(got) == reference_packets_line(got)



@given(records=st.lists(record_st, max_size=30),
       euis=st.lists(st.one_of(store_eui_st, any_eui_st), min_size=1, max_size=5,
                     unique=True),
       window=st.lists(st.sampled_from([-2.0, 0.0, 0.5, 1.0, 2.0, 7.0, 9.0]) | ts_st,
                       min_size=2, max_size=2).map(sorted))
@settings(max_examples=200)
def test_server_reply_bytes_match_json_dumps_of_the_store_records(records, euis, window):
    """The server formats its reply from the store's columns, without
    records; its bytes are ``json.dumps`` of the records the store's own
    query returns."""
    store = PacketStore()
    ingest_records(store, records)
    lo, hi = window
    msg = {"type": "query", "dev_euis": euis, "from": lo, "to": hi}
    if len({eui.lower() for eui in euis}) < len(euis):  # case variants name one device
        assert netserver._answer(store, msg) == netserver._error("query needs distinct dev_euis")
        return
    assert netserver._answer(store, msg) == reference_packets_line(
        [(eui, store.query(eui, lo, hi)) for eui in euis])
