import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from lorascale.controller import DeviceMatrix, QueryFailed, RosterEntry, collect
from lorascale.netserver import (
    MAX_LINE_BYTES,
    AuthError,
    NetClient,
    PacketRecord,
    PacketStore,
    ProtocolError,
    packets_message,
    parse_log_line,
    start_server,
)

TOKEN = "secret-token"


@pytest.fixture()
def server():
    store = PacketStore()
    srv, thread = start_server(store, TOKEN)
    yield srv, store
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def raw_connection(srv):
    sock = socket.create_connection(srv.bound_address, timeout=5)
    return sock, sock.makefile("rb")


def send_json(sock, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())


def send_raw(sock, data: bytes):
    sock.sendall(data)


def read_json(rfile):
    line = rfile.readline()
    return json.loads(line) if line else None


# --- log parsing and store ---------------------------------------------------

def test_parse_log_line_roundtrip():
    rec = parse_log_line("12.500000\t00000000000000aa\t3\t7\n")
    assert rec == PacketRecord("00000000000000aa", 3, 12.5, 7)


@pytest.mark.parametrize(
    "line",
    [
        "",
        "12.5\t00000000000000aa\t3",
        "x\t00000000000000aa\t3\t7",
        "12.5\tnot-an-eui\t3\t7",
        "12.5\t00000000000000aa\t-1\t7",
        "12.5\t00000000000000aa\t3\t13",
    ],
)
def test_parse_log_line_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_log_line(line)


def test_store_ingest_empty_stream():
    store = PacketStore()
    assert store.ingest([]) == 0
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


def test_store_query_windowing_and_order():
    store = PacketStore()
    recs = [
        PacketRecord("00000000000000aa", 2, 5.0, 7),
        PacketRecord("00000000000000aa", 1, 5.0, 7),  # ts tie, lower fcnt first
        PacketRecord("00000000000000aa", 0, 1.0, 7),
        PacketRecord("00000000000000bb", 0, 5.0, 7),
    ]
    store.ingest(recs)
    hits = store.query("00000000000000aa", 1.0, 5.0)  # closed on both ends
    assert [(r.fcnt, r.received_ts) for r in hits] == [(0, 1.0), (1, 5.0), (2, 5.0)]
    assert store.query("00000000000000aa", 1.5, 4.9) == []
    assert store.query("unknown0000000ee", 0.0, 10.0) == []
    with pytest.raises(ValueError):
        store.query("00000000000000aa", 5.0, 1.0)



def test_store_two_out_of_order_batches_sorted_and_windowed():
    a, b = "00000000000000aa", "00000000000000bb"
    store = PacketStore()
    store.ingest([PacketRecord(a, 5, 50.0, 7), PacketRecord(a, 1, 10.0, 7),
                  PacketRecord(b, 0, 30.0, 8), PacketRecord(a, 3, 30.0, 7)])
    # the second batch lands between, before and after the first one's records
    store.ingest([PacketRecord(a, 4, 40.0, 7), PacketRecord(a, 0, 0.0, 7),
                  PacketRecord(a, 6, 60.0, 7), PacketRecord(a, 2, 30.0, 7)])
    assert [(r.fcnt, r.received_ts) for r in store.query(a, -1.0, 100.0)] == [
        (0, 0.0), (1, 10.0), (2, 30.0), (3, 30.0), (4, 40.0), (5, 50.0), (6, 60.0)]
    assert [r.fcnt for r in store.query(a, 30.0, 40.0)] == [2, 3, 4]
    assert [r.fcnt for r in store.query(a, 30.5, 59.9)] == [4, 5]
    assert store.query(a, 60.5, 70.0) == []
    assert [r.fcnt for r in store.query(b, 0.0, 100.0)] == [0]


# --- wire protocol ------------------------------------------------------------

def test_auth_ok_then_query(server):
    srv, store = server
    store.ingest([PacketRecord("00000000000000aa", 0, 1.0, 7)])
    with NetClient(srv.bound_address, TOKEN) as client:
        records = client.query("00000000000000aa", 0.0, 2.0)
    assert records == [PacketRecord("00000000000000aa", 0, 1.0, 7)]


def test_bad_token_rejected_and_closed(server):
    srv, _ = server
    with pytest.raises(AuthError):
        NetClient(srv.bound_address, "wrong")
    sock, rfile = raw_connection(srv)
    send_json(sock, {"type": "auth", "token": "wrong"})
    assert read_json(rfile)["type"] == "auth_fail"
    assert rfile.readline() == b""  # server closed the connection
    sock.close()


def test_query_before_auth_errors_and_closes(server):
    srv, _ = server
    sock, rfile = raw_connection(srv)
    send_json(sock, {"type": "query", "dev_eui": "00000000000000aa", "from": 0, "to": 1})
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


def test_semantic_errors_keep_connection(server):
    srv, store = server
    store.ingest([PacketRecord("00000000000000aa", 0, 1.0, 7)])
    sock, rfile = raw_connection(srv)
    send_json(sock, {"type": "auth", "token": TOKEN})
    assert read_json(rfile)["type"] == "auth_ok"
    send_json(sock, {"type": "query", "dev_eui": "00000000000000aa", "from": 2, "to": 1})
    assert read_json(rfile)["type"] == "error"
    send_json(sock, {"type": "bogus"})
    assert read_json(rfile)["type"] == "error"
    # still usable afterwards
    send_json(sock, {"type": "query", "dev_eui": "00000000000000aa", "from": 0, "to": 2})
    reply = read_json(rfile)
    assert reply["type"] == "packets"
    assert reply["packets"] == [{"fcnt": 0, "ts": 1.0, "sf": 7}]
    sock.close()


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_non_finite_window_errors_and_keeps_connection(server, bound):
    srv, store = server
    store.ingest([PacketRecord("00000000000000aa", 0, 1.0, 7)])
    sock, rfile = raw_connection(srv)
    send_json(sock, {"type": "auth", "token": TOKEN})
    assert read_json(rfile)["type"] == "auth_ok"
    for lo, hi in ((bound, 2.0), (0.0, bound), (bound, bound)):
        send_json(sock, {"type": "query", "dev_eui": "00000000000000aa", "from": lo, "to": hi})
        reply = read_json(rfile)
        assert reply["type"] == "error" and "finite" in reply["reason"]
    send_json(sock, {"type": "query", "dev_eui": "00000000000000aa", "from": 0, "to": 2})
    assert read_json(rfile)["packets"] == [{"fcnt": 0, "ts": 1.0, "sf": 7}]
    sock.close()


def test_client_raises_protocol_error_on_bad_query(server):
    srv, _ = server
    with NetClient(srv.bound_address, TOKEN) as client:
        with pytest.raises(ProtocolError):
            client.query("00000000000000aa", 5.0, 1.0)
        # connection survives for the next query
        assert client.query("00000000000000aa", 0.0, 1.0) == []


class GarbageServer:
    """Accepts one client, authenticates it, then answers each query with
    the raw line configured for the queried EUI."""

    def __init__(self, replies: dict[str, bytes], auth_reply: bytes = b'{"type": "auth_ok"}\n'):
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
                conn.sendall(self.auth_reply if msg["type"] == "auth"
                             else self.replies[msg["dev_eui"]])

    def client_gone(self, timeout=5.0):
        """True once the client has closed its end of the connection."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)


EUI_A, EUI_B = "00000000000000a1", "00000000000000a2"


def packets_line(**fields) -> bytes:
    return (json.dumps({"type": "packets", **fields}) + "\n").encode()


MALFORMED_PACKETS = [
    {"ts": 1.0, "sf": 7},
    {"fcnt": 0, "sf": 7},
    {"fcnt": 0, "ts": 1.0},
    {"fcnt": "x", "ts": 1.0, "sf": 7},
    {"fcnt": 0, "ts": None, "sf": 7},
    {"fcnt": 0, "ts": 1.0, "sf": [7]},
    "junk",
]


@pytest.mark.parametrize("reply", [
    b"this is not json\n",
    b"\xff\xfe garbage\n",
    packets_line(packets=[]),
    *(packets_line(dev_eui=EUI_A, packets=[p]) for p in MALFORMED_PACKETS),
    packets_line(dev_eui=EUI_B, packets=[{"fcnt": 0, "ts": 1.0, "sf": 7}]),
])
def test_client_malformed_reply_flags_only_that_device(reply):
    good = packets_line(dev_eui=EUI_B, packets=[{"fcnt": 4, "ts": 12.0, "sf": 7}])
    fake = GarbageServer({EUI_A: reply, EUI_B: good})
    try:
        with NetClient(fake.address, TOKEN) as client:
            with pytest.raises(ProtocolError):
                client.query(EUI_A, 0.0, 20.0)
            matrix = DeviceMatrix([RosterEntry("a", EUI_A), RosterEntry("b", EUI_B)])
            packets, failures = collect(matrix, 0.0, 20.0, client)
    finally:
        fake.close()
    assert set(failures) == {"a"} and isinstance(failures["a"], QueryFailed)
    assert packets == {"a": [], "b": [PacketRecord(EUI_B, 4, 12.0, 7)]}


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


def test_concurrent_clients(server):
    srv, store = server
    store.ingest([PacketRecord("00000000000000aa", i, float(i), 7) for i in range(10)])
    clients = [NetClient(srv.bound_address, TOKEN) for _ in range(5)]
    try:
        for i, client in enumerate(clients):
            assert len(client.query("00000000000000aa", 0.0, float(i))) == i + 1
    finally:
        for client in clients:
            client.close()


def test_windowing_matches_linear_scan_oracle(server):
    import random

    srv, store = server
    rnd = random.Random(12345)
    euis = [f"{i:016x}" for i in range(8)]
    records = [
        PacketRecord(rnd.choice(euis), rnd.randrange(500), round(rnd.uniform(0, 100), 6), 7)
        for _ in range(1000)
    ]
    store.ingest(records)
    stored = []  # replicate dedupe for the oracle
    seen = set()
    for rec in records:
        key = (rec.dev_eui, rec.fcnt, rec.received_ts)
        if key not in seen:
            seen.add(key)
            stored.append(rec)
    with NetClient(srv.bound_address, TOKEN) as client:
        for _ in range(50):
            eui = rnd.choice(euis)
            a, b = sorted((rnd.uniform(0, 100), rnd.uniform(0, 100)))
            expected = sorted(
                (r for r in stored if r.dev_eui == eui and a <= r.received_ts <= b),
                key=lambda r: (r.received_ts, r.fcnt),
            )
            assert client.query(eui, a, b) == expected


# --- message round-trips -------------------------------------------------------

eui_st = st.from_regex(r"[0-9a-f]{16}", fullmatch=True)
ts_st = st.floats(allow_nan=False, allow_infinity=False, width=64)

message_st = st.one_of(
    st.fixed_dictionaries({"type": st.just("auth"), "token": st.text(max_size=50)}),
    st.fixed_dictionaries({"type": st.just("auth_ok")}),
    st.fixed_dictionaries({"type": st.just("auth_fail"), "reason": st.text(max_size=50)}),
    st.fixed_dictionaries(
        {"type": st.just("query"), "dev_eui": eui_st, "from": ts_st, "to": ts_st}
    ),
    st.fixed_dictionaries({"type": st.just("error"), "reason": st.text(max_size=80)}),
)


@given(message=message_st)
@settings(max_examples=200)
def test_serialize_parse_identity(message):
    assert json.loads(json.dumps(message)) == message


@given(
    eui=eui_st,
    packets=st.lists(
        st.tuples(st.integers(0, 2**32), st.floats(0, 1e9), st.integers(7, 12)),
        max_size=20,
    ),
)
def test_packets_message_roundtrip(eui, packets):
    records = [PacketRecord(eui, f, t, s) for f, t, s in packets]
    msg = packets_message(eui, records)
    back = json.loads(json.dumps(msg))
    assert back == msg
    rebuilt = [
        PacketRecord(back["dev_eui"], p["fcnt"], p["ts"], p["sf"]) for p in back["packets"]
    ]
    assert rebuilt == records
