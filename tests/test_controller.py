import hashlib
import math
import re
from array import array
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lorascale import controller, netserver
from lorascale.cli import device_period
from lorascale.controller import (
    DeviceMatrix,
    DeviceReport,
    ExperimentSettings,
    OrchestrationError,
    RosterEntry,
    ScriptedOperator,
    SimulatedOperator,
    TurnOff,
    TurnOn,
    VirtualClock,
    WorldClock,
    collect,
    compute_counts,
    load_roster,
    parse_report,
    run_experiment,
    turn_off_sequence,
    turn_on_sequence,
    write_output,
)
from lorascale.netserver import PacketRecord, PacketStore, ProtocolError
from lorascale.simulator import AnyOverlap, DeviceSpec
from lorascale.world import SimWorld
from batch_adapter import Batched, batch_query
from record_oracle import as_lists, columns, ingest_records
from stamp_oracle import reference_write_timestamps
from turnoff_oracle import reference_turn_off_sequence

EUIS = {f"d{i}": f"{0xcc00 + i:016x}" for i in range(10)}
# the packets the controller gives a device whose query failed
NO_PACKETS = ((), ())


def spread_period(base, k, n, spread=0.06):
    return base * (1.0 + spread * ((k / max(1, n - 1)) - 0.5))


def live_fixture(seed=26, n=5, period=5.0, airtime=0.25):
    fleet = [
        DeviceSpec(f"d{i}", EUIS[f"d{i}"], 7, spread_period(period, i, n), airtime)
        for i in range(n)
    ]
    world = SimWorld(fleet, seed=seed)
    matrix = DeviceMatrix([RosterEntry(d.device_id, d.dev_eui) for d in fleet])
    return world, matrix


class StoreClient:
    """Direct, connectionless client over a PacketStore."""

    def __init__(self, store: PacketStore):
        self.store = store

    def query(self, dev_eui, from_ts, to_ts):
        return self.store.window(dev_eui, from_ts, to_ts)


# --- roster -------------------------------------------------------------------

def test_load_roster_subset_in_table_order(tmp_path):
    exp = tmp_path / "exp.csv"
    mapping = tmp_path / "map.csv"
    exp.write_text("d2\nd1\n")
    mapping.write_text("d1,00000000000000a1\nd2,00000000000000a2\nd3,00000000000000a3\n")
    matrix = load_roster(exp, mapping)
    assert matrix.ids() == ["d2", "d1"]
    assert matrix.eui_for("d2") == "00000000000000a2"


def test_load_roster_unmapped_id_named_in_error(tmp_path):
    exp = tmp_path / "exp.csv"
    mapping = tmp_path / "map.csv"
    exp.write_text("d9\n")
    mapping.write_text("d1,00000000000000a1\n")
    with pytest.raises(OrchestrationError, match="unmapped id d9"):
        load_roster(exp, mapping)


def test_load_roster_rejects_duplicates(tmp_path):
    exp = tmp_path / "exp.csv"
    mapping = tmp_path / "map.csv"
    exp.write_text("d1\nd1\n")
    mapping.write_text("d1,00000000000000a1\n")
    with pytest.raises(OrchestrationError, match="duplicate"):
        load_roster(exp, mapping)
    exp.write_text("d1\nd2\n")
    mapping.write_text("d1,00000000000000a1\nd2,00000000000000A1\n")
    with pytest.raises(OrchestrationError, match="duplicate"):
        load_roster(exp, mapping)


def test_device_matrix_names_a_repeated_id_or_eui():
    g01, g02 = RosterEntry("g01", "00000000feed0001"), RosterEntry("g02", "00000000feed0002")
    with pytest.raises(OrchestrationError, match="^duplicate device id g01$"):
        DeviceMatrix([g01, g02, g01])
    with pytest.raises(OrchestrationError, match="^duplicate device EUI 00000000FEED0001"
                                                 ": devices g01 and g03$"):
        DeviceMatrix([g01, g02, RosterEntry("g03", "00000000FEED0001")])


@pytest.mark.parametrize("device_id, eui, fault", [
    ("", "00000000000000a1", "empty"),
    ("d 1", "00000000000000a1", "whitespace"),  # would split the report line
    ("d\u00a01", "00000000000000a1", "whitespace"),
    ("d1", "00000000000000g1", "16 hex digits"),
    ("d1", "0000000000000a1", "16 hex digits"),
    ("d1", "0x000000000000a1", "16 hex digits"),
    ("g01", "00000000feed00zz", "16 hex digits"),
])
def test_load_roster_refuses_an_id_or_eui_the_run_cannot_use(tmp_path, device_id, eui, fault):
    exp = tmp_path / "exp.csv"
    mapping = tmp_path / "map.csv"
    exp.write_text(f"d0\n{device_id},\n", encoding="utf-8")
    mapping.write_text(f"d0,00000000000000a0\n{device_id},{eui}\n", encoding="utf-8")
    with pytest.raises(OrchestrationError, match=f"^{re.escape(str(mapping))}:2: "
                                                 f"device {re.escape(repr(device_id))}: .*{fault}"):
        load_roster(exp, mapping)


@pytest.mark.parametrize("line", ["g01,g02", "g01,,g02", "g01, g02,"])
def test_load_roster_refuses_a_second_id(tmp_path, line):
    exp = tmp_path / "exp.csv"
    mapping = tmp_path / "map.csv"
    exp.write_text(f"# ids\ng03,\n\n{line}\n")
    mapping.write_text("".join(f"g0{i},00000000000000a{i}\n" for i in (1, 2, 3)))
    with pytest.raises(OrchestrationError, match=f"^{re.escape(str(exp))}:4: .*one device id"):
        load_roster(exp, mapping)


@pytest.mark.parametrize("line", ["d9", "d9,", "d9 , ", "d9,00000000000000a9,x"])
def test_load_roster_refuses_a_mapping_line_without_one_eui(tmp_path, line):
    exp = tmp_path / "exp.csv"
    mapping = tmp_path / "map.csv"
    exp.write_text("d1\n")
    mapping.write_text(f"# id,eui\nd1,00000000000000a1\n{line}\n")
    with pytest.raises(OrchestrationError, match=f"^{re.escape(str(mapping))}:3: .*'id,eui'"):
        load_roster(exp, mapping)


def test_load_roster_names_the_line_of_an_unmapped_or_repeated_id(tmp_path):
    exp = tmp_path / "exp.csv"
    mapping = tmp_path / "map.csv"
    exp.write_text("d1\nd9\n")
    mapping.write_text("d1,00000000000000a1\n")
    with pytest.raises(OrchestrationError, match=f"^{re.escape(str(exp))}:2: unmapped id d9"):
        load_roster(exp, mapping)
    mapping.write_text("d1,00000000000000a1\n\nd1,00000000000000a2\n")
    with pytest.raises(OrchestrationError, match=f"^{re.escape(str(mapping))}:3: duplicate"):
        load_roster(exp, mapping)
    exp.write_text("d1\n\nd1,\n")
    mapping.write_text("d1,00000000000000a1\n")
    with pytest.raises(OrchestrationError,
                       match=f"^{re.escape(str(exp))}:3: duplicate device id d1$"):
        load_roster(exp, mapping)


def test_load_roster_checks_each_form_once(tmp_path, monkeypatch):
    """Each mapped EUI meets the form check once on its way from the files
    to the matrix, listed or not; a matrix built from entries checks its own."""
    checked = Counter()
    pattern = netserver.EUI_PATTERN

    class CountingPattern:
        def fullmatch(self, eui):
            checked[eui] += 1
            return pattern.fullmatch(eui)

    monkeypatch.setattr(netserver, "EUI_PATTERN", CountingPattern())
    exp, mapping = tmp_path / "exp.csv", tmp_path / "map.csv"
    euis = [f"{0xa0 + i:016x}" for i in range(6)]
    mapping.write_text("".join(f"d{i},{eui}\n" for i, eui in enumerate(euis)))
    exp.write_text("d4\nd1,\nd2\n")
    matrix = load_roster(exp, mapping)
    assert matrix.ids() == ["d4", "d1", "d2"] and matrix.eui_for("d1") == euis[1]
    assert checked == Counter(euis)
    checked.clear()
    assert DeviceMatrix(matrix.entries).ids() == matrix.ids()
    assert checked == Counter([euis[4], euis[1], euis[2]])


def test_load_roster_41_entry_fixture():
    matrix = load_roster("tests/data/roster41.csv", "tests/data/mapping41.csv")
    assert len(matrix) == 41
    assert matrix.ids() == [f"d{i:02d}" for i in range(1, 42)]
    assert matrix.eui_for("d41") == f"{0xa0000000 + 41:016x}"


# --- counter arithmetic ---------------------------------------------------------

def records(fcnts):
    return columns(PacketRecord("00000000000000aa", f, float(i)) for i, f in enumerate(fcnts))


def test_compute_counts_reference_cases():
    assert compute_counts(records([0, 1, 2, 3])) == (4, 4)
    assert compute_counts(records([5, 6, 9, 10])) == (4, 6)
    assert compute_counts(records([10, 11, 0, 1])) == (4, 4)  # counter reset
    assert compute_counts(records([])) == (0, 0)


def test_compute_counts_duplicates_count_once():
    assert compute_counts(records([5, 5, 6])) == (2, 2)
    assert compute_counts(records([5, 6, 5])) == (2, 3)  # decrease opens a segment


@given(fcnts=st.lists(st.integers(0, 500), max_size=60))
def test_compute_counts_delivered_never_exceeds_sent(fcnts):
    delivered, sent = compute_counts(records(fcnts))
    assert 0 <= delivered <= sent
    assert delivered == len(set(fcnts))


@given(fcnts=st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(0, 20), max_size=40))
def test_compute_counts_same_on_list_and_typed_columns(fcnts):
    """The counts read the counter column alone, whether it is a list or
    the ``array('q')`` the store and the client hand out."""
    ts = [float(i) for i in range(len(fcnts))]
    typed = (array("d", ts), array("q", fcnts))
    assert compute_counts(typed) == compute_counts(records(fcnts))


# --- turn-on ---------------------------------------------------------------------

def test_turn_on_flags_devices_with_empty_columns():
    """A device whose reply holds no packet is probe-silent, whether its
    columns are empty tuples or empty typed arrays: a pair is never
    empty itself."""
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(3)])
    replies = {EUIS["d0"]: (array("d", [1.0]), array("q", [0])),
               EUIS["d1"]: ((), ()),
               EUIS["d2"]: (array("d"), array("q"))}

    class Replies:
        def query(self, dev_euis, from_ts, to_ts):
            return [replies[eui] for eui in dev_euis]

    failed = turn_on_sequence(matrix, SimulatedOperator(), Replies(), VirtualClock(0.0),
                              probe_window=5.0)
    assert failed == {"d1", "d2"}


def test_turn_on_all_respond_no_failures():
    world, matrix = live_fixture()
    operator = SimulatedOperator(world)
    failed = turn_on_sequence(matrix, operator, world, WorldClock(world),
                              probe_window=15.0, step=1.0)
    assert failed == set()


def test_turn_on_skipped_device_flagged():
    world, matrix = live_fixture()

    class SkipD2:
        def prompt(self, action):
            if isinstance(action, TurnOn) and action.device_id == "d2":
                return False
            world.set_active(action.device_id, isinstance(action, TurnOn))
            return True

    failed = turn_on_sequence(matrix, SkipD2(), world, WorldClock(world),
                              probe_window=15.0, step=1.0)
    assert failed == {"d2"}


def test_turn_on_muted_device_flagged():
    # operator confirms d3 but the (dead) device never transmits
    world, matrix = live_fixture()

    class MutedD3:
        def prompt(self, action):
            if not (isinstance(action, TurnOn) and action.device_id == "d3"):
                world.set_active(action.device_id, isinstance(action, TurnOn))
            return True

    failed = turn_on_sequence(matrix, MutedD3(), world, WorldClock(world),
                              probe_window=15.0, step=1.0)
    assert failed == {"d3"}


class SteppedWorldClock(WorldClock):
    """A wall clock over the world's time that steps back ``back`` seconds
    at its ``at``-th sleep."""

    def __init__(self, world, at, back):
        super().__init__(world)
        self._at, self._back, self._sleeps, self._offset = at, back, 0, 0.0

    def now(self):
        return super().now() - self._offset

    def sleep(self, seconds):
        super().sleep(seconds)
        self._sleeps += 1
        if self._sleeps == self._at:
            self._offset = self._back


class WindowLog:
    """Answers from the world and keeps every window asked about."""

    def __init__(self, world):
        self.world, self.windows = world, []

    def query(self, dev_euis, from_ts, to_ts):
        self.windows.append((from_ts, to_ts))
        return self.world.query(dev_euis, from_ts, to_ts)


def test_clock_stepping_back_during_turn_on_sends_no_probe_window():
    """The clock steps back 30 s at the second prompt's step, so the
    probe would end before it began: no window is sent, every device is
    probe-silent, and the turn-on failures are the devices silent in the
    experiment window, here the one the operator declined."""
    world, matrix = live_fixture()
    client = WindowLog(world)
    failed = turn_on_sequence(matrix, SimulatedOperator(world), client,
                              SteppedWorldClock(world, 2, 30.0), probe_window=15.0, step=1.0)
    assert failed == set(matrix.ids())
    assert client.windows == []

    world, matrix = live_fixture()
    client = WindowLog(world)

    class SkipD2:
        def prompt(self, action):
            on = isinstance(action, TurnOn)
            if not (on and action.device_id == "d2"):
                world.set_active(action.device_id, on)
            return True

    result = run_experiment(matrix, SkipD2(), client, SteppedWorldClock(world, 2, 30.0), LIVE)
    assert result.turn_on_failures == {"d2"}
    assert result.end_ts - result.start_ts == LIVE.duration
    assert client.windows[0] == (result.start_ts, result.end_ts)  # the collect, no probe
    assert all(lo <= hi for lo, hi in client.windows)


# --- collect ----------------------------------------------------------------------

def test_collect_window_closed_and_all_devices_present():
    store = PacketStore()
    eui1, eui2 = "00000000000000a1", "00000000000000a2"
    ingest_records(store, [
        PacketRecord(eui1, 0, 10.0),   # exactly at start: included
        PacketRecord(eui1, 1, 15.0),
        PacketRecord(eui1, 2, 20.0),   # exactly at end: included
        PacketRecord(eui1, 3, 20.5),   # outside
    ])
    matrix = DeviceMatrix([RosterEntry("a", eui1), RosterEntry("b", eui2)])
    packets, failures = collect(matrix, 10.0, 20.0, Batched(StoreClient(store)))
    assert list(packets["a"][1]) == [0, 1, 2]
    assert as_lists(packets["b"]) == columns([])
    assert failures == {}


def test_collect_protocol_error_flags_device_and_continues():
    eui1, eui2 = "00000000000000a1", "00000000000000a2"

    class Flaky:
        def query(self, dev_eui, lo, hi):
            from lorascale.netserver import ProtocolError
            if dev_eui == eui1:
                raise ProtocolError("boom")
            return columns([PacketRecord(eui2, 0, 12.0)])

    matrix = DeviceMatrix([RosterEntry("a", eui1), RosterEntry("b", eui2)])
    packets, failures = collect(matrix, 10.0, 20.0, Batched(Flaky()))
    assert packets["a"] == NO_PACKETS and len(packets["b"][0]) == 1
    assert failures == {"a": "boom"}


# --- turn-off ----------------------------------------------------------------------

class FakeWakeClient:
    """Serves wake-up packets for otherwise silent devices."""

    def __init__(self, wake_ts_by_eui):
        self.wake = wake_ts_by_eui

    def query(self, dev_eui, from_ts, to_ts):
        return columns(
            PacketRecord(dev_eui, 0, ts)
            for ts in self.wake.get(dev_eui, [])
            if from_ts <= ts <= to_ts
        )


def make_reports(matrix, responded):
    return {
        e.device_id: DeviceReport(e.device_id, 5 if e.device_id in responded else 0,
                                  5 if e.device_id in responded else 0)
        for e in matrix
    }


def test_turn_off_all_responded_single_high_queue_matrix_order():
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(4)])
    reports = make_reports(matrix, responded={"d0", "d1", "d2", "d3"})
    log, late, failures = turn_off_sequence(matrix, reports, SimulatedOperator(),
                                            Batched(FakeWakeClient({})), VirtualClock(100.0), 10.0)
    assert [r.device_id for r in log] == ["d0", "d1", "d2", "d3"]
    assert all(r.priority == "high" for r in log)
    assert late == {}
    assert failures == {}


def test_turn_off_no_device_ever_responds():
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(4)])
    reports = make_reports(matrix, responded=set())
    log, late, failures = turn_off_sequence(matrix, reports, SimulatedOperator(),
                                            Batched(FakeWakeClient({})), VirtualClock(100.0), 10.0)
    assert [r.device_id for r in log] == ["d0", "d1", "d2", "d3"]
    assert all(r.priority == "low" for r in log)
    assert late == {}  # every device delivered nothing and is no late responder
    assert failures == {}


def test_turn_off_late_responder_moves_to_middle_with_flag():
    world, matrix = live_fixture(seed=33)

    class WakeD4OnD1:
        def prompt(self, action):
            world.set_active(action.device_id, isinstance(action, TurnOn))
            if isinstance(action, TurnOff) and action.device_id == "d1":
                world.set_active("d4", True)
            return True

    operator = WakeD4OnD1()
    clock = WorldClock(world)
    # activate all but d4, run a short experiment
    for did in ("d0", "d1", "d2", "d3"):
        world.set_active(did, True)
    world.advance(50.0)
    reports = {
        did: DeviceReport(did, *compute_counts(world.query([EUIS[did]], 0.0, 50.0)[0]))
        for did in matrix.ids()
    }
    log, late, failures = turn_off_sequence(matrix, reports, operator, world, clock, 15.0)
    ids = [r.device_id for r in log]
    assert sorted(ids) == sorted(matrix.ids())
    assert ids[:4] == ["d0", "d1", "d2", "d3"]          # high tier, matrix order
    assert ids[4] == "d4" and log[4].priority == "middle"
    assert late == {"d4": "d1"}
    assert failures == {}


def test_turn_off_skip_retries_once_then_forces():
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(3)])
    reports = make_reports(matrix, responded={"d0", "d1", "d2"})

    class Stubborn:
        def prompt(self, action):
            return action.device_id != "d1"  # never confirms d1

    log, _, _ = turn_off_sequence(matrix, reports, Stubborn(),
                                  Batched(FakeWakeClient({})), VirtualClock(0.0), 5.0)
    assert [r.device_id for r in log] == ["d0", "d2", "d1"]  # retried at queue end
    assert [r.confirmed for r in log] == [True, True, False]


def test_turn_off_polls_pending_silent_devices_in_matrix_order():
    ids = [f"r{i:03d}" for i in range(300)]
    matrix = DeviceMatrix([RosterEntry(d, f"{0xdd000 + i:016x}") for i, d in enumerate(ids)])
    silent = ["r017", "r150", "r299"]
    reports = make_reports(matrix, responded=set(ids) - set(silent))
    eui_to_id = {e.dev_eui: e.device_id for e in matrix}

    class RecordingClient(FakeWakeClient):
        """Records every device asked about; r150 sends one packet, inside
        r040's recheck window [380, 390]."""

        def __init__(self):
            super().__init__({matrix.eui_for("r150"): [385.0]})
            self.calls = []

        def query(self, dev_eui, from_ts, to_ts):
            self.calls.append((eui_to_id[dev_eui], from_ts, to_ts))
            return super().query(dev_eui, from_ts, to_ts)

    client = Batched(RecordingClient())

    class Operator:
        """Declines r005 once."""

        def __init__(self):
            self.declined = False

        def prompt(self, action):
            if action.device_id == "r005" and not self.declined:
                self.declined = True
                return False
            return True

    window = 10.0
    log, late, failures = turn_off_sequence(matrix, reports, Operator(), client,
                                            VirtualClock(0.0), window)

    high = [d for d in ids if d not in silent and d != "r005"] + ["r005"]
    assert [r.device_id for r in log] == high + ["r150", "r017", "r299"]
    assert [r.priority for r in log] == ["high"] * 297 + ["middle", "low", "low"]
    assert all(r.confirmed for r in log)
    assert [r.at for r in log] == [window * k for k in range(300)]
    assert late == {"r150": "r040"}  # r017 and r299 never responded
    assert failures == {}

    # One call per settle, over the windows of log entries first..last:
    # when r005 is declined, every 64 windows, when the high and middle
    # queues run dry, and before the still-silent r299 is shut down.
    settles = [(0, 4, silent), (5, 68, silent)]
    settles += [(k, k + 63, ["r017", "r299"]) for k in (69, 133, 197)]
    settles += [(261, 296, ["r017", "r299"]), (297, 297, ["r017", "r299"]), (298, 298, ["r299"])]
    expected = [(d, log[first].at, log[last].at + window)
                for first, last, pending in settles for d in pending]
    assert client.calls == expected


priorities = {"high": 0, "middle": 1, "low": 2}


@given(
    n=st.integers(2, 7),
    responded_bits=st.lists(st.booleans(), min_size=7, max_size=7),
    wake_rules=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.floats(0.1, 0.9)),
        max_size=4,
    ),
    skips=st.lists(st.integers(0, 2), min_size=7, max_size=7),
)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_turn_off_ordering_property(n, responded_bits, wake_rules, skips):
    """Shutdown log is a roster permutation with high < middle < low, and
    every middle-tier device was detected after an earlier shutdown."""
    ids = [f"d{i}" for i in range(n)]
    matrix = DeviceMatrix([RosterEntry(d, EUIS[d]) for d in ids])
    responded = {d for d, bit in zip(ids, responded_bits) if bit}
    reports = make_reports(matrix, responded)
    recheck = 10.0

    # silent device ids[i] wakes shortly after the k-th shutdown
    wake = {}
    for i, k, frac in wake_rules:
        if i < n and ids[i] not in responded:
            wake.setdefault(EUIS[ids[i]], []).append(k * recheck + frac * recheck)

    class SkipSome:
        def __init__(self):
            self.left = {ids[i]: skips[i] for i in range(n)}

        def prompt(self, action):
            if self.left.get(action.device_id, 0) > 0:
                self.left[action.device_id] -= 1
                return False
            return True

    log, late, _ = turn_off_sequence(matrix, reports, SkipSome(),
                                     Batched(FakeWakeClient(wake)), VirtualClock(0.0), recheck)

    assert sorted(r.device_id for r in log) == sorted(ids)  # permutation
    ranks = [priorities[r.priority] for r in log]
    assert ranks == sorted(ranks)  # high before middle before low
    position = {r.device_id: i for i, r in enumerate(log)}
    for r in log:
        if r.priority == "middle":
            assert position[late[r.device_id]] < position[r.device_id]
    # a device skipped twice is logged unconfirmed
    for i, device_id in enumerate(ids):
        rec = next(r for r in log if r.device_id == device_id)
        assert rec.confirmed == (skips[i] < 2)


# --- settled rechecks ---------------------------------------------------------------

ORACLE_IDS = [f"o{i}" for i in range(8)]
ORACLE_MATRIX = DeviceMatrix([RosterEntry(d, f"{0xab00 + i:016x}")
                              for i, d in enumerate(ORACLE_IDS)])


class TimedOperator:
    """Spends ``think`` seconds of clock time on every prompt and declines
    each device's first ``declines[id]`` TurnOff prompts."""

    def __init__(self, clock, declines, think):
        self.clock, self.left, self.think = clock, dict(declines), think

    def prompt(self, action):
        self.clock.sleep(self.think)
        if self.left.get(action.device_id, 0) > 0:
            self.left[action.device_id] -= 1
            return False
        return True


class WakeOrFailClient(FakeWakeClient):
    """Serves wake-up packets; every query for an EUI in ``failing`` fails."""

    def __init__(self, wake_ts_by_eui, failing):
        super().__init__(wake_ts_by_eui)
        self.failing = failing

    def query(self, dev_eui, from_ts, to_ts):
        if dev_eui in self.failing:
            raise ProtocolError("no such window")
        return super().query(dev_eui, from_ts, to_ts)


class SteppingClock:
    """Steps back by ``steps[i]`` seconds after its i-th sleep, as a wall
    clock can."""

    def __init__(self, start, steps):
        self.t = start
        self._steps = iter(steps)

    def now(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds - next(self._steps, 0.0)


def settled_and_reference(n, statuses, wake, declines, think, cap, make_clock, make_client):
    """The settled and the per-window turn-off of the first ``n`` oracle
    devices, each run on a fresh clock and operator; the settled one asks
    through ``make_client(fake)``.  A status is delivered, silent,
    collect-failed or failing (every recheck fails); ``wake`` lists
    (device index, timestamp) packets."""
    matrix = DeviceMatrix(list(ORACLE_MATRIX)[:n])
    ids = matrix.ids()
    reports = make_reports(matrix, {d for d, s in zip(ids, statuses) if s == "delivered"})
    collect_failed = [d for d, s in zip(ids, statuses) if s == "collect-failed"]
    failing = {matrix.eui_for(d) for d, s in zip(ids, statuses) if s == "failing"}
    wake_ts: dict[str, list[float]] = {}
    for i, ts in wake:
        if i < n:
            wake_ts.setdefault(matrix.eui_for(ids[i]), []).append(ts)
    results = []
    for turn_off, wrap in ((turn_off_sequence, make_client),
                           (reference_turn_off_sequence, Batched)):
        clock = make_clock()
        operator = TimedOperator(clock, dict(zip(ids, declines)), think)
        client = wrap(WakeOrFailClient(wake_ts, failing))
        with patch.object(controller, "_SETTLE_WINDOWS", cap):
            results.append(turn_off(matrix, reports, operator, client, clock, 10.0,
                                    collect_failed))
    return results


def assert_same_turn_off(got, want):
    log, late, failures = got
    assert log == want[0]
    assert list(late.items()) == list(want[1].items())  # detection order too
    assert list(failures.items()) == list(want[2].items())


statuses_st = st.lists(
    st.sampled_from(["delivered", "delivered", "silent", "silent", "silent",
                     "collect-failed", "failing"]),
    min_size=8, max_size=8)
# on a half-second grid around the windows, or exactly on a window edge of
# a run without operator time
wake_st = st.lists(
    st.tuples(st.integers(0, 7),
              st.one_of(st.integers(-20, 200).map(lambda k: 100.0 + k / 2),
                        st.integers(0, 10).map(lambda j: 100.0 + 10.0 * j))),
    min_size=1, max_size=16)
declines_st = st.lists(st.integers(0, 2), min_size=8, max_size=8)


NO_DECLINES = [0] * 8


@given(n=st.integers(1, 8), statuses=statuses_st, wake=wake_st, declines=declines_st,
       think=st.sampled_from([0.0, 0.5, 2.5]), cap=st.sampled_from([1, 2, 3, 64]))
@example(n=4, statuses=["delivered", "delivered", "silent", "silent"] + ["delivered"] * 4,
         wake=[(2, 115.0), (3, 105.0)], declines=NO_DECLINES, think=0.0, cap=64
         ).via("window order before matrix order")
@example(n=3, statuses=["delivered", "delivered", "silent"] + ["delivered"] * 5,
         wake=[(2, 113.0)], declines=NO_DECLINES, think=2.5, cap=64
         ).via("a packet between windows")
@example(n=4, statuses=["delivered", "silent", "silent", "silent"] + ["delivered"] * 4,
         wake=[(1, 105.0), (2, 106.0), (3, 112.0)], declines=[0, 0, 1] + [0] * 5, think=0.0,
         cap=64).via("a late responder queues before a declined one")
@settings(max_examples=300, deadline=None)
def test_settled_turn_off_matches_per_window_reference(n, statuses, wake, declines, think, cap):
    got, want = settled_and_reference(n, statuses, wake, declines, think, cap,
                                      lambda: VirtualClock(100.0), Batched)
    assert_same_turn_off(got, want)


class ForwardWindowsOnly:
    """A batch client over a per-EUI fake that fails the test on an
    inverted window, which the server would refuse."""

    def __init__(self, fake):
        self._query = batch_query(fake.query)

    def query(self, dev_euis, from_ts, to_ts):
        assert from_ts <= to_ts, (from_ts, to_ts)
        return self._query(dev_euis, from_ts, to_ts)


# no failing device: a window that is not asked about cannot fail it
@given(n=st.integers(1, 8), statuses=st.lists(st.sampled_from(["delivered", "silent",
                                                               "silent", "collect-failed"]),
                                              min_size=8, max_size=8),
       wake=wake_st, declines=declines_st,
       think=st.sampled_from([0.0, 2.5]), cap=st.sampled_from([2, 64]),
       steps=st.lists(st.sampled_from([0.0, 0.0, 3.0, 12.0]), max_size=30))
@example(n=3, statuses=["delivered", "delivered", "silent"] + ["delivered"] * 5,
         wake=[(2, 99.0)], declines=NO_DECLINES, think=0.0, cap=64, steps=[0.0, 0.0, 12.0]
         ).via("a window that ends before the last one")
@settings(max_examples=150, deadline=None)
def test_clock_stepping_back_sends_no_inverted_window(n, statuses, wake, declines, think, cap,
                                                       steps):
    """A recheck window whose end the clock put before its start holds no
    packet and is not asked about; one that starts before the last ends
    is settled apart from it.  The reference asks about every window."""
    got, want = settled_and_reference(n, statuses, wake, declines, think, cap,
                                      lambda: SteppingClock(100.0, steps), ForwardWindowsOnly)
    assert_same_turn_off(got, want)


def test_turn_off_settles_many_windows_per_call():
    ids = [f"c{i:03d}" for i in range(300)]
    matrix = DeviceMatrix([RosterEntry(d, f"{0xee000 + i:016x}") for i, d in enumerate(ids)])
    silent = {"c010", "c150", "c299"}
    reports = make_reports(matrix, responded=set(ids) - silent)

    class CountingClient:
        calls = 0

        def query(self, dev_euis, from_ts, to_ts):
            self.calls += 1
            return [NO_PACKETS for _ in dev_euis]

    client = CountingClient()
    log, late, failures = turn_off_sequence(matrix, reports, SimulatedOperator(), client,
                                            VirtualClock(0.0), 10.0)
    assert [r.priority for r in log] == ["high"] * 297 + ["low"] * 3
    assert late == {} and failures == {}
    assert 0 < client.calls <= math.ceil(297 / 64) + 3 + 1


def test_failed_settle_gives_every_pending_device_its_reason(monkeypatch):
    """The second settle, over d2's window, fails as a whole: d3, d4 and
    d5 get its reason, and d4's packet in that window is never asked
    about again.  A later settle still finds d5 in d3's window."""
    monkeypatch.setattr(controller, "_SETTLE_WINDOWS", 2)
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(6)])
    reports = make_reports(matrix, responded={"d0", "d1", "d2"})
    wake = Batched(FakeWakeClient({EUIS["d4"]: [125.0], EUIS["d5"]: [135.0]}))

    class FailSecondCall:
        def __init__(self):
            self.calls = []

        def query(self, dev_euis, from_ts, to_ts):
            self.calls.append((list(dev_euis), from_ts, to_ts))
            if len(self.calls) == 2:
                raise ConnectionResetError("connection reset by peer")
            return wake.query(dev_euis, from_ts, to_ts)

    client = FailSecondCall()
    log, late, failures = turn_off_sequence(matrix, reports, SimulatedOperator(), client,
                                            VirtualClock(100.0), 10.0)
    assert [(r.device_id, r.priority) for r in log] == [
        ("d0", "high"), ("d1", "high"), ("d2", "high"),
        ("d3", "low"), ("d4", "low"), ("d5", "low")]
    assert late == {"d5": "d3"}
    assert list(failures.items()) == [
        (d, "turn-off recheck: connection reset by peer") for d in ("d3", "d4", "d5")]
    silent = [EUIS[d] for d in ("d3", "d4", "d5")]
    assert client.calls == [(silent, 100.0, 120.0), (silent, 120.0, 130.0),
                            (silent[1:], 130.0, 140.0)]


# --- output files ------------------------------------------------------------------

LIVE = ExperimentSettings(name="live", duration=100.0, probe_window=15.0,
                          recheck_window=15.0, turnon_step=1.0)


def sample_result():
    world, matrix = live_fixture()
    operator = SimulatedOperator(world)
    return world, run_experiment(matrix, operator, world, WorldClock(world), LIVE)


def test_run_experiment_matches_world_ground_truth_exactly():
    world, result = sample_result()
    truth = world.ground_truth(result.start_ts, result.end_ts)
    assert sum(s - d for d, s in truth.values()) >= 3  # real interior losses
    for device_id, (delivered, sent) in truth.items():
        report = result.reports[device_id]
        assert (report.delivered, report.sent) == (delivered, sent)
    assert result.turn_on_failures == set()
    assert [r.priority for r in result.shutdown_log] == ["high"] * 5


class FailAfter:
    """Answers queries from the world; an EUI in ``errors`` maps to
    ``(answered, exc)`` and raises ``exc`` once its first ``answered``
    queries have been served."""

    def __init__(self, world, errors):
        self.world, self.errors, self.served = world, errors, {}

    def query(self, dev_eui, from_ts, to_ts):
        served = self.served[dev_eui] = self.served.get(dev_eui, 0) + 1
        if dev_eui in self.errors and served > self.errors[dev_eui][0]:
            raise self.errors[dev_eui][1]
        return self.world.query([dev_eui], from_ts, to_ts)[0]


def every_outcome_result():
    """A run with each kind of per-device record: d2 is skipped at
    turn-on and wakes when d0 is shut down; d3's collect query fails, so
    it is never rechecked; d4 is confirmed but dead, and its rechecks
    supply the recheck failure."""
    world, matrix = live_fixture()

    class Operator:
        def prompt(self, action):
            on = isinstance(action, TurnOn)
            if on and action.device_id == "d2":
                return False
            if action.device_id != "d4":
                world.set_active(action.device_id, on)
            if not on and action.device_id == "d0":
                world.set_active("d2", True)
            return True

    from lorascale.netserver import ProtocolError
    # one probe query per device, then one collect query, then rechecks
    client = Batched(FailAfter(world, {EUIS["d3"]: (1, ProtocolError("boom")),
                                       EUIS["d4"]: (2, ConnectionResetError("reset"))}))
    return run_experiment(matrix, Operator(), client, WorldClock(world), LIVE)


def test_write_output_and_parse_report_roundtrip(tmp_path):
    result = every_outcome_result()
    assert result.turn_on_failures == {"d2", "d4"}
    assert result.late_responders == {"d2": "d0"}
    assert result.query_failures == {
        "d3": "boom", "d4": "turn-off recheck: reset"}
    report_path = tmp_path / "report.txt"
    ts_path = tmp_path / "ts.txt"
    write_output(result, report_path, ts_path)

    parsed = parse_report(report_path)
    for device_id, report in result.reports.items():
        assert (parsed[device_id].delivered,
                parsed[device_id].sent) == (report.delivered, report.sent)

    text = report_path.read_text().splitlines()
    body = [l for l in text if not l.startswith("#")]
    assert len(body) == len(result.matrix) == len(parsed)  # each device exactly once
    assert text[0] == (f"# experiment live start {result.start_ts:.6f} end {result.end_ts:.6f} "
                       f"duration {result.end_ts - result.start_ts:.6f}")
    assert [l for l in text if l.startswith("# turn-on-failed ")] == [
        "# turn-on-failed d2", "# turn-on-failed d4"]
    assert [l for l in text if l.startswith("# late-responder ")] == [
        "# late-responder d2 after d0"]
    assert [l for l in text if l.startswith("# query-failed ")] == [
        "# query-failed d3 boom", "# query-failed d4 turn-off recheck: reset"]

    ts_lines = ts_path.read_text().splitlines()
    times = [float(l.split()[2]) for l in ts_lines]
    assert times == sorted(times)
    assert len(ts_lines) == sum(r.delivered for r in result.reports.values())


def test_failed_collect_is_not_silent():
    """A live device whose collect query failed gets no recheck, so it
    is no late responder; it is shut down in the low tier and keeps its
    collect reason."""
    world, matrix = live_fixture()

    class FailCollect(FailAfter):
        """Fails only the second query of d3: its collect query."""

        def query(self, dev_eui, from_ts, to_ts):
            if dev_eui == EUIS["d3"] and self.served.get(dev_eui) == 1:
                self.served[dev_eui] = 2
                raise ProtocolError("boom")
            return super().query(dev_eui, from_ts, to_ts)

    client = Batched(FailCollect(world, {}))
    result = run_experiment(matrix, SimulatedOperator(world), client, WorldClock(world), LIVE)
    assert result.query_failures == {"d3": "boom"}
    assert result.late_responders == {}
    assert [(r.device_id, r.priority) for r in result.shutdown_log] == [
        ("d0", "high"), ("d1", "high"), ("d2", "high"), ("d4", "high"), ("d3", "low")]


def test_write_output_failed_device_gets_zero_line_and_flag(tmp_path):
    matrix = DeviceMatrix([RosterEntry("d1", EUIS["d1"])])
    from lorascale.controller import ExperimentResult
    # the second reason comes from outside and must not start a record of its own
    for case, reason in enumerate([None, "x\n# late-responder d0 after d1"]):
        failures = {} if reason is None else {"d1": reason}
        result = ExperimentResult(
            name="x", matrix=matrix, reports={"d1": DeviceReport("d1", 0, 0)},
            turn_on_failures={"d1"}, late_responders={}, query_failures=failures,
            shutdown_log=[], start_ts=1.0, end_ts=2.0, packets={"d1": NO_PACKETS},
        )
        report_path = tmp_path / f"r{case}.txt"
        write_output(result, report_path, tmp_path / f"t{case}.txt")
        text = report_path.read_text()
        assert "# turn-on-failed d1\n" in text
        assert "\nd1 0 0\n" in text
        failed_lines = [l for l in text.splitlines() if l.startswith("# query-failed")]
        assert parse_report(report_path) == {"d1": DeviceReport("d1", 0, 0)}
        assert [l for l in text.splitlines() if l.startswith("# late-responder")] == []
        if reason is None:
            assert failed_lines == []
        else:
            assert failed_lines == ["# query-failed d1 x # late-responder d0 after d1"]


def test_write_output_lists_unconfirmed_shutdowns_last_in_matrix_order(tmp_path):
    from lorascale.controller import ExperimentResult, ShutdownRecord
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(3)])
    result = ExperimentResult(
        name="x", matrix=matrix, reports={d: DeviceReport(d, 0, 0) for d in matrix.ids()},
        turn_on_failures=set(), late_responders={}, query_failures={"d1": "boom"},
        shutdown_log=[ShutdownRecord("d0", 3.0, True, "low"),
                      ShutdownRecord("d2", 4.0, False, "low"),
                      ShutdownRecord("d1", 5.0, False, "low")],
        start_ts=1.0, end_ts=2.0, packets={},
    )
    report_path = tmp_path / "r.txt"
    write_output(result, report_path, tmp_path / "t.txt")
    assert report_path.read_text().splitlines()[-3:] == [
        "# query-failed d1 boom", "# shutdown-unconfirmed d1", "# shutdown-unconfirmed d2"]
    assert parse_report(report_path) == result.reports


# a coarse grid of times shared by every device, so that devices tie;
# -0.0 and 0.0 tie too, and int times are written as their floats
stamp_ts_st = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, 2.25, 1e9]) | st.integers(-2, 3)
# counters, now and then integral floats, which ``%d`` would write as ints
stamp_fcnt_st = st.integers(0, 4) | st.integers(0, 2**63 - 1) | st.integers(0, 4).map(float)


@st.composite
def stamp_results(draw):
    """An experiment result whose devices hold columns in store order
    (by time, then counter), or none, or a failed query's ``NO_PACKETS``;
    EUIs in both cases of hex, the matrix in an order of its own."""
    euis = draw(st.lists(st.from_regex(r"[0-9a-fA-F]{16}", fullmatch=True), min_size=1,
                         max_size=8, unique_by=str.lower))
    ids = draw(st.permutations([f"d{k}" for k in range(len(euis))]))
    matrix = DeviceMatrix(map(RosterEntry, ids, euis))
    packets = {}
    for device_id in ids:
        kind = draw(st.sampled_from(["columns", "columns", "failed", "absent"]))
        if kind == "failed":
            packets[device_id] = NO_PACKETS
        elif kind == "columns":
            rows = sorted(draw(st.lists(st.tuples(stamp_ts_st, stamp_fcnt_st), max_size=12)))
            packets[device_id] = ([t for t, _ in rows], [f for _, f in rows])
    return controller.ExperimentResult(
        name="x", matrix=matrix, reports={d: DeviceReport(d, 0, 0) for d in ids},
        turn_on_failures=set(), late_responders={}, query_failures={}, shutdown_log=[],
        start_ts=0.0, end_ts=1.0, packets=packets)


@given(result=stamp_results(), chunk=st.integers(1, 5))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_timestamp_file_equals_the_tuple_sort_reference(tmp_path, result, chunk):
    """The timestamp file, sorted by time alone and formatted a chunk at a
    time, is byte for byte the reference's, which sorts (ts, EUI, counter)
    tuples: ties across devices go in EUI order, within a device in
    counter order, whatever the chunk size."""
    stamps, want = tmp_path / "t.txt", tmp_path / "want.txt"
    with patch.object(controller, "_STAMP_CHUNK", chunk):
        write_output(result, tmp_path / "r.txt", stamps)
    reference_write_timestamps(result, want)
    assert stamps.read_bytes() == want.read_bytes()


PAPER41 = ExperimentSettings(name="paper41", duration=700.0, probe_window=21.0,
                             recheck_window=21.0, turnon_step=1.0)
PAPER41_IDS = [f"p{k:02d}" for k in range(41)]
PAPER41_FLEET = [DeviceSpec(PAPER41_IDS[k], f"{0xee00 + k:016x}", 7,
                            device_period(7.0, k, 41, 0.06), 0.11729) for k in range(41)]
PAPER41_MATRIX = DeviceMatrix([RosterEntry(d.device_id, d.dev_eui) for d in PAPER41_FLEET])


def run_paper41(world, declined):
    """The paper's 41-device experiment against ``world``, with an operator
    that declines to switch on the ``declined`` devices."""

    class Declining:
        def prompt(self, action):
            on = isinstance(action, TurnOn)
            if on and action.device_id in declined:
                return False
            world.set_active(action.device_id, on)
            return True

    return run_experiment(PAPER41_MATRIX, Declining(), world, WorldClock(world), PAPER41)


def test_turn_on_failures_are_the_devices_never_switched_on(monkeypatch):
    """On the paper's 41-device setup a live device can lose every packet
    of the probe window to collisions; it is no turn-on failure, because
    it delivers in the experiment window.  Every declined device is one."""
    ids, fleet = PAPER41_IDS, PAPER41_FLEET
    probe_silent: list[set[str]] = []

    def probe(*args, **kwargs):
        probe_silent.append(turn_on_sequence(*args, **kwargs))
        return probe_silent[-1]

    monkeypatch.setattr(controller, "turn_on_sequence", probe)
    missed_live = 0
    for seed in range(9100, 9112):
        world = SimWorld(fleet, AnyOverlap(), seed=seed)
        declined = {ids[seed % 41], ids[seed * 7 % 41]}
        result = run_paper41(world, declined)
        assert result.turn_on_failures == declined, seed
        missed_live += len(probe_silent[-1] - declined)
    assert missed_live > 0  # the probe did miss live devices


def test_live_world_report_and_timestamps_are_pinned(tmp_path):
    """The report and timestamp files of one paper41 run against the live
    world, with two devices declined, hash to the digests recorded when
    this test was added: the golden files pin only the TCP path."""
    world = SimWorld(PAPER41_FLEET, AnyOverlap(), seed=4141)
    result = run_paper41(world, {"p11", "p31"})
    report, stamps = tmp_path / "report.txt", tmp_path / "timestamps.txt"
    write_output(result, report, stamps)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "4dfc0869b120a0002e2f29a447fbc13e42b24ac3446f889b3c5fb73e3fe475ca")
    assert hashlib.sha256(stamps.read_bytes()).hexdigest() == (
        "821b406c59d7ab7a8ad10755ff4e3379f469c5485b56f2e036eab005c8f22b33")


def test_probe_failure_aborts_after_one_query_per_device():
    world, matrix = live_fixture()
    client = Batched(FailAfter(world, {EUIS["d2"]: (0, ConnectionResetError("connection reset"))}))
    with pytest.raises(OrchestrationError, match="turn-on probe: connection reset$"):
        run_experiment(matrix, SimulatedOperator(world), client, WorldClock(world), LIVE)
    assert client.served == {e.dev_eui: 1 for e in matrix}


def test_scripted_operator_replay_and_exhaustion():
    operator = ScriptedOperator([True, False])
    assert operator.prompt(TurnOn("a")) is True
    assert operator.prompt(TurnOff("a")) is False
    with pytest.raises(OrchestrationError, match="exhausted"):
        operator.prompt(TurnOn("b"))


def test_settings_validation():
    with pytest.raises(ValueError):
        ExperimentSettings(name="bad name", duration=1.0, probe_window=0, recheck_window=0)
    with pytest.raises(ValueError):
        ExperimentSettings(name="x", duration=0.0, probe_window=0, recheck_window=0)
    for duration, probe, recheck, step in [(math.nan, 0, 0, 0), (math.inf, 0, 0, 0),
                                           (1.0, math.nan, 0, 0), (1.0, 0, math.inf, 0),
                                           (1.0, 0, 0, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            ExperimentSettings("x", duration, probe, recheck, step)


# --- dropped connections ---------------------------------------------------------

class ResetClient(FakeWakeClient):
    """Drops the connection on every query for one EUI."""

    def __init__(self, reset_eui, wake_ts_by_eui=None):
        super().__init__(wake_ts_by_eui or {})
        self.reset_eui = reset_eui

    def query(self, dev_eui, from_ts, to_ts):
        if dev_eui == self.reset_eui:
            raise ConnectionResetError("connection reset by peer")
        return super().query(dev_eui, from_ts, to_ts)


def test_collect_connection_reset_flags_device_and_continues():
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(3)])
    client = Batched(ResetClient(EUIS["d1"], {EUIS["d0"]: [12.0], EUIS["d2"]: [13.0, 14.0]}))
    packets, failures = collect(matrix, 10.0, 20.0, client)
    assert [len(packets[d][0]) for d in ("d0", "d1", "d2")] == [1, 0, 2]
    assert failures == {"d1": "connection reset by peer"}


class DownClient:
    """Fails every call as a whole, as a dropped connection does."""

    def __init__(self):
        self.calls = []

    def query(self, dev_euis, from_ts, to_ts):
        self.calls.append(list(dev_euis))
        raise ConnectionResetError("connection reset by peer")


def test_failed_call_flags_every_device_and_empty_polls_are_not_sent():
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(3)])
    client = DownClient()
    packets, failures = collect(matrix, 10.0, 20.0, client)
    assert packets == {"d0": NO_PACKETS, "d1": NO_PACKETS, "d2": NO_PACKETS}
    assert failures == {d: "connection reset by peer" for d in ("d0", "d1", "d2")}
    assert client.calls == [[EUIS["d0"], EUIS["d1"], EUIS["d2"]]]
    # with every device delivered, no recheck has a device to ask about
    client.calls.clear()
    log, late, failures = turn_off_sequence(
        matrix, make_reports(matrix, responded={"d0", "d1", "d2"}), SimulatedOperator(),
        client, VirtualClock(0.0), 10.0)
    assert [r.priority for r in log] == ["high"] * 3
    assert client.calls == [] and late == {} and failures == {}


def test_turn_off_recheck_skips_a_poll_whose_connection_drops():
    matrix = DeviceMatrix([RosterEntry(f"d{i}", EUIS[f"d{i}"]) for i in range(3)])
    reports = make_reports(matrix, responded={"d0"})
    client = Batched(ResetClient(EUIS["d1"], {EUIS["d2"]: [105.0]}))
    log, late, failures = turn_off_sequence(matrix, reports, SimulatedOperator(), client,
                                            VirtualClock(100.0), 10.0)
    assert [(r.device_id, r.priority) for r in log] == [
        ("d0", "high"), ("d2", "middle"), ("d1", "low")]
    assert late == {"d2": "d0"}
    assert failures == {"d1": "turn-off recheck: connection reset by peer"}
