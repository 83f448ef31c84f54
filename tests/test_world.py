import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorascale import kernels, netserver, world as world_module
from lorascale.netserver import PacketRecord, PacketStore
from lorascale.simulator import AnyOverlap, DeviceSpec, VulnerabilityWindow, run, write_packet_log
from lorascale.world import SimWorld
from record_oracle import as_lists, ingest_records, records_of
from world_oracle import ReferenceWorld, row_feed


def specs(n, period=5.0, airtime=0.2, **kwargs):
    return [
        DeviceSpec(f"d{i}", f"{0xaa00 + i:016x}", 7, period, airtime, **kwargs)
        for i in range(n)
    ]


def delivered(world, devices):
    """Every record the world delivered, in ReferenceWorld.delivered_records order."""
    per_device = world.query([d.dev_eui for d in devices], -math.inf, math.inf)
    return sorted((r for d, got in zip(devices, per_device) for r in records_of(d.dev_eui, got)),
                  key=lambda r: (r.received_ts, r.dev_eui, r.fcnt))


def test_inactive_devices_stay_silent():
    fleet = specs(3)
    world = SimWorld(fleet, seed=1)
    world.advance(100.0)
    assert delivered(world, fleet) == []
    assert world.attempt_counts() == {"d0": 0, "d1": 0, "d2": 0}


def test_activation_produces_periodic_attempts():
    fleet = specs(1, period=5.0, airtime=0.2)
    world = SimWorld(fleet, seed=1)
    world.set_active("d0", True)
    world.advance(50.4)
    counts = world.attempt_counts()
    assert counts["d0"] in (9, 10)
    records = delivered(world, fleet)
    assert [r.fcnt for r in records] == list(range(counts["d0"]))


def test_deactivation_stops_future_attempts_and_fcnt_continues():
    fleet = specs(1, phase=1.0)
    world = SimWorld(fleet, seed=0)
    world.set_active("d0", True)
    world.advance(11.0)  # attempts at 1.0 and 6.0
    world.set_active("d0", False)
    world.advance(20.0)
    n_before = world.attempt_counts()["d0"]
    assert n_before == 2
    world.set_active("d0", True)
    world.advance(20.0)
    records = delivered(world, fleet)
    fcnts = [r.fcnt for r in records]
    assert fcnts == sorted(fcnts)
    assert fcnts == list(range(len(fcnts)))  # counters never reset
    assert world.attempt_counts()["d0"] > n_before


def test_pending_transmission_finalizes_only_after_it_ends():
    fleet = specs(1, phase=0.5, airtime=0.4)
    world = SimWorld(fleet, seed=0)
    world.set_active("d0", True)
    world.advance(0.6)  # attempt started at 0.5, still on the air
    assert delivered(world, fleet) == []
    world.advance(0.4)
    assert len(delivered(world, fleet)) == 1


def test_cross_advance_collisions_detected():
    # two devices overlap across an advance boundary
    pair = [
        DeviceSpec("a", "00000000000000aa", 7, 10.0, 0.6, phase=0.8),
        DeviceSpec("b", "00000000000000bb", 7, 10.0, 0.6, phase=1.1),
    ]
    world = SimWorld(pair, seed=0)
    world.set_active("a", True)
    world.set_active("b", True)
    world.advance(1.0)  # a started at 0.8; b not yet
    world.advance(9.0)
    assert delivered(world, pair) == []  # both packets of each period collide


def test_world_matches_batch_run_for_static_activity():
    # compare below a horizon that both sides have fully resolved
    fleet = specs(6, period=5.0, airtime=0.3)
    world = SimWorld(fleet, seed=21)
    for d in fleet:
        world.set_active(d.device_id, True)
    for _ in range(10):
        world.advance(26.0)
    batch = run(fleet, duration=260.0, seed=21)
    world_records = {
        (r.dev_eui, r.fcnt, r.received_ts)
        for r in delivered(world, fleet) if r.received_ts <= 250.0
    }
    batch_records = {
        (fleet[dev].dev_eui, fcnt, end)
        for dev, fcnt, end, ok in zip(batch.dev.tolist(), batch.fcnt.tolist(),
                                      batch.end.tolist(), batch.delivered.tolist())
        if ok and end <= 250.0
    }
    assert world_records == batch_records


def test_query_window_closed_and_sorted():
    world = SimWorld(specs(1, phase=1.0, airtime=0.5), seed=0)
    world.set_active("d0", True)
    world.advance(100.0)
    eui = "000000000000aa00"
    (ts, _), = world.query([eui], 1.5, 6.5)
    assert list(ts) == [1.5, 6.5]
    with pytest.raises(ValueError):
        world.query([eui], 5.0, 1.0)


def test_world_finds_a_device_whatever_the_case_of_its_eui():
    fleet = [DeviceSpec("up", "00000000000000AB", 7, 5.0, 0.2),
             DeviceSpec("low", "00000000000000cd", 7, 5.0, 0.2)]
    world = SimWorld(fleet, seed=3)
    for d in fleet:
        world.set_active(d.device_id, True)
    world.advance(100.0)
    lower = world.query(["00000000000000ab", "00000000000000cd"], 0.0, 100.0)
    upper = world.query(["00000000000000AB", "00000000000000CD"], 0.0, 100.0)
    assert list(map(as_lists, lower)) == list(map(as_lists, upper))
    truth = world.ground_truth(0.0, 100.0)
    assert [len(ts) for ts, _ in upper] == [truth["up"][0], truth["low"][0]]
    assert min(truth["up"][0], truth["low"][0]) > 0


def test_world_validation():
    with pytest.raises(ValueError):
        SimWorld(specs(2) + specs(1))  # duplicate ids
    world = SimWorld(specs(1))
    with pytest.raises(ValueError):
        world.advance(-1.0)
    with pytest.raises(KeyError):
        world.set_active("ghost", True)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_non_finite_advance_rejected(dt):
    world = SimWorld(specs(1))
    world.set_active("d0", True)
    with pytest.raises(ValueError):
        world.advance(dt)
    assert world.now == 0.0


def test_attempt_count_beyond_int64_is_refused():
    """A resolution whose lattice count does not fit an int64 raises, and
    asking again raises the same way instead of looping."""
    world = SimWorld(specs(2))
    world.set_active("d1", True)
    world.advance(10.0)
    world.set_active("d1", False)
    world.advance(1e300)
    world.set_active("d0", True)
    world.advance(1e300)
    for _ in range(2):
        with pytest.raises(ValueError, match="int64"):
            world.attempt_counts()


@pytest.mark.parametrize("seed", [0, 2**40 + 7, -3])
def test_random_phases_continue_each_stream_across_switch_ons(seed):
    """A device's first switch-on takes its stream's first draw, drawn for
    the whole fleet at once; each later one continues the same stream."""
    devices = specs(3) + [DeviceSpec("f", "ffffffffffffffff", 7, 5.0, 0.2, phase=1.0)]
    world, reference = SimWorld(devices, seed=seed), ReferenceWorld(devices, AnyOverlap(), seed)
    for w in (world, reference):
        for cycle in range(4):
            for d in devices[cycle % 2:]:
                w.set_active(d.device_id, True)
            w.advance(7.0 + cycle)
            for d in devices:
                w.set_active(d.device_id, False)
            w.advance(2.5)
    assert_worlds_agree(world, reference, devices)


def test_failed_expansion_leaves_the_world_as_it_was(monkeypatch):
    """A resolution that fails after counting changes nothing: asked again,
    the world matches the reference."""
    devices = specs(3)
    world, reference = SimWorld(devices, seed=2), ReferenceWorld(devices, AnyOverlap(), seed=2)
    for w in (world, reference):
        w.set_active("d0", True)
        w.set_active("d2", True)
        w.advance(12.0)
        w.set_active("d0", False)
        w.advance(3.0)
    expand = world_module.lattice_events

    def failing(*args):
        raise MemoryError

    monkeypatch.setattr(world_module, "lattice_events", failing)
    with pytest.raises(MemoryError):
        world.attempt_counts()
    monkeypatch.setattr(world_module, "lattice_events", expand)
    for w in (world, reference):
        w.set_active("d0", True)
        w.advance(20.0)
    assert_worlds_agree(world, reference, devices)


# --- incremental resolution against the re-resolve-everything reference ------

@st.composite
def world_scenarios(draw):
    n = draw(st.integers(1, 8))
    devices = []
    for i in range(n):
        period = draw(st.floats(0.5, 5.0))
        airtime = period * draw(st.floats(0.02, 0.5))
        phase = period * draw(st.floats(0.0, 0.999)) if draw(st.booleans()) else "random"
        devices.append(DeviceSpec(f"dev{draw(st.integers(0, 99))}-{i}", f"{0xfa00 + i:016x}",
                                  draw(st.sampled_from([7, 7, 8])), period, airtime, phase))
    longest = max(d.airtime for d in devices)
    advance = st.one_of(
        st.just(0.0),
        st.floats(0.0, longest),              # shorter than an airtime
        st.floats(0.0, longest),
        st.floats(0.0, 4.0 * longest),
        st.floats(0.0, 20.0),                 # up to many periods
    ).map(lambda dt: ("advance", dt))
    toggle = st.tuples(st.just("toggle"), st.integers(0, n - 1), st.booleans())
    # a device on (if it was not), then off and on again with the clock
    # moved in between: a random-phase device, when there is one, which
    # draws a new phase at each switch-on after its first
    drawn = [i for i, d in enumerate(devices) if d.phase == "random"] or range(n)
    cycle = st.tuples(st.sampled_from(drawn), advance, advance, advance).map(
        lambda c: [("toggle", c[0], True), c[1], ("toggle", c[0], False), c[2],
                   ("toggle", c[0], True), c[3]])
    initially_on = [("toggle", i, True) for i in range(n) if i == 0 or draw(st.booleans())]
    groups = draw(st.lists(st.one_of(advance.map(lambda a: [a]), toggle.map(lambda t: [t]), cycle),
                           min_size=1, max_size=40))
    return devices, initially_on + [step for group in groups for step in group]


def assert_worlds_agree(world, reference, devices):
    assert world.now == reference.now
    assert delivered(world, devices) == reference.delivered_records()
    assert world.attempt_counts() == reference.attempt_counts()
    stamps = sorted({r.received_ts for r in reference.delivered_records()})
    windows = [(0.0, reference.now), (-1.0, math.inf), (reference.now / 3, reference.now / 2)]
    if stamps:
        windows += [(stamps[0], stamps[-1]), (stamps[len(stamps) // 2], stamps[-1] + 1.0),
                    (stamps[-1], stamps[-1])]
    for lo, hi in windows:
        assert world.ground_truth(lo, hi) == reference.ground_truth(lo, hi)
        got = world.query([d.dev_eui for d in devices], lo, hi)
        assert [records_of(d.dev_eui, cols) for d, cols in zip(devices, got)] == [
            reference.query(d.dev_eui, lo, hi) for d in devices]


@given(
    scenario=world_scenarios(),
    model=st.one_of(
        st.sampled_from([AnyOverlap(), VulnerabilityWindow(0.3), VulnerabilityWindow(1.0),
                         VulnerabilityWindow(2.0)]),
        st.floats(0.05, 2.0).map(VulnerabilityWindow),
    ),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=200, deadline=None)
def test_incremental_world_matches_reference(scenario, model, seed):
    devices, steps = scenario
    world = SimWorld(devices, model, seed=seed)
    reference = ReferenceWorld(devices, model, seed=seed)
    for step in steps:
        if step[0] == "toggle":
            _, i, active = step
            world.set_active(devices[i].device_id, active)
            reference.set_active(devices[i].device_id, active)
        else:
            world.advance(step[1])
            reference.advance(step[1])
            assert world.attempt_counts() == reference.attempt_counts()
    assert_worlds_agree(world, reference, devices)


@given(
    scenario=world_scenarios(),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=12),
    window=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(sorted),
)
@settings(max_examples=100, deadline=None)
def test_world_batch_query_matches_store(scenario, seed, picks, window):
    """A batch of known and unknown EUIs, repeats included, gets from the
    world what a store holding the world's records answers per EUI."""
    devices, steps = scenario
    world = SimWorld(devices, seed=seed)
    for step in steps:
        if step[0] == "toggle":
            world.set_active(devices[step[1]].device_id, step[2])
        else:
            world.advance(step[1])
    store = PacketStore()
    ingest_records(store, delivered(world, devices))
    euis = [d.dev_eui for d in devices] + ["00000000000000ff", "unknown"]
    batch = [euis[k % len(euis)] for k in picks]
    lo, hi = window
    assert list(map(as_lists, world.query(batch, lo, hi))) == [
        as_lists(store.window(eui, lo, hi)) for eui in batch]


def test_world_query_returns_its_store_window():
    """The world answers a query with its store's ``window`` slices, known,
    unknown and repeated EUIs alike, typed columns and all."""
    fleet = specs(4, period=5.0, airtime=0.3)
    world = SimWorld(fleet, seed=8)
    for d in fleet:
        world.set_active(d.device_id, True)
        world.advance(1.3)
    world.advance(60.0)
    batch = [d.dev_eui for d in fleet] + ["00000000000000ff", fleet[1].dev_eui]
    for lo, hi in [(0.0, world.now), (12.5, 30.0), (40.0, 40.0), (math.nan, 5.0),
                   (-math.inf, math.inf)]:
        got = world.query(batch, lo, hi)
        assert got == [world._store.window(eui, lo, hi) for eui in batch]
    assert sum(len(ts) for ts, _ in world.query(batch, 0.0, world.now)) > 0


# --- the batch run, the live world and the server's log agree ---------------

@st.composite
def switched_fleets(draw):
    """Devices with random phases, each on for one stretch of the run.

    On and off times lie on a quarter-second grid, which the world's
    clock reaches exactly.  ``off`` is when the world switches a device
    off: an attempt the world starts before it ends after it, so the
    device's ``active_until`` for :func:`run` is one airtime later.
    """
    n = draw(st.integers(1, 8))
    devices, offs = [], []
    for i in range(n):
        period = draw(st.floats(0.5, 5.0))
        airtime = period * draw(st.floats(0.02, 0.5))
        on = draw(st.integers(0, 80)) / 4
        off = on + draw(st.integers(0, 80)) / 4
        devices.append(DeviceSpec(f"dev{draw(st.integers(0, 99))}-{i}", f"{0xfa00 + i:016x}",
                                  draw(st.sampled_from([7, 7, 8])), period, airtime,
                                  active_from=on, active_until=off + airtime))
        offs.append(off)
    return devices, offs, max(offs) + 4.0  # every active_until lies before the end


@given(
    fleet=switched_fleets(),
    model=st.one_of(st.sampled_from([AnyOverlap(), VulnerabilityWindow(1.0)]),
                    st.floats(0.05, 2.0).map(VulnerabilityWindow)),
    seed=st.integers(0, 2**64 - 1),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=12),
    window=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(sorted),
)
@settings(max_examples=100, deadline=None)
def test_run_world_and_packet_log_agree(fleet, model, seed, picks, window):
    """run, a SimWorld switched at the same times, and a store loaded from
    the run's packet log hold the same records (the log's to six
    decimals), for batches of known, unknown and repeated EUIs."""
    devices, offs, duration = fleet
    result = run(devices, duration, model, seed=seed)
    expected: dict[str, list[PacketRecord]] = {}
    for k in np.flatnonzero(result.delivered):
        spec = devices[result.dev[k]]
        expected.setdefault(spec.dev_eui, []).append(
            PacketRecord(spec.dev_eui, int(result.fcnt[k]), float(result.end[k])))
    for records in expected.values():
        records.sort(key=lambda r: (r.received_ts, r.fcnt))
    logged = {eui: [PacketRecord(eui, r.fcnt, float(f"{r.received_ts:.6f}"))
                    for r in records] for eui, records in expected.items()}

    world = SimWorld(devices, model, seed=seed)
    switches = sorted({(d.active_from, 0, d.device_id) for d in devices}
                      | {(off, 1, d.device_id) for d, off in zip(devices, offs)})
    for at, switch_off, device_id in switches:  # a device goes on before it goes off
        world.advance(at - world.now)
        assert world.now == at
        world.set_active(device_id, not switch_off)
    world.advance(duration - world.now)

    store = PacketStore()
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "packets.log"
        write_packet_log(result, log)
        store.ingest_file(log)

    euis = [d.dev_eui for d in devices] + ["00000000000000ff", "unknown"]
    batch = [euis[k % len(euis)] for k in picks]
    windows = [(-math.inf, math.inf), tuple(window)]
    if result.end.size:  # closed bounds that sit on attempts' end times
        ends = np.sort(result.end).tolist()
        windows += [(ends[0], ends[-1]), (ends[len(ends) // 2], ends[len(ends) // 2])]
    for lo, hi in windows:
        def inside(records):
            return [r for r in records if lo <= r.received_ts <= hi]

        assert [records_of(eui, got) for eui, got in zip(batch, world.query(batch, lo, hi))] == [
            inside(expected.get(eui, [])) for eui in batch]
        assert [store.query(eui, lo, hi) for eui in batch] == [
            inside(logged.get(eui, [])) for eui in batch]
        tried = np.bincount(result.dev[(result.end >= lo) & (result.end <= hi)],
                            minlength=len(devices))
        assert world.ground_truth(lo, hi) == {
            d.device_id: (len(inside(expected.get(d.dev_eui, []))), int(tried[i]))
            for i, d in enumerate(devices)}


@pytest.mark.parametrize("model, early, late, cut, survivors", [
    # a long packet ends before the cut while a short one it overlaps is on the air
    (AnyOverlap(), (1.0, 0.0), (0.1, 0.95), 1.02, []),
    # a finished short packet starts inside a long packet's wide window
    (VulnerabilityWindow(2.0), (0.1, 0.5), (1.0, 1.0), 1.5, ["early"]),
])
def test_finished_event_still_hits_one_on_the_air(model, early, late, cut, survivors):
    # (airtime, phase) per device; at the cut, early is final and late is not
    pair = [DeviceSpec("early", "00000000000000e1", 7, 10.0, *early),
            DeviceSpec("late", "00000000000000e2", 7, 10.0, *late)]
    worlds = SimWorld(pair, model), ReferenceWorld(pair, model)
    for world in worlds:
        world.set_active("early", True)
        world.set_active("late", True)
        world.advance(cut)
        world.advance(5.0)
    eui = {d.dev_eui: d.device_id for d in pair}
    assert [eui[r.dev_eui] for r in delivered(worlds[0], pair)] == survivors
    assert delivered(worlds[0], pair) == worlds[1].delivered_records()


def test_advance_resolves_each_event_a_bounded_number_of_times(monkeypatch):
    resolved = []
    mark = kernels.mark_any_overlap

    def counting(starts, ends):
        resolved.append(len(starts))
        return mark(starts, ends)

    monkeypatch.setattr(kernels, "mark_any_overlap", counting)
    fleet = [DeviceSpec(f"dev{i:02d}", f"{0xbb00 + i:016x}", 7,
                        7.0 * (1.0 + 0.06 * (i / 40 - 0.5)), 0.11729)
             for i in range(41)]
    world = SimWorld(fleet, seed=3)
    for d in fleet:
        world.set_active(d.device_id, True)
    for _ in range(400):
        world.advance(7.0)
    finalized = sum(world.attempt_counts().values())
    assert finalized > 41 * 390
    assert sum(resolved) < 3 * finalized


def test_ground_truth_builds_no_records(monkeypatch):
    """Ground truth counts each device's deliveries in the store's columns,
    and a query returns slices of them; neither builds a record."""
    built = []
    record = netserver.PacketRecord

    def counting(*args):
        built.append(args)
        return record(*args)

    monkeypatch.setattr(netserver, "PacketRecord", counting)
    fleet = specs(12, period=5.0, airtime=0.3)
    world = SimWorld(fleet, seed=4)
    for d in fleet:
        world.set_active(d.device_id, True)
        world.advance(0.4)
    world.advance(200.0)
    truth = world.ground_truth(10.0, 150.0)
    assert built == []
    got = world.query([d.dev_eui for d in fleet], 10.0, 150.0)
    assert [len(ts) for ts, _ in got] == [truth[d.device_id][0] for d in fleet]
    assert built == [] and sum(len(ts) for ts, _ in got) > 0


def test_advance_and_set_active_do_no_work_until_asked(monkeypatch):
    """Moving the clock and switching devices call neither the lattice
    count, the collision kernels nor the store; the first query makes
    one resolution, and asking again at the same time makes none."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for module, name in [(kernels, "mark_any_overlap"), (kernels, "mark_window"),
                         (world_module, "attempts"), (PacketStore, "ingest_columns")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    fleet = [DeviceSpec(f"dev{i:02d}", f"{0xbb00 + i:016x}", 7 + i % 2,
                        7.0 * (1.0 + 0.06 * (i / 40 - 0.5)), 0.11729) for i in range(41)]
    for model, kernel in [(AnyOverlap(), "mark_any_overlap"),
                          (VulnerabilityWindow(1.0), "mark_window")]:
        world = SimWorld(fleet, model, seed=5)
        for step in range(300):
            world.set_active(fleet[step * 7 % 41].device_id, step % 5 != 4)
            world.advance(1.0)
        assert calls == []
        eui = fleet[0].dev_eui
        assert len(world.query([eui], 0.0, world.now)[0][0]) > 0
        assert sorted(calls) == sorted(["attempts", kernel, kernel, "ingest_columns"])  # one per SF
        calls.clear()
        world.query([eui], 0.0, world.now)
        world.attempt_counts()
        world.ground_truth(0.0, world.now)
        assert calls == []
        world.advance(20.0)
        world.set_active(fleet[0].device_id, False)
        assert calls == []
        world.attempt_counts()
        assert "attempts" in calls and "ingest_columns" in calls
        calls.clear()


@given(
    scenario=world_scenarios(),
    model=st.sampled_from([AnyOverlap(), VulnerabilityWindow(0.3), VulnerabilityWindow(2.0)]),
    seed=st.integers(0, 2**64 - 1),
    asks=st.lists(st.booleans(), min_size=80, max_size=80),
)
@settings(max_examples=150, deadline=None)
def test_world_asked_now_and_then_matches_reference(scenario, model, seed, asks):
    """A world asked only after some steps, so that one resolution covers
    many advances and switches, matches the reference that resolves on
    every advance."""
    devices, steps = scenario
    world = SimWorld(devices, model, seed=seed)
    reference = ReferenceWorld(devices, model, seed=seed)
    for step, ask in zip(steps, asks + [False] * len(steps)):
        if step[0] == "toggle":
            _, i, active = step
            world.set_active(devices[i].device_id, active)
            reference.set_active(devices[i].device_id, active)
        else:
            world.advance(step[1])
            reference.advance(step[1])
        if ask:
            assert delivered(world, devices) == reference.delivered_records()
    assert_worlds_agree(world, reference, devices)


def as_bytes(batches):
    """Each EUI's columns of a store feed as typecodes and bytes."""
    return {eui: [(c.typecode, c.tobytes()) for c in columns] for eui, columns in batches.items()}


@given(
    scenario=world_scenarios(),
    model=st.sampled_from([AnyOverlap(), VulnerabilityWindow(1.0)]),
    seed=st.integers(0, 2**64 - 1),
    asks=st.lists(st.booleans(), min_size=80, max_size=80),
)
@settings(max_examples=150, deadline=None)
def test_world_feeds_its_store_the_columns_of_the_row_path(scenario, model, seed, asks):
    """Each resolution hands the store, device by device, the columns that
    its delivered events make as rows in timeline order through
    ``ingest_rows``, and the world's store ends up holding what a store fed
    those rows holds."""
    devices, steps = scenario
    world = SimWorld(devices, model, seed=seed)
    euis = np.array([d.dev_eui for d in devices], dtype=object)
    oracle = PacketStore()
    fed, want = [], []
    edge_step, ingest = world._edge.step, world._store.ingest_columns

    def stepped(events, now):
        _, end, _, dev, fcnt, delivered = got = edge_step(events, now)
        if dev.size:
            row_feed(oracle, euis[dev], end, fcnt, delivered)
        return got

    world._edge.step = stepped
    # each batch as it is handed over: the store may later extend its arrays
    world._store.ingest_columns = lambda batches: fed.append(as_bytes(batches)) or ingest(batches)
    oracle.ingest_columns = lambda batches: (want.append(as_bytes(batches))
                                             or PacketStore.ingest_columns(oracle, batches))
    for step, ask in zip(steps, asks + [False] * len(steps)):
        if step[0] == "toggle":
            world.set_active(devices[step[1]].device_id, step[2])
        else:
            world.advance(step[1])
        if ask:
            world.query(list(euis), -math.inf, math.inf)
    got = world.query(list(euis), -math.inf, math.inf)
    assert fed == want
    assert [list(map(bytes, columns)) for columns in got] == [
        list(map(bytes, oracle.window(eui, -math.inf, math.inf))) for eui in euis]
