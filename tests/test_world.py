import math

import pytest
from hypothesis import given, settings, strategies as st

from lorascale import kernels
from lorascale.netserver import PacketStore
from lorascale.simulator import AnyOverlap, DeviceSpec, VulnerabilityWindow, run
from lorascale.world import SimWorld
from world_oracle import ReferenceWorld


def specs(n, period=5.0, airtime=0.2, **kwargs):
    return [
        DeviceSpec(f"d{i}", f"{0xaa00 + i:016x}", 7, period, airtime, **kwargs)
        for i in range(n)
    ]


def test_inactive_devices_stay_silent():
    world = SimWorld(specs(3), seed=1)
    world.advance(100.0)
    assert world.delivered_records() == []
    assert world.attempt_counts() == {"d0": 0, "d1": 0, "d2": 0}


def test_activation_produces_periodic_attempts():
    world = SimWorld(specs(1, period=5.0, airtime=0.2), seed=1)
    world.set_active("d0", True)
    world.advance(50.4)
    counts = world.attempt_counts()
    assert counts["d0"] in (9, 10)
    records = world.delivered_records()
    assert [r.fcnt for r in records] == list(range(counts["d0"]))


def test_deactivation_stops_future_attempts_and_fcnt_continues():
    world = SimWorld(specs(1, phase=1.0), seed=0)
    world.set_active("d0", True)
    world.advance(11.0)  # attempts at 1.0 and 6.0
    world.set_active("d0", False)
    world.advance(20.0)
    n_before = world.attempt_counts()["d0"]
    assert n_before == 2
    world.set_active("d0", True)
    world.advance(20.0)
    records = world.delivered_records()
    fcnts = [r.fcnt for r in records]
    assert fcnts == sorted(fcnts)
    assert fcnts == list(range(len(fcnts)))  # counters never reset
    assert world.attempt_counts()["d0"] > n_before


def test_pending_transmission_finalizes_only_after_it_ends():
    world = SimWorld(specs(1, phase=0.5, airtime=0.4), seed=0)
    world.set_active("d0", True)
    world.advance(0.6)  # attempt started at 0.5, still on the air
    assert world.delivered_records() == []
    world.advance(0.4)
    assert len(world.delivered_records()) == 1


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
    assert world.delivered_records() == []  # both packets of each period collide


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
        for r in world.delivered_records() if r.received_ts <= 250.0
    }
    batch_records = set()
    for ev in batch.events():
        if ev.delivered and ev.end <= 250.0:
            eui = next(d.dev_eui for d in fleet if d.device_id == ev.device_id)
            batch_records.add((eui, ev.fcnt, ev.end))
    assert world_records == batch_records


def test_query_window_closed_and_sorted():
    world = SimWorld(specs(1, phase=1.0, airtime=0.5), seed=0)
    world.set_active("d0", True)
    world.advance(100.0)
    eui = "000000000000aa00"
    records, = world.query([eui], 1.5, 6.5)
    assert [r.received_ts for r in records] == [1.5, 6.5]
    with pytest.raises(ValueError):
        world.query([eui], 5.0, 1.0)


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
    initially_on = [("toggle", i, True) for i in range(n) if i == 0 or draw(st.booleans())]
    steps = draw(st.lists(st.one_of(advance, advance, advance, toggle), min_size=1, max_size=80))
    return devices, initially_on + steps


def assert_worlds_agree(world, reference, devices):
    assert world.now == reference.now
    assert world.delivered_records() == reference.delivered_records()
    assert world.attempt_counts() == reference.attempt_counts()
    stamps = sorted({r.received_ts for r in reference.delivered_records()})
    windows = [(0.0, reference.now), (-1.0, math.inf), (reference.now / 3, reference.now / 2)]
    if stamps:
        windows += [(stamps[0], stamps[-1]), (stamps[len(stamps) // 2], stamps[-1] + 1.0),
                    (stamps[-1], stamps[-1])]
    for lo, hi in windows:
        assert world.ground_truth(lo, hi) == reference.ground_truth(lo, hi)
        assert world.query([d.dev_eui for d in devices], lo, hi) == [
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
    store.ingest(world.delivered_records())
    euis = [d.dev_eui for d in devices] + ["00000000000000ff", "unknown"]
    batch = [euis[k % len(euis)] for k in picks]
    lo, hi = window
    assert world.query(batch, lo, hi) == [store.query(eui, lo, hi) for eui in batch]


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
    assert [eui[r.dev_eui] for r in worlds[0].delivered_records()] == survivors
    assert worlds[0].delivered_records() == worlds[1].delivered_records()


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
