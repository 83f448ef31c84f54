import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorascale import kernels, simulator
from lorascale.scaling import TrafficProfile, success_exact_periodic
from lorascale.simulator import (
    AnyOverlap,
    DeviceSpec,
    SfGroup,
    VulnerabilityWindow,
    draw_phase,
    estimate_pdr,
    export_packet_log,
    run,
    write_packet_log,
)
from mc_oracle import reference_estimate_pdr


def fleet(n, period=7.0, airtime=0.11729, sf=7, **kwargs):
    return [
        DeviceSpec(f"dev{i:03d}", f"{i + 1:016x}", sf, period, airtime, **kwargs)
        for i in range(n)
    ]


def test_single_device_delivers_everything():
    result = run(fleet(1), duration=700.0, seed=3)
    assert result.network_pdr == 1.0
    assert result.sent_counts()["dev000"] == result.delivered_counts()["dev000"] == 100


def test_constructed_overlap_and_clearance():
    t = 0.5
    period = 10.0
    colliding = [
        DeviceSpec("a", "00000000000000aa", 7, period, t, phase=0.0),
        DeviceSpec("b", "00000000000000bb", 7, period, t, phase=0.5 * t),
    ]
    result = run(colliding, duration=100.0, seed=0)
    assert result.network_pdr == 0.0

    clear = [
        DeviceSpec("a", "00000000000000aa", 7, period, t, phase=0.0),
        DeviceSpec("b", "00000000000000bb", 7, period, t, phase=2 * t),
    ]
    result = run(clear, duration=100.0, seed=0)
    assert result.network_pdr == 1.0


def test_frame_counters_count_attempts_consecutively():
    result = run(fleet(3), duration=70.0, seed=5)
    per_device = {}
    for ev in result.events():
        per_device.setdefault(ev.device_id, []).append(ev.fcnt)
    for fcnts in per_device.values():
        assert fcnts == list(range(len(fcnts)))


def test_attempt_count_matches_active_window():
    specs = fleet(1, period=5.0, airtime=0.25)
    result = run(specs, duration=103.0, seed=9)
    expected = math.floor(103.0 / 5.0)
    assert abs(result.sent_counts()["dev000"] - expected) <= 1


def test_conservation_and_event_log_length():
    result = run(fleet(10), duration=700.0, seed=11)
    sent = result.sent_counts()
    delivered = result.delivered_counts()
    events = list(result.events())
    assert sum(sent.values()) == len(events)
    lost = sum(1 for e in events if not e.delivered)
    assert sum(delivered.values()) + lost == len(events)
    for device_id in sent:
        assert delivered[device_id] <= sent[device_id]


def test_seed_determinism_byte_identical_logs(tmp_path):
    a, b, c = tmp_path / "a.log", tmp_path / "b.log", tmp_path / "c.log"
    write_packet_log(run(fleet(8), 700.0, seed=42), a)
    write_packet_log(run(fleet(8), 700.0, seed=42), b)
    write_packet_log(run(fleet(8), 700.0, seed=43), c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_sf_orthogonality_groups_do_not_interact():
    sf7 = fleet(6, sf=7)
    sf8 = [
        DeviceSpec(f"oth{i}", f"{0xbb00 + i:016x}", 8, 7.0, 0.23, phase="random")
        for i in range(6)
    ]
    joint = run(sf7 + sf8, duration=700.0, seed=17)
    alone7 = run(sf7, duration=700.0, seed=17)
    alone8 = run(sf8, duration=700.0, seed=17)
    combined = {**alone7.delivered_counts(), **alone8.delivered_counts()}
    assert joint.delivered_counts() == combined
    assert joint.sent_counts() == {**alone7.sent_counts(), **alone8.sent_counts()}


def test_events_sorted_by_start_then_id():
    result = run(fleet(5), duration=70.0, seed=2)
    keys = [(e.start, e.device_id) for e in result.events()]
    assert keys == sorted(keys)


def test_export_only_delivered_ordered_by_receive_time():
    result = run(fleet(6), duration=350.0, seed=23)
    records = list(export_packet_log(result))
    assert len(records) == sum(result.delivered_counts().values())
    ts = [r.received_ts for r in records]
    assert ts == sorted(ts)
    ends_by_dev = {
        (result.devices[result.dev[i]].dev_eui, int(result.fcnt[i])): float(result.end[i])
        for i in range(result.dev.size)
    }
    for r in records:
        assert r.received_ts == ends_by_dev[(r.dev_eui, r.fcnt)]


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DeviceSpec("x", "zz00000000000000", 7, 7.0, 0.1)  # bad EUI
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 6, 7.0, 0.1)  # bad SF
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 7, 7.0, 7.0)  # airtime >= period
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 7, 7.0, 0.1, phase=7.0)
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 7, 7.0, 0.1, active_from=5.0, active_until=1.0)
    for period, airtime in [(math.nan, 0.1), (math.inf, 0.1), (7.0, math.nan), (7.0, math.inf),
                            (7.0, -math.inf)]:
        with pytest.raises(ValueError, match="finite and positive"):
            DeviceSpec("x", "00000000000000aa", 7, period, airtime)
    for airtime in [0.0, math.nan, math.inf]:
        with pytest.raises(ValueError, match="finite and positive"):
            SfGroup(7, 41, airtime)
    with pytest.raises(ValueError):
        VulnerabilityWindow(0.0)
    with pytest.raises(ValueError):
        VulnerabilityWindow(2.5)


def test_run_validation_errors():
    with pytest.raises(ValueError):
        run([], 100.0)
    twins = [
        DeviceSpec("a", "00000000000000aa", 7, 7.0, 0.1),
        DeviceSpec("b", "00000000000000AA", 7, 7.0, 0.1),
    ]
    with pytest.raises(ValueError):
        run(twins, 100.0)
    with pytest.raises(ValueError):
        run(fleet(2), 0.0)


@pytest.mark.parametrize("n", [2, 5, 41])
def test_estimator_matches_exact_law_any_overlap(n):
    period, airtime = 7.0, 0.11729
    est = estimate_pdr([SfGroup(7, n, airtime)], period, rounds=4000, seed=100 + n)
    expected = success_exact_periodic(TrafficProfile(n, period, airtime))
    assert abs(est.pdr - expected) <= 3 * est.stderr


@pytest.mark.parametrize("n", [2, 5, 41])
def test_estimator_matches_exact_law_window_one(n):
    period, airtime = 7.0, 0.11729
    est = estimate_pdr(
        [SfGroup(7, n, airtime)], period, rounds=4000,
        model=VulnerabilityWindow(1.0), seed=200 + n,
    )
    expected = success_exact_periodic(TrafficProfile(n, period, airtime), window_factor=1.0)
    assert abs(est.pdr - expected) <= 3 * est.stderr


def test_estimator_deterministic_and_counts():
    groups = [SfGroup(7, 10, 0.05), SfGroup(8, 4, 0.1)]
    a = estimate_pdr(groups, 5.0, rounds=500, seed=7)
    b = estimate_pdr(groups, 5.0, rounds=500, seed=7)
    assert (a.delivered, a.sent) == (b.delivered, b.sent)
    assert a.sent == 500 * 14


def test_estimator_validation():
    with pytest.raises(ValueError):
        estimate_pdr([], 5.0, 100)
    with pytest.raises(ValueError):
        estimate_pdr([SfGroup(7, 0, 0.1)], 5.0, 100)
    with pytest.raises(ValueError):
        estimate_pdr([SfGroup(7, 2, 0.1), SfGroup(7, 3, 0.2)], 5.0, 100)
    with pytest.raises(ValueError):
        estimate_pdr([SfGroup(7, 2, 6.0)], 5.0, 100)


# --- vectorized timeline build against a per-device reference -------------------

def reference_run_arrays(devices, duration, model, seed):
    """The timeline built one device at a time, one array per attempt list."""
    starts_, devs, fcnts, sfs, airs = [], [], [], [], []
    for i, spec in enumerate(devices):
        horizon = min(spec.active_until, duration)
        first = spec.active_from + draw_phase(spec, seed)
        last_allowed = horizon - spec.airtime
        n = 0 if first > last_allowed else int(math.floor((last_allowed - first) / spec.period)) + 1
        starts = first + spec.period * np.arange(n, dtype=np.float64)
        starts_.append(starts)
        devs.append(np.full(n, i, dtype=np.int64))
        fcnts.append(np.arange(n, dtype=np.int64))
        sfs.append(np.full(n, spec.sf, dtype=np.int16))
        airs.append(np.full(n, spec.airtime, dtype=np.float64))
    start, dev, fcnt = np.concatenate(starts_), np.concatenate(devs), np.concatenate(fcnts)
    sf, end = np.concatenate(sfs), start + np.concatenate(airs)
    id_rank = np.argsort(np.argsort(np.array([d.device_id for d in devices])))
    order = np.lexsort((id_rank[dev], start))
    start, end, sf, dev, fcnt = start[order], end[order], sf[order], dev[order], fcnt[order]
    lost = np.zeros(start.size, dtype=bool)
    for value in np.unique(sf):
        mask = sf == value
        if isinstance(model, AnyOverlap):
            lost[mask] = kernels.mark_any_overlap(start[mask], end[mask])
        else:
            lost[mask] = kernels.mark_window(start[mask], end[mask], model.factor)
    return {"start": start, "end": end, "sf": sf, "dev": dev, "fcnt": fcnt, "delivered": ~lost}


def assert_run_matches_reference(devices, duration, model, seed):
    result = run(devices, duration, model=model, seed=seed)
    for name, expected in reference_run_arrays(devices, duration, model, seed).items():
        got = getattr(result, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def test_run_matches_reference_with_windows_and_silent_devices():
    devices = [
        DeviceSpec("z-late", "00000000000000a1", 7, 5.0, 0.3, active_from=40.0),
        DeviceSpec("a-fixed", "00000000000000a2", 7, 5.0, 0.3, phase=1.25),
        DeviceSpec("m-window", "00000000000000a3", 8, 6.5, 0.4,
                   active_from=3.0, active_until=31.0),
        DeviceSpec("never", "00000000000000a4", 9, 7.0, 0.5, active_from=500.0),
        DeviceSpec("too-short", "00000000000000a5", 7, 5.0, 0.3,
                   phase=0.0, active_from=10.0, active_until=10.2),
        DeviceSpec("b-random", "00000000000000a6", 8, 6.5, 0.4),
    ]
    result = run(devices, 100.0, seed=4)
    sent = result.sent_counts()
    assert sent["never"] == sent["too-short"] == 0 and sent["a-fixed"] > 0
    for model in (AnyOverlap(), VulnerabilityWindow(1.0)):
        assert_run_matches_reference(devices, 100.0, model, seed=4)


@st.composite
def device_sets(draw):
    n = draw(st.integers(1, 12))
    devices = []
    for i in range(n):
        period = draw(st.floats(1.0, 20.0))
        airtime = period * draw(st.floats(0.001, 0.5))
        if draw(st.booleans()):
            phase = period * draw(st.floats(0.0, 0.999))
        else:
            phase = "random"
        active_from = draw(st.sampled_from([0.0, draw(st.floats(0.0, 300.0))]))
        if draw(st.booleans()):
            active_until = active_from + draw(st.floats(0.01, 200.0))
        else:
            active_until = math.inf
        devices.append(DeviceSpec(
            f"dev{draw(st.integers(0, 10**6))}-{i}", f"{0xee00 + i:016x}",
            draw(st.sampled_from([7, 8, 12])), period, airtime, phase, active_from, active_until,
        ))
    return devices


@given(
    devices=device_sets(),
    duration=st.floats(0.5, 400.0),
    model=st.sampled_from([AnyOverlap(), VulnerabilityWindow(1.0), VulnerabilityWindow(1.7)]),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=150, deadline=None)
def test_run_matches_per_device_reference(devices, duration, model, seed):
    assert_run_matches_reference(devices, duration, model, seed)


# --- chunked Monte-Carlo estimator against the whole-timeline reference ----------

CHUNK = simulator._CHUNK_EVENTS
MODELS = [AnyOverlap(), VulnerabilityWindow(0.3), VulnerabilityWindow(1.0),
          VulnerabilityWindow(2.0)]


def assert_estimate_matches_reference(groups, period, rounds, model, seed):
    est = estimate_pdr(groups, period, rounds, model=model, seed=seed)
    assert (est.delivered, est.sent) == reference_estimate_pdr(groups, period, rounds,
                                                               model, seed)


@pytest.mark.parametrize("count, rounds", [
    (1, CHUNK - 1), (1, CHUNK), (1, CHUNK + 1),  # one chunk boundary, one device
    (41, 2 * (CHUNK // 41) - 1), (41, 2 * (CHUNK // 41)), (41, 2 * (CHUNK // 41) + 1),
    (CHUNK + 3, 1), (CHUNK + 3, 2),  # rounds larger than a chunk: one per chunk
])
def test_estimator_matches_reference_at_chunk_boundaries(count, rounds):
    groups = [SfGroup(7, count, 0.11729)]
    for seed, model in enumerate(MODELS):
        assert_estimate_matches_reference(groups, 7.0, rounds, model, seed)


def test_estimator_matches_reference_when_every_phase_is_ghosted():
    # airtime 0.95 x period: every phase lies within 2 x airtime of the boundary
    groups = [SfGroup(7, 30, 9.5), SfGroup(9, 3, 0.2)]
    for seed, model in enumerate(MODELS):
        assert_estimate_matches_reference(groups, 10.0, 2500, model, seed)


@st.composite
def estimator_cases(draw):
    """Groups, period and rounds, rounds often at a chunk boundary of one
    group; at most about 300k events in all."""
    max_events = 300_000
    period = draw(st.floats(0.5, 20.0))
    sfs = draw(st.lists(st.sampled_from([7, 8, 9, 12]), min_size=1, max_size=3, unique=True))
    count = draw(st.one_of(st.just(1), st.integers(2, 3000),
                           st.integers(CHUNK + 1, CHUNK + 50)))
    if draw(st.booleans()):
        per_chunk = max(1, CHUNK // count)
        rounds = max(1, draw(st.integers(1, 2)) * per_chunk + draw(st.sampled_from([-1, 0, 1])))
    else:
        rounds = draw(st.integers(1, max(1, max_events // count)))
    counts = [count] + [draw(st.integers(1, max(1, max_events // rounds // 4)))
                        for _ in sfs[1:]]
    groups = [SfGroup(sf, c, period * draw(st.floats(0.001, 0.95)))
              for sf, c in zip(sfs, counts)]
    return groups, period, rounds


@given(
    case=estimator_cases(),
    model=st.one_of(st.sampled_from(MODELS),
                    st.floats(0.01, 2.0).map(VulnerabilityWindow)),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_estimator_matches_whole_timeline_reference(case, model, seed):
    groups, period, rounds = case
    assert_estimate_matches_reference(groups, period, rounds, model, seed)


def test_estimator_rejects_non_finite_period():
    for period in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            estimate_pdr([SfGroup(7, 41, 0.11729)], period, 10)


def traced_peak(rounds: int) -> int:
    tracemalloc.start()
    try:
        estimate_pdr([SfGroup(7, 41, 0.11729)], 7.0, rounds, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimator_memory_does_not_grow_with_rounds():
    small, large = traced_peak(20_000), traced_peak(200_000)
    assert large < 32 * 2**20
    assert large <= 2 * small
