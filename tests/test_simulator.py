import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorascale import cli, kernels, scaling, simulator
from lorascale.controller import DeviceMatrix, OrchestrationError, RosterEntry
from lorascale.scaling import TrafficProfile, success_exact_periodic
from lorascale.simulator import (
    AnyOverlap,
    DeviceSpec,
    SfGroup,
    VulnerabilityWindow,
    attempts,
    estimate_pdr,
    run,
    write_packet_log,
)
from mc_oracle import reference_estimate_pdr, reference_loss_rounds
from record_oracle import export_packet_log, reference_write_packet_log


def fleet(n, period=7.0, airtime=0.11729, sf=7, **kwargs):
    return [
        DeviceSpec(f"dev{i:03d}", f"{i + 1:016x}", sf, period, airtime, **kwargs)
        for i in range(n)
    ]


def network_pdr(result):
    """The share of a run's transmissions that were delivered."""
    return float(np.count_nonzero(result.delivered)) / result.dev.size


def counts(result, picked=slice(None)):
    """Events per device id, of those ``picked`` selects."""
    per_device = np.bincount(result.dev[picked], minlength=len(result.devices))
    return {d.device_id: int(n) for d, n in zip(result.devices, per_device)}


def test_single_device_delivers_everything():
    result = run(fleet(1), duration=700.0, seed=3)
    assert network_pdr(result) == 1.0
    assert counts(result)["dev000"] == counts(result, result.delivered)["dev000"] == 100


def test_constructed_overlap_and_clearance():
    t = 0.5
    period = 10.0
    colliding = [
        DeviceSpec("a", "00000000000000aa", 7, period, t, phase=0.0),
        DeviceSpec("b", "00000000000000bb", 7, period, t, phase=0.5 * t),
    ]
    result = run(colliding, duration=100.0, seed=0)
    assert network_pdr(result) == 0.0

    clear = [
        DeviceSpec("a", "00000000000000aa", 7, period, t, phase=0.0),
        DeviceSpec("b", "00000000000000bb", 7, period, t, phase=2 * t),
    ]
    result = run(clear, duration=100.0, seed=0)
    assert network_pdr(result) == 1.0


def test_frame_counters_count_attempts_consecutively():
    result = run(fleet(3), duration=70.0, seed=5)
    for i in range(len(result.devices)):
        fcnts = result.fcnt[result.dev == i].tolist()
        assert fcnts == list(range(len(fcnts)))


def test_attempt_count_matches_active_window():
    specs = fleet(1, period=5.0, airtime=0.25)
    result = run(specs, duration=103.0, seed=9)
    expected = math.floor(103.0 / 5.0)
    assert abs(counts(result)["dev000"] - expected) <= 1


def test_conservation_and_event_log_length():
    result = run(fleet(10), duration=700.0, seed=11)
    sent = counts(result)
    delivered = counts(result, result.delivered)
    events = result.dev.size
    assert {col.size for col in (result.start, result.end, result.sf, result.fcnt,
                                 result.delivered)} == {events}
    assert sum(sent.values()) == events
    lost = np.count_nonzero(~result.delivered)
    assert sum(delivered.values()) + lost == events
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
    combined = {**counts(alone7, alone7.delivered), **counts(alone8, alone8.delivered)}
    assert counts(joint, joint.delivered) == combined
    assert counts(joint) == {**counts(alone7), **counts(alone8)}


def test_events_sorted_by_start_then_id():
    result = run(fleet(5), duration=70.0, seed=2)
    keys = [(start, result.devices[i].device_id)
            for start, i in zip(result.start.tolist(), result.dev.tolist())]
    assert keys == sorted(keys)


def test_export_only_delivered_ordered_by_receive_time():
    result = run(fleet(6), duration=350.0, seed=23)
    records = list(export_packet_log(result))
    assert len(records) == np.count_nonzero(result.delivered)
    ts = [r.received_ts for r in records]
    assert ts == sorted(ts)
    ends_by_dev = {
        (result.devices[result.dev[i]].dev_eui, int(result.fcnt[i])): float(result.end[i])
        for i in range(result.dev.size)
    }
    for r in records:
        assert r.received_ts == ends_by_dev[(r.dev_eui, r.fcnt)]


def assert_log_matches_reference(result, directory) -> int:
    fast, ref = directory / "fast.log", directory / "ref.log"
    n = write_packet_log(result, fast)
    assert n == reference_write_packet_log(result, ref)
    assert fast.read_bytes() == ref.read_bytes()
    return n


# multiples of half a microsecond put receive times where six decimals round
HALF_US = 5e-7


@st.composite
def log_runs(draw):
    n = draw(st.integers(1, 6))
    euis = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n, unique=True))
    specs = []
    for i, eui in enumerate(euis):
        period = draw(st.sampled_from([0.05, 0.3, 1.0, 2.5, 7.0]))
        airtime = draw(st.integers(1, int(0.9 * period / HALF_US))) * HALF_US
        phase = draw(st.one_of(st.just("random"), st.integers(0, int(period / HALF_US) - 1)
                               .map(lambda k: k * HALF_US)))
        eui_s = f"{eui:016x}"
        specs.append(DeviceSpec(f"d{i}", eui_s.upper() if draw(st.booleans()) else eui_s,
                                draw(st.integers(7, 12)), period, airtime, phase=phase))
    duration = draw(st.floats(0.01, 30.0))
    model = draw(st.sampled_from([AnyOverlap(), VulnerabilityWindow(1.0)]))
    return run(specs, duration, model=model, seed=draw(st.integers(0, 2**32)))


@given(result=log_runs(), chunk=st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_packet_log_bytes_match_reference(tmp_path_factory, result, chunk):
    with mock.patch.object(simulator, "_LOG_CHUNK", chunk):
        assert_log_matches_reference(result, tmp_path_factory.getbasetemp())


@pytest.mark.parametrize("records", [0, 1, simulator._LOG_CHUNK - 1, simulator._LOG_CHUNK,
                                     simulator._LOG_CHUNK + 1])
def test_packet_log_bytes_match_reference_at_chunk_edges(tmp_path, records):
    # two non-interfering SFs that deliver every attempt, about half each;
    # a device active until k - 0.5 sends k times, one active until 0.1 none
    specs = [
        DeviceSpec(f"d{i}", f"{0xa0 + i:016X}", 7 + i, 1.0, 0.25, phase=(2 * i + 1) * HALF_US,
                   active_until=k - 0.5 if k else 0.1)
        for i, k in enumerate(((records + 1) // 2, records // 2))
    ]
    result = run(specs, records + 2.0, seed=0)
    assert assert_log_matches_reference(result, tmp_path) == records


# EUIs whose string order (upper case before lower, shorter hex values
# first) is not the devices' order
ORDER_EUIS = ["00000000000000ff", "00000000000000AB", "00000000000000aa", "0000000000000100"]


def hand_made(rows, airtimes=(0.5, 3.0, 0.5, 1.25)) -> simulator.SimResult:
    """A result of ``(dev, start, fcnt, delivered)`` rows, in the order
    given, on four devices on SF 7 to 10 with the EUIs above; an event
    ends one airtime of its device after its start."""
    devices = [DeviceSpec(f"d{i}", eui, 7 + i, 10.0, airtime)
               for i, (eui, airtime) in enumerate(zip(ORDER_EUIS, airtimes))]
    dev, start, fcnt, delivered = (np.array(column) for column in zip(*rows))
    end = start + np.array(airtimes)[dev]
    return simulator.SimResult(devices, start, end, (7 + dev).astype(np.int16), dev, fcnt,
                               delivered)


@pytest.mark.parametrize("rows", [
    # equal ends across all four devices, given in reverse EUI order
    [(0, 4.5, 0, True), (1, 2.0, 1, True), (2, 4.5, 2, True), (3, 3.75, 3, True)],
    # equal ends on one device, told apart by the counter alone
    [(1, 2.0, 9, True), (1, 2.0, 4, True), (0, 4.5, 7, True), (1, 2.0, 5, False)],
    # mixed airtimes: the ends are out of start order, lost events between
    [(1, 0.1, 0, True), (0, 0.2, 0, True), (2, 0.3, 0, False), (3, 0.4, 0, True),
     (0, 1.0, 1, True), (1, 1.1, 1, False), (2, 2.9, 1, True), (0, 3.35, 2, True)],
    # ends one float apart, which print alike and sort by the float
    [(0, 1.0 + 2e-16, 3, True), (2, 1.0, 1, True), (0, 1.0, 2, True), (3, 0.25, 0, True)],
    # nothing delivered
    [(0, 1.0, 0, False), (1, 1.0, 0, False)],
])
@pytest.mark.parametrize("chunk", [1, 2, 3, simulator._LOG_CHUNK])
def test_packet_log_order_matches_reference_on_hand_made_results(tmp_path, rows, chunk):
    result = hand_made(rows)
    with mock.patch.object(simulator, "_LOG_CHUNK", chunk):
        n = assert_log_matches_reference(result, tmp_path)
    assert n == sum(delivered for *_, delivered in rows)


def test_packet_log_of_a_many_block_timeline_matches_reference(tmp_path):
    """A timeline streamed in many blocks: equal ends across devices on
    four SFs, mixed airtimes on SF 7 and EUIs out of device order."""
    specs = [DeviceSpec(f"d{i}", eui, 7 + i, 1.0, 0.25, phase=0.5)
             for i, eui in enumerate(ORDER_EUIS)]
    specs += [DeviceSpec(f"m{i}", f"{0xfff0 - i:016X}", 7, period, airtime)
              for i, (period, airtime) in enumerate([(3.0, 0.05), (2.0, 0.4), (5.0, 0.9)])]
    with mock.patch.object(simulator, "_CHUNK_EVENTS", 7), \
            mock.patch.object(simulator, "_LOG_CHUNK", 5):
        timeline = simulator.Timeline(specs, 200.0, seed=4)
        assert sum(1 for _ in timeline) > 50
        fast, ref = tmp_path / "fast.log", tmp_path / "ref.log"
        n = write_packet_log(timeline, fast)
        assert n == reference_write_packet_log(timeline, ref)
    assert n > 600
    assert fast.read_bytes() == ref.read_bytes()


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DeviceSpec("x", "zz00000000000000", 7, 7.0, 0.1)  # bad EUI
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa\n", 7, 7.0, 0.1)  # EUI with a newline
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 6, 7.0, 0.1)  # bad SF
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 7, 7.0, 7.0)  # airtime >= period
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 7, 7.0, 0.1, phase=7.0)
    with pytest.raises(ValueError):
        DeviceSpec("x", "00000000000000aa", 7, 7.0, 0.1, active_from=5.0, active_until=1.0)
    for active_from in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError):
            DeviceSpec("x", "00000000000000aa", 7, 7.0, 0.1, active_from=active_from)
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


def test_spec_and_run_refuse_an_identity_as_the_matrix_does():
    """A spec and a run hold ids and EUIs to the roster's rule, with its messages."""
    bad = [("a b", "00000000000000aa", "^device 'a b': id is empty or holds whitespace$"),
           ("", "00000000000000aa", "^device '': id is empty or holds whitespace$"),
           ("a", "00000000000000az", "^device 'a': EUI '00000000000000az' is not 16 hex digits$")]
    for device_id, eui, message in bad:
        with pytest.raises(ValueError, match=message):
            DeviceSpec(device_id, eui, 7, 7.0, 0.1)
        with pytest.raises(OrchestrationError, match=message):
            DeviceMatrix([RosterEntry(device_id, eui)])
    a = DeviceSpec("a", "00000000000000aa", 7, 7.0, 0.1)
    with pytest.raises(ValueError, match="^duplicate device id a$"):
        run([a, DeviceSpec("a", "00000000000000bb", 7, 7.0, 0.1)], 100.0)
    with pytest.raises(ValueError, match="^duplicate device EUI 00000000000000AA: devices a and b$"):
        run([a, DeviceSpec("b", "00000000000000AA", 7, 7.0, 0.1)], 100.0)


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
    for duration in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            run(fleet(2), duration)
    with pytest.raises(ValueError, match="int64"):
        run(fleet(2), 1e300)


def test_run_keeps_an_attempt_that_starts_at_horizon_minus_airtime():
    spec = DeviceSpec("a", "00000000000000aa", 7, 0.7, 0.05, phase=0.4325483294741568)
    result = run([spec], 20.782548329474153)
    assert result.fcnt.tolist() == list(range(30))
    assert result.start[-1] == 20.782548329474153 - 0.05


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


def test_estimator_and_bounds_share_one_group_type_and_rule():
    """``simulator.SfGroup`` is the scaling type the analytic bounds take,
    and the estimator refuses a mix through the same rule."""
    assert SfGroup is scaling.SfGroup
    for groups in ([SfGroup(7, 0, 0.1)], [SfGroup(7, 2, 0.1), SfGroup(7, 3, 0.2)]):
        with pytest.raises(ValueError) as bounds_error:
            scaling.sf_channels(groups)
        with pytest.raises(ValueError, match=f"^{bounds_error.value}$"):
            estimate_pdr(groups, 5.0, 100)


# --- vectorized timeline build against a per-device reference -------------------

def draw_phase(spec, seed):
    """One device's phase, from a generator of its own stream: the reference
    for the fleet-wide ``simulator.draw_phases``."""
    if spec.phase == "random":
        return float(simulator.device_rng(seed, spec.dev_eui).uniform(0.0, spec.period))
    return float(spec.phase)


# EUIs of one word, of exactly 2**32 and up to the top of the uint64 range
EUI_VALUES = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
                       st.integers(2**63, 2**64 - 1), st.sampled_from([0, 2**32, 2**64 - 1]))


@given(
    # seeds outside 0 .. 2**64 - 1 are masked to 64 bits
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(max_value=-1),
                   st.integers(min_value=2**64)),
    devices=st.lists(st.tuples(EUI_VALUES, st.booleans(), st.floats(1e-300, 1e300)),
                     max_size=20),
)
@settings(max_examples=300, deadline=None)
@example(seed=2**32, devices=[(0, False, 7.0), (2**32, True, 600.0), (2**64 - 1, True, 1e-9)])
def test_draw_phases_is_each_device_streams_first_draw(seed, devices):
    euis = [f"{eui:016X}" if upper else f"{eui:016x}" for eui, upper, _ in devices]
    periods = np.array([period for *_, period in devices], dtype=np.float64)
    got = simulator.draw_phases(seed, euis, periods)
    assert got.dtype == np.float64
    assert got.tolist() == [float(simulator.device_rng(seed, eui).uniform(0.0, period))
                            for eui, period in zip(euis, periods.tolist())]


@pytest.mark.parametrize("seed", [0, 5, 2**32, 2**64 - 1, -5, 2**64 + 3])
def test_run_draws_random_phases_from_each_device_stream(seed):
    euis = ["0000000000000000", "00000000FFFFFFFF", "0000000100000000", "8000000000000000",
            "FFFFFFFFFFFFFFFF", "00000000000000a1", "DEADBEEFcafe0001"]
    devices = [DeviceSpec(f"d{i}", eui, 7 + i % 2, 5.0 + i, 0.3, active_from=3.0 * i,
                          phase=1.25 if i % 3 == 0 else "random")
               for i, eui in enumerate(euis)]
    for model in (AnyOverlap(), VulnerabilityWindow(1.0)):
        assert_run_matches_reference(devices, 200.0, model, seed)
    # the phases come from one array pass, not a generator per device
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError("a Generator")):
        simulator.Timeline(devices, 200.0, seed=seed)


def reference_run_arrays(devices, duration, model, seed):
    """The timeline built one device at a time, one array per attempt list."""
    starts_, devs, fcnts, sfs, airs = [], [], [], [], []
    for i, spec in enumerate(devices):
        horizon = min(spec.active_until, duration)
        first = spec.active_from + draw_phase(spec, seed)
        last_allowed = horizon - spec.airtime
        n = 0
        while first + n * spec.period <= last_allowed:
            n += 1
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
    sent = counts(result)
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
# the last start equals horizon - airtime, which a bare floor count drops
@example(devices=[DeviceSpec("a", "00000000000000aa", 7, 0.7, 0.05, phase=0.4325483294741568)],
         duration=20.782548329474153, model=AnyOverlap(), seed=0)
def test_run_matches_per_device_reference(devices, duration, model, seed):
    assert_run_matches_reference(devices, duration, model, seed)


# --- the timeline in blocks against the whole run --------------------------------

@st.composite
def bursts(draw):
    """Devices on one period and a few fixed phases, so that many start
    together; their mixed airtimes end a burst in different blocks."""
    n = draw(st.integers(2, 8))
    period = draw(st.sampled_from([1.0, 2.5, 7.0]))
    ids = draw(st.permutations(range(n)))
    return [DeviceSpec(f"b{ids[i]}", f"{0xbe00 + i:016x}", draw(st.sampled_from([7, 8])), period,
                       period * draw(st.sampled_from([0.01, 0.1, 0.3])),
                       phase=period * draw(st.sampled_from([0.0, 0.25])),
                       active_from=draw(st.sampled_from([0.0, period, 2.5 * period])),
                       active_until=draw(st.sampled_from([math.inf, 20.0 * period])))
            for i in range(n)]


@given(
    devices=st.one_of(device_sets(), bursts()),
    duration=st.floats(0.5, 150.0),
    model=st.sampled_from([AnyOverlap(), VulnerabilityWindow(0.5), VulnerabilityWindow(1.0)]),
    seed=st.integers(0, 2**64 - 1),
    chunk=st.integers(1, 64),
)
@settings(max_examples=100, deadline=None)
def test_timeline_blocks_join_to_the_whole_run(tmp_path_factory, devices, duration, model, seed,
                                               chunk):
    """However small the steps, the blocks cover rising, disjoint ranges of
    end times, each in (start, id) order; joined they are the run, and the
    log streamed from them is the run's log, byte for byte."""
    directory = tmp_path_factory.mktemp("logs")
    whole = run(devices, duration, model=model, seed=seed)  # one block at these sizes
    n = write_packet_log(whole, directory / "whole.log")
    with mock.patch.object(simulator, "_CHUNK_EVENTS", chunk):
        blocks = list(simulator.Timeline(devices, duration, model, seed))
        assert_run_matches_reference(devices, duration, model, seed)
        timeline = simulator.Timeline(devices, duration, model, seed)
        assert write_packet_log(timeline, directory / "streamed.log") == n
    assert (directory / "streamed.log").read_bytes() == (directory / "whole.log").read_bytes()
    rank = np.argsort(np.argsort([d.device_id for d in devices]))
    ends = [block.end for block in blocks if block.end.size]
    assert all(a.max() < b.min() for a, b in zip(ends, ends[1:]))
    for block in blocks:
        assert np.array_equal(np.lexsort((rank[block.dev], block.start)), np.arange(block.dev.size))
    names = ["start", "end", "sf", "dev", "fcnt", "delivered"]
    joined = [np.concatenate([getattr(block, name) for block in blocks]) for name in names]
    order = np.lexsort((rank[joined[3]], joined[0]))
    for name, column in zip(names, joined):
        assert np.array_equal(column[order], getattr(whole, name)), name


def streamed_peak(duration: float) -> int:
    """tracemalloc peak of ``simulate --out`` for 41 devices over ``duration``."""
    with tempfile.TemporaryDirectory() as directory:
        argv = ["simulate", "--devices", "41", "--period", "7",
                "--airtime", "0.11729", "--duration", str(duration), "--seed", "1",
                "--out", str(Path(directory) / "packets.log")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_streamed_log_memory_does_not_grow_with_the_duration():
    with mock.patch.object(simulator, "_CHUNK_EVENTS", 1024):
        small, large = streamed_peak(2800.0), streamed_peak(28000.0)
    assert large <= 1.2 * small


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


class FixedPhases:
    """Stands in for the generator: every draw returns the given phases."""

    def __init__(self, phases):
        self.phases = np.array(phases, dtype=np.float64)

    def uniform(self, low, high, size):
        assert size == self.phases.shape
        return self.phases.copy()


@pytest.mark.parametrize("model, lost", [(AnyOverlap(), 6), (VulnerabilityWindow(1.0), 3)])
def test_loss_rounds_ghosts_every_phase_below_one_airtime(model, lost):
    # period 10, airtime 1; each round's two packets overlap once, which
    # loses both under any-overlap and one under a window of one airtime:
    # - phase 0.995 (just below one airtime) meets the start at 9.999
    #   only across the wraparound;
    # - phase 0.5 meets the start at 9.6 across the wraparound;
    # - phases 3.0 and 3.5 overlap inside the round.
    rounds = [[0.995, 9.999], [9.6, 0.5], [3.0, 3.5]]
    assert simulator._loss_rounds(2, 10.0, 1.0, 3, model, FixedPhases(rounds)) == lost


@pytest.mark.parametrize("airtime, rounds", [
    # no phase below one airtime: the widest ghost prefix is 0
    (0.5, [[0.5, 4.0, 9.8], [7.0, 7.25, 9.9], [0.75, 2.0, 9.6]]),
    # every phase below one airtime: the widest prefix is the whole row
    (3.0, [[0.5, 1.0, 2.9], [2.0, 0.25, 2.99], [0.0, 1.5, 2.5]]),
    # rows of 0, 1 and 3 ghosts
    (1.0, [[5.0, 9.5, 2.0], [0.5, 9.9, 4.0], [0.1, 0.2, 0.3]]),
    # phase 0.5 meets 9.8 only across the wraparound, through the one ghost
    (1.0, [[0.5, 5.0, 9.8], [2.0, 4.0, 6.0], [9.7, 0.9, 3.0]]),
], ids=["no-ghost", "all-ghosts", "ragged", "one-ghost"])
def test_loss_rounds_at_the_extremes_of_the_ghost_prefix(airtime, rounds):
    for model in MODELS:
        assert (simulator._loss_rounds(3, 10.0, airtime, 3, model, FixedPhases(rounds))
                == reference_loss_rounds(3, 10.0, airtime, 3, model, FixedPhases(rounds)))


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


# --- the attempt lattice -------------------------------------------------------

def brute_attempts(base, period, k0, limit):
    k = k0
    while base + k * period < limit:
        k += 1
    return k - k0


@st.composite
def lattices(draw):
    """(base, period, k0, limit): the limit on a lattice start, a float
    or two off one, or anywhere within a period of one; small and
    large (1e9 s) bases."""
    base = draw(st.one_of(st.floats(-1e3, 1e3), st.floats(1e8, 1e9),
                          st.sampled_from([0.0, 1e9, 1e9 + 0.123, 123456789.987])))
    period = draw(st.one_of(st.floats(1e-3, 700.0),
                            st.sampled_from([1e-3, 0.1, 0.3, 0.7, 7.0, 618.0])))
    j = draw(st.integers(-3, 60))
    limit = base + j * period
    shift = draw(st.sampled_from(["on", "up", "down", "near"]))
    if shift == "up":
        limit = math.nextafter(limit, math.inf)
    elif shift == "down":
        limit = math.nextafter(limit, -math.inf)
    elif shift == "near":
        limit += period * draw(st.floats(-1.0, 1.0))
    return base, period, draw(st.integers(0, 60)), limit


@given(cases=st.lists(lattices(), min_size=1, max_size=8))
@example(cases=[(1e9, 0.3, 0, 1e9 + 7 * 0.3)])  # a bare ceil counts 8 here
@example(cases=[(3.3, 0.7, 0, 3.3 + 0.7), (3.3, 0.7, 5, 3.3 + 0.7)])
@settings(max_examples=400, deadline=None)
def test_attempts_counts_lattice_starts_below_the_limit(cases):
    """The lattice count, per case and as arrays, is the number of starts
    ``base + k * period`` with ``k >= k0`` that a loop finds below the
    limit."""
    expected = [brute_attempts(*case) for case in cases]
    assert [int(attempts(*case)) for case in cases] == expected
    base, period, k0, limit = (np.array(column) for column in zip(*cases))
    assert attempts(base, period, k0, limit).tolist() == expected


def test_attempts_refuses_a_count_beyond_int64():
    for limit in (1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="int64"):
            attempts(0.0, 7.0, 0, limit)
        with pytest.raises(ValueError, match="int64"):
            attempts(np.array([0.0, 0.0]), np.array([7.0, 7.0]), 0, np.array([70.0, limit]))
