import math

import pytest
from hypothesis import given, strategies as st

from lorascale.analysis import (
    bounds_curve,
    matching_payload,
    network_bounds,
    pdr_aggregate,
    scale_mix,
    sf8_airtime_for,
    sf8_mix,
)
from lorascale.controller import DeviceReport
from lorascale.scaling import SfGroup, success_bounds

T7, T8 = 0.04122, 0.08244  # short packet and its SF8 counterpart
TOTAL, PERIOD = 8835, 600.0


def test_single_sf_endpoints_match_plain_bounds():
    all7 = [SfGroup(7, TOTAL, T7), SfGroup(8, 0, T8)]
    assert network_bounds(all7, PERIOD) == success_bounds(TOTAL * T7 / PERIOD)
    all8 = [SfGroup(7, 0, T7), SfGroup(8, TOTAL, T8)]
    assert network_bounds(all8, PERIOD) == success_bounds(TOTAL * T8 / PERIOD)


def test_moving_devices_to_sf8_improves_lower_bound():
    base_lower, _ = network_bounds([SfGroup(7, TOTAL, T7), SfGroup(8, 0, T8)], PERIOD)
    moved_lower, _ = network_bounds([SfGroup(7, 5399, T7), SfGroup(8, 3436, T8)], PERIOD)
    assert moved_lower > base_lower


def test_bounds_curve_interior_maximum():
    curve = bounds_curve(TOTAL, PERIOD, T7, T8, step=5)
    lowers = [lower for _, lower, _ in curve]
    best = max(range(len(lowers)), key=lowers.__getitem__)
    assert 0 < best < len(lowers) - 1
    assert lowers[best] > lowers[0] and lowers[best] > lowers[-1]
    moved = [m for m, _, _ in curve]
    assert moved == sorted(moved) and moved[0] == 0 and moved[-1] == TOTAL


def test_bounds_curve_single_device_flat_near_one():
    curve = bounds_curve(1, PERIOD, T7, T8)
    assert len(curve) == 2
    for _, lower, upper in curve:
        assert lower == pytest.approx(1.0, abs=1e-3)
        assert upper == pytest.approx(1.0, abs=1e-3)


def test_doubling_period_takes_square_root_of_lower_bound():
    # exact at the single-SF endpoints; interior points are a weighted
    # mean of per-SF terms and sqrt is concave, so they sit at or below
    fast = bounds_curve(200, 10.0, 0.05, 0.1, step=20)
    slow = bounds_curve(200, 20.0, 0.05, 0.1, step=20)
    for (_, lo_fast, _), (_, lo_slow, _) in zip(fast, slow):
        assert lo_slow <= math.sqrt(lo_fast) + 1e-12
    for idx in (0, -1):
        assert slow[idx][1] == pytest.approx(math.sqrt(fast[idx][1]), rel=1e-9)


@given(
    n7=st.integers(0, 5000),
    n8=st.integers(0, 5000),
    period=st.floats(10.0, 1000.0),
)
def test_bounds_always_ordered(n7, n8, period):
    if n7 + n8 == 0:
        n7 = 1
    lower, upper = network_bounds([SfGroup(7, n7, 0.04), SfGroup(8, n8, 0.08)], period)
    assert 0.0 < lower <= upper <= 1.0


def test_mix_validation():
    with pytest.raises(ValueError):
        network_bounds([SfGroup(7, 0, T7), SfGroup(8, 0, T8)], PERIOD)
    with pytest.raises(ValueError, match="SF8 airtime must exceed SF7 airtime"):
        sf8_mix(2, 1, T8, T7)
    with pytest.raises(ValueError, match="finite and positive"):
        sf8_mix(2, 1, math.inf, T8)  # each airtime is checked before they are compared
    for period, t7, t8 in [(math.nan, T7, T8), (math.inf, T7, T8), (PERIOD, T7, math.nan),
                           (PERIOD, math.inf, T8), (PERIOD, T7, math.inf), (0.0, T7, T8),
                           (-PERIOD, T7, T8), (-math.inf, T7, T8)]:
        with pytest.raises(ValueError, match="finite and positive"):
            network_bounds([SfGroup(7, 1, t7), SfGroup(8, 1, t8)], period)


def test_network_bounds_shares_the_estimators_group_rule():
    """Empty groups drop out; no device at all, or two groups on one SF
    (one channel counted as two), is refused with the estimator's message."""
    assert network_bounds([SfGroup(7, 10, T7), SfGroup(9, 0, 0.2)], PERIOD) == \
        network_bounds([SfGroup(7, 10, T7)], PERIOD)
    with pytest.raises(ValueError, match="need at least one non-empty device group"):
        network_bounds([], PERIOD)
    with pytest.raises(ValueError, match="one group per spreading factor"):
        network_bounds([SfGroup(7, 10, T7), SfGroup(7, 5, T8)], PERIOD)


def test_scale_mix_published_columns():
    ratio = 8835 / 36
    assert scale_mix(36, 0, ratio) == (8835, 0)
    assert scale_mix(31, 5, ratio) == (7608, 1227)
    assert scale_mix(22, 7, ratio) == (5399, 1718)
    assert scale_mix(14, 14, ratio) == (3436, 3436)
    assert scale_mix(7, 22, ratio) == (1718, 5399)
    # inverse mapping recovers the experiment mixes
    assert scale_mix(7608, 1227, 1 / ratio) == (31, 5)
    assert scale_mix(8835, 0, 1 / ratio) == (36, 0)


def test_scale_mix_identity_and_validation():
    assert scale_mix(31, 5, 1.0) == (31, 5)
    with pytest.raises(ValueError):
        scale_mix(1, 1, 0.0)


def test_pdr_aggregate_reference_cases():
    a = DeviceReport("a", 3, 4)
    b = DeviceReport("b", 1, 4)
    assert pdr_aggregate([a, b]) == (0.5, 0.5)
    c = DeviceReport("c", 0, 10)
    d = DeviceReport("d", 10, 10)
    assert pdr_aggregate([c, d]) == (0.5, 0.5)


def test_pdr_aggregate_skips_silent_devices_in_mean():
    a = DeviceReport("a", 2, 4)
    silent = DeviceReport("s", 0, 0)
    network, mean = pdr_aggregate([a, silent])
    assert network == pytest.approx(0.5)
    assert mean == pytest.approx(0.5)


def test_pdr_aggregate_undefined_when_nothing_sent():
    with pytest.raises(ValueError, match="undefined"):
        pdr_aggregate([DeviceReport("a", 0, 0)])


def test_matching_payload_and_sf8_airtime():
    # several payload sizes share the 41.216 ms SF7 airtime; the largest wins
    assert matching_payload(0.04122) == 12
    assert sf8_airtime_for(0.04122) == pytest.approx(0.08244, rel=1e-9)
    # payloads 51..54 share the 102.656 ms SF7 airtime and the SF8 one too
    assert matching_payload(0.102656) == 54
    assert sf8_airtime_for(0.102656) == pytest.approx(0.184832, rel=1e-9)
