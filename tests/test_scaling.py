import math

import pytest
from hypothesis import assume, given, strategies as st

from lorascale.scaling import (
    TrafficProfile,
    channel_load,
    derive_equivalent,
    device_ratio_per_thousand,
    success_bounds,
    success_exact_periodic,
)

REAL = TrafficProfile(10_000, 600.0, 0.04122)
EXPERIMENT_PERIOD = 7.0
EXPERIMENT_AIRTIME = 0.11729


def test_channel_load_published_values():
    assert channel_load(REAL) == pytest.approx(0.687, abs=1e-12)
    exp = TrafficProfile(41, EXPERIMENT_PERIOD, EXPERIMENT_AIRTIME)
    assert channel_load(exp) == pytest.approx(0.687, abs=1e-4)


def test_channel_load_vanishes_with_airtime():
    assert channel_load(TrafficProfile(1, 100.0, 1e-12)) == pytest.approx(0.0, abs=1e-13)


def test_profile_validation():
    with pytest.raises(ValueError):
        TrafficProfile(0, 600.0, 0.04)
    with pytest.raises(ValueError):
        TrafficProfile(10, -1.0, 0.04)
    with pytest.raises(ValueError):
        TrafficProfile(10, 1.0, 1.0)  # airtime not shorter than period
    with pytest.raises(ValueError):
        success_bounds(-0.1)
    for period, airtime in [(math.nan, 0.04), (math.inf, 0.04), (600.0, math.nan)]:
        with pytest.raises(ValueError, match="finite and positive"):
            TrafficProfile(10, period, airtime)


def test_success_bounds_reference_values():
    assert success_bounds(0.0) == (1.0, 1.0)
    lower, upper = success_bounds(0.687)
    assert lower == pytest.approx(0.2531, abs=5e-5)
    assert upper == pytest.approx(0.5031, abs=5e-5)


@given(load=st.floats(0.0, 5.0))
def test_success_bounds_ordering(load):
    lower, upper = success_bounds(load)
    assert 0.0 < lower <= upper <= 1.0


@given(load=st.floats(1e-6, 5.0))
def test_halving_load_takes_square_root_of_lower_bound(load):
    full, _ = success_bounds(load)
    half, _ = success_bounds(load / 2)
    assert half == pytest.approx(math.sqrt(full), rel=1e-9)


def test_exact_periodic_reference_values():
    assert success_exact_periodic(TrafficProfile(1, 7.0, 0.11729)) == 1.0
    exp = TrafficProfile(41, 7.0, 0.11729)
    assert success_exact_periodic(exp) == pytest.approx(0.2557, abs=1e-4)
    # large-N convergence to exp(-2L)
    assert success_exact_periodic(REAL) == pytest.approx(math.exp(-2 * 0.687), abs=1e-3)


def test_exact_periodic_domain_error():
    with pytest.raises(ValueError):
        success_exact_periodic(TrafficProfile(5, 1.0, 0.6))  # window 1.2 > period


@given(
    n=st.integers(2, 400),
    period=st.floats(0.5, 1000.0),
    rel_airtime=st.floats(1e-4, 0.99),
)
def test_exact_periodic_sits_between_analytic_bounds(n, period, rel_airtime):
    # the sandwich holds whenever (n + 1) * airtime <= period
    airtime = rel_airtime * period / (n + 1)
    profile = TrafficProfile(n, period, airtime)
    load = channel_load(profile)
    lower, upper = success_bounds(load)
    exact = success_exact_periodic(profile)
    assert lower <= exact <= upper
    # with n - 1 interferers the exponential is always an upper bound
    interferer_load = (n - 1) * airtime / period
    assert exact <= math.exp(-2 * interferer_load) + 1e-12


@given(
    n=st.integers(2, 100),
    period=st.floats(1.0, 100.0),
    rel_airtime=st.floats(1e-4, 0.4),
)
def test_exact_periodic_monotone(n, period, rel_airtime):
    airtime = rel_airtime * period / 2
    base = success_exact_periodic(TrafficProfile(n, period, airtime))
    more_devices = success_exact_periodic(TrafficProfile(n + 1, period, airtime))
    longer_packet = success_exact_periodic(TrafficProfile(n, period, airtime * 1.1))
    shorter_period = success_exact_periodic(TrafficProfile(n, period / 1.1, airtime))
    assert more_devices <= base
    assert longer_packet <= base
    assert shorter_period <= base


def test_derive_equivalent_published_sizing():
    exp = derive_equivalent(REAL, EXPERIMENT_PERIOD, EXPERIMENT_AIRTIME)
    assert exp.num_devices == 41
    assert exp.period == EXPERIMENT_PERIOD
    assert exp.airtime == EXPERIMENT_AIRTIME
    assert device_ratio_per_thousand(REAL, exp) == pytest.approx(4.1, abs=1e-9)


def test_derive_equivalent_identity():
    same = derive_equivalent(REAL, REAL.period, REAL.airtime)
    assert same.num_devices == REAL.num_devices


def test_derive_equivalent_infeasible():
    tiny = TrafficProfile(1, 1000.0, 0.001)  # load 1e-6
    with pytest.raises(ValueError, match="too small"):
        derive_equivalent(tiny, 10.0, 9.0)
    with pytest.raises(ValueError):
        derive_equivalent(REAL, 1.0, 2.0)  # airtime beyond period


@given(
    n=st.integers(1, 100_000),
    period=st.floats(1.0, 10_000.0),
    rel_airtime=st.floats(1e-5, 0.5),
    exp_period=st.floats(0.1, 100.0),
    rel_exp_airtime=st.floats(1e-3, 0.9),
)
def test_derive_equivalent_load_mismatch_within_rounding(
    n, period, rel_airtime, exp_period, rel_exp_airtime
):
    real = TrafficProfile(n, period, rel_airtime * period)
    exp_airtime = rel_exp_airtime * exp_period
    load = channel_load(real)
    ideal = load * exp_period / exp_airtime
    assume(ideal >= 0.5)
    # stay away from exact .5 rounding boundaries of the ideal count
    assume(abs(ideal - round(ideal)) not in (0.5,))
    experiment = derive_equivalent(real, exp_period, exp_airtime)
    mismatch = abs(channel_load(experiment) - load) / load
    assert mismatch <= 0.5 / (experiment.num_devices - 0.5) + 1e-12
