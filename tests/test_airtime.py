import pytest
from hypothesis import given, strategies as st

from airtime_oracle import oracle_time_on_air
from lorascale.airtime import (
    RadioConfig,
    payload_symbols,
    preamble_time,
    symbol_time,
    time_on_air,
)


def test_symbol_time_reference_values():
    assert symbol_time(RadioConfig(7)) == 2**7 / 125_000
    assert symbol_time(RadioConfig(8)) == 2**8 / 125_000
    assert symbol_time(RadioConfig(12)) == 2**12 / 125_000


def test_reference_airtimes_51_bytes():
    # cross-checked against the standalone oracle and public calculators
    assert time_on_air(RadioConfig(7), 51) == pytest.approx(0.102656, abs=1e-9)
    assert time_on_air(RadioConfig(8), 51) == pytest.approx(0.184832, abs=1e-9)


def test_zero_payload_still_carries_header_overhead():
    cfg = RadioConfig(7)
    assert time_on_air(cfg, 0) > preamble_time(cfg)
    # 8 base payload symbols plus one coded block for the header
    assert payload_symbols(cfg, 0) == 13


def test_payload_too_large_rejected():
    with pytest.raises(ValueError, match="255"):
        time_on_air(RadioConfig(7), 256)
    with pytest.raises(ValueError):
        time_on_air(RadioConfig(7), -1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"spreading_factor": 6},
        {"spreading_factor": 13},
        {"spreading_factor": 7, "bandwidth": 0},
        {"spreading_factor": 7, "coding_rate_index": 0},
        {"spreading_factor": 7, "coding_rate_index": 5},
        {"spreading_factor": 7, "preamble_symbols": 0},
        {"spreading_factor": 7, "bandwidth": float("nan")},
        {"spreading_factor": 7, "bandwidth": float("inf")},
    ],
)
def test_invalid_radio_config_rejected(kwargs):
    with pytest.raises(ValueError):
        RadioConfig(**kwargs)


def test_low_data_rate_optimize_default_rule():
    assert RadioConfig(7).low_data_rate_optimize is False
    assert RadioConfig(10).low_data_rate_optimize is False
    assert RadioConfig(11).low_data_rate_optimize is True
    assert RadioConfig(12).low_data_rate_optimize is True
    # explicit settings are kept, and wide bandwidth disables the default
    assert RadioConfig(12, low_data_rate_optimize=False).low_data_rate_optimize is False
    assert RadioConfig(12, bandwidth=500_000).low_data_rate_optimize is False


@given(
    sf=st.integers(7, 12),
    payload=st.integers(0, 255),
    cr=st.integers(1, 4),
    preamble=st.integers(6, 16),
    explicit=st.booleans(),
    crc=st.booleans(),
    ldro=st.booleans(),
)
def test_matches_standalone_oracle(sf, payload, cr, preamble, explicit, crc, ldro):
    cfg = RadioConfig(
        spreading_factor=sf,
        coding_rate_index=cr,
        preamble_symbols=preamble,
        explicit_header=explicit,
        crc_enabled=crc,
        low_data_rate_optimize=ldro,
    )
    expected = oracle_time_on_air(
        sf, 125_000.0, cr, payload,
        preamble_symbols=preamble, explicit_header=explicit,
        crc_on=crc, low_dr_optimize=ldro,
    )
    assert time_on_air(cfg, payload) == pytest.approx(expected, rel=1e-12)


@given(sf=st.integers(7, 12), payload=st.integers(0, 254))
def test_airtime_never_decreases_with_payload(sf, payload):
    cfg = RadioConfig(sf)
    assert time_on_air(cfg, payload + 1) >= time_on_air(cfg, payload)


@given(sf=st.integers(7, 11), payload=st.integers(0, 255))
def test_airtime_strictly_increases_with_sf(sf, payload):
    assert time_on_air(RadioConfig(sf + 1), payload) > time_on_air(RadioConfig(sf), payload)


@given(sf=st.integers(7, 12), payload=st.integers(0, 255))
def test_doubling_bandwidth_halves_airtime(sf, payload):
    # pin LDRO so both configurations count the same symbols
    narrow = RadioConfig(sf, bandwidth=125_000, low_data_rate_optimize=False)
    wide = RadioConfig(sf, bandwidth=250_000, low_data_rate_optimize=False)
    assert time_on_air(wide, payload) == pytest.approx(
        time_on_air(narrow, payload) / 2, rel=1e-12
    )
