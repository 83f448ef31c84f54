"""Spreading-factor mix analysis and PDR aggregation.

A mix is the list of :class:`~lorascale.scaling.SfGroup` that the
Monte-Carlo estimator takes too.  Each SF is its own channel with
independent load, so the network-wide delivery bounds are the
device-count-weighted average of the per-SF analytic bounds.  Sweeping
how many of a fleet's devices move from SF7 to SF8 produces the
capacity curve used to pick that number; experiment-scale and
real-scale mixes map onto each other through a device-count ratio that
preserves per-SF load.
"""

from __future__ import annotations

import math
from typing import Iterable

from .airtime import RadioConfig, time_on_air
from .controller import DeviceReport
from .scaling import SfGroup, check_period, sf_channels, success_bounds


def network_bounds(groups: Iterable[SfGroup], period: float) -> tuple[float, float]:
    """(lower, upper) network delivery bounds for an SF mix whose devices
    all send once per ``period`` seconds.

    Each SF is a separate channel with load count * airtime / period; a
    device's bounds depend only on its own channel, so the network value
    is the device-weighted mean of the per-SF bounds.
    """
    groups = sf_channels(groups)
    check_period(period)
    lower = upper = 0.0
    for g in groups:
        lo, up = success_bounds(g.count * g.airtime / period)
        lower += g.count * lo
        upper += g.count * up
    total = sum(g.count for g in groups)
    return lower / total, upper / total


def sf8_mix(total: int, moved: int, airtime_sf7: float, airtime_sf8: float) -> list[SfGroup]:
    """A fleet of ``total`` devices with ``moved`` of them on SF8."""
    groups = [SfGroup(7, total - moved, airtime_sf7), SfGroup(8, moved, airtime_sf8)]
    if airtime_sf8 <= airtime_sf7:
        raise ValueError("SF8 airtime must exceed SF7 airtime")
    return groups


def bounds_curve(total_devices: int, period: float, airtime_sf7: float,
                 airtime_sf8: float, step: int = 1) -> list[tuple[int, float, float]]:
    """``(moved, lower, upper)`` network bounds as the number of devices
    moved to SF8 goes from 0 to all of them."""
    if total_devices < 1:
        raise ValueError("need at least one device")
    if step < 1:
        raise ValueError("step must be at least 1")
    moved = list(range(0, total_devices + 1, step))
    if moved[-1] != total_devices:
        moved.append(total_devices)
    return [(m, *network_bounds(sf8_mix(total_devices, m, airtime_sf7, airtime_sf8), period))
            for m in moved]


def scale_mix(n_sf7: int, n_sf8: int, ratio: float) -> tuple[int, int]:
    """Map a device mix across the experiment/real-system size ratio.

    Multiplying by ratio > 1 maps an experiment mix to the real system
    it emulates; the inverse ratio maps back.  Counts round to the
    nearest device.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    return round(n_sf7 * ratio), round(n_sf8 * ratio)


def pdr_aggregate(reports: Iterable[DeviceReport]) -> tuple[float, float]:
    """(network PDR, mean per-device PDR) over a set of device reports.

    Network PDR pools all packets; the per-device mean averages the
    ratios of devices that sent anything.
    """
    reports = list(reports)
    total_sent = sum(r.sent for r in reports)
    if total_sent == 0:
        raise ValueError("PDR is undefined: no device sent any packet")
    network = sum(r.delivered for r in reports) / total_sent
    ratios = [r.delivered / r.sent for r in reports if r.sent > 0]
    return network, sum(ratios) / len(ratios)


def matching_payload(sf7_airtime: float) -> int:
    """Payload size whose SF7 time-on-air is closest to ``sf7_airtime``.

    The airtime formula is a step function of the payload, so several
    sizes can tie; the largest one is returned.
    """
    sf7 = RadioConfig(spreading_factor=7)
    best, best_err = 0, math.inf
    for payload in range(0, 256):
        err = abs(time_on_air(sf7, payload) - sf7_airtime)
        if err <= best_err:
            best, best_err = payload, err
    return best


def sf8_airtime_for(sf7_airtime: float) -> float:
    """SF8 airtime for the payload behind a given SF7 airtime.

    Scales the given value by the SF8/SF7 time-on-air ratio of the
    matching payload, so a rounded SF7 figure keeps its precision.
    """
    payload = matching_payload(sf7_airtime)
    t7 = time_on_air(RadioConfig(spreading_factor=7), payload)
    t8 = time_on_air(RadioConfig(spreading_factor=8), payload)
    return sf7_airtime * (t8 / t7)
