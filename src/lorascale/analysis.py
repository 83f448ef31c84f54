"""Spreading-factor mix analysis and PDR aggregation.

For a fleet split between SF7 and SF8 the per-SF channels carry
independent load, so the network-wide delivery bounds are the
device-count-weighted average of the per-SF analytic bounds.  Sweeping
the split produces the capacity curve used to pick how many devices to
move to SF8; experiment-scale and real-scale mixes map onto each other
through a device-count ratio that preserves per-SF load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .airtime import RadioConfig, time_on_air
from .controller import DeviceReport
from .scaling import success_bounds


@dataclass(frozen=True)
class SfMixConfig:
    """A two-SF fleet: device counts, shared period, per-SF airtimes."""

    n_sf7: int
    n_sf8: int
    period: float
    airtime_sf7: float
    airtime_sf8: float

    def __post_init__(self) -> None:
        if self.n_sf7 < 0 or self.n_sf8 < 0:
            raise ValueError("device counts cannot be negative")
        if self.n_sf7 + self.n_sf8 < 1:
            raise ValueError("mix needs at least one device")
        for name in ("period", "airtime_sf7", "airtime_sf8"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.airtime_sf8 <= self.airtime_sf7:
            raise ValueError("SF8 airtime must exceed SF7 airtime")


@dataclass(frozen=True)
class BoundsCurve:
    """Lower/upper delivery-probability bounds vs devices moved to SF8."""

    points: list[tuple[int, float, float]]

    def __post_init__(self) -> None:
        for n_moved, lower, upper in self.points:
            if lower > upper:
                raise ValueError(f"crossed bounds at n_moved={n_moved}")


def network_bounds(mix: SfMixConfig) -> tuple[float, float]:
    """(lower, upper) network delivery bounds for a two-SF mix.

    Each SF is a separate channel with load n * t / T; a device's
    bounds depend only on its own channel, so the network value is the
    device-weighted mean of the per-SF bounds.
    """
    total = mix.n_sf7 + mix.n_sf8
    load7 = mix.n_sf7 * mix.airtime_sf7 / mix.period
    load8 = mix.n_sf8 * mix.airtime_sf8 / mix.period
    lo7, up7 = success_bounds(load7)
    lo8, up8 = success_bounds(load8)
    lower = (mix.n_sf7 * lo7 + mix.n_sf8 * lo8) / total
    upper = (mix.n_sf7 * up7 + mix.n_sf8 * up8) / total
    return lower, upper


def bounds_curve(total_devices: int, period: float, airtime_sf7: float,
                 airtime_sf8: float, step: int = 1) -> BoundsCurve:
    """Sweep the number of devices moved to SF8 from 0 to all of them."""
    if total_devices < 1:
        raise ValueError("need at least one device")
    if step < 1:
        raise ValueError("step must be at least 1")
    moved = list(range(0, total_devices + 1, step))
    if moved[-1] != total_devices:
        moved.append(total_devices)
    points = []
    for m in moved:
        mix = SfMixConfig(total_devices - m, m, period, airtime_sf7, airtime_sf8)
        lower, upper = network_bounds(mix)
        points.append((m, lower, upper))
    return BoundsCurve(points)


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


def matching_payload(sf7_airtime: float, config: RadioConfig | None = None) -> int:
    """Payload size whose SF7 time-on-air is closest to ``sf7_airtime``.

    The airtime formula is a step function of the payload, so several
    sizes can tie; the largest one is returned.
    """
    cfg = config or RadioConfig(spreading_factor=7)
    best, best_err = 0, math.inf
    for payload in range(0, 256):
        err = abs(time_on_air(cfg, payload) - sf7_airtime)
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
