"""Channel load arithmetic and experiment scaling.

A population of periodic transmitters is summarized by a
:class:`TrafficProfile`; the dimensionless channel load ``N * t / T``
is the quantity preserved when a large deployment is replaced by a
small experiment with longer packets and a shorter period.  A fleet
spread over spreading factors is a list of :class:`SfGroup`, one
channel each; the Monte-Carlo estimator and the analytic SF-mix bounds
both take that list and check it with :func:`sf_channels`.  The module
also provides the analytic delivery-probability bounds for a load and
the exact no-collision law for random-phase periodic transmitters,
which serves as the simulator's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


def check_sf(sf: int) -> None:
    """Refuse a spreading factor outside 7..12."""
    if not 7 <= sf <= 12:
        raise ValueError(f"spreading factor must be 7..12, got {sf}")


def check_period(period: float) -> None:
    """Refuse a period that is not finite and positive."""
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and positive, got {period}")


def check_airtime(airtime: float, period: float = math.inf) -> None:
    """Refuse an airtime that is not finite, positive and below ``period``."""
    if not (math.isfinite(airtime) and airtime > 0):
        raise ValueError(f"airtime must be finite and positive, got {airtime}")
    if airtime >= period:
        raise ValueError("airtime must be shorter than the period")


@dataclass(frozen=True)
class TrafficProfile:
    """Offered load of one device population.

    ``num_devices`` devices each transmit one packet of ``airtime``
    seconds every ``period`` seconds (message intensity 1/period).
    """

    num_devices: int
    period: float
    airtime: float

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("profile needs at least one device")
        check_period(self.period)
        check_airtime(self.airtime, self.period)


@dataclass(frozen=True)
class SfGroup:
    """``count`` devices on spreading factor ``sf``, each sending packets
    of ``airtime`` seconds: one channel of an SF mix."""

    sf: int
    count: int
    airtime: float

    def __post_init__(self) -> None:
        check_sf(self.sf)
        if self.count < 0:
            raise ValueError("group device count cannot be negative")
        check_airtime(self.airtime)


def sf_channels(groups: Iterable[SfGroup]) -> list[SfGroup]:
    """The non-empty groups of a mix, refused if there are none or two
    share a spreading factor: the estimate and the bounds treat each
    group as its own channel, which two groups on one SF are not."""
    groups = [g for g in groups if g.count > 0]
    if not groups:
        raise ValueError("need at least one non-empty device group")
    if len({g.sf for g in groups}) != len(groups):
        raise ValueError("one group per spreading factor")
    return groups


def channel_load(profile: TrafficProfile) -> float:
    """Offered load of a profile: num_devices * airtime / period."""
    return profile.num_devices * profile.airtime / profile.period


def success_bounds(load: float) -> tuple[float, float]:
    """Analytic (lower, upper) bounds on per-packet delivery probability.

    Lower bound exp(-2L) treats any overlap between two packets as fatal
    (vulnerability window twice the packet duration); upper bound
    exp(-L) loses a packet only when another one starts during it
    (window equal to the packet duration).
    """
    if load < 0:
        raise ValueError("channel load cannot be negative")
    return math.exp(-2.0 * load), math.exp(-load)


def success_exact_periodic(profile: TrafficProfile, window_factor: float = 2.0) -> float:
    """Exact per-device no-collision probability for periodic traffic.

    With ``num_devices`` transmitters at independent uniform random
    phases, equal period and equal airtime, a packet survives iff none
    of the other N-1 devices starts inside a vulnerability window of
    ``window_factor * airtime`` seconds, which each misses with
    probability 1 - w/T per period:

        (1 - window_factor * airtime / period) ** (num_devices - 1)

    Converges to exp(-window_factor * L) as N grows at fixed load L.
    """
    if window_factor <= 0:
        raise ValueError("window factor must be positive")
    window = window_factor * profile.airtime
    if window > profile.period:
        raise ValueError(
            "vulnerability window exceeds the period; the periodic model does not apply"
        )
    return (1.0 - window / profile.period) ** (profile.num_devices - 1)


def derive_equivalent(
    real: TrafficProfile, experiment_period: float, experiment_airtime: float
) -> TrafficProfile:
    """Experiment profile carrying the same channel load as ``real``.

    The experiment trades a shorter period and longer packet for a much
    smaller device count: N_exp = round(L * T_exp / t_exp).  Relative
    load mismatch after rounding is at most ~1/(2 * N_exp).
    """
    check_period(experiment_period)
    check_airtime(experiment_airtime, experiment_period)
    load = channel_load(real)
    exact = load * experiment_period / experiment_airtime
    n_exp = round(exact)
    if n_exp < 1:
        raise ValueError(
            f"load {load:.6g} is too small for period {experiment_period} s and "
            f"airtime {experiment_airtime} s: equivalent device count would be {exact:.3g}"
        )
    return TrafficProfile(n_exp, experiment_period, experiment_airtime)


def device_ratio_per_thousand(real: TrafficProfile, experiment: TrafficProfile) -> float:
    """Experiment devices per 1000 real devices."""
    return 1000.0 * experiment.num_devices / real.num_devices
