"""LoRa time-on-air computation.

Implements the SX127x datasheet airtime formula for a radio
configuration and payload size.  Everything downstream (channel load,
simulation, capacity sweeps) consumes the airtimes produced here.

Hypotheses baked into the defaults:
- 8-symbol preamble, explicit header, CRC enabled.
- Low data rate optimization off for SF7..10 at 125 kHz and on for
  SF11/SF12 at 125 kHz (vendor recommendation) unless set explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scaling import check_sf

MAX_PAYLOAD_BYTES = 255


@dataclass(frozen=True)
class RadioConfig:
    """One LoRa modulation configuration.

    ``coding_rate_index`` is the datasheet CR value 1..4, meaning
    coding rates 4/5 .. 4/8.  ``low_data_rate_optimize=None`` selects
    the vendor default for the SF/bandwidth pair.
    """

    spreading_factor: int
    bandwidth: float = 125_000.0
    coding_rate_index: int = 1
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_enabled: bool = True
    low_data_rate_optimize: bool | None = None

    def __post_init__(self) -> None:
        check_sf(self.spreading_factor)
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 1 <= self.coding_rate_index <= 4:
            raise ValueError(f"coding rate index must be 1..4, got {self.coding_rate_index}")
        if self.preamble_symbols < 1:
            raise ValueError("preamble must contain at least one symbol")
        if self.low_data_rate_optimize is None:
            auto = self.spreading_factor >= 11 and self.bandwidth <= 125_000.0
            object.__setattr__(self, "low_data_rate_optimize", auto)


def symbol_time(config: RadioConfig) -> float:
    """Duration of one chirp symbol in seconds: 2^SF / BW."""
    return 2.0**config.spreading_factor / config.bandwidth


def preamble_time(config: RadioConfig) -> float:
    """Preamble duration: programmed symbols plus the fixed 4.25."""
    return (config.preamble_symbols + 4.25) * symbol_time(config)


def payload_symbols(config: RadioConfig, payload_bytes: int) -> int:
    """Number of payload symbols for ``payload_bytes`` of PHY payload."""
    if payload_bytes < 0:
        raise ValueError("payload size cannot be negative")
    if payload_bytes > MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {payload_bytes} B exceeds the {MAX_PAYLOAD_BYTES} B LoRa maximum"
        )
    sf = config.spreading_factor
    crc = 1 if config.crc_enabled else 0
    ih = 0 if config.explicit_header else 1
    de = 1 if config.low_data_rate_optimize else 0
    numerator = 8 * payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    block = math.ceil(numerator / (4 * (sf - 2 * de)))
    return 8 + max(block * (config.coding_rate_index + 4), 0)


def time_on_air(config: RadioConfig, payload_bytes: int) -> float:
    """Total packet duration in seconds, full precision (no rounding)."""
    return preamble_time(config) + payload_symbols(config, payload_bytes) * symbol_time(config)
