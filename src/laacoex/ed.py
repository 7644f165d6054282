"""Energy-detector sensing: probability of detecting a cross-network signal.

The detector averages M power samples and compares against a threshold; for
large M the test statistic is Gaussian and the detection probability reduces
to a Q-function of the threshold margin in standard-deviation units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._fields import check_field_types, check_value


def dbm_to_mw(x_dbm: float) -> float:
    """Convert a power from dBm to linear milliwatts."""
    return 10.0 ** (x_dbm / 10.0)


def _q(x: float) -> float:
    """Standard Gaussian tail probability P(Z > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class EdConfig:
    """Energy-detector operating point."""

    threshold_dbm: float      # decision threshold
    signal_power_dbm: float   # received cross-network signal power
    noise_power_dbm: float
    samples: int              # sample count M averaged by the detector

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        # beyond 300 dBm (1e27 W), 10**(dBm/10) nears overflow or underflow
        for name in ("threshold_dbm", "noise_power_dbm", "signal_power_dbm"):
            if abs(getattr(self, name)) > 300.0:
                raise ValueError(f"{name} must be within +-300 dBm")

    @classmethod
    def from_snr(cls, threshold_dbm: float, snr_db: float,
                 noise_power_dbm: float, samples: int) -> "EdConfig":
        """Operating point with the signal power given as SNR over the noise."""
        check_value("snr_db", "float", snr_db)
        check_value("noise_power_dbm", "float", noise_power_dbm)
        signal_dbm = noise_power_dbm + snr_db
        if abs(noise_power_dbm) <= 300.0 < abs(signal_dbm):
            raise ValueError("snr_db must keep noise_power_dbm + snr_db "
                             "within +-300 dBm")
        return cls(threshold_dbm, signal_dbm, noise_power_dbm, samples)


def detection_probability(c: EdConfig) -> float:
    """Probability that the averaged energy statistic exceeds the threshold.

    Powers are converted to linear units; the statistic's mean is the total
    received power and its standard deviation is sqrt(2/M) times that, so
    the argument of the Gaussian tail is the normalized threshold margin.
    """
    eta = dbm_to_mw(c.threshold_dbm)
    total = dbm_to_mw(c.signal_power_dbm) + dbm_to_mw(c.noise_power_dbm)
    sigma = math.sqrt(2.0 / c.samples) * total
    return _q((eta - total) / sigma)
