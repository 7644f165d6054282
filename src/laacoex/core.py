"""Domain types and parameter presets for Wi-Fi / LTE-LAA coexistence studies.

All times are microseconds, rates are Mbps (= bits per microsecond), powers
enter the API in dBm. Every type is an immutable value object, safe to share
across parallel workers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace

import yaml

from ._fields import check_field_types
from .ed import EdConfig, detection_probability

BITS_PER_BYTE = 8
# The simulator draws backoff counters from 64-bit words, so the largest
# contention window w0 * 2**m may be at most 2**64 slots.
_MAX_WINDOW_BITS = 64


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _require_window(w0: int, m: int) -> None:
    # (w0 - 1).bit_length() + m is the bit length of w0 * 2**m - 1; the
    # form never builds 2**m, so a huge m is rejected without a big integer.
    _require(w0 >= 1, "w0 must be >= 1")
    _require(m >= 0, "m must be >= 0")
    if (w0 - 1).bit_length() + m > _MAX_WINDOW_BITS:
        raise ValueError(f"m too large: the top window w0 * 2**m must be <= "
                         f"2**{_MAX_WINDOW_BITS}, got w0={w0}, m={m}")


@dataclass(frozen=True)
class WifiParams:
    """DCF contention and frame-timing parameters of one Wi-Fi AP."""

    w0: int = 16                     # minimum contention window (slots)
    m: int = 6                       # maximum backoff stage (window doublings)
    payload_bytes: int = 2048        # data portion of one frame
    data_rate_mbps: float = 9.0      # PHY rate for header + payload
    control_rate_mbps: float = 6.0   # basic rate used by the ACK
    phy_header_us: float = 20.0
    mac_header_bytes: int = 34
    ack_bytes: int = 14
    difs_us: float = 34.0
    sifs_us: float = 16.0
    slot_us: float = 9.0             # backoff slot
    prop_delay_us: float = 0.1

    def __post_init__(self) -> None:
        check_field_types(self)
        _require_window(self.w0, self.m)
        _require(self.payload_bytes >= 1, "payload_bytes must be >= 1")
        for name in ("data_rate_mbps", "control_rate_mbps", "phy_header_us",
                     "difs_us", "sifs_us", "slot_us", "prop_delay_us"):
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        _require(self.mac_header_bytes >= 0, "mac_header_bytes must be >= 0")
        _require(self.ack_bytes >= 0, "ack_bytes must be >= 0")


@dataclass(frozen=True)
class LaaParams:
    """LBT contention and transmission parameters of one LTE-LAA eNB."""

    w0: int = 16                     # minimum contention window (slots)
    m: int = 2                       # maximum backoff stage
    retry_limit: int = 1             # extra stays at the max window before the stage resets
    defer_us: float = 43.0           # CCA defer period: echoed, not modelled
    txop_us: float = 8000.0          # transmission opportunity once contention is won
    next_tx_delay_us: float = 500.0  # slot-boundary alignment + reservation overhead
    data_rate_mbps: float = 7.8
    pdcch_fraction: float = 13.0 / 14.0  # share of the TXOP carrying data symbols

    def __post_init__(self) -> None:
        check_field_types(self)
        _require_window(self.w0, self.m)
        _require(0 <= self.retry_limit <= 8, "retry_limit must be in [0, 8]")
        _require(0 < self.txop_us <= 10_000, "txop_us must be in (0, 10000]")
        # bits per TXOP, pdcch_fraction * txop_us * rate, must stay finite
        _require(self.data_rate_mbps <= 1e300,
                 "data_rate_mbps must be <= 1e300")
        for name in ("defer_us", "next_tx_delay_us", "data_rate_mbps"):
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        _require(0 < self.pdcch_fraction <= 1, "pdcch_fraction must be in (0, 1]")


# Channel-access priority classes: defer period, min window, max stage, TXOP.
_PRIORITY_CLASSES = {
    1: (25.0, 4, 1, 2000.0),
    2: (25.0, 8, 1, 3000.0),
    3: (43.0, 16, 2, 8000.0),
    4: (79.0, 16, 6, 8000.0),
}


def load_priority_class(class_id: int, long_txop: bool = False) -> LaaParams:
    """LBT parameters for one of the four channel-access priority classes.

    Classes 3 and 4 default to an 8 ms TXOP; ``long_txop`` selects the 10 ms
    variant allowed when no coexisting network is expected. The flag has no
    effect on classes 1 and 2.
    """
    if class_id not in _PRIORITY_CLASSES:
        raise ValueError(f"unknown priority class {class_id!r}; expected 1..4")
    defer_us, w0, m, txop_us = _PRIORITY_CLASSES[class_id]
    if long_txop and class_id in (3, 4):
        txop_us = 10_000.0
    return LaaParams(w0=w0, m=m, retry_limit=1, defer_us=defer_us,
                     txop_us=txop_us, next_tx_delay_us=500.0)


def derived_durations(p: WifiParams) -> tuple[float, float, float]:
    """Payload, MAC-header and ACK airtimes in microseconds.

    Byte counts convert to time as 8*bytes/rate_mbps; the ACK rides the
    control rate, everything else the data rate.
    """
    psize_us = BITS_PER_BYTE * p.payload_bytes / p.data_rate_mbps
    mach_us = BITS_PER_BYTE * p.mac_header_bytes / p.data_rate_mbps
    ack_us = BITS_PER_BYTE * p.ack_bytes / p.control_rate_mbps
    return psize_us, mach_us, ack_us


@dataclass(frozen=True)
class Scenario:
    """One coexistence setup: node counts, per-technology parameters, sensing.

    ``p_dw`` / ``p_dl`` are the cross-network energy-detection probabilities
    (1.0 = perfect sensing). ``comparison_mode`` reproduces the hardware
    testbed conventions: the LAA retry limit drops to 0, the LAA turnaround
    delay equals DIFS, and both backoff chains reset immediately after their
    maximum stage (no extra stay at the top window).
    """

    n_wifi: int
    n_laa: int
    wifi: WifiParams = WifiParams()   # frozen, so one default is shared
    laa: LaaParams = LaaParams()
    p_dw: float = 1.0
    p_dl: float = 1.0
    comparison_mode: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        _require(self.n_wifi >= 0, "n_wifi must be >= 0")
        _require(self.n_laa >= 0, "n_laa must be >= 0")
        _require(self.n_wifi + self.n_laa >= 1, "n_wifi + n_laa must be >= 1")
        _require(0 <= self.p_dw <= 1, "p_dw must be in [0, 1]")
        _require(0 <= self.p_dl <= 1, "p_dl must be in [0, 1]")

    def effective(self) -> "Scenario":
        """Scenario with comparison-mode overrides applied to the LAA side."""
        if not self.comparison_mode:
            return self
        laa = replace(self.laa, retry_limit=0,
                      next_tx_delay_us=self.wifi.difs_us)
        return replace(self, laa=laa)


@dataclass(frozen=True)
class Solution:
    """Fixed point of the coupled access/collision probabilities."""

    tau_w: float       # per-slot transmission probability, one Wi-Fi AP
    tau_l: float       # per-slot transmission probability, one LAA eNB
    p_w: float         # conditional collision probability seen by a Wi-Fi AP
    p_l: float         # conditional collision probability seen by an LAA eNB
    residual: float    # max |tau - map(tau)| at the returned point
    iterations: int
    method: str = "damped"   # or "bisection": the fallback found the point


@dataclass(frozen=True)
class ThroughputReport:
    """Event probabilities, event durations and throughputs for one scenario."""

    p_trw: float               # P(at least one Wi-Fi AP transmits)
    p_sw: float                # P(exactly one | at least one), Wi-Fi
    p_trl: float
    p_sl: float
    t_sw_us: float             # Wi-Fi success duration
    t_cw_us: float             # Wi-Fi collision duration
    t_sl_us: float             # LAA success duration
    t_cl_us: float             # LAA collision duration
    t_cc_us: float             # cross-technology collision duration
    t_e_us: float              # expected duration of one channel event
    tput_wifi_mbps: float
    tput_laa_mbps: float
    per_user_wifi_mbps: float
    per_user_laa_mbps: float


# ---------------------------------------------------------------------------
# Scenario files (YAML): nested key/value, one mapping per parameter group.
# ---------------------------------------------------------------------------

class _YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader (libyaml when present) reading YAML 1.2 floats: ``8e3``
    is a float, not YAML 1.1's string; ints resolve first, so 16 stays int."""


_YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


_SCALAR_FIELDS = ("n_wifi", "n_laa", "p_dw", "p_dl", "comparison_mode")


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-dict form of a scenario, suitable for YAML round-tripping."""
    return {
        "n_wifi": s.n_wifi,
        "n_laa": s.n_laa,
        "wifi": {f.name: getattr(s.wifi, f.name) for f in fields(WifiParams)},
        "laa": {f.name: getattr(s.laa, f.name) for f in fields(LaaParams)},
        "p_dw": s.p_dw,
        "p_dl": s.p_dl,
        "comparison_mode": s.comparison_mode,
    }


def _params_from_dict(cls, mapping: dict, where: str):
    _require(isinstance(mapping, dict), f"{where} must be a mapping")
    known = {f.name for f in fields(cls)}
    unknown = set(mapping) - known
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r} in {where}")
    return cls(**mapping)


def _detection_from_block(block: dict, where: str) -> float:
    _require(isinstance(block, dict), f"{where} must be a mapping")
    allowed = {"threshold_dbm", "signal_power_dbm", "snr_db",
               "noise_power_dbm", "samples"}
    unknown = set(block) - allowed
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r} in {where}")
    missing = {"threshold_dbm", "noise_power_dbm", "samples"} - set(block)
    if missing:
        raise ValueError(f"missing field {sorted(missing)[0]!r} in {where}")
    if "snr_db" in block:
        _require("signal_power_dbm" not in block,
                 f"{where}: give either snr_db or signal_power_dbm, not both")
        cfg = EdConfig.from_snr(block["threshold_dbm"], block["snr_db"],
                                block["noise_power_dbm"], block["samples"])
    else:
        _require("signal_power_dbm" in block,
                 f"missing field 'signal_power_dbm' (or 'snr_db') in {where}")
        cfg = EdConfig(block["threshold_dbm"], block["signal_power_dbm"],
                       block["noise_power_dbm"], block["samples"])
    return detection_probability(cfg)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its dict form, naming any offending field.

    Besides scalar ``p_dw`` / ``p_dl``, the optional ``ed_wifi`` / ``ed_laa``
    blocks derive the detection probabilities from an energy-detector
    configuration (threshold_dbm, snr_db or signal_power_dbm,
    noise_power_dbm, samples).
    """
    _require(isinstance(data, dict), "scenario must be a mapping")
    known = set(_SCALAR_FIELDS) | {"wifi", "laa", "ed_wifi", "ed_laa"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r} in scenario")
    for name in ("n_wifi", "n_laa"):
        _require(name in data, f"missing field {name!r} in scenario")

    kwargs = {k: data[k] for k in _SCALAR_FIELDS if k in data}
    if "wifi" in data:
        kwargs["wifi"] = _params_from_dict(WifiParams, data["wifi"], "wifi")
    if "laa" in data:
        kwargs["laa"] = _params_from_dict(LaaParams, data["laa"], "laa")
    if "ed_wifi" in data:
        _require("p_dw" not in data,
                 "give either p_dw or ed_wifi, not both")
        kwargs["p_dw"] = _detection_from_block(data["ed_wifi"], "ed_wifi")
    if "ed_laa" in data:
        _require("p_dl" not in data,
                 "give either p_dl or ed_laa, not both")
        kwargs["p_dl"] = _detection_from_block(data["ed_laa"], "ed_laa")
    return Scenario(**kwargs)


def scenario_to_yaml(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=False)


def scenario_from_yaml(text: str) -> Scenario:
    return scenario_from_dict(yaml.load(text, Loader=_YamlLoader))


def load_scenario(path) -> Scenario:
    """Read a scenario file (YAML, UTF-8)."""
    with open(path, encoding="utf-8") as fh:
        return scenario_from_yaml(fh.read())


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_yaml(s))
