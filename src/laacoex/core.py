"""Domain types and parameter presets for Wi-Fi / LTE-LAA coexistence studies.

All times are microseconds, rates are Mbps (= bits per microsecond), powers
enter the API in dBm. Every type is an immutable value object, safe to share
across parallel workers.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from ._fields import check_field_types, check_keys
from .ed import EdConfig, detection_probability

BITS_PER_BYTE = 8.0   # a float: bytes beyond the float range / 8 give inf
# The simulator draws backoff counters from 64-bit words, so the largest
# contention window w0 * 2**m may be at most 2**64 slots.
_MAX_WINDOW_BITS = 64


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def check_run_length(horizon_events: int, seed: int, warmup_events: int,
                     names=("horizon_events", "seed", "warmup_events")) -> None:
    """seed >= 0 and horizon > warmup >= 0: ``SimConfig``'s rules, which the
    CLI applies to every engine without importing the simulator. A refusal
    names the three values by ``names``: ``SimConfig``'s fields, or the
    CLI's flags."""
    horizon, seed_name, warmup = names
    _require(seed >= 0, f"{seed_name} must be >= 0, got {seed}")
    _require(horizon_events > warmup_events >= 0,
             f"{horizon} must exceed {warmup} >= 0")


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
    maximum stage (no extra stay at the top window). The first two are
    written into ``laa`` when the scenario is built, so ``laa`` always holds
    the parameters the model runs on; ``replace`` applies them again.
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
        if self.comparison_mode:
            # DIFS's very value and type: an int 34 echoes as 34, not 34.0
            object.__setattr__(self, "laa", replace(
                self.laa, retry_limit=0, next_tx_delay_us=self.wifi.difs_us))

    def chains(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """(w0, m, extra_stays) of the Wi-Fi and of the LAA backoff chain,
        each holding its top window for ``extra_stays`` further failures
        before the stage resets; in comparison mode neither holds one."""
        wifi, laa = self.wifi, self.laa
        extra_w = 0 if self.comparison_mode else 1
        return (wifi.w0, wifi.m, extra_w), (laa.w0, laa.m, laa.retry_limit)


@dataclass(frozen=True)
class Solution:
    """Fixed point of the coupled access/collision probabilities."""

    tau_w: float       # per-slot transmission probability, one Wi-Fi AP
    tau_l: float       # per-slot transmission probability, one LAA eNB
    p_w: float         # conditional collision probability seen by a Wi-Fi AP
    p_l: float         # conditional collision probability seen by an LAA eNB
    residual: float    # max |tau - map(tau)| at the returned point
    iterations: int    # damped iterations, plus the fallback's outer bisection
                       # steps (its inner tau_l bisections are not counted)
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
    tput_total_mbps: float     # Wi-Fi plus LAA
    per_user_wifi_mbps: float
    per_user_laa_mbps: float


# ---------------------------------------------------------------------------
# Scenario files: nested key/value, one mapping per parameter group.
# ---------------------------------------------------------------------------

_SCALAR_FIELDS = ("n_wifi", "n_laa", "p_dw", "p_dl", "comparison_mode")
# each detection probability and the energy-detector block that may derive
# it; a file gives one or the other
ED_BLOCKS = {"p_dw": "ed_wifi", "p_dl": "ed_laa"}


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-dict form of a scenario, suitable for YAML round-tripping: its
    fields in order, each parameter group a nested mapping."""
    return asdict(s)


def _detection_from_block(block: dict, where: str) -> float:
    check_keys(block, where, ("threshold_dbm", "signal_power_dbm", "snr_db",
                              "noise_power_dbm", "samples"),
               required=("noise_power_dbm", "samples", "threshold_dbm"))
    if "snr_db" in block:
        _require("signal_power_dbm" not in block,
                 f"{where}: give either snr_db or signal_power_dbm, not both")
        build, signal = EdConfig.from_snr, block["snr_db"]
    else:
        _require("signal_power_dbm" in block,
                 f"missing field 'signal_power_dbm' (or 'snr_db') in {where}")
        build, signal = EdConfig, block["signal_power_dbm"]
    try:
        cfg = build(block["threshold_dbm"], signal, block["noise_power_dbm"],
                    block["samples"])
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    return detection_probability(cfg)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its dict form, naming any offending field.

    Besides scalar ``p_dw`` / ``p_dl``, the optional ``ed_wifi`` / ``ed_laa``
    blocks derive the detection probabilities from an energy-detector
    configuration (threshold_dbm, snr_db or signal_power_dbm,
    noise_power_dbm, samples). With ``comparison_mode``, ``laa.retry_limit``
    and ``laa.next_tx_delay_us`` may be given only at the values the mode
    sets, 0 and ``wifi.difs_us``; any other value is refused, not dropped.
    """
    check_keys(data, "scenario",
               _SCALAR_FIELDS + ("wifi", "laa", *ED_BLOCKS.values()),
               required=("n_wifi", "n_laa"))

    kwargs = {k: data[k] for k in _SCALAR_FIELDS if k in data}
    for key, cls in (("wifi", WifiParams), ("laa", LaaParams)):
        if key in data:
            check_keys(data[key], key, (f.name for f in fields(cls)))
            try:
                kwargs[key] = cls(**data[key])
            except ValueError as err:
                raise ValueError(f"{key}: {err}") from None
    for field, block in ED_BLOCKS.items():
        if block in data:
            _require(field not in data,
                     f"give either {field} or {block}, not both")
            kwargs[field] = _detection_from_block(data[block], block)
    s = Scenario(**kwargs)
    # only comparison mode moves a field; it must not move a given one
    for name, value in data.get("laa", {}).items():
        _require(value == getattr(s.laa, name),
                 f"laa: {name} {value!r} contradicts comparison mode, which "
                 f"sets it to {getattr(s.laa, name)!r}")
    return s
