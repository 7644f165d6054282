"""Event probabilities, event durations and saturation throughput.

Each channel event is one of six classes: idle slot, single-network success
or collision for either technology, or a cross-technology collision. The
expected event duration weights all six by their probabilities; throughput
is the payload airtime delivered per expected event duration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (Scenario, Solution, ThroughputReport, WifiParams,
                   derived_durations)
from .solver import SolverConfig, solve_coexistence


@dataclass(frozen=True)
class EventProbabilities:
    """Per-event transmission and conditional-success probabilities."""

    p_trw: float   # P(at least one Wi-Fi AP transmits)
    p_sw: float    # P(exactly one Wi-Fi AP | at least one); 0 when p_trw = 0
    p_trl: float
    p_sl: float


@dataclass(frozen=True)
class EventDurations:
    """Channel-occupancy time of each non-idle event class (microseconds)."""

    t_sw: float
    t_cw: float
    t_sl: float
    t_cl: float
    t_cc: float


def event_probabilities(sol: Solution, n_wifi: int,
                        n_laa: int) -> EventProbabilities:
    """Transmission/success probabilities for given node counts.

    An empty network contributes p_tr = 0 and, by convention, p_s = 0 (the
    conditional is undefined but every downstream product vanishes).
    """
    p_trw = p_sw = p_trl = p_sl = 0.0
    if n_wifi:
        p_trw = 1.0 - (1.0 - sol.tau_w) ** n_wifi
        if p_trw > 0.0:
            # min() guards the one-node case, where rounding in the ratio
            # can push the conditional a few ulp above 1
            p_sw = min(1.0, n_wifi * sol.tau_w
                       * (1.0 - sol.tau_w) ** (n_wifi - 1) / p_trw)
    if n_laa:
        p_trl = 1.0 - (1.0 - sol.tau_l) ** n_laa
        if p_trl > 0.0:
            p_sl = min(1.0, n_laa * sol.tau_l
                       * (1.0 - sol.tau_l) ** (n_laa - 1) / p_trl)
    return EventProbabilities(p_trw=p_trw, p_sw=p_sw, p_trl=p_trl, p_sl=p_sl)


def event_durations(s: Scenario) -> EventDurations:
    """Durations of the five non-idle event classes of an effective scenario.

    A Wi-Fi success spans headers, payload, SIFS, ACK, DIFS and two
    propagation delays; a collision saves the SIFS/ACK leg. An LAA grab
    occupies the TXOP plus the turnaround to the next transmission whether
    it succeeds or collides. A network with no stations has no events, so
    its durations are 0. Cross-technology collisions last as long as the
    longer loser, which without one network is the other's collision.
    """
    t_sw = t_cw = t_sl = t_cl = 0.0
    if s.n_wifi:
        wifi = s.wifi
        psize, mach, ack = derived_durations(wifi)
        t_sw = (mach + wifi.phy_header_us + psize + wifi.sifs_us
                + wifi.prop_delay_us + ack + wifi.difs_us + wifi.prop_delay_us)
        if not math.isfinite(t_sw):  # finite inputs too large for their sum
            raise OverflowError(f"t_sw_us is {t_sw}: a Wi-Fi time or rate is "
                                "out of floating-point range")
        t_cw = (mach + wifi.phy_header_us + psize + wifi.difs_us
                + wifi.prop_delay_us)
    if s.n_laa:
        t_sl = t_cl = s.laa.txop_us + s.laa.next_tx_delay_us
    return EventDurations(t_sw=t_sw, t_cw=t_cw, t_sl=t_sl, t_cl=t_cl,
                          t_cc=max(t_cw, t_cl))


def payload_bits(s: Scenario, share_w: float = 1.0,
                 share_l: float = 1.0) -> tuple[float, float]:
    """Payload bits of one Wi-Fi success (its frame's payload; headers are
    overhead inside t_sw) and of one LAA success (the TXOP's data fraction).
    Each share leads its product, so the bits are rounded in one order for
    a success probability and for 1.0, which gives the bits themselves."""
    # no payload without Wi-Fi stations: a tiny unused rate would make it
    # inf, and a zero share or count times inf a NaN (LAA's are all finite)
    bits_w = (share_w * derived_durations(s.wifi)[0] * s.wifi.data_rate_mbps
              if s.n_wifi else 0.0)
    return bits_w, (share_l * s.laa.pdcch_fraction * s.laa.txop_us
                    * s.laa.data_rate_mbps)


def expected_event_time(ep: EventProbabilities, ed: EventDurations,
                        slot_us: float) -> float:
    """Expected duration of one channel event (microseconds).

    The six class weights (idle, per-network success, per-network collision,
    cross collision) partition the probability space, so they sum to one for
    any input probabilities.
    """
    p_trw, p_sw, p_trl, p_sl = ep.p_trw, ep.p_sw, ep.p_trl, ep.p_sl
    cross = (p_trw * p_sw * p_trl * p_sl
             + p_trw * p_sw * p_trl * (1.0 - p_sl)
             + p_trw * (1.0 - p_sw) * p_trl * p_sl
             + p_trw * (1.0 - p_sw) * p_trl * (1.0 - p_sl))
    return ((1.0 - p_trw) * (1.0 - p_trl) * slot_us
            + p_trw * p_sw * (1.0 - p_trl) * ed.t_sw
            + p_trl * p_sl * (1.0 - p_trw) * ed.t_sl
            + p_trw * (1.0 - p_sw) * (1.0 - p_trl) * ed.t_cw
            + p_trl * (1.0 - p_sl) * (1.0 - p_trw) * ed.t_cl
            + cross * ed.t_cc)


def coexistence_throughput(s: Scenario, sol: Solution) -> ThroughputReport:
    """Throughput of both networks at a solved fixed point: each network's
    success probability times its payload bits, over the expected event time.
    Per-user figures divide by the node count, 0 for an absent network.
    """
    s = s.effective()
    ep = event_probabilities(sol, s.n_wifi, s.n_laa)
    ed = event_durations(s)
    t_e = expected_event_time(ep, ed, s.wifi.slot_us)
    bits_w, bits_l = payload_bits(s, ep.p_trw * ep.p_sw * (1.0 - ep.p_trl),
                                  ep.p_trl * ep.p_sl * (1.0 - ep.p_trw))
    tput_w, tput_l = bits_w / t_e, bits_l / t_e
    return ThroughputReport(
        p_trw=ep.p_trw, p_sw=ep.p_sw, p_trl=ep.p_trl, p_sl=ep.p_sl,
        t_sw_us=ed.t_sw, t_cw_us=ed.t_cw, t_sl_us=ed.t_sl, t_cl_us=ed.t_cl,
        t_cc_us=ed.t_cc, t_e_us=t_e,
        tput_wifi_mbps=tput_w, tput_laa_mbps=tput_l,
        per_user_wifi_mbps=tput_w / s.n_wifi if s.n_wifi else 0.0,
        per_user_laa_mbps=tput_l / s.n_laa if s.n_laa else 0.0)


def wifi_only_throughput(n: int, wifi: WifiParams,
                         cfg: SolverConfig = SolverConfig()) -> ThroughputReport:
    """Classic single-technology saturation throughput for n Wi-Fi stations:
    the coexistence throughput with no LAA nodes, all LAA fields zero."""
    s = Scenario(n_wifi=n, n_laa=0, wifi=wifi)
    return coexistence_throughput(s, solve_coexistence(s, cfg))
