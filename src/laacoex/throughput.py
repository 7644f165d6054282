"""Event classes, probabilities and durations, and saturation throughput.

Each channel event is one of six classes (EVENT_CLASSES): idle slot,
single-network success or collision for either technology, or a
cross-technology collision. The expected event duration weights all six by
their probabilities; throughput is the payload airtime delivered per
expected event duration. Both engines assemble their reports here.
"""
from __future__ import annotations

import math

from .core import (Scenario, Solution, ThroughputReport, WifiParams,
                   derived_durations)
from .solver import SolverConfig, solve_coexistence

# the six classes of a channel event, in the order of every per-class tuple
EVENT_CLASSES = ("idle", "wifi-success", "laa-success",
                 "wifi-collision", "laa-collision", "cross-collision")


def _busy_and_success(tau: float, n: int) -> tuple[float, float]:
    """One network's (p_tr, p_s) for n stations that each transmit with
    probability tau; without stations p_tr is 1.0 - 1.0 and p_s is 0.0."""
    p_tr = 1.0 - (1.0 - tau) ** n
    # min() guards the one-node case, where rounding in the ratio can push
    # the conditional a few ulp above 1
    return p_tr, (min(1.0, n * tau * (1.0 - tau) ** (n - 1) / p_tr)
                  if p_tr > 0.0 else 0.0)


def event_probabilities(sol: Solution, n_wifi: int,
                        n_laa: int) -> tuple[float, float, float, float]:
    """(p_trw, p_sw, p_trl, p_sl): per network, the probability that at
    least one station transmits, and that exactly one does given that.

    An empty network contributes p_tr = 0 and, by convention, p_s = 0 (the
    conditional is undefined but every downstream product vanishes).
    """
    return (*_busy_and_success(sol.tau_w, n_wifi),
            *_busy_and_success(sol.tau_l, n_laa))


def event_weights(p_trw: float, p_sw: float, p_trl: float,
                  p_sl: float) -> tuple[float, ...]:
    """The probability of each EVENT_CLASSES class. The six partition the
    event space, so they sum to one for any input probabilities."""
    cross = (p_trw * p_sw * p_trl * p_sl
             + p_trw * p_sw * p_trl * (1.0 - p_sl)
             + p_trw * (1.0 - p_sw) * p_trl * p_sl
             + p_trw * (1.0 - p_sw) * p_trl * (1.0 - p_sl))
    return ((1.0 - p_trw) * (1.0 - p_trl),
            p_trw * p_sw * (1.0 - p_trl),
            p_trl * p_sl * (1.0 - p_trw),
            p_trw * (1.0 - p_sw) * (1.0 - p_trl),
            p_trl * (1.0 - p_sl) * (1.0 - p_trw),
            cross)


def event_durations(s: Scenario) -> tuple[float, ...]:
    """The duration of each EVENT_CLASSES class, idle being one slot.

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
    return s.wifi.slot_us, t_sw, t_sl, t_cw, t_cl, max(t_cw, t_cl)


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


def _build_report(cls, s: Scenario, probs, durations, bits, time: float,
                  events=1, **extra):
    """A ``cls`` report, ThroughputReport's fields in order and then
    ``extra``, of ``events`` events lasting ``time`` in all that delivered
    ``bits`` per network; per-user figures are 0 without users."""
    _, t_sw, t_sl, t_cw, t_cl, t_cc = durations
    tput_w, tput_l = bits[0] / time, bits[1] / time
    return cls(*probs, t_sw, t_cw, t_sl, t_cl, t_cc, time / events,
               tput_w, tput_l, tput_w + tput_l,
               tput_w / s.n_wifi if s.n_wifi else 0.0,
               tput_l / s.n_laa if s.n_laa else 0.0, **extra)


def coexistence_throughput(s: Scenario, sol: Solution) -> ThroughputReport:
    """Throughput of both networks at a solved fixed point: each network's
    success weight times its payload bits, over the expected event time,
    the class weights times the class durations summed in class order."""
    probs = event_probabilities(sol, s.n_wifi, s.n_laa)
    weights, durations = event_weights(*probs), event_durations(s)
    t_e = 0.0
    for weight, duration in zip(weights, durations):
        t_e += weight * duration    # not sum(): from 3.12 it compensates
    return _build_report(ThroughputReport, s, probs, durations,
                         payload_bits(s, weights[1], weights[2]), t_e)


def wifi_only_throughput(n: int, wifi: WifiParams,
                         cfg: SolverConfig = SolverConfig()) -> ThroughputReport:
    """Classic single-technology saturation throughput for n Wi-Fi stations:
    the coexistence throughput with no LAA nodes, all LAA fields zero."""
    s = Scenario(n_wifi=n, n_laa=0, wifi=wifi)
    return coexistence_throughput(s, solve_coexistence(s, cfg))
