import pytest
from hypothesis import given
from hypothesis import strategies as st

from laacoex import cli
from laacoex.core import (LaaParams, Scenario, Solution, WifiParams,
                          scenario_from_dict)
from laacoex.solver import solve_coexistence
from laacoex.throughput import (coexistence_throughput, event_durations,
                                event_probabilities, event_weights,
                                wifi_only_throughput)
from scenarios import CASE2, CASE3, comparison_cell

RUN_PRESETS = ("table4_case1", "table4_case2", "table4_case3", "table5",
               "table6", "table7")


def sol(tau_w=0.0, tau_l=0.0):
    return Solution(tau_w=tau_w, tau_l=tau_l, p_w=0.0, p_l=0.0,
                    residual=0.0, iterations=0)


class TestEventProbabilities:
    def test_single_node_always_succeeds(self):
        p_trw, p_sw, _, _ = event_probabilities(sol(tau_w=0.2), 1, 0)
        assert p_trw == pytest.approx(0.2, abs=1e-15)
        assert p_sw == 1.0

    def test_two_nodes_enumerated(self):
        # 4 equally likely joint outcomes at tau = 1/2: one collision,
        # two single transmissions, one idle
        p_trw, p_sw, _, _ = event_probabilities(sol(tau_w=0.5), 2, 0)
        assert p_trw == pytest.approx(0.75, abs=1e-15)
        assert p_sw == pytest.approx(2 / 3, abs=1e-15)

    def test_empty_network_conventions(self):
        _, _, p_trl, p_sl = event_probabilities(sol(tau_w=0.3, tau_l=0.4),
                                                2, 0)
        assert p_trl == 0.0
        assert p_sl == 0.0

    def test_probabilities_stay_in_range(self):
        probs = event_probabilities(sol(tau_w=1e-17, tau_l=0.9999), 1, 7)
        for value in probs:
            assert 0.0 <= value <= 1.0


class TestEventDurations:
    def test_reference_timing(self):
        # 1820.44 + 20 + 30.22 + 16 + 18.67 + 34 + 0.2 at 9 Mbps, 2048 B
        _, t_sw, _, t_cw, _, _ = event_durations(Scenario(n_wifi=1, n_laa=1))
        assert t_sw == pytest.approx(1939.53, abs=0.01)
        assert t_cw == pytest.approx(1904.77, abs=0.01)

    def test_success_exceeds_collision_by_ack_leg(self):
        w = WifiParams()
        _, t_sw, _, t_cw, _, _ = event_durations(
            Scenario(n_wifi=1, n_laa=1, wifi=w))
        ack = 8 * w.ack_bytes / w.control_rate_mbps
        assert t_sw - t_cw == pytest.approx(
            w.sifs_us + ack + w.prop_delay_us, abs=1e-9)

    def test_laa_occupancy_includes_turnaround(self):
        _, _, t_sl, _, t_cl, _ = event_durations(Scenario(
            n_wifi=1, n_laa=1,
            laa=LaaParams(txop_us=2000.0, next_tx_delay_us=500.0)))
        assert t_sl == 2500.0
        assert t_cl == t_sl

    def test_cross_collision_takes_longer_loser(self):
        _, _, _, t_cw, t_cl, t_cc = event_durations(Scenario(
            n_wifi=1, n_laa=1,
            laa=LaaParams(txop_us=2000.0, next_tx_delay_us=500.0)))
        assert t_cc == max(t_cw, t_cl) == 2500.0


probability = st.floats(0.0, 1.0)


class TestExpectedEventTime:
    """The expected event time's class weights, and its sum over them."""

    def test_idle_only(self):
        assert event_weights(0.0, 0.0, 0.0, 0.0) == (1.0, 0, 0, 0, 0, 0)

    @given(probability, probability, probability, probability)
    def test_coefficients_sum_to_one(self, p_trw, p_sw, p_trl, p_sl):
        # the six class weights partition the event space
        weights = event_weights(p_trw, p_sw, p_trl, p_sl)
        assert len(weights) == 6
        assert min(weights) >= 0.0
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_single_network_form(self):
        assert event_weights(0.4, 0.8, 0.0, 0.0) == pytest.approx(
            ((1 - 0.4), 0.4 * 0.8, 0.0, 0.4 * 0.2, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("preset", RUN_PRESETS)
    def test_sums_in_class_order(self, preset):
        # t_e is accumulated left to right in class order: a compensated
        # or reordered sum would change the goldens' last digits
        s = scenario_from_dict(cli._load_input(preset))
        sol_ = solve_coexistence(s)
        t_e = 0.0
        for weight, duration in zip(
                event_weights(*event_probabilities(sol_, s.n_wifi, s.n_laa)),
                event_durations(s)):
            t_e += weight * duration
        assert coexistence_throughput(s, sol_).t_e_us == t_e


class TestReferenceThroughputs:
    def test_one_on_one_class3(self):
        s = comparison_cell(1, 1)
        rep = coexistence_throughput(s, solve_coexistence(s))
        assert rep.tput_wifi_mbps == pytest.approx(1.49, rel=0.05)
        assert rep.tput_laa_mbps == pytest.approx(5.26, rel=0.05)

    def test_two_on_two_class1(self):
        s = comparison_cell(2, 2, CASE2, 18.0, 15.6)
        rep = coexistence_throughput(s, solve_coexistence(s))
        assert rep.tput_wifi_mbps == pytest.approx(2.68, rel=0.05)
        assert rep.tput_laa_mbps == pytest.approx(4.66, rel=0.05)

    @pytest.mark.parametrize("n, r_w, expected", [
        (2, 9.0, 7.77),
        (4, 54.0, 34.07),
        (6, 18.0, 13.12),
    ])
    def test_wifi_only_baseline(self, n, r_w, expected):
        rep = wifi_only_throughput(n, WifiParams(data_rate_mbps=r_w))
        assert rep.tput_wifi_mbps == pytest.approx(expected, rel=0.05)
        assert rep.tput_laa_mbps == 0.0
        assert rep.per_user_wifi_mbps == pytest.approx(
            rep.tput_wifi_mbps / n, abs=1e-15)


@pytest.mark.parametrize("n, w0, m, r_w", [
    (1, 16, 6, 9.0), (2, 16, 6, 9.0), (5, 8, 1, 18.0), (12, 32, 4, 54.0),
])
def test_no_laa_reduces_to_baseline(n, w0, m, r_w):
    wifi = WifiParams(w0=w0, m=m, data_rate_mbps=r_w)
    s = Scenario(n_wifi=n, n_laa=0, wifi=wifi)
    via_coex = coexistence_throughput(s, solve_coexistence(s))
    via_baseline = wifi_only_throughput(n, wifi)
    assert via_coex.tput_wifi_mbps == pytest.approx(
        via_baseline.tput_wifi_mbps, rel=1e-9)
    assert via_coex.t_e_us == pytest.approx(via_baseline.t_e_us, rel=1e-9)


SWEEP_GRID = [
    comparison_cell(1, 1),
    comparison_cell(2, 2, CASE2, 54.0, 70.2),
    comparison_cell(4, 2, CASE3, 18.0, 15.6),
    Scenario(n_wifi=5, n_laa=5,
             wifi=WifiParams(w0=8, m=1, data_rate_mbps=9.0),
             laa=LaaParams(w0=8, m=1, txop_us=3000.0, data_rate_mbps=8.4)),
    Scenario(n_wifi=3, n_laa=7,
             wifi=WifiParams(w0=16, m=1, data_rate_mbps=54.0),
             laa=LaaParams(w0=16, m=6, txop_us=3000.0, data_rate_mbps=75.8)),
]


@pytest.mark.parametrize("s", SWEEP_GRID)
def test_airtime_bounds(s):
    rep = coexistence_throughput(s, solve_coexistence(s))
    assert 0.0 <= rep.tput_wifi_mbps <= s.wifi.data_rate_mbps
    assert 0.0 <= rep.tput_laa_mbps <= s.laa.pdcch_fraction * s.laa.data_rate_mbps


@pytest.mark.parametrize("s", SWEEP_GRID)
def test_report_internal_consistency(s):
    rep = coexistence_throughput(s, solve_coexistence(s))
    assert rep.t_cc_us == max(rep.t_cw_us, rep.t_cl_us)
    assert rep.t_e_us > 0
    assert rep.per_user_wifi_mbps == pytest.approx(
        rep.tput_wifi_mbps / s.n_wifi, abs=1e-15)
    assert rep.per_user_laa_mbps == pytest.approx(
        rep.tput_laa_mbps / s.n_laa, abs=1e-15)
    assert rep.tput_total_mbps == rep.tput_wifi_mbps + rep.tput_laa_mbps


def test_total_coexistence_below_baseline_on_matched_contention():
    # equal contention parameters, LAA holding long TXOPs: splitting N nodes
    # across the technologies always costs total throughput
    for n_total in range(2, 21, 2):
        wifi = WifiParams(w0=8, m=1, data_rate_mbps=9.0)
        laa = LaaParams(w0=8, m=1, txop_us=3000.0, data_rate_mbps=8.4)
        s = Scenario(n_wifi=n_total // 2, n_laa=n_total // 2, wifi=wifi, laa=laa)
        coex = coexistence_throughput(s, solve_coexistence(s))
        base = wifi_only_throughput(n_total, wifi)
        assert (coex.tput_wifi_mbps + coex.tput_laa_mbps
                < base.tput_wifi_mbps)
