import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laacoex.markov import chain_tau, laa_tau, wifi_tau
from markov_oracle import laa_stationary, wifi_stationary

PROB_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
W0_GRID = [2, 4, 8, 16, 32, 64]


def geom(x, n):
    """Brute-force sum of x**j for j < n (test-side oracle)."""
    return math.fsum(x ** j for j in range(n))


class TestWifiTau:
    def test_no_collisions_collapses(self):
        assert wifi_tau(16, 6, 0.0) == pytest.approx(2 / 17, abs=1e-15)

    def test_continuous_at_half(self):
        # the 1-2p factor in the closed form cancels; the limit branch must
        # agree with nearby direct evaluations
        at_half = wifi_tau(16, 6, 0.5)
        assert math.isfinite(at_half)
        assert at_half == pytest.approx(wifi_tau(16, 6, 0.5 - 1e-6), abs=1e-4)
        assert at_half == pytest.approx(wifi_tau(16, 6, 0.5 + 1e-6), abs=1e-4)

    def test_matches_stationary_distribution(self):
        dist = wifi_stationary(16, 2, 0.3)
        assert wifi_tau(16, 2, 0.3) == pytest.approx(
            math.fsum(dist.stage_heads()), abs=1e-10)

    def test_collision_certain_rejected(self):
        with pytest.raises(ValueError):
            wifi_tau(16, 6, 1.0)

    @pytest.mark.parametrize("p", [float("nan"), -0.1, 1.0])
    def test_bound_chain_rejects_invalid_probability(self, p):
        # the closure the solver binds once per solve keeps the range check
        with pytest.raises(ValueError, match="collision probability"):
            chain_tau(16, 6, 1)(p)
        with pytest.raises(ValueError, match="collision probability"):
            laa_tau(16, 6, 2, p)

    @pytest.mark.parametrize("p", PROB_GRID)
    def test_decreasing_in_window(self, p):
        taus = [wifi_tau(w0, 3, p) for w0 in W0_GRID]
        assert all(a > b for a, b in zip(taus, taus[1:]))


class TestLaaTau:
    def test_no_collisions_collapses(self):
        assert laa_tau(4, 1, 1, 0.0) == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 0.99])
    def test_single_retry_equals_wifi_chain(self, p):
        assert laa_tau(16, 6, 1, p) == pytest.approx(wifi_tau(16, 6, p),
                                                     abs=1e-12)

    def test_matches_stationary_distribution(self):
        dist = laa_stationary(16, 2, 3, 0.4)
        assert laa_tau(16, 2, 3, 0.4) == pytest.approx(
            math.fsum(dist.stage_heads()), abs=1e-10)

    @pytest.mark.parametrize("w0, m, p", [(4, 1, 0.3), (16, 2, 0.6),
                                          (8, 0, 0.45)])
    def test_zero_retry_reduction(self, w0, m, p):
        # with no extra stays, the top-window occupancy term vanishes and
        # the closed form reduces to windows/attempts over stages 0..m
        expected = 2.0 / (w0 * geom(2 * p, m + 1) / geom(p, m + 1) + 1.0)
        assert laa_tau(w0, m, 0, p) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", PROB_GRID)
    def test_decreasing_in_window(self, p):
        taus = [laa_tau(w0, 2, 2, p) for w0 in W0_GRID]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_retry_limit_out_of_range(self):
        with pytest.raises(ValueError):
            laa_tau(16, 2, 9, 0.1)
        with pytest.raises(ValueError):
            laa_tau(16, 2, -1, 0.1)


class TestStationaryDistributions:
    def test_two_state_chain_by_hand(self):
        # w0=2, m=0, p=0: stages {0,1} share window 2; only stage 0 occupied.
        # States (0,0) and (0,1) weigh 1 and 1/2 -> b00 = 2/3.
        dist = wifi_stationary(2, 0, 0.0)
        assert dist.b00 == pytest.approx(2 / 3, abs=1e-15)
        assert dist.b[(0, 1)] == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("w0", [2, 16])
    @pytest.mark.parametrize("m", [0, 2, 6])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9])
    def test_wifi_normalization(self, w0, m, p):
        total = math.fsum(wifi_stationary(w0, m, p).b.values())
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("e_l", [0, 1, 4, 8])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9])
    def test_laa_normalization(self, e_l, p):
        total = math.fsum(laa_stationary(8, 2, e_l, p).b.values())
        assert abs(total - 1.0) <= 1e-12

    def test_stage_heads_decay_geometrically(self):
        dist = wifi_stationary(16, 6, 0.3)
        for j, head in enumerate(dist.stage_heads()):
            assert head == pytest.approx(0.3 ** j * dist.b00, rel=1e-12)

    def test_counter_profile_is_linear(self):
        dist = laa_stationary(4, 1, 1, 0.5)
        for (j, k), value in dist.b.items():
            window = 2 ** min(j, 1) * 4
            assert value == pytest.approx(
                (window - k) / window * dist.b[(j, 0)], rel=1e-12)

    def test_top_window_reused_across_extra_stages(self):
        # stages 2, 3, 4 all sit at window 64; the last head is p^4 * b00
        dist = laa_stationary(16, 2, 2, 0.5)
        assert dist.b[(4, 0)] == pytest.approx(0.5 ** 4 * dist.b00, rel=1e-12)
        for stage in (2, 3, 4):
            assert (stage, 63) in dist.b
            assert (stage, 64) not in dist.b

    def test_idle_laa_chain(self):
        dist = laa_stationary(4, 1, 1, 0.0)
        assert dist.b00 == pytest.approx(0.4, abs=1e-15)
        assert all(head == 0 for head in dist.stage_heads()[1:])


@settings(max_examples=150)
@given(w0=st.sampled_from(W0_GRID), m=st.integers(0, 7),
       p=st.floats(0.0, 0.95))
def test_wifi_closed_form_matches_enumeration(w0, m, p):
    dist = wifi_stationary(w0, m, p)
    assert wifi_tau(w0, m, p) == pytest.approx(
        math.fsum(dist.stage_heads()), abs=1e-10)


@settings(max_examples=150)
@given(w0=st.sampled_from([4, 8, 16]), m=st.integers(0, 6),
       e_l=st.integers(0, 8), p=st.floats(0.0, 0.95))
def test_laa_closed_form_matches_enumeration(w0, m, e_l, p):
    dist = laa_stationary(w0, m, e_l, p)
    assert laa_tau(w0, m, e_l, p) == pytest.approx(
        math.fsum(dist.stage_heads()), abs=1e-10)


@settings(max_examples=150)
@given(w0=st.sampled_from(W0_GRID), m=st.integers(0, 7),
       p=st.floats(0.0, 0.99))
def test_chain_equivalence_at_single_retry(w0, m, p):
    assert laa_tau(w0, m, 1, p) == pytest.approx(wifi_tau(w0, m, p),
                                                 abs=1e-12)
