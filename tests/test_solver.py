from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laacoex import solver
from laacoex.core import LaaParams, Scenario, WifiParams
from laacoex.markov import chain_tau
from laacoex.solver import ConvergenceError, SolverConfig, solve_coexistence


def solve_wifi_only(n, w0, m):
    """The single-technology fixed point: coexistence with no LAA nodes."""
    return solve_coexistence(Scenario(n_wifi=n, n_laa=0,
                                      wifi=WifiParams(w0=w0, m=m)))


def bisect_wifi_only(n, w0, m, tol=1e-12):
    """Independent 1-D oracle: bisection on the collision probability.

    p - (1 - (1 - tau(p))^(n-1)) is increasing in p, so the root brackets
    on [0, 1). Deliberately avoids the damped-iteration code path.
    """
    def f(p):
        return p - (1.0 - (1.0 - chain_tau(w0, m, 1)(p)) ** (n - 1))

    lo, hi = 0.0, 1.0 - 1e-12
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    return chain_tau(w0, m, 1)(p), p


class TestWifiOnly:
    def test_single_station_never_collides(self):
        sol = solve_wifi_only(1, 16, 6)
        assert sol.p_w == 0.0
        assert sol.tau_w == pytest.approx(2 / 17, abs=1e-12)

    def test_matches_bisection_oracle(self):
        sol = solve_wifi_only(2, 16, 6)
        tau_ref, p_ref = bisect_wifi_only(2, 16, 6)
        assert sol.tau_w == pytest.approx(tau_ref, abs=1e-9)
        assert sol.p_w == pytest.approx(p_ref, abs=1e-9)

    @pytest.mark.parametrize("n, w0, m", [(3, 4, 1), (5, 8, 2), (10, 16, 6),
                                          (20, 32, 3), (50, 16, 6)])
    def test_oracle_agreement_across_grid(self, n, w0, m):
        sol = solve_wifi_only(n, w0, m)
        tau_ref, _ = bisect_wifi_only(n, w0, m)
        assert sol.tau_w == pytest.approx(tau_ref, abs=1e-8)

    def test_congestion_lowers_access(self):
        assert solve_wifi_only(50, 16, 6).tau_w < solve_wifi_only(2, 16, 6).tau_w

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            solve_wifi_only(0, 16, 6)


def fallback(s, spent, cfg=SolverConfig()):
    """The bisection fallback alone, as after ``spent`` stalled damped
    iterations."""
    return solver._solve_by_bisection(*solver._sides(s), cfg,
                                      spent)


def make_scenario(n_wifi=1, n_laa=1, w0w=16, mw=6, w0l=16, ml=6, e_l=1,
                  p_dw=1.0, p_dl=1.0, comparison=False):
    return Scenario(n_wifi=n_wifi, n_laa=n_laa,
                    wifi=WifiParams(w0=w0w, m=mw),
                    laa=LaaParams(w0=w0l, m=ml, retry_limit=e_l),
                    p_dw=p_dw, p_dl=p_dl, comparison_mode=comparison)


class TestCoexistence:
    def test_reduces_to_wifi_only(self):
        sol = solve_coexistence(make_scenario(n_wifi=2, n_laa=0))
        tau_ref, _ = bisect_wifi_only(2, 16, 6)
        assert sol.tau_w == pytest.approx(tau_ref, abs=1e-8)
        assert sol.tau_l == 0.0
        assert sol.p_l == 0.0

    def test_reduces_to_laa_only(self):
        # single-technology LAA side cross-checked by the same bisection
        # trick with the LAA chain
        sol = solve_coexistence(make_scenario(n_wifi=0, n_laa=3, w0l=8,
                                              ml=1, e_l=2))

        def f(p):
            return p - (1.0 - (1.0 - chain_tau(8, 1, 2)(p)) ** 2)

        lo, hi = 0.0, 1.0 - 1e-12
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert sol.tau_l == pytest.approx(
            chain_tau(8, 1, 2)(0.5 * (lo + hi)), abs=1e-8)
        assert sol.tau_w == 0.0

    def test_one_on_one_coupling(self):
        # with one node per side the own-network terms drop out
        sol = solve_coexistence(make_scenario(p_dw=0.7, p_dl=0.9))
        assert sol.p_w == pytest.approx(sol.tau_l * 0.7, abs=1e-12)
        assert sol.p_l == pytest.approx(sol.tau_w * 0.9, abs=1e-12)

    def test_perfect_detection_equals_plain_coupling(self):
        sol = solve_coexistence(make_scenario(n_wifi=3, n_laa=2))
        p_w = 1.0 - (1.0 - sol.tau_w) ** 2 * (1.0 - sol.tau_l) ** 2
        p_l = 1.0 - (1.0 - sol.tau_l) ** 1 * (1.0 - sol.tau_w) ** 3
        assert sol.p_w == pytest.approx(p_w, abs=1e-12)
        assert sol.p_l == pytest.approx(p_l, abs=1e-12)

    def test_symmetric_system_has_symmetric_fixed_point(self):
        sol = solve_coexistence(make_scenario(n_wifi=10, n_laa=10))
        assert sol.tau_w == pytest.approx(sol.tau_l, abs=1e-10)
        assert sol.p_w == pytest.approx(sol.p_l, abs=1e-10)

    @pytest.mark.parametrize("n_laa", range(7))
    def test_more_laa_does_not_relieve_wifi(self, n_laa):
        base = solve_coexistence(make_scenario(n_wifi=4, n_laa=n_laa)).p_w
        more = solve_coexistence(make_scenario(n_wifi=4, n_laa=n_laa + 1)).p_w
        assert more >= base - 1e-12

    def test_blind_lone_wifi_never_collides(self):
        sol = solve_coexistence(make_scenario(n_wifi=1, n_laa=3, p_dw=0.0))
        assert sol.p_w == 0.0
        assert sol.tau_w == pytest.approx(2 / 17, abs=1e-10)


RESIDUAL_GRID = [
    make_scenario(2, 2),
    make_scenario(1, 1, w0w=4, mw=1, w0l=4, ml=1, e_l=0, comparison=True),
    make_scenario(4, 2, w0w=16, mw=2, w0l=16, ml=2, comparison=True),
    make_scenario(10, 10, w0w=8, mw=1, w0l=8, ml=1, e_l=8),
    make_scenario(5, 5, p_dw=0.546, p_dl=0.546),
    make_scenario(3, 0),
    make_scenario(0, 4, e_l=0),
]


@pytest.mark.parametrize("scenario", RESIDUAL_GRID)
def test_residual_honored_at_solution(scenario):
    cfg = SolverConfig()
    sol = solve_coexistence(scenario, cfg)
    assert sol.residual <= cfg.tolerance

    # re-derive the map at the returned point with the public chain functions
    n_w, n_l = scenario.n_wifi, scenario.n_laa
    p_w = p_l = 0.0
    if n_w:
        idle = (1.0 - sol.tau_w) ** (n_w - 1)
        p_w = ((1.0 - (1.0 - sol.tau_l) ** n_l) * scenario.p_dw * idle
               + 1.0 - idle)
    if n_l:
        idle = (1.0 - sol.tau_l) ** (n_l - 1)
        p_l = ((1.0 - (1.0 - sol.tau_w) ** n_w) * scenario.p_dl * idle
               + 1.0 - idle)
    assert p_w == pytest.approx(sol.p_w, abs=1e-12)
    assert p_l == pytest.approx(sol.p_l, abs=1e-12)
    if n_w:
        chain = chain_tau(scenario.wifi.w0, scenario.wifi.m,
                          0 if scenario.comparison_mode else 1)(p_w)
        assert abs(chain - sol.tau_w) <= cfg.tolerance
    if n_l:
        chain = chain_tau(scenario.laa.w0, scenario.laa.m,
                          scenario.laa.retry_limit)(p_l)
        assert abs(chain - sol.tau_l) <= cfg.tolerance


@settings(max_examples=120, deadline=None)
@given(
    n_wifi=st.integers(0, 12),
    n_laa=st.integers(0, 12),
    w0w=st.sampled_from([2, 4, 8, 16, 32]),
    mw=st.integers(0, 7),
    w0l=st.sampled_from([4, 8, 16]),
    ml=st.integers(0, 7),
    e_l=st.integers(0, 8),
    p_dw=st.floats(0.0, 1.0),
    p_dl=st.floats(0.0, 1.0),
    comparison=st.booleans(),
)
def test_any_valid_scenario_solves_within_tolerance(
        n_wifi, n_laa, w0w, mw, w0l, ml, e_l, p_dw, p_dl, comparison):
    if n_wifi + n_laa == 0:
        n_wifi = 1
    s = Scenario(n_wifi=n_wifi, n_laa=n_laa,
                 wifi=WifiParams(w0=w0w, m=mw),
                 laa=LaaParams(w0=w0l, m=ml, retry_limit=e_l),
                 p_dw=p_dw, p_dl=p_dl, comparison_mode=comparison)
    cfg = SolverConfig()
    sol = solve_coexistence(s, cfg)
    assert sol.residual <= cfg.tolerance
    for value in (sol.tau_w, sol.tau_l, sol.p_w, sol.p_l):
        assert 0.0 <= value <= 1.0


class TestSolverConfig:
    def test_validation(self):
        # the tolerance is the one thing a caller sets; the path is the
        # solver's own
        assert [f.name for f in fields(SolverConfig)] == ["tolerance"]
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=float("inf"))
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=True)

    def test_bisection_fallback_rescues_tiny_budget(self):
        # after one damped step the fallback must still deliver
        cfg = SolverConfig()
        sol = fallback(make_scenario(4, 4), 1, cfg)
        assert sol.residual <= cfg.tolerance
        assert sol.method == "bisection"

    def test_unreachable_tolerance_raises_with_iterate(self):
        cfg = SolverConfig(tolerance=1e-300)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_coexistence(make_scenario(2, 2), cfg)
        err = excinfo.value
        assert 0.0 < err.tau_w < 1.0
        assert 0.0 < err.tau_l < 1.0
        assert err.residual > 0.0
        assert err.iterations > 0


def _hex(*values):
    return tuple(float.fromhex(v) for v in values)


# Solutions pinned as float.hex: (scenario, spent, method,
# (tau_w, tau_l, p_w, p_l, residual), iterations). ``spent`` None is a whole
# solve at the default tolerance; a count calls the bisection fallback
# directly, as after that many damped iterations. The fallback_* windows stay
# at 4 or more; the stall_* cases reach the fallback by themselves, when
# their residual stops halving.
REFERENCE_SOLUTIONS = {
    "damped": (dict(n_wifi=2, n_laa=2), None, "damped", _hex(
        "0x1.57fc957f8ad38p-4", "0x1.57fc957f8ad38p-4",
        "0x1.d9dc4653178b4p-3", "0x1.d9dc4653178b4p-3",
        "0x1.fe46f00000000p-36"), 17),
    "fallback": (dict(n_wifi=4, n_laa=4), 1,
                 "bisection", _hex(
        "0x1.eade427cfe37cp-5", "0x1.eade427cfe374p-5",
        "0x1.6790bdb7cc024p-2", "0x1.6790bdb7cc024p-2",
        "0x1.8000000000000p-55"), 55),
    "fallback_comparison": (
        dict(n_wifi=3, n_laa=2, w0w=4, mw=2, w0l=4, ml=2, comparison=True),
        3, "bisection", _hex(
            "0x1.d72b4d32ef5dfp-3", "0x1.d72b4d32ef5dfp-3",
            "0x1.4c134c45b8ec4p-1", "0x1.4c134c45b8ec4p-1",
            "0x1.0000000000000p-55"), 57),
    "fallback_laa_only": (
        dict(n_wifi=0, n_laa=3, w0l=8, ml=1, e_l=2), 2,
        "bisection", _hex("0x0.0p+0", "0x1.649427d36fac1p-3", "0x0.0p+0",
                          "0x1.4589618b4d97ep-2", "0x0.0p+0"), 2),
    "fallback_wifi_only": (
        dict(n_wifi=5, n_laa=0, w0w=8, mw=3), 4,
        "bisection", _hex("0x1.f202ac696a30ep-4", "0x0.0p+0",
                          "0x1.9e52b501a52f2p-2", "0x0.0p+0",
                          "0x1.0000000000000p-55"), 58),
    "fallback_detection": (
        dict(n_wifi=2, n_laa=3, p_dw=0.3, p_dl=0.8), 5,
        "bisection", _hex("0x1.8e3a76657ee12p-4", "0x1.376163faf9acap-4",
                          "0x1.3c3d4f928f4d0p-3", "0x1.172791d4aa8f4p-2",
                          "0x1.8000000000000p-55"), 59),
    "stall_coexistence": (
        dict(n_wifi=1, n_laa=2, w0w=1, mw=9, w0l=1, ml=9), None,
        "bisection", _hex(
        "0x1.f7fae37980b7ep-1", "0x1.edf6b0308bd50p-7",
        "0x1.ea3d902039c00p-6", "0x1.f819d69e3ba29p-1",
        "0x1.a000000000000p-56"), 254),
    "stall_wifi_only": (dict(n_wifi=3, n_laa=0, w0w=1, mw=10), None,
                        "bisection", _hex(
        "0x1.2cc54a311856ap-2", "0x0.0p+0", "0x1.00996a734d934p-1",
        "0x0.0p+0", "0x1.4000000000000p-52"), 254),
    # 200: the damped iterations; the inner tau_l bisection is not counted
    "stall_laa_only": (dict(n_wifi=0, n_laa=3, w0l=1, ml=10), None,
                       "bisection", _hex(
        "0x0.0p+0", "0x1.2cc54a311856ap-2", "0x0.0p+0",
        "0x1.00996a734d934p-1", "0x1.4000000000000p-52"), 200),
    "detection": (dict(n_wifi=5, n_laa=5, p_dw=0.546, p_dl=0.546), None,
                  "damped", _hex(
        "0x1.fb6aeff48115cp-5", "0x1.fb6aeff48115cp-5",
        "0x1.5d8f9dd3c1da6p-2", "0x1.5d8f9dd3c1da6p-2",
        "0x1.4b02800000000p-38"), 9),
    "comparison": (dict(n_wifi=1, n_laa=1, w0w=4, mw=1, w0l=4, ml=1, e_l=0,
                        comparison=True), None, "damped", _hex(
        "0x1.5555555691332p-2", "0x1.5555555691332p-2",
        "0x1.5555555691330p-2", "0x1.5555555691330p-2",
        "0x1.6359800000000p-34"), 26),
    "no_laa": (dict(n_wifi=3, n_laa=0), None, "damped", _hex(
        "0x1.7e8a0467de2fcp-4", "0x0.0p+0", "0x1.6cad02eb6856cp-3",
        "0x0.0p+0", "0x1.18ae300000000p-34"), 20),
    "no_wifi": (dict(n_wifi=0, n_laa=4, e_l=0), None, "damped", _hex(
        "0x0.0p+0", "0x1.5841b43715902p-4", "0x0.0p+0",
        "0x1.da3343ed837acp-3", "0x1.327a800000000p-35"), 17),
    "retry_0": (dict(n_wifi=3, n_laa=2, w0l=8, ml=3, e_l=0), None, "damped",
                _hex("0x1.d7d70725d6744p-5", "0x1.38c32db040612p-3",
                     "0x1.731fc270c8b86p-2", "0x1.29d498bf4c7a8p-2",
                     "0x1.a13d700000000p-34"), 32),
    "retry_8": (dict(n_wifi=10, n_laa=10, w0w=8, mw=1, w0l=8, ml=1, e_l=8),
                None, "damped", _hex(
        "0x1.2181580bc0f8ap-3", "0x1.0104669f0e4e2p-3",
        "0x1.de05e4e48176ap-1", "0x1.dea3ad0ba5180p-1",
        "0x1.c8bc100000000p-35"), 30),
}

TAU_PROBABILITIES = (0.0, 0.25, 0.5 - 1e-10, 0.5, 0.5 + 1e-10, 1 - 1e-12)

# chain_tau(16, 6, extra)(p) over TAU_PROBABILITIES, Wi-Fi's extra being 1;
# the middle three and the last hit the removable poles of the closed form.
REFERENCE_TAUS = {
    "wifi": _hex("0x1.e1e1e1e1e1e1ep-4", "0x1.49875f7a6c6ddp-4",
                 "0x1.0b8ee0c44a662p-5", "0x1.0b8ee0c4bbe18p-5",
                 "0x1.0b8ee0c52d5cfp-5", "0x1.56397ba7cd8bdp-8"),
    0: _hex("0x1.e1e1e1e1e1e1ep-4", "0x1.4a2307700b843p-4",
            "0x1.1d3b69611ff63p-5", "0x1.1d3b696203706p-5",
            "0x1.1d3b6962e6eaap-5", "0x1.c1fa3980ba835p-8"),
    1: _hex("0x1.e1e1e1e1e1e1ep-4", "0x1.49875f7a6c6ddp-4",
            "0x1.0b8ee0c44a662p-5", "0x1.0b8ee0c4bbe18p-5",
            "0x1.0b8ee0c52d5cfp-5", "0x1.56397ba7cd8bdp-8"),
    2: _hex("0x1.e1e1e1e1e1e1ep-4", "0x1.49608cfb0f5e8p-4",
            "0x1.039048415b075p-5", "0x1.0390484196debp-5",
            "0x1.03904841d2b60p-5", "0x1.207e37383006ap-8"),
    8: _hex("0x1.e1e1e1e1e1e1ep-4", "0x1.49539f0a10b18p-4",
            "0x1.f859b428ad093p-6", "0x1.f859b428aff76p-6",
            "0x1.f859b428b2e59p-6", "0x1.800999d716ab2p-9"),
}


class TestReferenceSolutions:
    """Bit-exact solver and chain outputs, so that a rewrite of either
    shows every changed bit rather than a drift inside a tolerance."""

    @pytest.mark.parametrize("name", REFERENCE_SOLUTIONS)
    def test_solution_bits(self, name):
        scenario, spent, method, values, iterations = \
            REFERENCE_SOLUTIONS[name]
        s = make_scenario(**scenario)
        sol = solve_coexistence(s) if spent is None else fallback(s, spent)
        assert (sol.tau_w, sol.tau_l, sol.p_w, sol.p_l,
                sol.residual) == values
        assert sol.iterations == iterations
        assert sol.method == method

    def test_convergence_error_bits(self):
        cfg = SolverConfig(tolerance=1e-300)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_coexistence(make_scenario(2, 2), cfg)
        err = excinfo.value
        assert (err.tau_w, err.tau_l, err.residual) == _hex(
            "0x1.57fc957e2f7fap-4", "0x1.57fc957e2f7fap-4",
            "0x1.0000000000000p-54")
        assert err.iterations == 254

    @pytest.mark.parametrize("chain", REFERENCE_TAUS)
    def test_tau_bits(self, chain):
        tau = chain_tau(16, 6, 1 if chain == "wifi" else chain)
        taus = tuple(map(tau, TAU_PROBABILITIES))
        assert taus == REFERENCE_TAUS[chain]

