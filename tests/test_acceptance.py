"""Acceptance gate: every release criterion, one test each, stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line
per criterion including wall time.
"""
import math
import time

import pytest

from laacoex import cli
from laacoex.core import LaaParams, Scenario, WifiParams
from laacoex.ed import EdConfig, detection_probability
from laacoex.markov import chain_tau
from laacoex.mcsim import SimConfig, simulate
from laacoex.solver import SolverConfig, solve_coexistence
from laacoex.throughput import (coexistence_throughput, event_weights,
                                wifi_only_throughput)
from markov_oracle import laa_stationary, wifi_stationary

RATES = [(9.0, 7.8), (18.0, 15.6), (54.0, 70.2)]

# (wifi w0, wifi m, laa w0, laa m, txop_us) for the two testbed cases
CASE2 = (4, 1, 4, 1, 2000.0)
CASE3 = (16, 2, 16, 2, 8000.0)


def comparison_scenario(n_wifi, n_laa, case, r_w, r_l):
    w0w, mw, w0l, ml, txop = case
    return Scenario(
        n_wifi=n_wifi, n_laa=n_laa,
        wifi=WifiParams(w0=w0w, m=mw, data_rate_mbps=r_w),
        laa=LaaParams(w0=w0l, m=ml, txop_us=txop, data_rate_mbps=r_l),
        comparison_mode=True)


def coex_pair(n_wifi, n_laa, case, r_w, r_l):
    s = comparison_scenario(n_wifi, n_laa, case, r_w, r_l)
    rep = coexistence_throughput(s, solve_coexistence(s))
    return rep.tput_wifi_mbps, rep.tput_laa_mbps


def check_table(n_only, n_wifi, n_laa, case1, case2, case3):
    """Assert all nine reference throughputs of one table within 5 percent."""
    for (r_w, _), expected in zip(RATES, case1):
        got = wifi_only_throughput(
            n_only, WifiParams(w0=16, m=6, data_rate_mbps=r_w)).tput_wifi_mbps
        assert got == pytest.approx(expected, rel=0.05), \
            f"wifi-only n={n_only} r_w={r_w}"
    for case, refs in ((CASE2, case2), (CASE3, case3)):
        for (r_w, r_l), (ref_w, ref_l) in zip(RATES, refs):
            got_w, got_l = coex_pair(n_wifi, n_laa, case, r_w, r_l)
            assert got_w == pytest.approx(ref_w, rel=0.05), (case, r_w)
            assert got_l == pytest.approx(ref_l, rel=0.05), (case, r_l)


def test_c1_two_contender_reference_throughputs():
    start = time.perf_counter()
    check_table(2, 1, 1,
                case1=[7.77, 14.62, 34.38],
                case2=[(3.25, 3.01), (4.04, 7.24), (4.71, 37.90)],
                case3=[(1.49, 5.26), (1.63, 11.51), (1.73, 55.18)])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (2-contender reference table, +-5%): "
          f"PASS ({elapsed:.3f}s)")


def test_c2_four_contender_reference_throughputs():
    start = time.perf_counter()
    check_table(4, 2, 2,
                case1=[7.24, 13.73, 34.07],
                case2=[(2.18, 1.94), (2.68, 4.66), (2.93, 23.30)],
                case3=[(1.34, 4.72), (1.46, 10.24), (1.54, 48.98)])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 (4-contender reference table, +-5%): "
          f"PASS ({elapsed:.3f}s)")


def test_c3_six_contender_reference_throughputs():
    start = time.perf_counter()
    check_table(6, 4, 2,
                case1=[6.90, 13.12, 32.85],
                case2=[(1.93, 0.85), (2.42, 2.14), (2.91, 11.55)],
                case3=[(2.01, 3.56), (2.31, 8.19), (2.57, 40.99)])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 (6-contender reference table, +-5%): "
          f"PASS ({elapsed:.3f}s)")


def test_c4_energy_detector_operating_points():
    start = time.perf_counter()
    points = {-62.0: 0.0, -72.0: 0.5460, -82.0: 1.0}
    for threshold, expected in points.items():
        cfg = EdConfig.from_snr(threshold, snr_db=22.0,
                                noise_power_dbm=-94.0, samples=680)
        assert detection_probability(cfg) == pytest.approx(expected,
                                                           abs=0.005)
    assert detection_probability(
        EdConfig.from_snr(-62.0, 22.0, -94.0, 680)) < 1e-6
    assert detection_probability(
        EdConfig.from_snr(-82.0, 22.0, -94.0, 680)) > 1.0 - 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    print(f"\nACCEPTANCE 4 (detector operating points, +-0.005): "
          f"PASS ({elapsed:.3f}s)")


def _trend_point(n_total, wifi, laa):
    s = Scenario(n_wifi=n_total // 2, n_laa=n_total // 2, wifi=wifi, laa=laa)
    coex = coexistence_throughput(s, solve_coexistence(s))
    only = wifi_only_throughput(n_total, wifi)
    return coex, only


def test_c5_figure_trends():
    start = time.perf_counter()

    # (a) matched contention, long LAA TXOPs: splitting the population
    # across technologies always costs total throughput
    t0 = time.perf_counter()
    for wifi, laa in (
            (WifiParams(w0=8, m=1, data_rate_mbps=9.0),
             LaaParams(w0=8, m=1, txop_us=3000.0, data_rate_mbps=8.4)),
            (WifiParams(w0=16, m=6, data_rate_mbps=9.0),
             LaaParams(w0=16, m=6, txop_us=8000.0, data_rate_mbps=8.4))):
        for n_total in range(2, 21, 2):
            coex, only = _trend_point(n_total, wifi, laa)
            assert (coex.tput_wifi_mbps + coex.tput_laa_mbps
                    < only.tput_wifi_mbps), n_total
    assert time.perf_counter() - t0 < 2.0

    # (b) aggressive Wi-Fi retries against patient LAA: from 8 stations up,
    # each Wi-Fi AP does at least as well as in the pure Wi-Fi network
    t0 = time.perf_counter()
    wifi9 = WifiParams(w0=16, m=1, data_rate_mbps=9.0)
    laa9 = LaaParams(w0=16, m=6, txop_us=3000.0, data_rate_mbps=8.4)
    for n_total in range(8, 21, 2):
        coex, only = _trend_point(n_total, wifi9, laa9)
        assert coex.per_user_wifi_mbps >= only.per_user_wifi_mbps, n_total
    assert time.perf_counter() - t0 < 2.0

    # (c) fixed population of 20, varying split: total is maximal with a
    # single Wi-Fi AP and beats the pure Wi-Fi network at every split
    t0 = time.perf_counter()
    only20 = wifi_only_throughput(20, wifi9).tput_wifi_mbps
    totals = {}
    for n_wifi in range(1, 20):
        s = Scenario(n_wifi=n_wifi, n_laa=20 - n_wifi, wifi=wifi9, laa=laa9)
        rep = coexistence_throughput(s, solve_coexistence(s))
        totals[n_wifi] = rep.tput_wifi_mbps + rep.tput_laa_mbps
        assert totals[n_wifi] > only20, n_wifi
    assert max(totals, key=totals.get) == 1
    assert time.perf_counter() - t0 < 2.0

    # (d) retry-limit sweep: narrow windows react strongly, wide ones barely
    t0 = time.perf_counter()
    def retry_curve(wifi, laa):
        curve = []
        for e_l in range(1, 9):
            s = Scenario(n_wifi=5, n_laa=5, wifi=wifi,
                         laa=LaaParams(w0=laa.w0, m=laa.m, retry_limit=e_l,
                                       txop_us=laa.txop_us,
                                       data_rate_mbps=laa.data_rate_mbps))
            rep = coexistence_throughput(s, solve_coexistence(s))
            curve.append(rep.tput_wifi_mbps + rep.tput_laa_mbps)
        return curve

    class2 = retry_curve(WifiParams(w0=8, m=1, data_rate_mbps=9.0),
                         LaaParams(w0=8, m=1, txop_us=3000.0,
                                   data_rate_mbps=8.4))
    class4 = retry_curve(WifiParams(w0=16, m=6, data_rate_mbps=9.0),
                         LaaParams(w0=16, m=6, txop_us=8000.0,
                                   data_rate_mbps=8.4))
    assert all(b > a for a, b in zip(class2, class2[1:]))
    rel_var2 = (max(class2) - min(class2)) / min(class2)
    rel_var4 = (max(class4) - min(class4)) / min(class4)
    assert rel_var4 < rel_var2
    assert time.perf_counter() - t0 < 2.0

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 5 (figure trends a-d): PASS ({elapsed:.2f}s)")


def test_c6_simulation_cross_validation():
    # Known red point: (class-1 windows, 1+1, 54/70.2) misses the 2% bound
    # by ~0.7 percentage points. The simulator matches the exactly solved
    # joint two-node chain there (TestExactTwoNodeChain); the gap is the
    # analytic model's decoupling approximation on windows {4, 8}. See the
    # decisions ledger / README for the full analysis.
    start = time.perf_counter()
    grid = [(case, n_wifi, n_laa, r_w, r_l)
            for case in (CASE2, CASE3)
            for n_wifi, n_laa in ((1, 1), (2, 2), (4, 2))
            for r_w, r_l in ((9.0, 7.8), (54.0, 70.2))]
    assert len(grid) == 12
    failures = []
    lines = []
    for case, n_wifi, n_laa, r_w, r_l in grid:
        s = comparison_scenario(n_wifi, n_laa, case, r_w, r_l)
        rep = coexistence_throughput(s, solve_coexistence(s))
        sim = simulate(SimConfig(scenario=s, horizon_events=2_000_000,
                                 seed=2024))
        label = (f"w0={case[0]} n=({n_wifi},{n_laa}) rates=({r_w},{r_l})")
        point_ok = True
        for network, got, expected, err in (
                ("wifi", sim.tput_wifi_mbps, rep.tput_wifi_mbps,
                 sim.stderr["tput_wifi_mbps"]),
                ("laa", sim.tput_laa_mbps, rep.tput_laa_mbps,
                 sim.stderr["tput_laa_mbps"])):
            bound = max(0.02 * expected, 3.0 * err)
            if abs(got - expected) > bound:
                point_ok = False
                failures.append(
                    f"{label} {network}: |{got:.4f} - {expected:.4f}| "
                    f"= {abs(got - expected):.4f} > {bound:.4f}")
        lines.append(f"  {label}: "
                     f"wifi {100 * abs(sim.tput_wifi_mbps - rep.tput_wifi_mbps) / rep.tput_wifi_mbps:.2f}% "
                     f"laa {100 * abs(sim.tput_laa_mbps - rep.tput_laa_mbps) / rep.tput_laa_mbps:.2f}%"
                     + ("" if point_ok else "  <-- outside bound"))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"\nACCEPTANCE 6 (12-point simulation cross-validation, "
          f"max(2%, 3 s.e.)): {verdict} ({elapsed:.1f}s)")
    for line in lines:
        print(line)
    assert not failures, "\n".join(failures)


def test_c7_property_suites():
    start = time.perf_counter()
    timings = {}

    # stationary normalization to 1e-12 on a 200-point grid
    t0 = time.perf_counter()
    grid = [(w0, m, e_l, p)
            for w0 in (2, 4, 16, 64)
            for m in (0, 1, 3, 6)
            for e_l in (0, 1, 3)
            for p in (0.0, 0.2, 0.5, 0.9)][:200]
    assert len(grid) == 192
    for w0, m, e_l, p in grid:
        total_w = math.fsum(wifi_stationary(w0, m, p).b.values())
        total_l = math.fsum(laa_stationary(w0, m, e_l, p).b.values())
        assert abs(total_w - 1.0) <= 1e-12
        assert abs(total_l - 1.0) <= 1e-12
    timings["normalization"] = time.perf_counter() - t0

    # closed-form access probability equals the distribution head sum
    t0 = time.perf_counter()
    for w0, m, e_l, p in grid:
        assert abs(chain_tau(w0, m, 1)(p)
                   - math.fsum(wifi_stationary(w0, m, p).stage_heads())) <= 1e-10
        assert abs(chain_tau(w0, m, e_l)(p)
                   - math.fsum(laa_stationary(w0, m, e_l, p).stage_heads())) <= 1e-10
    timings["closed-form vs enumeration"] = time.perf_counter() - t0

    # single-retry chain identity
    t0 = time.perf_counter()
    for w0 in (2, 4, 8, 16, 32, 64):
        for m in range(0, 8):
            s = Scenario(n_wifi=1, n_laa=1, wifi=WifiParams(w0=w0, m=m),
                         laa=LaaParams(w0=w0, m=m, retry_limit=1))
            tau_w, tau_l = (chain_tau(*chain) for chain in s.chains())
            for p in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                assert abs(tau_l(p) - tau_w(p)) <= 1e-12
    timings["chain identity"] = time.perf_counter() - t0

    # expected-event-time weights sum to one
    t0 = time.perf_counter()
    import numpy as np
    for row in np.random.default_rng(7).random((1000, 4)):
        assert abs(sum(event_weights(*row)) - 1.0) <= 1e-12
    timings["weight closure"] = time.perf_counter() - t0

    # absent LAA reduces the full pipeline to the baseline
    t0 = time.perf_counter()
    for n, w0, m in ((1, 16, 6), (2, 16, 6), (7, 8, 1), (15, 32, 4)):
        wifi = WifiParams(w0=w0, m=m, data_rate_mbps=9.0)
        s = Scenario(n_wifi=n, n_laa=0, wifi=wifi)
        a = coexistence_throughput(s, solve_coexistence(s)).tput_wifi_mbps
        b = wifi_only_throughput(n, wifi).tput_wifi_mbps
        assert abs(a - b) <= 1e-9 * b
    timings["baseline reduction"] = time.perf_counter() - t0

    # every converged solve honors the residual bound
    t0 = time.perf_counter()
    cfg = SolverConfig()
    for n_wifi, n_laa in ((1, 1), (2, 2), (4, 2), (10, 10), (0, 5), (5, 0)):
        for case in (CASE2, CASE3):
            for cmp_mode in (False, True):
                if n_wifi + n_laa == 0:
                    continue
                s = comparison_scenario(max(n_wifi, 0), n_laa, case, 9.0, 7.8)
                s = Scenario(n_wifi=n_wifi, n_laa=n_laa, wifi=s.wifi,
                             laa=s.laa, comparison_mode=cmp_mode)
                sol = solve_coexistence(s, cfg)
                assert sol.residual <= cfg.tolerance
    timings["residual bound"] = time.perf_counter() - t0

    # independent bisection oracle on single-technology fixed points
    t0 = time.perf_counter()
    for n, w0, m in ((2, 16, 6), (5, 8, 2), (20, 16, 6), (50, 4, 1)):
        def f(p):
            return p - (1.0 - (1.0 - chain_tau(w0, m, 1)(p)) ** (n - 1))
        lo, hi = 0.0, 1.0 - 1e-12
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        oracle_tau = chain_tau(w0, m, 1)(0.5 * (lo + hi))
        wifi_only = Scenario(n_wifi=n, n_laa=0, wifi=WifiParams(w0=w0, m=m))
        assert abs(solve_coexistence(wifi_only).tau_w - oracle_tau) <= 1e-8
    timings["bisection oracle"] = time.perf_counter() - t0

    for name, seconds in timings.items():
        assert seconds < 10.0, name
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 7 (property suites, each <10s): PASS ({elapsed:.2f}s; "
          + ", ".join(f"{k} {v:.2f}s" for k, v in timings.items()) + ")")


def test_c8_deterministic_cli_output(tmp_path, capsys):
    start = time.perf_counter()
    args = ("run", "table4_case3", "--engine", "both",
            "--horizon", "100000", "--seed", "7")
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        assert cli.main([*args, "--out", str(path)]) == 0
    first, second = (p.read_text().splitlines() for p in paths)
    assert first[0].startswith("# laacoex")
    assert first[1:] == second[1:]

    sweep_paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for path in sweep_paths:
        assert cli.main(["sweep", "fig7", "--out", str(path)]) == 0
    s_first, s_second = (p.read_text().splitlines() for p in sweep_paths)
    assert s_first[1:] == s_second[1:]
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 8 (byte-stable CLI output): PASS ({elapsed:.2f}s)")
