import csv
import hashlib
import math
import random

import numpy as np
import pytest

from laacoex.core import LaaParams, Scenario, WifiParams, load_priority_class
from laacoex.mcsim import EVENT_CLASSES, SimConfig, _add_repeated, simulate
from laacoex.solver import solve_coexistence
from laacoex.throughput import event_durations, event_probabilities


def case3_scenario(n_wifi=1, n_laa=1):
    return Scenario(
        n_wifi=n_wifi, n_laa=n_laa,
        wifi=WifiParams(w0=16, m=2, data_rate_mbps=9.0),
        laa=LaaParams(w0=16, m=2, txop_us=8000.0, data_rate_mbps=7.8),
        comparison_mode=True)


def wifi_only_scenario(n):
    return Scenario(n_wifi=n, n_laa=0, wifi=WifiParams(data_rate_mbps=9.0))


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg = SimConfig(scenario=case3_scenario(), horizon_events=50_000,
                        seed=123, warmup_events=1000)
        assert simulate(cfg) == simulate(cfg)

    def test_seed_changes_the_run(self):
        a = SimConfig(scenario=case3_scenario(), horizon_events=50_000, seed=1)
        b = SimConfig(scenario=case3_scenario(), horizon_events=50_000, seed=2)
        assert simulate(a) != simulate(b)


def class1_scenario(n_wifi, n_laa, r_w=9.0, r_l=7.8):
    return Scenario(
        n_wifi=n_wifi, n_laa=n_laa,
        wifi=WifiParams(w0=4, m=1, data_rate_mbps=r_w),
        laa=LaaParams(w0=4, m=1, txop_us=2000.0, data_rate_mbps=r_l),
        comparison_mode=True)


class TestReferenceStream:
    """Pin the random stream and the float accumulation, bit for bit.

    The literals were captured from the original per-slot engine: event
    counts in EVENT_CLASSES order, then ``float.hex`` of the six measured
    quantities and of the six standard errors (keys sorted). Any change to
    the draw order, mask-and-reject, the detection coin, the warmup and
    batch split, or the order in which times are summed shows up here.
    Never re-seed to make a case pass.
    """

    RUNS = {
        # acceptance C6's red point
        "c6-red-point": (simulate, SimConfig(
            scenario=class1_scenario(1, 1, 54.0, 70.2),
            horizon_events=50_000, seed=2024)),
        "class1-4+2": (simulate, SimConfig(
            scenario=class1_scenario(4, 2), horizon_events=30_000, seed=11,
            warmup_events=3_000)),
        "class4-20+20-detection": (simulate, SimConfig(
            scenario=Scenario(n_wifi=20, n_laa=20,
                              wifi=WifiParams(data_rate_mbps=9.0),
                              laa=load_priority_class(4),
                              p_dw=0.546, p_dl=0.546),
            horizon_events=30_000, seed=12, warmup_events=3_000)),
        # windows 15, 30, ... and 12, 24, 48 reject draws above the window
        "mask-and-reject": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=2, wifi=WifiParams(w0=15, m=3),
                              laa=LaaParams(w0=12, m=2), p_dw=0.3,
                              p_dl=0.77),
            horizon_events=30_000, seed=13, warmup_events=3_000)),
        "wifi-only": (simulate, SimConfig(
            scenario=Scenario(n_wifi=3, n_laa=0), horizon_events=30_000,
            seed=14, warmup_events=3_000)),
        "laa-only": (simulate, SimConfig(
            scenario=Scenario(n_wifi=0, n_laa=3), horizon_events=30_000,
            seed=15, warmup_events=3_000)),
        "non-comparison": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=2, wifi=WifiParams(w0=8, m=2),
                              laa=LaaParams(w0=8, m=1, retry_limit=2)),
            horizon_events=30_000, seed=16, warmup_events=3_000)),
        "odd-horizon-no-warmup": (simulate, SimConfig(
            scenario=class1_scenario(2, 2), horizon_events=10_007, seed=17,
            warmup_events=0)),
        # 60 counted events: 60 batches of one event each
        "few-counted-events": (simulate, SimConfig(
            scenario=class1_scenario(1, 1), horizon_events=150, seed=18,
            warmup_events=90)),
        # idle runs of hundreds of slots, straddling batches and binades
        "long-idle-runs": (simulate, SimConfig(
            scenario=Scenario(n_wifi=1, n_laa=1,
                              wifi=WifiParams(w0=64, m=6, data_rate_mbps=54.0),
                              laa=load_priority_class(4), p_dw=0.5),
            horizon_events=60_000, seed=19, warmup_events=3_000)),
        # a slot that is no whole number of ulps: every idle addition rounds
        "fractional-slot": (simulate, SimConfig(
            scenario=Scenario(n_wifi=1, n_laa=1,
                              wifi=WifiParams(w0=32, slot_us=9.1),
                              laa=LaaParams(w0=32)),
            horizon_events=30_000, seed=20, warmup_events=3_000)),
    }

    EXPECTED = {
        "c6-red-point": ((18443, 8403, 8424, 0, 0, 4730), (
            "0x1.232f28416139ap+2", "0x1.225a0645b26f3p+5", "0x1.50346dc5d6388p-2",
            "0x1.50be0ded288cep-2", "0x1.70ce281dc8fdcp-2", "0x1.70376d560f560p-2",
            "0x1.ecb3d7d5b1fd0p-9", "0x1.e41c784be63a8p-9", "0x1.840af4f9d1943p-10",
            "0x1.bbb5ec79ab975p-10", "0x1.afb955171c44ap-3", "0x1.68f484d563c0ep-5")),
        "class1-4+2": ((3369, 5528, 2782, 4633, 608, 10080), (
            "0x1.ed95ff1b8805cp+0", "0x1.b73d6d0af9954p-1", "0x1.2cddca72d6f6dp-2",
            "0x1.2dd084491f060p-2", "0x1.a6ce13f169f18p-1", "0x1.a6819386c9a27p-1",
            "0x1.66a5e23a62b14p-9", "0x1.f75c2b26fb20ep-10", "0x1.2b780a4500676p-10",
            "0x1.c02b5a4fb365dp-11", "0x1.b686a4f443016p-7", "0x1.444669c5168bdp-6")),
        "class4-20+20-detection": ((8977, 5124, 4964, 1580, 1557, 4798), (
            "0x1.8979a64138cdep-1", "0x1.5105f9eee68b4p+1", "0x1.bd47dcaef1d89p-6",
            "0x1.b7b2b11951c0dp-6", "0x1.131e3648b44bap-1", "0x1.147dc6334c864p-1",
            "0x1.dfe90bc42f5f8p-9", "0x1.0a5aead424bb1p-8", "0x1.74fd8d5bc9e1dp-12",
            "0x1.3d534cf39a6a9p-12", "0x1.fdf896d666d9bp-6", "0x1.2892006099dfcp-6")),
        "mask-and-reject": ((17067, 3884, 4396, 237, 313, 1103), (
            "0x1.1b1e477ae1088p+0", "0x1.1b501a16f278cp+2", "0x1.a39cc928bb818p-4",
            "0x1.d76b549327105p-4", "0x1.5c5e0883cb6e2p-3", "0x1.047d62678da7ap-2",
            "0x1.ad93f3450ee78p-8", "0x1.57698fd3cdad2p-8", "0x1.6087754990cbap-10",
            "0x1.475b0694ec70ep-10", "0x1.5aad30ea837d9p-5", "0x1.79b32a5fec7f6p-6")),
        "wifi-only": ((20247, 6083, 0, 670, 0, 0), (
            "0x1.e127dcb213095p+2", "0x0.0p+0", "0x1.7839a5bc7dea0p-4",
            "0x0.0p+0", "0x1.758a2f58a2f59p-3", "0x0.0p+0",
            "0x0.0p+0", "0x1.35eaddc9c9a19p-8", "0x0.0p+0",
            "0x1.13d7d63e8a922p-10", "0x0.0p+0", "0x1.8641b90254081p-6")),
        "laa-only": ((19986, 0, 6292, 0, 722, 0), (
            "0x0.0p+0", "0x1.863083a1a9f0bp+2", "0x0.0p+0",
            "0x1.8841556f395e9p-4", "0x0.0p+0", "0x1.82c9e8b344f13p-3",
            "0x1.67e968047b437p-8", "0x0.0p+0", "0x1.be4a2519ca246p-11",
            "0x0.0p+0", "0x1.7b335c30683a5p-6", "0x0.0p+0")),
        "non-comparison": ((14099, 4371, 5420, 346, 582, 2182), (
            "0x1.d1262b0b16ca1p-1", "0x1.fdf41d14be249p+1", "0x1.1a17d14677641p-3",
            "0x1.549327104ee2dp-3", "0x1.a63cfd0a41ab5p-2", "0x1.95f374e1c81ffp-2",
            "0x1.610440b6ec45ep-8", "0x1.734c18daaf874p-8", "0x1.1b2612aa57681p-10",
            "0x1.20a03a665b0e2p-10", "0x1.05e87c0a1a00bp-5", "0x1.f9582df826168p-7")),
        "odd-horizon-no-warmup": ((2403, 2051, 2004, 488, 483, 2578), (
            "0x1.1a652ac2a8f4fp+1", "0x1.e7e8d7e4f0593p+0", "0x1.37be4e20b1a46p-2",
            "0x1.341c584f33c0bp-2", "0x1.53a7186934e5cp-1", "0x1.559de29520bbcp-1",
            "0x1.4a176b4a4a7a6p-8", "0x1.6eda6b892aa68p-8", "0x1.fbfdebe45354dp-10",
            "0x1.f3939935a2efdp-10", "0x1.ecdf7f133b95ep-6", "0x1.34c88ff3e283ap-5")),
        "few-counted-events": ((28, 14, 13, 0, 0, 5), (
            "0x1.caa07822347f3p+1", "0x1.78869b9112576p+1", "0x1.4444444444444p-2",
            "0x1.3333333333333p-2", "0x1.0d79435e50d79p-2", "0x1.1c71c71c71c72p-2",
            "0x1.26c461cdda58dp-5", "0x1.26c461cdda58dp-5", "0x1.e8bc338f0888bp-5",
            "0x1.f01d2a214223cp-5", "0x1.8723d96ea2d6dp-2", "0x1.dc4ef9671bb7fp-2")),
        "long-idle-runs": ((49069, 1454, 6296, 0, 0, 181), (
            "0x1.b308f78f9b2bep-2", "0x1.a05ff850e3671p+2", "0x1.d5f64c87d0929p-6",
            "0x1.d16f58b5f2d98p-4", "0x1.dbfcde561dbfdp-5", "0x1.c9d9fa3abbbdcp-6",
            "0x1.06b637f8091adp-9", "0x1.c13096a264a28p-8", "0x1.aa9dd63f404aep-11",
            "0x1.e0f9577edb18bp-12", "0x1.b30d3c6fbddebp-7", "0x1.2ebf0dd773a25p-7")),
        "fractional-slot": ((23992, 1435, 1475, 0, 0, 98), (
            "0x1.6fa0c27fbed40p+0", "0x1.4e180e7b497efp+2", "0x1.d11fa1563e59bp-5",
            "0x1.dd4285a6a5824p-5", "0x1.05d84176105d8p-4", "0x1.fe5f5e8e3d84ap-5",
            "0x1.931f621c58588p-8", "0x1.91a92d9301483p-8", "0x1.08507abbb1a73p-10",
            "0x1.e2d70e0b35dbep-11", "0x1.55dbd14833038p-5", "0x1.ec46bf7271c6ep-6")),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_report_matches_reference(self, name):
        run, cfg = self.RUNS[name]
        report = run(cfg)
        counts, hexes = self.EXPECTED[name]
        assert tuple(report.event_counts[c] for c in EVENT_CLASSES) == counts
        measured = [report.tput_wifi_mbps, report.tput_laa_mbps,
                    report.measured_tau_w, report.measured_tau_l,
                    report.measured_p_w, report.measured_p_l]
        measured += [report.stderr[key] for key in sorted(report.stderr)]
        assert [value.hex() for value in measured] == list(hexes)


class TestAccounting:
    def test_event_counts_sum_to_counted_horizon(self):
        cfg = SimConfig(scenario=case3_scenario(2, 2), horizon_events=80_000,
                        seed=5, warmup_events=7_000)
        report = simulate(cfg)
        assert sum(report.event_counts.values()) == 73_000
        assert set(report.event_counts) == set(EVENT_CLASSES)

    def test_lone_station_never_collides(self):
        report = simulate(SimConfig(scenario=wifi_only_scenario(1),
                                    horizon_events=30_000, seed=9))
        assert report.measured_p_w == 0.0
        assert report.event_counts["wifi-collision"] == 0
        assert report.event_counts["cross-collision"] == 0
        assert report.tput_laa_mbps == 0.0

    def test_stderr_keys_present(self):
        report = simulate(SimConfig(scenario=case3_scenario(),
                                    horizon_events=30_000, seed=4))
        assert set(report.stderr) == {"tput_wifi_mbps", "tput_laa_mbps",
                                      "tau_w", "tau_l", "p_w", "p_l"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=case3_scenario(), horizon_events=100,
                      warmup_events=100)

    @pytest.mark.parametrize("field, value", [
        ("horizon_events", 3e4), ("warmup_events", 10.0), ("seed", True),
        ("seed", "7")])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(scenario=case3_scenario(), **{field: value})

    def test_batched_idle_time_matches_slot_by_slot_sums(self):
        # idle time is booked per run; it must carry the bits of adding one
        # slot at a time, including across binades and for steps off the grid
        rng = random.Random(5)
        for _ in range(20_000):
            total = rng.choice([0.0, rng.uniform(0, 50), rng.uniform(0, 1e6)])
            step = rng.choice([9.0, 20.0, 9.1, 0.5, 1e-3, rng.uniform(0, 30)])
            n = rng.choice([1, 2, rng.randint(1, 40), rng.randint(1, 3000)])
            expected = total
            for _ in range(n):
                expected += step
            assert _add_repeated(total, step, n) == expected


class TestAgainstAnalyticModel:
    def test_wifi_only_throughput_reference(self):
        # two saturated APs at 9 Mbps land on the baseline value
        report = simulate(SimConfig(scenario=wifi_only_scenario(2),
                                    horizon_events=2_000_000, seed=42))
        assert report.tput_wifi_mbps == pytest.approx(7.77, rel=0.02)

    def test_access_probabilities_match_fixed_point(self):
        s = case3_scenario()
        sol = solve_coexistence(s)
        report = simulate(SimConfig(scenario=s, horizon_events=200_000,
                                    seed=31))
        for measured, expected, err in [
                (report.measured_tau_w, sol.tau_w, report.stderr["tau_w"]),
                (report.measured_tau_l, sol.tau_l, report.stderr["tau_l"])]:
            assert abs(measured - expected) <= max(3 * err, 0.002)

    def test_event_frequencies_match_expected_weights(self):
        # the six analytic event weights; the slotted simulator must land on
        # them up to sampling noise plus the small decoupling bias
        for s in (case3_scenario(2, 2),
                  Scenario(n_wifi=4, n_laa=2,
                           wifi=WifiParams(w0=4, m=1, data_rate_mbps=9.0),
                           laa=LaaParams(w0=4, m=1, txop_us=2000.0,
                                         data_rate_mbps=7.8),
                           comparison_mode=True)):
            sol = solve_coexistence(s)
            ep = event_probabilities(sol, s.n_wifi, s.n_laa)
            weights = {
                "idle": (1 - ep.p_trw) * (1 - ep.p_trl),
                "wifi-success": ep.p_trw * ep.p_sw * (1 - ep.p_trl),
                "laa-success": ep.p_trl * ep.p_sl * (1 - ep.p_trw),
                "wifi-collision": ep.p_trw * (1 - ep.p_sw) * (1 - ep.p_trl),
                "laa-collision": ep.p_trl * (1 - ep.p_sl) * (1 - ep.p_trw),
                "cross-collision": ep.p_trw * ep.p_trl,
            }
            report = simulate(SimConfig(scenario=s, horizon_events=100_000,
                                        seed=13))
            events = sum(report.event_counts.values())
            for cls, weight in weights.items():
                freq = report.event_counts[cls] / events
                se = math.sqrt(weight * (1 - weight) / events)
                assert abs(freq - weight) <= max(3 * se, 0.004), cls


class TestDetection:
    def test_blind_lone_wifi_records_no_collisions(self):
        s = Scenario(n_wifi=1, n_laa=1,
                     wifi=WifiParams(data_rate_mbps=9.0),
                     laa=LaaParams(w0=4, m=1, txop_us=2000.0,
                                   data_rate_mbps=7.8),
                     p_dw=0.0)
        report = simulate(SimConfig(
            scenario=s, horizon_events=60_000, seed=21))
        assert report.measured_p_w == 0.0
        # overlaps still happen and still cost airtime
        assert report.event_counts["cross-collision"] > 0

    def test_partial_detection_sits_between_extremes(self):
        def p_w_at(p_dw):
            s = Scenario(n_wifi=1, n_laa=2,
                         wifi=WifiParams(data_rate_mbps=9.0),
                         laa=LaaParams(w0=8, m=1, txop_us=3000.0,
                                       data_rate_mbps=8.4),
                         p_dw=p_dw)
            return simulate(SimConfig(
                scenario=s, horizon_events=80_000, seed=3)).measured_p_w

        blind, half, sharp = p_w_at(0.0), p_w_at(0.5), p_w_at(1.0)
        assert blind == 0.0
        assert 0.0 < half < sharp

    def test_wifi_gains_as_laa_detects_more(self):
        # raising p_dl backs the eNBs off and frees airtime for Wi-Fi
        def wifi_tput(p_dl):
            s = Scenario(n_wifi=5, n_laa=5,
                         wifi=WifiParams(w0=16, m=6, data_rate_mbps=9.0),
                         laa=LaaParams(w0=16, m=6, txop_us=8000.0,
                                       data_rate_mbps=8.4),
                         p_dl=p_dl)
            return simulate(SimConfig(
                scenario=s, horizon_events=200_000, seed=8)).tput_wifi_mbps

        curve = [wifi_tput(p) for p in (0.0, 0.5, 1.0)]
        assert curve[0] <= curve[1] <= curve[2]
        assert curve[2] > curve[0]


class TestExactTwoNodeChain:
    """Pin the simulator against the exactly solvable 1+1 joint chain.

    With one station per technology the joint process over both nodes'
    (stage, counter) pairs is a small Markov chain that can be solved to
    machine precision, with no independence approximation. The simulator
    must land on its stationary throughput; where the decoupled analytic
    model deviates from this chain, the simulator is the one telling the
    truth.
    """

    def exact_throughputs(self, s):
        s = s.effective()
        max_stage = s.wifi.m  # comparison mode only: both chains reset at m
        assert s.comparison_mode and s.n_wifi == s.n_laa == 1
        windows = [2 ** min(j, s.wifi.m) * s.wifi.w0
                   for j in range(max_stage + 1)]
        states = [(j, k) for j in range(max_stage + 1)
                  for k in range(windows[j])]
        index = {state: i for i, state in enumerate(states)}
        size = len(states)

        def redraw(stage_now, collided):
            stage = 0 if (not collided or stage_now == max_stage) \
                else stage_now + 1
            width = windows[stage]
            return [(index[(stage, k)], 1.0 / width) for k in range(width)]

        dur = event_durations(s)
        wifi_bits = 8.0 * s.wifi.payload_bytes
        laa_bits = s.laa.pdcch_fraction * s.laa.txop_us * s.laa.data_rate_mbps

        transition = np.zeros((size * size, size * size))
        time_of = np.zeros(size * size)
        wifi_payload = np.zeros(size * size)
        laa_payload = np.zeros(size * size)
        for (jw, kw) in states:
            for (jl, kl) in states:
                src = index[(jw, kw)] * size + index[(jl, kl)]
                if kw == 0 and kl == 0:
                    time_of[src] = dur.t_cc
                    for iw, pw in redraw(jw, collided=True):
                        for il, pl in redraw(jl, collided=True):
                            transition[src, iw * size + il] += pw * pl
                elif kw == 0:
                    time_of[src] = dur.t_sw
                    wifi_payload[src] = wifi_bits
                    il = index[(jl, kl - 1)]
                    for iw, pw in redraw(jw, collided=False):
                        transition[src, iw * size + il] += pw
                elif kl == 0:
                    time_of[src] = dur.t_sl
                    laa_payload[src] = laa_bits
                    iw = index[(jw, kw - 1)]
                    for il, pl in redraw(jl, collided=False):
                        transition[src, iw * size + il] += pl
                else:
                    time_of[src] = s.wifi.slot_us
                    dst = index[(jw, kw - 1)] * size + index[(jl, kl - 1)]
                    transition[src, dst] += 1.0

        assert np.allclose(transition.sum(axis=1), 1.0)
        pi = np.full(size * size, 1.0 / (size * size))
        for _ in range(500_000):
            nxt = pi @ transition
            if np.max(np.abs(nxt - pi)) < 1e-15:
                pi = nxt
                break
            pi = nxt
        mean_time = float(pi @ time_of)
        return (float(pi @ wifi_payload) / mean_time,
                float(pi @ laa_payload) / mean_time)

    def test_simulator_matches_exact_chain_on_smallest_windows(self):
        # the harshest decoupling regime: two stations on windows {4, 8}
        s = Scenario(n_wifi=1, n_laa=1,
                     wifi=WifiParams(w0=4, m=1, data_rate_mbps=54.0),
                     laa=LaaParams(w0=4, m=1, txop_us=2000.0,
                                   data_rate_mbps=70.2),
                     comparison_mode=True)
        exact_w, exact_l = self.exact_throughputs(s)
        report = simulate(SimConfig(scenario=s, horizon_events=1_000_000,
                                    seed=404))
        assert report.tput_wifi_mbps == pytest.approx(
            exact_w, abs=max(3 * report.stderr["tput_wifi_mbps"], 1e-3 * exact_w))
        assert report.tput_laa_mbps == pytest.approx(
            exact_l, abs=max(3 * report.stderr["tput_laa_mbps"], 1e-3 * exact_l))

    def test_simulator_matches_exact_chain_on_moderate_windows(self):
        s = Scenario(n_wifi=1, n_laa=1,
                     wifi=WifiParams(w0=8, m=1, data_rate_mbps=9.0),
                     laa=LaaParams(w0=8, m=1, txop_us=3000.0,
                                   data_rate_mbps=8.4),
                     comparison_mode=True)
        exact_w, exact_l = self.exact_throughputs(s)
        report = simulate(SimConfig(scenario=s, horizon_events=1_000_000,
                                    seed=405))
        assert report.tput_wifi_mbps == pytest.approx(
            exact_w, abs=max(3 * report.stderr["tput_wifi_mbps"], 2e-3 * exact_w))
        assert report.tput_laa_mbps == pytest.approx(
            exact_l, abs=max(3 * report.stderr["tput_laa_mbps"], 2e-3 * exact_l))


class TestTrace:
    # sha256 of the 500-event dump below as the original per-slot engine wrote it
    DUMP_SHA256 = ("d64dfb09c3a952212c614dc5c4027d17"
                   "ccd72bd2b75b5ee7c66f66649b55abb8")

    def dump(self, tmp_path):
        path = tmp_path / "trace.csv"
        cfg = SimConfig(scenario=case3_scenario(), horizon_events=500,
                        seed=2, warmup_events=0, trace_path=str(path))
        report = simulate(cfg)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return report, rows, path.read_bytes()

    def test_per_event_dump(self, tmp_path):
        report, rows, raw = self.dump(tmp_path)
        assert hashlib.sha256(raw).hexdigest() == self.DUMP_SHA256
        header, body = rows[0], rows[1:]
        assert header[:3] == ["event_index", "event_class", "duration_us"]
        assert header[3:] == ["w0_stage", "w0_counter", "l0_stage",
                              "l0_counter"]
        assert len(body) == 500
        # the trace and the report must tell the same story
        for cls, count in report.event_counts.items():
            assert sum(1 for row in body if row[1] == cls) == count

    def test_idle_rows_count_down_one_slot_each(self, tmp_path):
        _, rows, _ = self.dump(tmp_path)
        body = [[int(row[0]), row[1]] + [int(c) for c in row[3:]]
                for row in rows[1:]]
        longest = run = 0
        for prev, row in zip(body, body[1:]):
            assert row[0] == prev[0] + 1
            run = run + 1 if prev[1] == row[1] == "idle" else 0
            longest = max(longest, run)
            stages, counters = prev[2::2], prev[3::2]
            for j, counter in enumerate(counters):
                if counter > 0:   # not firing: same stage, one slot less
                    assert row[2 + 2 * j] == stages[j]
                    assert row[3 + 2 * j] == counter - 1
        for row in body:
            assert (row[1] == "idle") == (min(row[3::2]) > 0)
        assert longest >= 5

    def test_trace_does_not_change_statistics(self, tmp_path):
        base = SimConfig(scenario=case3_scenario(), horizon_events=20_000,
                         seed=6)
        traced = SimConfig(scenario=case3_scenario(), horizon_events=20_000,
                           seed=6, trace_path=str(tmp_path / "t.csv"))
        assert simulate(base) == simulate(traced)
