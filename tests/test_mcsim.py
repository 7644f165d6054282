import csv
import hashlib
import math
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laacoex import EVENT_CLASSES, mcsim
from laacoex.core import (LaaParams, Scenario, ThroughputReport, WifiParams,
                          derived_durations)
from laacoex.mcsim import (_INC_CAP, _POOL_CHUNK, MAX_STATIONS, SimConfig,
                           _draws, _exact_dot, _incs, _pack, _replay, simulate,
                           write_trace)
from laacoex.solver import solve_coexistence
from laacoex.throughput import (coexistence_throughput, event_durations,
                                event_probabilities, event_weights)
from scenarios import CASE2, comparison_cell


def wifi_only_scenario(n):
    return Scenario(n_wifi=n, n_laa=0, wifi=WifiParams(data_rate_mbps=9.0))


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg = SimConfig(scenario=comparison_cell(1, 1), horizon_events=50_000,
                        seed=123, warmup_events=1000)
        assert simulate(cfg) == simulate(cfg)

    def test_seed_changes_the_run(self):
        a, b = (SimConfig(scenario=comparison_cell(1, 1),
                          horizon_events=50_000, seed=seed) for seed in (1, 2))
        assert simulate(a) != simulate(b)


# LBT priority classes 1 and 4 with a 500 us turnaround, one extra stay
CLASS1_LAA = LaaParams(w0=4, m=1, retry_limit=1, defer_us=25.0,
                       txop_us=2000.0, next_tx_delay_us=500.0)
CLASS4_LAA = LaaParams(w0=16, m=6, retry_limit=1, defer_us=79.0,
                       txop_us=8000.0, next_tx_delay_us=500.0)


class TestReferenceStream:
    """Pin the random stream and the time and payload sums, bit for bit.

    The first eleven literals were captured from the original per-slot
    engine, the next five (the edges of the event loop's heap) from the
    list-scan event loop that preceded the heap, and the last one (the
    per-network detection split) from the heap loop with per-station
    tables that preceded the per-network ones, and the two asymmetric
    collisions ("1+6-wifi-coin", "6+1-laa-retries") from the count-only
    loop that popped and pushed every transmitter of a collision, before
    the loop walked the heap's root in place, and the last two (a network
    with p_d = 1 beside one with p_d < 1) from that walk, before it kept
    its runner-up test to networks whose detection can fail, and the last
    three (top windows of 2**62 and 2**63 beside two coins, and coin bounds
    at 1 and 2**64 - 2**11) from that loop, before ``simulate`` read its
    draws packed into small ints, and the last two (a packed draw of
    exactly 64 bits with the key's stage and station fields under it, and
    one of 65 that stayed raw) from the packed loop, before its keys carried
    each station's stage, and the last one (a top window above
    ``_INC_CAP``, whose increments are a range, with a coin) from the loop
    whose keys carried the stage, before the key units left the draws for
    the tables' increments: event counts in EVENT_CLASSES order,
    then ``float.hex`` of the six measured quantities and of the six
    standard errors (keys sorted). Any change to
    the draw order, mask-and-reject, the detection coin, the warmup and
    batch split, or the way times are summed shows up here. Never re-seed
    to make a case pass. Three cases read the raw 64-bit stream: in
    "2^64-window" and "keys-beyond-64-bits" the mask takes all 64 bits, and
    in "wide-window-coin-raw" 63 mask bits and 2 rank bits need 65; every
    other case reads packed draws.

    Four hexes per case (``tput_wifi_mbps``, ``tput_laa_mbps`` and their
    standard errors, positions 0, 1, 10 and 11) were re-captured when the
    simulator stopped adding times event by event and began to sum each
    batch's time exactly from its counts, rounded once: sequential sums
    had carried rounding error of up to 5e-15 relative into them
    (4e-14 in one standard error). Every count and the other eight hexes
    are the earlier captures; ``test_throughputs_are_exact_in_the_counts``
    checks the re-captured throughputs against an exact recomputation.
    """

    RUNS = {
        # acceptance C6's red point
        "c6-red-point": (simulate, SimConfig(
            scenario=comparison_cell(1, 1, CASE2, 54.0, 70.2),
            horizon_events=50_000, seed=2024)),
        "class1-4+2": (simulate, SimConfig(
            scenario=comparison_cell(4, 2, CASE2), horizon_events=30_000,
            seed=11, warmup_events=3_000)),
        "class4-20+20-detection": (simulate, SimConfig(
            scenario=Scenario(n_wifi=20, n_laa=20,
                              wifi=WifiParams(data_rate_mbps=9.0),
                              laa=CLASS4_LAA,
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
            scenario=comparison_cell(2, 2, CASE2), horizon_events=10_007,
            seed=17, warmup_events=0)),
        # 60 counted events: 60 batches of one event each
        "few-counted-events": (simulate, SimConfig(
            scenario=comparison_cell(1, 1, CASE2), horizon_events=150, seed=18,
            warmup_events=90)),
        # idle runs of hundreds of slots, straddling batches and binades
        "long-idle-runs": (simulate, SimConfig(
            scenario=Scenario(n_wifi=1, n_laa=1,
                              wifi=WifiParams(w0=64, m=6, data_rate_mbps=54.0),
                              laa=CLASS4_LAA, p_dw=0.5),
            horizon_events=60_000, seed=19, warmup_events=3_000)),
        # a slot that is no whole number of ulps: every idle addition rounds
        "fractional-slot": (simulate, SimConfig(
            scenario=Scenario(n_wifi=1, n_laa=1,
                              wifi=WifiParams(w0=32, slot_us=9.1),
                              laa=LaaParams(w0=32)),
            horizon_events=30_000, seed=20, warmup_events=3_000)),
        # one station: only the sentinel is left in the heap
        "lone-station": (simulate, SimConfig(
            scenario=Scenario(n_wifi=1, n_laa=0), horizon_events=30_000,
            seed=21, warmup_events=3_000)),
        # windows of one slot: every event is a cross collision of all five
        "all-tie": (simulate, SimConfig(
            scenario=Scenario(n_wifi=3, n_laa=2, wifi=WifiParams(w0=1, m=0),
                              laa=LaaParams(w0=1, m=0), p_dw=0.5, p_dl=0.5),
            horizon_events=20_000, seed=22, warmup_events=300)),
        # MAX_STATIONS stations: the widest station field of the heap keys
        "station-cap": (simulate, SimConfig(
            scenario=Scenario(n_wifi=512, n_laa=512, laa=CLASS4_LAA,
                              p_dw=0.546, p_dl=0.546),
            horizon_events=3_000, seed=23, warmup_events=300)),
        # a top window of 2**64 slots: the full-width mask
        "2^64-window": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=1, wifi=WifiParams(w0=2, m=63)),
            horizon_events=30_000, seed=24, warmup_events=3_000)),
        # Wi-Fi's first counters lie near 2**61, so a heap key exceeds 64
        # bits (w0's key is above 2**64 at this seed); Wi-Fi never transmits
        "keys-beyond-64-bits": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=2,
                              wifi=WifiParams(w0=2 ** 62, m=2)),
            horizon_events=30_000, seed=25, warmup_events=3_000)),
        # a Wi-Fi p_d of 0 (certain, no coin) beside an LAA coin, with a
        # different stage-0 window on each network
        "blind-wifi": (simulate, SimConfig(
            scenario=Scenario(n_wifi=3, n_laa=3, wifi=WifiParams(w0=8, m=3),
                              laa=LaaParams(w0=16, m=2), p_dw=0.0, p_dl=0.3),
            horizon_events=30_000, seed=26, warmup_events=3_000)),
        # asymmetric collisions: Wi-Fi's one station draws its coin in every
        # cross collision, and LAA's collisions are mostly among its own
        "1+6-wifi-coin": (simulate, SimConfig(
            scenario=Scenario(n_wifi=1, n_laa=6, wifi=WifiParams(w0=8, m=2),
                              laa=LaaParams(w0=8, m=2), p_dw=0.3, p_dl=0.546,
                              comparison_mode=True),
            horizon_events=30_000, seed=27, warmup_events=3_000)),
        # LAA's one station draws its coin after several Wi-Fi ones, and
        # holds its top window for three further failures
        "6+1-laa-retries": (simulate, SimConfig(
            scenario=Scenario(n_wifi=6, n_laa=1, wifi=WifiParams(w0=8, m=2),
                              laa=LaaParams(w0=8, m=1, retry_limit=3),
                              p_dl=0.77),
            horizon_events=30_000, seed=28, warmup_events=3_000)),
        # a network that draws its coin beside one whose p_d is 1 and so
        # skips the runner-up test, then a blind one (p_d = 0, no coin)
        # beside a certain one: collisions of every make-up on both
        "wifi-coin-laa-certain": (simulate, SimConfig(
            scenario=replace(comparison_cell(4, 2, CASE2), p_dw=0.546),
            horizon_events=30_000, seed=29, warmup_events=3_000)),
        "laa-blind-wifi-certain": (simulate, SimConfig(
            scenario=Scenario(n_wifi=3, n_laa=3, wifi=WifiParams(w0=8, m=2),
                              laa=LaaParams(w0=8, m=1), p_dw=1.0, p_dl=0.0),
            horizon_events=30_000, seed=30, warmup_events=3_000)),
        # two coins beside a top Wi-Fi window of 2**62: 62 mask bits and 2
        # rank bits fill a packed draw's 64; at 2**63 they would not, and
        # the draws stay raw
        "wide-window-coin": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=2, wifi=WifiParams(w0=4, m=60),
                              laa=CLASS1_LAA, p_dw=0.3, p_dl=0.77),
            horizon_events=30_000, seed=31, warmup_events=3_000)),
        "wide-window-coin-raw": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=2, wifi=WifiParams(w0=4, m=61),
                              laa=CLASS1_LAA, p_dw=0.3, p_dl=0.77),
            horizon_events=30_000, seed=32, warmup_events=3_000)),
        # the coin bounds at their ends, 1 and 2**64 - 2**11
        "coin-extremes": (simulate, SimConfig(
            scenario=Scenario(n_wifi=3, n_laa=3, p_dw=5e-324,
                              p_dl=math.nextafter(1.0, 0.0)),
            horizon_events=30_000, seed=33, warmup_events=3_000)),
        # one coin beside a top Wi-Fi window of 2**54 at stage 53, then of
        # 2**55, under a key shift of 9 (6 stage bits, 3 station bits): while
        # draws were shifted into key units, these filled a packed draw's 64
        # bits and needed 65. A draw holds only its 55 or 56 mask and rank
        # bits now, so both pack
        "key-shift-64-bits": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=2, wifi=WifiParams(w0=4, m=52),
                              laa=LaaParams(w0=4, m=1), p_dw=0.3),
            horizon_events=30_000, seed=34, warmup_events=3_000)),
        "key-shift-65-bits-raw": (simulate, SimConfig(
            scenario=Scenario(n_wifi=2, n_laa=2, wifi=WifiParams(w0=4, m=53),
                              laa=LaaParams(w0=4, m=1), p_dw=0.3),
            horizon_events=30_000, seed=35, warmup_events=3_000)),
        # a top Wi-Fi window of 6,144 slots, above _INC_CAP, so every stage
        # that advances reads its increments from a range: LAA's one-slot
        # window puts each Wi-Fi attempt in a cross collision, whose coin
        # mostly advances it, so the top window is reached and draws
        # counters past the cap
        "window-above-cap": (simulate, SimConfig(
            scenario=Scenario(n_wifi=4, n_laa=1, wifi=WifiParams(w0=3, m=11),
                              laa=LaaParams(w0=1, m=0), p_dw=0.9),
            horizon_events=60_000, seed=36, warmup_events=3_000)),
    }

    EXPECTED = {
        "c6-red-point": ((18443, 8403, 8424, 0, 0, 4730), (
            "0x1.232f28416139bp+2", "0x1.225a0645b26f5p+5", "0x1.50346dc5d6388p-2",
            "0x1.50be0ded288cep-2", "0x1.70ce281dc8fdcp-2", "0x1.70376d560f560p-2",
            "0x1.ecb3d7d5b1fd0p-9", "0x1.e41c784be63a8p-9", "0x1.840af4f9d1943p-10",
            "0x1.bbb5ec79ab975p-10", "0x1.afb955171c435p-3", "0x1.68f484d563c0cp-5")),
        "class1-4+2": ((3369, 5528, 2782, 4633, 608, 10080), (
            "0x1.ed95ff1b88054p+0", "0x1.b73d6d0af994fp-1", "0x1.2cddca72d6f6dp-2",
            "0x1.2dd084491f060p-2", "0x1.a6ce13f169f18p-1", "0x1.a6819386c9a27p-1",
            "0x1.66a5e23a62b14p-9", "0x1.f75c2b26fb20ep-10", "0x1.2b780a4500676p-10",
            "0x1.c02b5a4fb365dp-11", "0x1.b686a4f44301bp-7", "0x1.444669c5168b6p-6")),
        "class4-20+20-detection": ((8977, 5124, 4964, 1580, 1557, 4798), (
            "0x1.8979a64138ce1p-1", "0x1.5105f9eee68b5p+1", "0x1.bd47dcaef1d89p-6",
            "0x1.b7b2b11951c0dp-6", "0x1.131e3648b44bap-1", "0x1.147dc6334c864p-1",
            "0x1.dfe90bc42f5f8p-9", "0x1.0a5aead424bb1p-8", "0x1.74fd8d5bc9e1dp-12",
            "0x1.3d534cf39a6a9p-12", "0x1.fdf896d666d88p-6", "0x1.2892006099dfap-6")),
        "mask-and-reject": ((17067, 3884, 4396, 237, 313, 1103), (
            "0x1.1b1e477ae1087p+0", "0x1.1b501a16f278bp+2", "0x1.a39cc928bb818p-4",
            "0x1.d76b549327105p-4", "0x1.5c5e0883cb6e2p-3", "0x1.047d62678da7ap-2",
            "0x1.ad93f3450ee78p-8", "0x1.57698fd3cdad2p-8", "0x1.6087754990cbap-10",
            "0x1.475b0694ec70ep-10", "0x1.5aad30ea837cbp-5", "0x1.79b32a5fec7f1p-6")),
        "wifi-only": ((20247, 6083, 0, 670, 0, 0), (
            "0x1.e127dcb21309ep+2", "0x0.0p+0", "0x1.7839a5bc7dea0p-4",
            "0x0.0p+0", "0x1.758a2f58a2f59p-3", "0x0.0p+0",
            "0x0.0p+0", "0x1.35eaddc9c9a19p-8", "0x0.0p+0",
            "0x1.13d7d63e8a922p-10", "0x0.0p+0", "0x1.8641b90254082p-6")),
        "laa-only": ((19986, 0, 6292, 0, 722, 0), (
            "0x0.0p+0", "0x1.863083a1a9f08p+2", "0x0.0p+0",
            "0x1.8841556f395e9p-4", "0x0.0p+0", "0x1.82c9e8b344f13p-3",
            "0x1.67e968047b437p-8", "0x0.0p+0", "0x1.be4a2519ca246p-11",
            "0x0.0p+0", "0x1.7b335c306837ep-6", "0x0.0p+0")),
        "non-comparison": ((14099, 4371, 5420, 346, 582, 2182), (
            "0x1.d1262b0b16ca0p-1", "0x1.fdf41d14be244p+1", "0x1.1a17d14677641p-3",
            "0x1.549327104ee2dp-3", "0x1.a63cfd0a41ab5p-2", "0x1.95f374e1c81ffp-2",
            "0x1.610440b6ec45ep-8", "0x1.734c18daaf874p-8", "0x1.1b2612aa57681p-10",
            "0x1.20a03a665b0e2p-10", "0x1.05e87c0a19ffep-5", "0x1.f9582df826163p-7")),
        "odd-horizon-no-warmup": ((2403, 2051, 2004, 488, 483, 2578), (
            "0x1.1a652ac2a8f50p+1", "0x1.e7e8d7e4f0593p+0", "0x1.37be4e20b1a46p-2",
            "0x1.341c584f33c0bp-2", "0x1.53a7186934e5cp-1", "0x1.559de29520bbcp-1",
            "0x1.4a176b4a4a7a6p-8", "0x1.6eda6b892aa68p-8", "0x1.fbfdebe45354dp-10",
            "0x1.f3939935a2efdp-10", "0x1.ecdf7f133b966p-6", "0x1.34c88ff3e283cp-5")),
        "few-counted-events": ((28, 14, 13, 0, 0, 5), (
            "0x1.caa07822347f3p+1", "0x1.78869b9112576p+1", "0x1.4444444444444p-2",
            "0x1.3333333333333p-2", "0x1.0d79435e50d79p-2", "0x1.1c71c71c71c72p-2",
            "0x1.26c461cdda58dp-5", "0x1.26c461cdda58dp-5", "0x1.e8bc338f0888bp-5",
            "0x1.f01d2a214223cp-5", "0x1.8723d96ea2d6dp-2", "0x1.dc4ef9671bb7fp-2")),
        "long-idle-runs": ((49069, 1454, 6296, 0, 0, 181), (
            "0x1.b308f78f9b2bfp-2", "0x1.a05ff850e366dp+2", "0x1.d5f64c87d0929p-6",
            "0x1.d16f58b5f2d98p-4", "0x1.dbfcde561dbfdp-5", "0x1.c9d9fa3abbbdcp-6",
            "0x1.06b637f8091adp-9", "0x1.c13096a264a28p-8", "0x1.aa9dd63f404aep-11",
            "0x1.e0f9577edb18bp-12", "0x1.b30d3c6fbddc2p-7", "0x1.2ebf0dd773a28p-7")),
        "fractional-slot": ((23992, 1435, 1475, 0, 0, 98), (
            "0x1.6fa0c27fbed5dp+0", "0x1.4e180e7b49809p+2", "0x1.d11fa1563e59bp-5",
            "0x1.dd4285a6a5824p-5", "0x1.05d84176105d8p-4", "0x1.fe5f5e8e3d84ap-5",
            "0x1.931f621c58588p-8", "0x1.91a92d9301483p-8", "0x1.08507abbb1a73p-10",
            "0x1.e2d70e0b35dbep-11", "0x1.55dbd14833044p-5", "0x1.ec46bf7271c9ap-6")),
        "lone-station": ((23788, 3212, 0, 0, 0, 0), (
            "0x1.0555e60902111p+3", "0x0.0p+0", "0x1.e745b535c76a2p-4",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.3632cd1bc7af9p-10", "0x0.0p+0", "0x1.8f1bf7077fbc5p-9")),
        "all-tie": ((0, 0, 0, 0, 0, 19700), (
            "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
        "station-cap": ((23, 38, 35, 135, 134, 2335), (
            "0x1.d7eb2f179b12ep-6", "0x1.804d13351efefp-4", "0x1.52f684bda12f7p-8",
            "0x1.570a3d70a3d71p-8", "0x1.ed4f69e8a7d9ap-1", "0x1.ed3fd2b71eb57p-1",
            "0x1.af36850b58313p-9", "0x1.7b545bb85f3f3p-9", "0x1.e06fc3a18bcb3p-14",
            "0x1.8fb2e1f1dbd80p-14", "0x1.27c98e1ee3092p-6", "0x1.73c4d8be639dep-8")),
        "2^64-window": ((9232, 15678, 586, 510, 0, 994), (
            "0x1.6e32d1074245dp+2", "0x1.8340779da05f1p-1", "0x1.50405286dd55fp-2",
            "0x1.df623a67eac2fp-5", "0x1.da769da769da7p-4", "0x1.421b386282eaap-1",
            "0x1.9079e492327b9p-7", "0x1.33cc56dd52120p-7", "0x1.3e4b6fe3ddf78p-10",
            "0x1.285f6a2daa8e4p-9", "0x1.0cd4bf3465c06p-5", "0x1.b5066f25c1916p-5")),
        "keys-beyond-64-bits": ((21691, 0, 4991, 0, 318, 0), (
            "0x0.0p+0", "0x1.986076de15dadp+2", "0x0.0p+0",
            "0x1.aad180b878c19p-4", "0x0.0p+0", "0x1.cef4da8ec35afp-4",
            "0x1.5d3bc61ebf1f9p-8", "0x0.0p+0", "0x1.01b23d45cd555p-10",
            "0x0.0p+0", "0x1.55deb31855786p-6", "0x0.0p+0")),
        "blind-wifi": ((12588, 6698, 3631, 1343, 369, 2371), (
            "0x1.9264b1d011619p+0", "0x1.81ba86976656fp+1", "0x1.3593a20b7a9a1p-3",
            "0x1.61b8f3bcbea41p-4", "0x1.2a51755639b4ep-2", "0x1.0e3c884a12cfap-2",
            "0x1.9534cd7af2caap-8", "0x1.f00b6ec46e05ep-9", "0x1.c0aa4febf8d45p-11",
            "0x1.50cffe58f9aedp-10", "0x1.3d4f491b60352p-5", "0x1.bc32d1a44b86ep-6")),
        "1+6-wifi-coin": ((9598, 2118, 8465, 0, 3911, 2908), (
            "0x1.17d3cb360c506p-2", "0x1.ee672b2230968p+1", "0x1.7d3b3d840eddfp-3",
            "0x1.0b74211247c18p-3", "0x1.6d82b3168369ap-3", "0x1.1df6077436caap-1",
            "0x1.c7c0f7fd31ac6p-9", "0x1.6405b098a42e3p-8", "0x1.25133ae779cc4p-11",
            "0x1.e44c12da5ac98p-10", "0x1.9145fa09f06d6p-6", "0x1.86c80b40ee4dap-8")),
        "6+1-laa-retries": ((10583, 8503, 2090, 3527, 0, 2297), (
            "0x1.2648d42a90c75p+1", "0x1.ff9fe76f6d21cp+0", "0x1.e71edf27f9533p-4",
            "0x1.4cc3174959471p-3", "0x1.1e07b4f38942fp-1", "0x1.9b0c144ea9581p-2",
            "0x1.cf2c10a0d89bep-8", "0x1.a8ea09c49e4a5p-9", "0x1.adb77637413d3p-10",
            "0x1.2d27954d6083ep-11", "0x1.17a0219d05fdap-5", "0x1.74a34a404b7b2p-6")),
        "wifi-coin-laa-certain": ((3296, 5583, 2724, 4717, 560, 10120), (
            "0x1.f11a3115b209fp+0", "0x1.ace1231ea9bedp-1", "0x1.316872b020c4ap-2",
            "0x1.2a49938827716p-2", "0x1.8027aca54737fp-1", "0x1.a755f66e363a2p-1",
            "0x1.9739770368c2ep-9", "0x1.2af47b6eb650bp-9", "0x1.3f011e00db0b2p-10",
            "0x1.bc98e376535d0p-11", "0x1.f596b6bda103ep-7", "0x1.5acd8a4c38633p-6")),
        "laa-blind-wifi-certain": ((10529, 4235, 6409, 606, 1543, 3678), (
            "0x1.47f9ff0097fabp-1", "0x1.b6d55639b0e2dp+1", "0x1.e60212c2bcab4p-4",
            "0x1.62f61d2d7c5f3p-3", "0x1.1e644fcd48e73p-1", "0x1.5318b553f8c77p-2",
            "0x1.417cc1b2a9bf5p-8", "0x1.1f98ed98bcfb9p-8", "0x1.f1ce501dfde80p-11",
            "0x1.c460a551b1f9bp-11", "0x1.b65bfcec4f420p-6", "0x1.6682a28b2f2e8p-7")),
        "wide-window-coin": ((8225, 4718, 6797, 553, 1485, 5222), (
            "0x1.c15ada1aadffap+0", "0x1.1e2dff2d496cbp+1", "0x1.b67fe2df75a57p-3",
            "0x1.2e5d4c3b2a190p-2", "0x1.3ac37713b4b81p-2", "0x1.077735b4614b6p-1",
            "0x1.2765936abd5f9p-8", "0x1.bbf7f54471ef8p-8", "0x1.427bb63dc6908p-10",
            "0x1.989479499d3fap-9", "0x1.af71bebe1ec68p-6", "0x1.8d1c66209d55cp-6")),
        "wide-window-coin-raw": ((8616, 4528, 7135, 221, 1571, 4929), (
            "0x1.b5eb8bda732a4p+0", "0x1.310d0cdfc5cf5p+1", "0x1.7f64a7c8c7a46p-3",
            "0x1.31749594712bcp-2", "0x1.cadeccdef3c4cp-3", "0x1.fe89b1cecbcefp-2",
            "0x1.375d2fce4c63ap-8", "0x1.425ee9989ad20p-7", "0x1.50a97793c0674p-10",
            "0x1.cdf2986db7590p-9", "0x1.f0c77e7d28cabp-6", "0x1.c54dd3e310a8ep-6")),
        "coin-extremes": ((15786, 4982, 3928, 536, 340, 1428), (
            "0x1.60b97211ef861p+0", "0x1.ebc29155eaf9ap+1", "0x1.8153d0f8cb487p-4",
            "0x1.373ed4a355961p-4", "0x1.61f721761f721p-3", "0x1.7280da469fa18p-2",
            "0x1.a0a6959f293b5p-8", "0x1.5250595a58e3bp-8", "0x1.ad174935ea2e8p-11",
            "0x1.1b8f371d347bbp-10", "0x1.67c0dc9d47d70p-5", "0x1.aaa6fb6c0c41bp-6")),
        "key-shift-64-bits": ((8392, 4717, 6872, 462, 1408, 5149), (
            "0x1.3e76126010bfcp-1", "0x1.9a32c06de0979p+1", "0x1.a9436eaaf856cp-3",
            "0x1.2b768e7324a2fp-2", "0x1.273ef1af68679p-2", "0x1.213318a3ec49bp-1",
            "0x1.3a521fd54e005p-8", "0x1.093edc7849868p-7", "0x1.5dc53a9468214p-10",
            "0x1.beef3cc143510p-9", "0x1.17fbdecd87b77p-5", "0x1.3828de6e58689p-7")),
        "key-shift-65-bits-raw": ((8474, 4745, 6741, 437, 1424, 5179), (
            "0x1.4234b71fd6df5p-1", "0x1.94b533f74e264p+1", "0x1.a8e25788751d8p-3",
            "0x1.298c4004dac1cp-2", "0x1.1c444762f7c03p-2", "0x1.240a3ef18fa78p-1",
            "0x1.54664fdbe9482p-8", "0x1.1768a817ebcf5p-7", "0x1.5d526d58c867ap-10",
            "0x1.0c6de55cd4d91p-8", "0x1.471ff2a0f0865p-5", "0x1.8071291bf3355p-7")),
        "window-above-cap": ((0, 0, 56437, 0, 0, 563), (
            "0x0.0p+0", "0x1.aff769603aac1p+2", "0x1.443b1191d6d31p-9",
            "0x1.0000000000000p+0", "0x1.c9882b9310572p-1", "0x1.43a7e66affbfap-7",
            "0x1.4fe80ae006f3ap-10", "0x1.44496e8d6a9eep-5", "0x0.0p+0",
            "0x1.514b525dd1882p-12", "0x1.1e39e443d774ap-7", "0x0.0p+0")),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_report_matches_reference(self, name):
        run, cfg = self.RUNS[name]
        report = run(cfg)
        counts, hexes = self.EXPECTED[name]
        assert tuple(report.event_counts[c] for c in EVENT_CLASSES) == counts
        measured = [report.tput_wifi_mbps, report.tput_laa_mbps,
                    report.tau_w, report.tau_l, report.p_w, report.p_l]
        measured += [report.stderr[key] for key in sorted(report.stderr)]
        assert [value.hex() for value in measured] == list(hexes)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_throughputs_are_exact_in_the_counts(self, name):
        # the counted events' time is summed exactly and rounded once, so
        # are each network's payload bits, and a throughput is their quotient
        run, cfg = self.RUNS[name]
        report = run(cfg)
        s = cfg.scenario
        counts = [report.event_counts[c] for c in EVENT_CLASSES]
        durations = [s.wifi.slot_us, report.t_sw_us, report.t_sl_us,
                     report.t_cw_us, report.t_cl_us, report.t_cc_us]
        time = float(sum(Fraction(n) * Fraction(t)
                         for n, t in zip(counts, durations)))
        bit_w = (derived_durations(s.wifi)[0] * s.wifi.data_rate_mbps
                 if s.n_wifi else 0.0)
        bit_l = s.laa.pdcch_fraction * s.laa.txop_us * s.laa.data_rate_mbps
        bits_w = float(counts[1] * Fraction(bit_w))
        bits_l = float(counts[2] * Fraction(bit_l))
        assert report.tput_wifi_mbps == float(Fraction(bits_w) / Fraction(time))
        assert report.tput_laa_mbps == float(Fraction(bits_l) / Fraction(time))
        assert report.tput_total_mbps == (report.tput_wifi_mbps
                                          + report.tput_laa_mbps)
        assert report.t_e_us == float(Fraction(time) / sum(counts))


class TestAgainstReferenceLoop:
    """The event-driven heap loop against ``mcsim._replay``, a plain loop
    over the same draws: every count must agree, whatever the collisions'
    make-up. The first four examples are the TestTrace dumps, whose hashes
    pin both."""

    @settings(max_examples=40, deadline=None)
    @given(n_w=st.integers(0, 6), n_l=st.integers(0, 6),
           w0_w=st.integers(1, 12), m_w=st.integers(0, 3),
           w0_l=st.integers(1, 12), m_l=st.integers(0, 3),
           retry_limit=st.integers(0, 3), comparison_mode=st.booleans(),
           p_dw=st.sampled_from((0.0, 0.3, 0.546, 0.77, 1.0)),
           p_dl=st.sampled_from((0.0, 0.3, 0.546, 0.77, 1.0)),
           horizon=st.integers(1, 3_000), warmup_share=st.floats(0, 0.5),
           seed=st.integers(0, 2 ** 32))
    @example(1, 1, 16, 2, 16, 2, 1, True, 1.0, 1.0, 500, 0.0, 2)
    @example(5, 5, 16, 2, 16, 2, 1, True, 0.546, 0.546, 500, 0.0, 2)
    @example(2, 2, 8, 2, 8, 1, 2, False, 1.0, 1.0, 500, 0.0, 2)
    @example(1, 6, 8, 2, 8, 2, 1, True, 0.3, 0.546, 500, 0.0, 2)
    # the bench's shapes: sim-dense's 20+20 with class-4 LAA, C6's 4+2
    @example(20, 20, 16, 6, 16, 6, 1, False, 0.546, 0.546, 2_000, 0.1, 3)
    @example(4, 2, 4, 1, 4, 1, 1, True, 1.0, 1.0, 2_000, 0.1, 4)
    # TestReferenceStream's packed and raw wide windows beside two coins,
    # its coin bounds at their ends, and its 64- and 65-bit packed draws
    # beside one coin
    @example(2, 2, 4, 60, 4, 1, 1, False, 0.3, 0.77, 2_000, 0.1, 31)
    @example(2, 2, 4, 61, 4, 1, 1, False, 0.3, 0.77, 2_000, 0.1, 32)
    @example(3, 3, 16, 6, 16, 2, 1, False, 5e-324, math.nextafter(1.0, 0.0),
             2_000, 0.1, 33)
    @example(2, 2, 4, 52, 4, 1, 1, False, 0.3, 1.0, 2_000, 0.1, 34)
    @example(2, 2, 4, 53, 4, 1, 1, False, 0.3, 1.0, 2_000, 0.1, 35)
    # one station with a one-slot window stays the least key event after
    # event (heappushpop hands its new key straight back) until the other
    # network's station ties it, and then its coin reads heap[0]
    @example(1, 1, 1, 0, 12, 3, 1, False, 0.3, 1.0, 2_000, 0.1, 36)
    @example(1, 1, 12, 3, 1, 0, 1, False, 1.0, 0.77, 2_000, 0.1, 37)
    def test_counts_match_reference_loop(self, n_w, n_l, w0_w, m_w, w0_l,
                                         m_l, retry_limit, comparison_mode,
                                         p_dw, p_dl, horizon, warmup_share,
                                         seed):
        if n_w + n_l == 0:
            n_w = 1
        s = Scenario(n_wifi=n_w, n_laa=n_l, wifi=WifiParams(w0=w0_w, m=m_w),
                     laa=LaaParams(w0=w0_l, m=m_l, retry_limit=retry_limit),
                     p_dw=p_dw, p_dl=p_dl, comparison_mode=comparison_mode)
        warmup = int(warmup_share * horizon)
        report = simulate(SimConfig(scenario=s, horizon_events=horizon,
                                    seed=seed, warmup_events=warmup))
        events = dict.fromkeys(EVENT_CLASSES, 0)
        att_w = att_l = col_w = col_l = 0
        for cls, _, count, (hit_w, hit_l) in islice(
                _replay(s, horizon, seed), warmup, None):
            events[cls] += 1
            tx_w, tx_l = count[:n_w].count(0), count[n_w:].count(0)
            att_w, att_l = att_w + tx_w, att_l + tx_l
            col_w, col_l = col_w + hit_w * tx_w, col_l + hit_l * tx_l
        assert report.event_counts == events
        n = horizon - warmup
        assert report.tau_w == (att_w / (n_w * n) if n_w else 0.0)
        assert report.tau_l == (att_l / (n_l * n) if n_l else 0.0)
        assert report.p_w == (col_w / att_w if att_w else 0.0)
        assert report.p_l == (col_l / att_l if att_l else 0.0)


class TestAccounting:
    def test_event_counts_sum_to_counted_horizon(self):
        cfg = SimConfig(scenario=comparison_cell(2, 2), horizon_events=80_000,
                        seed=5, warmup_events=7_000)
        report = simulate(cfg)
        assert sum(report.event_counts.values()) == 73_000
        assert set(report.event_counts) == set(EVENT_CLASSES)

    def test_lone_station_never_collides(self):
        report = simulate(SimConfig(scenario=wifi_only_scenario(1),
                                    horizon_events=30_000, seed=9))
        assert report.p_w == 0.0
        assert report.event_counts["wifi-collision"] == 0
        assert report.event_counts["cross-collision"] == 0
        assert report.tput_laa_mbps == 0.0

    def test_stderr_keys_present(self):
        report = simulate(SimConfig(scenario=comparison_cell(1, 1),
                                    horizon_events=30_000, seed=4))
        assert set(report.stderr) == {"tput_wifi_mbps", "tput_laa_mbps",
                                      "tau_w", "tau_l", "p_w", "p_l"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=comparison_cell(1, 1), horizon_events=100,
                      warmup_events=100)

    @pytest.mark.parametrize("field, value", [
        ("horizon_events", 3e4), ("warmup_events", 10.0), ("seed", True),
        ("seed", "7")])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(scenario=comparison_cell(1, 1), **{field: value})

    # only counts above the cap: they are refused before any list is built
    @pytest.mark.parametrize("n_wifi, n_laa", [
        (MAX_STATIONS + 1, 0), (MAX_STATIONS, 1), (0, 10**20)])
    def test_station_cap(self, n_wifi, n_laa):
        with pytest.raises(ValueError,
                           match=f"must be <= {MAX_STATIONS} for the simulator"):
            SimConfig(scenario=Scenario(n_wifi=n_wifi, n_laa=n_laa))

    # every simulated time is this sum: exact, then rounded once
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2 ** 40),
        st.sampled_from([9.0, 9.1, 20.0, 1e-300, 5e-324])
        | st.floats(0.0, allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=6))
    @example([(2, sys.float_info.max)])
    @example([(0, 9.1), (0, 5e-324), (0, sys.float_info.max)])
    def test_exact_dot_rounds_the_exact_sum_once(self, terms):
        counts, weights = zip(*terms)
        try:
            expected = float(sum(Fraction(n) * Fraction(w) for n, w in terms))
        except OverflowError:
            expected = math.inf
        assert _exact_dot(weights)(counts) == expected

    def test_exact_dot_overflows_to_inf_and_sums_no_events_to_zero(self):
        dot = _exact_dot((9.1, 5e-324, sys.float_info.max))
        assert dot((0, 0, 2)) == math.inf
        assert dot((2 ** 40, 0, 1)) == sys.float_info.max
        assert dot((0, 0, 0)) == 0.0


class TestReportShape:
    def test_report_is_a_measured_throughput_report(self):
        s = comparison_cell(2, 2)
        report = simulate(SimConfig(scenario=s, horizon_events=30_000,
                                    seed=4))
        assert isinstance(report, ThroughputReport)
        c = report.event_counts
        assert report.p_trw == (c["wifi-success"] + c["wifi-collision"]
                                + c["cross-collision"]) / 20_000
        assert report.p_sl == c["laa-success"] / (c["laa-success"]
                                                  + c["laa-collision"])
        d = dict(zip(EVENT_CLASSES, event_durations(s)))
        assert (report.t_sw_us, report.t_cw_us, report.t_sl_us,
                report.t_cl_us, report.t_cc_us) == (
            d["wifi-success"], d["wifi-collision"], d["laa-success"],
            d["laa-collision"], d["cross-collision"])
        assert report.per_user_laa_mbps == report.tput_laa_mbps / 2


class TestRawScenario:
    """A comparison-mode scenario built from raw LAA values holds the
    overrides, so every engine runs on retry limit 0 and a DIFS turnaround,
    as on the scenario built from the overrides' own values."""

    EFF = comparison_cell(1, 1, CASE2, 54.0, 70.2)  # C6's red point
    RAW = replace(EFF, laa=replace(EFF.laa, retry_limit=5,
                                   next_tx_delay_us=900.0))

    def test_engines_agree_on_raw_and_effective(self):
        assert self.RAW == self.EFF and self.RAW.chains()[1] == (4, 1, 0)
        turnaround = self.EFF.laa.txop_us + self.EFF.wifi.difs_us
        sol = solve_coexistence(self.RAW)
        assert sol == solve_coexistence(self.EFF)
        assert coexistence_throughput(self.RAW, sol).t_sl_us == turnaround
        run = dict(horizon_events=20_000, seed=7, warmup_events=1_000)
        report = simulate(SimConfig(scenario=self.RAW, **run))
        assert report == simulate(SimConfig(scenario=self.EFF, **run))
        assert report.t_sl_us == turnaround


class TestAgainstAnalyticModel:
    def test_wifi_only_throughput_reference(self):
        # two saturated APs at 9 Mbps land on the baseline value
        report = simulate(SimConfig(scenario=wifi_only_scenario(2),
                                    horizon_events=2_000_000, seed=42))
        assert report.tput_wifi_mbps == pytest.approx(7.77, rel=0.02)

    def test_access_probabilities_match_fixed_point(self):
        s = comparison_cell(1, 1)
        sol = solve_coexistence(s)
        report = simulate(SimConfig(scenario=s, horizon_events=200_000,
                                    seed=31))
        for measured, expected, err in [
                (report.tau_w, sol.tau_w, report.stderr["tau_w"]),
                (report.tau_l, sol.tau_l, report.stderr["tau_l"])]:
            assert abs(measured - expected) <= max(3 * err, 0.002)

    def test_event_frequencies_match_expected_weights(self):
        # the six analytic event weights; the slotted simulator must land on
        # them up to sampling noise plus the small decoupling bias
        for s in (comparison_cell(2, 2), comparison_cell(4, 2, CASE2)):
            probs = event_probabilities(solve_coexistence(s), s.n_wifi,
                                        s.n_laa)
            weights = dict(zip(EVENT_CLASSES, event_weights(*probs)))
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
        assert report.p_w == 0.0
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
                scenario=s, horizon_events=80_000, seed=3)).p_w

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


class TestCoinThreshold:
    """A lone station detects the other network when its 64-bit draw lies
    below p * 2**64. The simulator compares the draw with the integer
    ceil(p * 2**64) instead of that float; Python compares an int with a
    float exactly, so both bounds split every draw the same way."""

    @staticmethod
    def assert_same_split(p, x):
        bound = p * 2.0 ** 64
        assert (x >= bound) == (x >= math.ceil(bound))

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           x=st.integers(0, 2 ** 64 - 1))
    def test_integer_bound_splits_draws_like_the_float(self, p, x):
        ceil = math.ceil(p * 2.0 ** 64)
        for draw in (x, ceil - 1, ceil):
            if 0 <= draw < 2 ** 64:
                self.assert_same_split(p, draw)

    @pytest.mark.parametrize("p", [
        5e-324, 2.2250738585072014e-308, 2.0 ** -64, 0.3, 0.546,
        math.nextafter(1.0, 0.0)])
    def test_draws_either_side_of_the_integer_bound(self, p):
        ceil = math.ceil(p * 2.0 ** 64)
        assert 0 < ceil < 2 ** 64
        for draw in (ceil - 1, ceil):
            self.assert_same_split(p, draw)


class TestPackedDraws:
    """``simulate`` reads each PCG64 output packed by ``_pack``: its bits
    under the widest mask and, above them, its rank among the coin bounds,
    in slots. Every mask and every coin must read the packed draw as it
    reads the raw one."""

    @settings(max_examples=300, deadline=None)
    @given(raw=st.lists(st.integers(0, 2 ** 64 - 1), max_size=8),
           bits=st.integers(1, 62),
           bounds=st.lists(st.integers(1, 2 ** 64 - 2 ** 11), max_size=2))
    def test_packing_keeps_the_masked_bits_and_the_coin_rank(self, raw, bits,
                                                             bounds):
        bounds.sort()
        # the draws either side of each bound, and the ends of the range
        raw += [x for b in bounds for x in (b - 1, b, b + 1)]
        raw += [0, 2 ** 64 - 1]
        packed = _pack(np.array(raw, np.uint64), bits, bounds)
        for x, y in zip(raw, packed):
            for mask in ((1 << width) - 1 for width in range(bits + 1)):
                assert y & mask == x & mask
            for k, bound in enumerate(bounds, 1):
                assert (y >= k << bits) == (x >= bound)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.lists(st.integers(0, 2 ** 64 - 1), max_size=8),
           bounds=st.lists(st.integers(1, 2 ** 64 - 2 ** 11), max_size=2),
           data=st.data())
    def test_packing_equals_the_searchsorted_formula(self, raw, bounds, data):
        bounds.sort()
        # every width with room for the rank above it (all 64 bits: below)
        rank_bits = len(bounds).bit_length()
        bits = data.draw(st.integers(0, 64 - max(rank_bits, 1)),
                         label="bits")
        raw += [x for b in bounds for x in (b - 1, b, b + 1)]
        raw = np.array(raw + [0, 2 ** 64 - 1], np.uint64)
        packed = _pack(raw, bits, bounds)
        # the formula _pack replaced, run on the same (unchanged) outputs
        rank = np.searchsorted(np.array(bounds, np.uint64), raw, "right")
        formula = raw & (1 << bits) - 1 | rank.astype(np.uint64) << bits
        assert packed == formula.tolist()

    def test_all_64_bits_return_the_raw_outputs(self):
        raw = np.array([0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1], np.uint64)
        assert _pack(raw, 64, []) == raw.tolist()

    @pytest.mark.parametrize("name, horizon", [
        ("blind-wifi", 30_000),     # one coin bound
        ("coin-extremes", 3_000),   # two, at a horizon chunk 1 runs quickly
        # one, beside keys with 3 stage bits and 6 station bits
        ("class4-20+20-detection", 3_000),
    ])
    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch, name,
                                                      horizon):
        _, cfg = TestReferenceStream.RUNS[name]
        cfg = replace(cfg, horizon_events=horizon, warmup_events=300)
        reports = []
        for chunk in (1, 3, 4096):
            monkeypatch.setattr(mcsim, "_POOL_CHUNK", chunk)
            reports.append(repr(simulate(cfg)))
        assert reports == [reports[-1]] * 3

    def test_raw_stream_is_the_generators_uint64_stream(self):
        n = 2 * _POOL_CHUNK
        gen = np.random.Generator(np.random.PCG64(7))
        expected = gen.integers(0, 2 ** 64, n, dtype=np.uint64).tolist()
        assert list(islice(_draws(7), n)) == expected
        # a packed stream packs the same outputs, chunk after chunk
        bounds = [2 ** 62, 3 * 2 ** 62]
        rank = [sum(x >= b for b in bounds) for x in expected]
        assert list(islice(_draws(7, 10, bounds), n)) == [
            x & 1023 | k << 10 for x, k in zip(expected, rank)]


class TestKeyIncrements:
    """A transmitter's key moves by ``incs[b]``, the step to its next event
    and stage plus its new counter b in key units: ``step + b * one``, a
    list up to ``_INC_CAP`` slots and the range above, which indexes
    exactly at any width up to 2**64 without building it."""

    @pytest.mark.parametrize("width", [_INC_CAP, _INC_CAP + 1, 2 ** 64])
    @settings(max_examples=50, deadline=None)
    @given(shift=st.integers(1, 20), data=st.data())
    def test_entry_b_is_the_step_plus_b_key_units(self, width, shift, data):
        one = 1 << shift
        # the steps simulate uses: one + 1 to advance, one - j to reset
        step = one + data.draw(st.integers(1 - one, 1), label="step - one")
        incs = _incs(step, width, one)
        assert type(incs) is (list if width <= _INC_CAP else range)
        for b in (0, width - 1, data.draw(st.integers(0, width - 1))):
            assert incs[b] == step + b * one
        with pytest.raises(IndexError):
            incs[width]


class TestExactTwoNodeChain:
    """Pin the simulator against the exactly solvable 1+1 joint chain.

    With one station per technology the joint process over both nodes'
    (stage, counter) pairs is a small Markov chain that can be solved to
    machine precision, with no independence approximation. The simulator
    must land on its stationary throughput; where the decoupled analytic
    model deviates from this chain, the simulator is the one telling the
    truth. Each test first pins the chain's throughputs as this dense power
    iteration gives them, to within BLAS's machine-to-machine last bits.
    """

    def exact_throughputs(self, s):
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

        dur = dict(zip(EVENT_CLASSES, event_durations(s)))
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
                    time_of[src] = dur["cross-collision"]
                    for iw, pw in redraw(jw, collided=True):
                        for il, pl in redraw(jl, collided=True):
                            transition[src, iw * size + il] += pw * pl
                elif kw == 0:
                    time_of[src] = dur["wifi-success"]
                    wifi_payload[src] = wifi_bits
                    il = index[(jl, kl - 1)]
                    for iw, pw in redraw(jw, collided=False):
                        transition[src, iw * size + il] += pw
                elif kl == 0:
                    time_of[src] = dur["laa-success"]
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
        s = comparison_cell(1, 1, CASE2, 54.0, 70.2)
        exact_w, exact_l = self.exact_throughputs(s)
        assert (exact_w, exact_l) == pytest.approx(tuple(map(float.fromhex, (
            "0x1.267bcdd7b530fp+2", "0x1.24e8dc70e8e51p+5"))), rel=1e-12)
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
        assert (exact_w, exact_l) == pytest.approx(tuple(map(float.fromhex, (
            "0x1.69d8f1f006e69p+1", "0x1.02663c4537ed9p+2"))), rel=1e-12)
        report = simulate(SimConfig(scenario=s, horizon_events=1_000_000,
                                    seed=405))
        assert report.tput_wifi_mbps == pytest.approx(
            exact_w, abs=max(3 * report.stderr["tput_wifi_mbps"], 2e-3 * exact_w))
        assert report.tput_laa_mbps == pytest.approx(
            exact_l, abs=max(3 * report.stderr["tput_laa_mbps"], 2e-3 * exact_l))


class TestTrace:
    # Per 500-event dump: the scenario, the dump's sha256 (the 1+1 one as
    # the original per-slot engine wrote it, the 5+5 one as the list-scan
    # event loop wrote it, the 2+2 one as the heap loop with per-station
    # tables wrote it, the 1+6 one as the count-only loop that popped and
    # pushed every transmitter of a collision wrote it; mcsim.write_trace
    # writes each now from _replay, and TestAgainstReferenceLoop ties its
    # counts to simulate's) and the shortest longest idle run it must hold;
    # ten stations leave shorter idle runs than two. The 2+2 dump holds Wi-Fi's
    # extra stay at its top window and LAA resets after its top stage; the
    # 1+6 dump holds cross collisions where Wi-Fi's one station draws its
    # coin.
    DUMPS = {
        "1+1": (comparison_cell(1, 1), "d64dfb09c3a952212c614dc5c4027d17"
                                  "ccd72bd2b75b5ee7c66f66649b55abb8", 5),
        "5+5-detection": (
            replace(comparison_cell(5, 5), p_dw=0.546, p_dl=0.546),
            "fc40f193a12bdf5719ee593d788aad76e1cb0fce4d6d834f24dadb29aa994e8a",
            3),
        "2+2-non-comparison": (
            TestReferenceStream.RUNS["non-comparison"][1].scenario,
            "52da43a8d3e0a2e66211f0cb54a86a165ec71cd6b1467e0581e69181f7c35b21",
            5),
        "1+6-wifi-coin": (
            TestReferenceStream.RUNS["1+6-wifi-coin"][1].scenario,
            "6986b30acaf35e1e4a58dc96b847ee875ce0f11a117292a0d08172d0aeaff956",
            4),
    }

    def dump(self, tmp_path, name):
        path = tmp_path / "trace.csv"
        cfg = SimConfig(scenario=self.DUMPS[name][0], horizon_events=500,
                        seed=2, warmup_events=0)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_trace(fh, cfg)
        report = simulate(cfg)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return report, rows, path.read_bytes()

    @pytest.mark.parametrize("name", sorted(DUMPS))
    def test_per_event_dump(self, tmp_path, name):
        report, rows, raw = self.dump(tmp_path, name)
        assert hashlib.sha256(raw).hexdigest() == self.DUMPS[name][1]
        header, body = rows[0], rows[1:]
        s = self.DUMPS[name][0]
        nodes = ([f"w{i}" for i in range(s.n_wifi)]
                 + [f"l{i}" for i in range(s.n_laa)])
        assert header[:3] == ["event_index", "event_class", "duration_us"]
        assert header[3:] == [f"{node}_{col}" for node in nodes
                              for col in ("stage", "counter")]
        assert len(body) == 500
        # the trace and the report must tell the same story
        for cls, count in report.event_counts.items():
            assert sum(1 for row in body if row[1] == cls) == count

    @pytest.mark.parametrize("name", sorted(DUMPS))
    def test_idle_rows_count_down_one_slot_each(self, tmp_path, name):
        _, rows, _ = self.dump(tmp_path, name)
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
        assert longest >= self.DUMPS[name][2]
