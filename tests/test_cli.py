import argparse
import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import laacoex
from laacoex import EdConfig, cli, detection_probability, solver, throughput
from laacoex.core import (LaaParams, Scenario, Solution, ThroughputReport,
                          WifiParams, scenario_to_dict)

SRC_DIR = Path(laacoex.__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "bench" / "golden"
SWEEP_PRESETS = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                 "fig12_class4", "fig13", "fig14")
RUN_PRESETS = ("table4_case1", "table4_case2", "table4_case3", "table5",
               "table6", "table7")


def parse_csv(text):
    """Split CLI output into (version_line, header, rows-as-dicts)."""
    lines = text.splitlines()
    version, rest = lines[0], lines[1:]
    rows = list(csv.DictReader(io.StringIO("\n".join(rest))))
    return version, rest[0].split(","), rows


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_body(name):
    """A golden CSV without its version line."""
    return (GOLDEN_DIR / f"{name}.csv").read_text(
        encoding="utf-8").split("\n", 1)[1]


def counting(monkeypatch, calls, *targets):
    """Replace ``module.attr`` for each (module, attr) by a wrapper that
    appends its first argument to ``calls``; one wrapped original is used
    for every target, so a call through any of them counts once."""
    real = getattr(*targets[0])

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module, attr in targets:
        monkeypatch.setattr(module, attr, wrapper)


class TestRunCommand:
    def test_reference_scenario_values(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table4_case3")
        assert code == 0
        version, header, rows = parse_csv(out)
        assert version.startswith("# laacoex ")
        assert len(rows) == 1
        row = rows[0]
        assert row["engine"] == "analytic"
        assert float(row["tput_wifi_mbps"]) == pytest.approx(1.49, rel=0.05)
        assert float(row["tput_laa_mbps"]) == pytest.approx(5.26, rel=0.05)

    def test_effective_parameters_echoed(self, capsys):
        # the preset leaves retry_limit at its default 1; comparison mode
        # must echo 0
        _, out, _ = run_cli(capsys, "run", "table4_case2")
        _, _, rows = parse_csv(out)
        assert rows[0]["laa_retry_limit"] == "0"
        assert rows[0]["laa_next_tx_delay_us"] == "34.0"
        assert rows[0]["comparison_mode"] == "true"

    def test_both_engines_agree(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table4_case3",
                               "--engine", "both",
                               "--horizon", "400000", "--seed", "17")
        assert code == 0
        _, _, rows = parse_csv(out)
        analytic = {r["engine"]: r for r in rows}["analytic"]
        simulated = {r["engine"]: r for r in rows}["simulate"]
        for column, err_column in (("tput_wifi_mbps", "stderr_tput_wifi_mbps"),
                                   ("tput_laa_mbps", "stderr_tput_laa_mbps")):
            a = float(analytic[column])
            s = float(simulated[column])
            bound = max(0.02 * a, 3 * float(simulated[err_column]))
            assert abs(a - s) <= bound

    def test_wifi_only_route(self, capsys):
        _, out, _ = run_cli(capsys, "run", "table4_case1")
        _, _, rows = parse_csv(out)
        assert float(rows[0]["tput_wifi_mbps"]) == pytest.approx(7.77,
                                                                 rel=0.05)
        assert rows[0]["tput_laa_mbps"] == "0.0"

    def test_malformed_scenario_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("n_wifi: 1\nn_laa: 1\nlaa:\n  txop_us: -5.0\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert "txop_us" in err

    @pytest.mark.parametrize("body, field", [
        ("n_wifi: 1\nn_laa: 1\nwifi: {w0: 2.5}\n", "w0"),
        ("n_wifi: 1\nn_laa: 1\nwifi: {m: 2000}\n", "m"),
        ("n_wifi: 1\nn_laa: 1\nlaa: {w0: 2, m: 64}\n", "m"),
        ("n_wifi: 1\nn_laa: 1\nlaa: {retry_limit: 1.0}\n", "retry_limit"),
        ("n_wifi: 1.5\nn_laa: 1\n", "n_wifi"),
        ("n_wifi: 1\nn_laa: true\n", "n_laa"),
        ("n_wifi: 1\nn_laa: 1\ncomparison_mode: 'no'\n", "comparison_mode"),
        *((f"n_wifi: 1\nn_laa: 1\n{scalar}\n", field) for scalar, field in [
            ("wifi: {payload_bytes: 2048.5}", "payload_bytes"),
            ("wifi: {mac_header_bytes: 34.5}", "mac_header_bytes"),
            ("wifi: {ack_bytes: 14.0}", "ack_bytes"),
            ("wifi: {data_rate_mbps: .inf}", "data_rate_mbps"),
            ("wifi: {prop_delay_us: .nan}", "prop_delay_us"),
            ("wifi: {slot_us: true}", "slot_us"),
            ("laa: {txop_us: '8000'}", "txop_us"),
            ("laa: {pdcch_fraction: 1e400}", "pdcch_fraction"),
            ("laa: {data_rate_mbps: 1e308}", "data_rate_mbps"),
            ("p_dw: true", "p_dw"),
            ("p_dl: '0.5'", "p_dl"),
            ("ed_wifi: {threshold_dbm: -62, snr_db: 3, noise_power_dbm: -90, "
             "samples: 10.5}", "samples"),
            ("ed_laa: {threshold_dbm: -62, snr_db: true, "
             "noise_power_dbm: -90, samples: 10}", "snr_db"),
            ("ed_laa: {threshold_dbm: -62, snr_db: 3, "
             "noise_power_dbm: '-90', samples: 10}", "noise_power_dbm"),
            ("ed_wifi: {threshold_dbm: 0, signal_power_dbm: 3083.0, "
             "noise_power_dbm: 0.0, samples: 1}", "signal_power_dbm"),
            # a parameter group's errors name the group
            ("laa: {w0: 0}", "laa: w0"),
            ("wifi: {w0: 0}", "wifi: w0"),
            ("ed_laa: {threshold_dbm: -62, snr_db: 3, noise_power_dbm: -90, "
             "samples: 0}", "ed_laa: samples"),
            ("ed_wifi: {threshold_dbm: -62, snr_db: 400, "
             "noise_power_dbm: -94, samples: 10}", "ed_wifi: snr_db"),
        ]),
    ], ids=["w0-float", "m-overflow", "m-past-64-bits", "retry_limit-float",
            "n_wifi-float", "n_laa-bool", "comparison_mode-string",
            "payload-float", "mac_header-float", "ack-float", "rate-inf",
            "prop_delay-nan", "slot-bool", "txop-string", "pdcch-overflow",
            "laa-bits-overflow", "p_dw-bool", "p_dl-string", "samples-float",
            "snr-bool", "noise-string", "signal-overflows", "laa-w0-zero",
            "wifi-w0-zero", "ed_laa-samples-zero", "ed_wifi-snr-overflows"])
    def test_mistyped_count_or_flag_exits_2(self, tmp_path, capsys, body,
                                             field):
        # values are checked, never coerced: each names its field
        bad = tmp_path / "bad.yaml"
        bad.write_text(body)
        code, out, err = run_cli(capsys, "run", str(bad),
                                 "--engine", "both", "--horizon", "2000")
        assert code == 2
        assert out == ""
        assert re.search(rf"\b{field}\b", err)

    @pytest.mark.parametrize("laa, field", [
        ("retry_limit: 3", "retry_limit"),
        ("next_tx_delay_us: 123.0", "next_tx_delay_us"),
        ("retry_limit: 0, next_tx_delay_us: 35", "next_tx_delay_us")])
    def test_comparison_mode_refuses_a_value_it_sets(self, tmp_path, capsys,
                                                     laa, field):
        # the mode sets both fields; any other value in the file is refused,
        # not silently dropped
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"n_wifi: 1\nn_laa: 1\nlaa: {{{laa}}}\n"
                       "comparison_mode: true\n")
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert out == ""
        assert re.search(rf"\blaa: {field}\b", err)

    @pytest.mark.parametrize("difs", ["34", "34.0"])
    def test_comparison_mode_accepts_the_values_it_sets(self, tmp_path,
                                                        capsys, difs):
        # equal values pass, whatever their number type; DIFS is echoed
        path = tmp_path / "ok.yaml"
        path.write_text(f"n_wifi: 1\nn_laa: 1\nwifi: {{difs_us: {difs}}}\n"
                        "laa: {retry_limit: 0, next_tx_delay_us: 34.0}\n"
                        "comparison_mode: true\n")
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        row = parse_csv(out)[2][0]
        assert row["laa_next_tx_delay_us"] == row["wifi_difs_us"] == difs

    @pytest.mark.parametrize("engine", ["analytic", "simulate"])
    def test_overflowing_durations_exit_3(self, tmp_path, capsys, engine):
        # each input is finite, but the Wi-Fi success duration is not
        bad = tmp_path / "huge.yaml"
        bad.write_text("n_wifi: 1\nn_laa: 1\nwifi: {prop_delay_us: 1e308}\n")
        code, out, err = run_cli(capsys, "run", str(bad), "--engine", engine,
                                 "--horizon", "2000", "--warmup", "100")
        assert code == 3
        assert out == ""
        assert "t_sw_us" in err

    @pytest.mark.parametrize("horizon, field", [
        ("60000", "stderr_tput_laa_mbps"), ("400000", "tput_laa_mbps")])
    def test_simulated_overflow_exits_3(self, tmp_path, capsys, horizon,
                                        field):
        # finite inputs whose batch spread (60k events) or summed payload
        # (400k events) overflows: exit 3 naming the cell, with no warning
        bad = tmp_path / "huge.yaml"
        bad.write_text(
            "n_wifi: 0\nn_laa: 1\n"
            "laa: {data_rate_mbps: 1.0e+300, next_tx_delay_us: 1.0e-300, "
            "txop_us: 10000}\nwifi: {slot_us: 1.0e-300}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "run", str(bad), "--engine",
                                     "simulate", "--horizon", horizon,
                                     "--warmup", "0")
        assert code == 3
        assert out == ""
        assert re.search(rf"\b{field}\b", err)

    def test_pure_wifi_comparison_mode_runs_comparison_chain(self, tmp_path,
                                                             capsys):
        # a Wi-Fi-only network is coexistence with n_laa = 0, comparison
        # mode included: its chain resets right after stage m
        body = "n_wifi: 2\nn_laa: 0\nwifi: {w0: 4, m: 1}\n"
        taus = {}
        for mode in (True, False):
            path = tmp_path / f"mode_{mode}.yaml"
            path.write_text(body + f"comparison_mode: {str(mode).lower()}\n")
            code, out, err = run_cli(capsys, "run", str(path))
            assert code == 0, err
            taus[mode] = parse_csv(out)[2][0]["tau_w"]
        s = Scenario(n_wifi=2, n_laa=0, wifi=WifiParams(w0=4, m=1),
                     comparison_mode=True)
        assert taus[True] == repr(solver.solve_coexistence(s).tau_w)
        assert taus[True] != taus[False]

    def test_pure_wifi_rows_share_event_durations(self, capsys):
        code, out, err = run_cli(capsys, "run", "table4_case1", "--engine",
                                 "both", "--horizon", "5000",
                                 "--warmup", "500")
        assert code == 0, err
        analytic, simulated = parse_csv(out)[2]
        for column in ("t_sw_us", "t_cw_us", "t_sl_us", "t_cl_us", "t_cc_us"):
            assert analytic[column] == simulated[column], column
        assert simulated["t_sl_us"] == "0.0"

    @pytest.mark.parametrize("engine", ["analytic", "both"])
    def test_absent_network_parameters_are_unused(self, tmp_path, capsys,
                                                   engine):
        # without Wi-Fi stations a payload airtime of 16384 / 1e-306 = inf
        # is never formed: exit 0 with every number finite
        only_laa = tmp_path / "only_laa.yaml"
        only_laa.write_text("n_wifi: 0\nn_laa: 1\n"
                            "wifi: {data_rate_mbps: 1.0e-306}\n")
        code, out, err = run_cli(capsys, "run", str(only_laa), "--engine",
                                 engine, "--horizon", "5000",
                                 "--warmup", "500")
        assert code == 0, err
        for row in parse_csv(out)[2]:
            for column, cell in row.items():
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (column, cell)
            assert row["tput_wifi_mbps"] == "0.0"

    def test_exponent_floats_are_floats(self, tmp_path, capsys):
        # YAML 1.2 reads 8e3 and 5e-1 as floats (YAML 1.1: strings)
        scenario = tmp_path / "exp.yaml"
        scenario.write_text("n_wifi: 1\nn_laa: 1\nlaa: {txop_us: 8e3}\n"
                            "p_dw: 5e-1\n")
        code, out, err = run_cli(capsys, "run", str(scenario))
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert rows[0]["laa_txop_us"] == "8000.0"
        assert rows[0]["p_dw"] == "0.5"

    def test_largest_window_fits(self, tmp_path, capsys):
        # w0 * 2**m = 2**64 is the largest window the simulator can draw
        edge = tmp_path / "edge.yaml"
        edge.write_text("n_wifi: 1\nn_laa: 1\nwifi: {w0: %d, m: 0}\n"
                        "laa: {w0: 2, m: 63}\n" % 2 ** 64)
        code, _, err = run_cli(capsys, "run", str(edge), "--engine", "both",
                               "--horizon", "2000", "--warmup", "100")
        assert code == 0, err

    @pytest.mark.parametrize("command, body, key", [
        ("run", "n_wifi: 2\nn_laa: 1\nn_wifi: 5\n", "n_wifi"),
        ("run", "n_wifi: 1\nn_laa: 1\nwifi: {w0: 16, w0: 4}\n", "w0"),
        ("sweep", "axis: total_nodes\nrange: [2]\n"
         "base: {n_wifi: 1, n_laa: 1, n_laa: 3}\n", "n_laa"),
        ("run", "<<: {n_wifi: 1}\n<<: {n_laa: 1}\n", "<<"),
    ], ids=["top-level", "nested", "sweep-base", "merge-key"])
    def test_repeated_key_exits_2(self, tmp_path, capsys, command, body,
                                  key):
        # a repeated key is refused, not read as its last value
        path = tmp_path / "repeated.yaml"
        path.write_text(body)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert f"duplicate key '{key}'" in err

    def test_merged_keys_may_be_overridden(self, tmp_path, capsys):
        path = tmp_path / "merged.yaml"
        path.write_text("axis: total_nodes\nrange: [2]\nbase:\n"
                        "  <<: {n_wifi: 1, n_laa: 1, wifi: {w0: 4}}\n"
                        "  n_laa: 2\n")
        code, out, err = run_cli(capsys, "sweep", str(path))
        assert code == 0, err
        assert parse_csv(out)[2][0]["wifi_w0"] == "4"
        # b overrides its merge and is merged into c before b itself is built
        path.write_text("p: {b: &b {<<: {x: 1}, x: 2}}\nc: {<<: *b}\n")
        assert cli._load_input(str(path)) == {"p": {"b": {"x": 2}},
                                              "c": {"x": 2}}

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "run", "no_such_preset")
        assert code == 2
        assert "no_such_preset" in err

    def test_sweep_spec_rejected_with_hint(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig7")
        assert code == 2
        assert "sweep" in err

    def test_unconvergeable_tolerance_exits_3(self, capsys):
        # this scenario's damped iteration deterministically bottoms out
        # around 1e-17, so a 1e-300 tolerance can never be met
        code, _, err = run_cli(capsys, "run", "table4_case3",
                               "--tolerance", "1e-300")
        assert code == 3
        assert "residual" in err

    @pytest.mark.parametrize("flags, field", [
        (("--tolerance", "inf"), "tolerance"),
        (("--tolerance", "1e400"), "tolerance"),
        (("--engine", "simulate", "--horizon", "2000", "--seed", "-1"),
         "seed"),
        # the simulation flags are checked whatever the engine
        (("--seed", "-5"), "seed"),
        # the flags as typed, not SimConfig's field names
        (("--horizon", "0", "--warmup", "-3"), ("--horizon", "--warmup")),
    ])
    def test_invalid_flag_exits_2(self, capsys, flags, field):
        # an infinite tolerance would accept the solver's starting point
        code, out, err = run_cli(capsys, "run", "table4_case3", *flags)
        assert code == 2
        assert out == ""
        if isinstance(field, str):
            assert re.search(rf"\b{field}\b", err)
        else:   # flags match literally: \b does not match before "-"
            assert all(flag in err for flag in field)
            assert "_events" not in err


class TestOptions:
    # the flags README lists, written out: a flag added or dropped fails here
    @pytest.mark.parametrize("command, options", [
        ("run", {"-h", "--help", "--engine", "--seed", "--horizon",
                 "--warmup", "--trace", "--out", "--tolerance"}),
        ("sweep", {"-h", "--help", "--out", "--tolerance"})])
    def test_option_surface(self, command, options):
        parser = cli._build_parser()
        commands = next(a.choices for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        assert {option for action in commands[command]._actions
                for option in action.option_strings} == options

    @pytest.mark.parametrize("flag", ["--damping", "--max-iterations"])
    def test_solver_path_is_not_an_option(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "table4_case3", flag, "0.5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweepCommand:
    def test_matched_contention_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "fig7")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r["axis_value"] for r in rows] == [
            str(n) for n in range(2, 21, 2)]
        for row in rows:
            assert row["status"] == "ok"
            assert (float(row["coex_total_mbps"])
                    < float(row["wifi_only_total_mbps"]))

    def test_node_split_sweep(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "fig10")
        _, _, rows = parse_csv(out)
        totals = {int(r["axis_value"]): float(r["coex_total_mbps"])
                  for r in rows}
        assert max(totals, key=totals.get) == 1
        for row in rows:
            assert (float(row["coex_total_mbps"])
                    > float(row["wifi_only_total_mbps"]))

    def test_comparison_split_at_full_wifi_matches_run(self, tmp_path,
                                                        capsys):
        # the coexistence cells of an all-Wi-Fi point come from the same
        # comparison chain as `run`; the baseline stays classic DCF
        base = ("  n_wifi: 1\n  n_laa: 1\n  wifi: {w0: 4, m: 1}\n"
                "  comparison_mode: true\n")
        spec = tmp_path / "split.yaml"
        spec.write_text("axis: node_split\nrange: [2]\nbase:\n" + base)
        scenario = tmp_path / "point.yaml"
        scenario.write_text(base.replace("n_wifi: 1", "n_wifi: 2")
                            .replace("n_laa: 1", "n_laa: 0"))
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 0, err
        point = parse_csv(out)[2][0]
        code, out, err = run_cli(capsys, "run", str(scenario))
        assert code == 0, err
        run = parse_csv(out)[2][0]
        assert [point[c] for c in (
            "coex_tput_wifi_mbps", "coex_tput_laa_mbps", "coex_total_mbps",
            "coex_per_user_wifi_mbps", "coex_per_user_laa_mbps")] == [
            run[c] for c in ("tput_wifi_mbps", "tput_laa_mbps",
                             "tput_total_mbps", "per_user_wifi_mbps",
                             "per_user_laa_mbps")]
        classic = throughput.wifi_only_throughput(2, WifiParams(w0=4, m=1))
        assert point["wifi_only_total_mbps"] == repr(classic.tput_wifi_mbps)
        assert point["coex_total_mbps"] != point["wifi_only_total_mbps"]

    def test_detection_sweep_direction(self, tmp_path, capsys):
        spec = tmp_path / "detection.yaml"
        spec.write_text(
            "axis: detection_wifi\n"
            "range: [0.0, 0.546, 1.0]\n"
            "base:\n"
            "  n_wifi: 5\n"
            "  n_laa: 5\n"
            "  wifi: {w0: 16, m: 6, data_rate_mbps: 9.0}\n"
            "  laa: {w0: 16, m: 6, txop_us: 8000.0, data_rate_mbps: 8.4}\n")
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        _, _, rows = parse_csv(out)
        wifi = [float(r["coex_tput_wifi_mbps"]) for r in rows]
        assert wifi[0] > wifi[1] > wifi[2]
        assert [r["p_dw"] for r in rows] == ["0.0", "0.546", "1.0"]

    ED_BLOCK = ("{threshold_dbm: -72.0, snr_db: 22.0, noise_power_dbm: -94.0, "
                "samples: 680}")

    @pytest.mark.parametrize("axis, field, block", [
        ("detection_wifi", "p_dw", "ed_wifi"),
        ("detection_laa", "p_dl", "ed_laa")])
    def test_detection_axis_refuses_its_networks_ed_block(self, tmp_path,
                                                          capsys, axis,
                                                          field, block):
        # the axis would discard the probability the block derives
        spec = tmp_path / "detection.yaml"
        spec.write_text(f"axis: {axis}\nrange: [0.2, 0.4]\n"
                        f"base: {{n_wifi: 2, n_laa: 2, {block}: "
                        f"{self.ED_BLOCK}}}\n")
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 2
        assert out == ""
        assert err == (f"error: axis {axis} sweeps {field}, which the base's "
                       f"{block} block sets; give one, not both\n")

    def test_detection_axis_keeps_the_other_networks_ed_block(self, tmp_path,
                                                              capsys):
        spec = tmp_path / "detection.yaml"
        spec.write_text("axis: detection_wifi\nrange: [0.2, 0.4]\n"
                        f"base: {{n_wifi: 2, n_laa: 2, ed_laa: "
                        f"{self.ED_BLOCK}}}\n")
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert [r["p_dw"] for r in rows] == ["0.2", "0.4"]
        assert {r["p_dl"] for r in rows} == {repr(detection_probability(
            EdConfig.from_snr(-72.0, 22.0, -94.0, 680)))}

    def test_retry_limit_sweep_increases(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "fig12")
        _, _, rows = parse_csv(out)
        totals = [float(r["coex_total_mbps"]) for r in rows]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        assert [r["laa_retry_limit"] for r in rows] == [
            str(e) for e in range(1, 9)]

    @pytest.mark.parametrize("axis", ["detection_wifi", "detection_laa",
                                      "node_split", "retry_limit"])
    def test_axis_rejects_bool(self, tmp_path, capsys, axis):
        spec = tmp_path / "bools.yaml"
        spec.write_text(f"axis: {axis}\nrange: [true, false]\n"
                        "base: {n_wifi: 1, n_laa: 1}\n")
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 2
        assert out == ""
        assert axis in err

    def test_bad_axis_value(self, tmp_path, capsys):
        spec = tmp_path / "odd.yaml"
        spec.write_text("axis: total_nodes\nrange: [3]\n"
                        "base: {n_wifi: 1, n_laa: 1}\n")
        code, _, err = run_cli(capsys, "sweep", str(spec))
        assert code == 2
        assert "total_nodes" in err

    def test_retry_limit_axis_refused_in_comparison_mode(self, tmp_path,
                                                         capsys):
        # comparison mode fixes the retry limit, so no value could move it
        spec = tmp_path / "fixed.yaml"
        spec.write_text("axis: retry_limit\nrange: [0, 3, 6]\n"
                        "base: {n_wifi: 2, n_laa: 2, comparison_mode: true}\n")
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 2
        assert out == ""
        assert err == ("error: retry_limit value 0: comparison mode fixes "
                       "the retry limit at 0\n")

    def test_failed_points_flagged_and_exit_3(self, tmp_path, capsys):
        # 2+2 with the default chains bottoms out near 1e-17; the row must
        # survive with its status set and the command must signal failure
        spec = tmp_path / "stuck.yaml"
        spec.write_text("axis: total_nodes\nrange: [4]\n"
                        "base: {n_wifi: 1, n_laa: 1}\n")
        code, out, err = run_cli(capsys, "sweep", str(spec),
                                 "--tolerance", "1e-300")
        assert code == 3
        assert "converge" in err
        _, _, rows = parse_csv(out)
        assert all(r["status"].startswith("no-convergence") for r in rows)
        assert all(r["coex_total_mbps"] == "" for r in rows)


class TestOutputHandling:
    # a relative path of either flag lands in $LAACOEX_OUT_DIR, not the cwd
    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_out_file_and_env_dir(self, tmp_path, capsys, monkeypatch, flag):
        out_dir, cwd = tmp_path / "out", tmp_path / "cwd"
        out_dir.mkdir()
        cwd.mkdir()
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(out_dir))
        monkeypatch.chdir(cwd)
        code, out, _ = run_cli(capsys, "run", "table4_case3",
                               "--engine", "simulate", "--horizon", "2000",
                               "--warmup", "100", flag, "row.csv")
        assert code == 0
        assert (out == "") == (flag == "--out")
        assert (out_dir / "row.csv").stat().st_size > 0
        assert list(cwd.iterdir()) == []

    def test_absolute_out_ignores_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = run_cli(capsys, "run", "table4_case3",
                             "--out", str(target))
        assert code == 0
        assert target.exists()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_path_names_its_flag(self, tmp_path, capsys, flag):
        target = str(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli(capsys, "run", "table4_case3",
                                 "--engine", "simulate", "--horizon", "2000",
                                 "--warmup", "100", flag, target)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: ") and target in err

    def test_unwritable_sweep_out_fails_before_the_sweep(self, tmp_path,
                                                         capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("run_sweep called before --out was opened")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        code, out, err = run_cli(capsys, "sweep", "fig7", "--out",
                                 str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --out: ")

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "run", "table4_case3",
                                 "--engine", "simulate",
                                 "--out", str(tmp_path / "missing" / "x.csv"),
                                 "--trace", str(trace))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --out: ")
        assert not trace.exists()

    # the same file after $LAACOEX_OUT_DIR: refused before either is opened
    def test_out_and_trace_must_differ(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        target = tmp_path / "same.csv"
        target.write_text("kept\n")
        code, out, err = run_cli(capsys, "run", "table4_case3",
                                 "--engine", "simulate", "--horizon", "2000",
                                 "--warmup", "100", "--out", "same.csv",
                                 "--trace", str(target))
        assert code == 2
        assert out == ""
        assert "--out" in err and "--trace" in err
        assert target.read_text() == "kept\n"

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        args = ("run", "table4_case3", "--engine", "both",
                "--horizon", "60000", "--seed", "99")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(first))[0] == 0
        assert run_cli(capsys, *args, "--out", str(second))[0] == 0
        a = first.read_text().splitlines()
        b = second.read_text().splitlines()
        assert a[0].startswith("# laacoex")
        assert a[1:] == b[1:]
        assert a[1:] != []

    def test_presets_listing(self, capsys):
        code, out, _ = run_cli(capsys, "presets")
        assert code == 0
        names = out.split()
        for expected in ("fig7", "fig10", "fig12", "table4_case1",
                         "table5", "table6", "table7"):
            assert expected in names


class TestPresets:
    def test_every_bundled_preset_runs(self, capsys):
        # scenario presets feed `run`, sweep presets feed `sweep`; either
        # way the bundled files must stay schema-valid and convergent
        for name in cli.preset_names():
            data = cli._load_input(name)
            command = "sweep" if "axis" in data else "run"
            code, out, err = run_cli(capsys, command, name)
            assert code == 0, (name, err)
            assert out.splitlines()[0].startswith("# laacoex")

    def test_a_directory_does_not_hide_a_preset(self, tmp_path, capsys,
                                                monkeypatch):
        # only a file is read as a file; a directory of the same name is not
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table7").mkdir()
        code, out, err = run_cli(capsys, "run", "table7")
        assert code == 0, err
        assert out.split("\n", 1)[1] == golden_body("table7")
        (tmp_path / "no_such_preset").mkdir()
        code, out, err = run_cli(capsys, "run", "no_such_preset")
        assert code == 2
        assert out == ""
        assert "neither a file nor a bundled preset" in err

    def test_wifi_only_preset_under_simulation(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table4_case1",
                               "--engine", "simulate",
                               "--horizon", "300000", "--seed", "12")
        assert code == 0
        _, _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["tput_wifi_mbps"]) == pytest.approx(7.84, rel=0.03)
        assert row["tput_laa_mbps"] == "0.0"
        assert row["laa_success_events"] == "0"

    def test_trace_flag_writes_event_log(self, tmp_path, capsys):
        trace = tmp_path / "events.csv"
        code, _, _ = run_cli(capsys, "run", "table4_case3",
                             "--engine", "simulate", "--horizon", "12000",
                             "--warmup", "1000", "--seed", "3",
                             "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("event_index,event_class,duration_us")
        assert len(lines) == 12001

    def test_trace_needs_the_simulator(self, tmp_path, capsys):
        trace = tmp_path / "events.csv"
        code, out, err = run_cli(capsys, "run", "table4_case3",
                                 "--trace", str(trace))
        assert code == 2
        assert out == ""
        assert "--trace" in err and "--engine simulate or both" in err
        assert not trace.exists()

    def test_trace_needs_a_path(self, capsys):
        code, out, err = run_cli(capsys, "run", "table4_case3",
                                 "--engine", "simulate", "--horizon", "2000",
                                 "--warmup", "100", "--trace", "")
        assert code == 2
        assert out == ""
        assert "--trace" in err

    def test_trace_refuses_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "run", "table4_case3",
                                 "--engine", "simulate", "--horizon", "2000",
                                 "--warmup", "100", "--trace", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --trace")
        assert list(tmp_path.iterdir()) == []

    # writing the trace draws nothing from the run's stream: comparison
    # mode, and detection coins outside it
    @pytest.mark.parametrize("preset", ["table4_case3", "table7"])
    def test_trace_leaves_the_csv_unchanged(self, tmp_path, capsys, preset):
        args = ("run", preset, "--engine", "simulate", "--horizon", "20000",
                "--warmup", "1000", "--seed", "6")
        plain = run_cli(capsys, *args)
        traced = run_cli(capsys, *args, "--trace", str(tmp_path / "t.csv"))
        assert plain[0] == traced[0] == 0
        assert plain[1] == traced[1]
        assert (tmp_path / "t.csv").stat().st_size > 0

    def test_node_split_extremes(self, tmp_path, capsys):
        # all-LAA and all-Wi-Fi splits are legal sweep points
        spec = tmp_path / "edges.yaml"
        spec.write_text(
            "axis: node_split\n"
            "range: [0, 10, 20]\n"
            "base:\n"
            "  n_wifi: 10\n"
            "  n_laa: 10\n"
            "  wifi: {w0: 16, m: 1, data_rate_mbps: 9.0}\n"
            "  laa: {w0: 16, m: 6, txop_us: 3000.0, data_rate_mbps: 8.4}\n")
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        _, _, rows = parse_csv(out)
        all_laa, mixed, all_wifi = rows
        assert float(all_laa["coex_tput_wifi_mbps"]) == 0.0
        assert float(all_laa["coex_tput_laa_mbps"]) > 0.0
        assert float(all_wifi["coex_tput_laa_mbps"]) == 0.0
        assert float(all_wifi["coex_tput_wifi_mbps"]) == pytest.approx(
            float(all_wifi["wifi_only_total_mbps"]), rel=1e-12)
        assert float(mixed["coex_tput_wifi_mbps"]) > 0.0


class TestImports:
    def test_analytic_path_never_imports_numpy(self):
        # numpy is the simulator's dependency; an analytic run must not
        # pay for it, and the package still exports the simulator's names
        script = (
            "import contextlib, io, sys\n"
            "import laacoex.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = laacoex.cli.main(['run', 'table4_case3'])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules\n"
            "from laacoex import simulate\n"
            "assert 'numpy' in sys.modules and callable(simulate)\n")
        self.run_fresh(script)

    def test_library_leaves_yaml_and_numpy_to_their_users(self):
        # PyYAML is the CLI's and numpy the simulator's; the library itself
        # loads neither, and every name it exports resolves
        self.run_fresh("import sys\n"
                       "import laacoex\n"
                       "assert 'yaml' not in sys.modules\n"
                       "assert 'numpy' not in sys.modules\n"
                       "from laacoex import *\n"
                       "missing = set(laacoex.__all__).difference(globals())\n"
                       "assert not missing, missing\n")

    def test_simulator_sums_time_without_fractions_or_decimal(self):
        # exact sums use int arithmetic only, so importing the simulator
        # costs no more than it did
        self.run_fresh("import sys\n"
                       "import laacoex.mcsim\n"
                       "assert 'fractions' not in sys.modules\n"
                       "assert 'decimal' not in sys.modules\n")

    @staticmethod
    def run_fresh(script):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestGoldens:
    def test_every_preset_in_one_process_matches_golden(self, capsys):
        # all 15 requests in a row through the one cached parser; each body
        # must equal the checked-in golden CSV apart from the version line
        for command, names in (("sweep", SWEEP_PRESETS), ("run", RUN_PRESETS)):
            for name in names:
                code, out, err = run_cli(capsys, command, name)
                assert code == 0, (name, err)
                assert out.startswith("# laacoex ")
                assert out.split("\n", 1)[1] == golden_body(name), name

    def test_cached_parser_does_not_leak_flags(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table4_case3",
                               "--tolerance", "1e-3")
        assert code == 0
        assert out.split("\n", 1)[1] != golden_body("table4_case3")
        code, out, _ = run_cli(capsys, "run", "table4_case3")
        assert code == 0
        assert out.split("\n", 1)[1] == golden_body("table4_case3")


class TestSolveCounts:
    def test_sweep_solves_each_wifi_only_baseline_once(self, capsys,
                                                       monkeypatch):
        # fig10 holds the population at 20: one baseline for 19 points
        calls = []
        counting(monkeypatch, calls, (cli, "wifi_only_throughput"))
        code, out, _ = run_cli(capsys, "sweep", "fig10")
        assert code == 0
        assert calls == [20]
        assert out.split("\n", 1)[1] == golden_body("fig10")

    def test_pure_wifi_sweep_point_reuses_its_baseline(self, tmp_path,
                                                       capsys, monkeypatch):
        # at node_split 20 the coexistence column is the n=20 baseline
        spec = tmp_path / "edges.yaml"
        spec.write_text("axis: node_split\nrange: [20, 10, 20]\n"
                        "base: {n_wifi: 10, n_laa: 10}\n")
        calls = []
        counting(monkeypatch, calls, (cli, "wifi_only_throughput"))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        assert calls == [20]
        _, _, rows = parse_csv(out)
        assert rows[0] == rows[2]
        assert rows[0]["coex_total_mbps"] == rows[0]["wifi_only_total_mbps"]

    def test_failed_baseline_is_retried_per_point(self, tmp_path, capsys,
                                                  monkeypatch):
        # a ConvergenceError is not remembered: each point reports its own
        spec = tmp_path / "stuck.yaml"
        spec.write_text("axis: total_nodes\nrange: [4, 4]\n"
                        "base: {n_wifi: 1, n_laa: 1}\n")
        calls = []
        counting(monkeypatch, calls, (cli, "wifi_only_throughput"))
        code, out, _ = run_cli(capsys, "sweep", str(spec),
                               "--tolerance", "1e-300")
        assert code == 3
        assert calls == [4, 4]
        _, _, rows = parse_csv(out)
        assert all(r["status"].startswith("no-convergence") for r in rows)

    def test_wifi_only_run_solves_once(self, capsys, monkeypatch):
        calls = []
        counting(monkeypatch, calls, (solver, "solve_coexistence"),
                 (cli, "solve_coexistence"))
        code, out, _ = run_cli(capsys, "run", "table4_case1")
        assert code == 0
        assert len(calls) == 1
        assert out.split("\n", 1)[1] == golden_body("table4_case1")

    def test_repeated_request_solves_again(self, capsys, monkeypatch):
        # no result outlives a request
        calls = []
        counting(monkeypatch, calls, (cli, "wifi_only_throughput"))
        for _ in range(2):
            assert run_cli(capsys, "sweep", "fig10")[0] == 0
        assert calls == [20, 20]


# Schema keys of a scenario file, each with a strategy for values that pass
# its own check (defaults: positive real), and junk a user might type.
_GROUP_KEYS = {
    "wifi": tuple(f.name for f in fields(WifiParams)),
    "laa": tuple(f.name for f in fields(LaaParams)),
    "ed_wifi": ("threshold_dbm", "signal_power_dbm", "snr_db",
                "noise_power_dbm", "samples"),
}
_GROUP_KEYS["ed_laa"] = _GROUP_KEYS["ed_wifi"]
_TOP_KEYS = ("n_wifi", "n_laa", "p_dw", "p_dl", "comparison_mode")
_ALL_KEYS = set(_TOP_KEYS).union(_GROUP_KEYS, *_GROUP_KEYS.values())

_dbm = st.floats(-150.0, 50.0)
_VALID = {
    "n_wifi": st.integers(0, 8), "n_laa": st.integers(0, 8),
    "p_dw": st.floats(0.0, 1.0), "p_dl": st.floats(0.0, 1.0),
    "pdcch_fraction": st.floats(1e-3, 1.0), "txop_us": st.floats(1.0, 1e4),
    "comparison_mode": st.booleans(),
    "w0": st.integers(1, 1024), "m": st.integers(0, 10),
    "retry_limit": st.integers(0, 8), "payload_bytes": st.integers(1, 10**6),
    "mac_header_bytes": st.integers(0, 100), "ack_bytes": st.integers(0, 100),
    "samples": st.integers(1, 10**4), "threshold_dbm": _dbm,
    "signal_power_dbm": _dbm, "snr_db": _dbm, "noise_power_dbm": _dbm,
}
_junk = st.one_of(
    st.integers(-2, 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["8000", "8e3", "5e-1", "1e308", "1e400", "-.inf",
                     "true", "x"]),
)


def _value(key):
    # junk in one draw of ten, so that most files get into the solver
    valid = _VALID.get(key, st.floats(1e-3, 1e5))
    return st.integers(0, 9).flatmap(lambda i: _junk if i == 0 else valid)


def _group(name, keys):
    required = ("threshold_dbm", "noise_power_dbm", "samples")
    if not name.startswith("ed_"):
        required = ()
    return st.fixed_dictionaries(
        {k: _value(k) for k in required},
        optional={k: _value(k) for k in keys if k not in required})


_scenario_files = st.fixed_dictionaries(
    {"n_wifi": _value("n_wifi"), "n_laa": _value("n_laa")},
    optional={**{k: _value(k) for k in _TOP_KEYS[2:]},
              **{g: _group(g, keys) for g, keys in _GROUP_KEYS.items()}})


def _run_file(data, *flags):
    """cli.main(["run", file, *flags]) on ``data`` dumped to a YAML file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", path, *flags])
    return code, path, out.getvalue(), err.getvalue()


# Small windows put the fixed point in [0.5, 1), where neighbouring floats
# are further apart than the bisection width; w0 = 1 with many stages stalls
# the damped iteration into the fallback (1+2 at m = 9 does), and tiny
# tolerances force its ConvergenceError.
_small_window_files = st.fixed_dictionaries(
    {"n_wifi": st.integers(0, 6), "n_laa": st.integers(0, 6),
     "wifi": st.fixed_dictionaries({"w0": st.sampled_from([1, 2, 4, 16]),
                                    "m": st.integers(0, 10)}),
     "laa": st.fixed_dictionaries({"w0": st.sampled_from([1, 2, 4, 16]),
                                   "m": st.integers(0, 10),
                                   "retry_limit": st.integers(0, 8)})},
    optional={"p_dw": st.floats(0.0, 1.0), "p_dl": st.floats(0.0, 1.0),
              "comparison_mode": st.booleans()})
_solver_flags = st.one_of(st.floats(1e-300, 1e-2), st.sampled_from(
    [0.0, -1e-10, float("nan"), float("inf")])).map(
        lambda t: (f"--tolerance={t!r}",))


class TestRunProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_scenario_files)
    def test_any_scenario_file_exits_cleanly(self, data):
        # exit 0 with finite numbers, or 2 naming a field or the file, or
        # 3 for a numeric failure; never a traceback
        code, path, out, err = _run_file(data)
        assert code in (0, 2, 3), err
        if code == 2:
            assert path in err or any(
                re.search(rf"\b{key}\b", err) for key in _ALL_KEYS), err
        if code == 0:
            _, _, rows = parse_csv(out)
            for column, cell in rows[0].items():
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (column, cell)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_small_window_files, _solver_flags)
    def test_any_solver_flags_exit_cleanly(self, data, flags):
        code, _, _, err = _run_file(data, *flags)
        assert code in (0, 2, 3), err


class TestBisectionFallback:
    # the fallback called directly, as after ``budget`` damped iterations
    SCRIPT = (
        "import sys\n"
        "from laacoex import cli, solver\n"
        "s = cli.scenario_from_dict(cli._load_input(sys.argv[1]))\n"
        "try:\n"
        "    solver._solve_by_bisection(*solver._sides(s),\n"
        "                               solver.SolverConfig(),\n"
        "                               int(sys.argv[2]))\n"
        "except solver.ConvergenceError:\n"
        "    sys.exit(3)\n")

    @pytest.mark.parametrize("group, budget", [
        ("wifi: {w0: 2, m: 3}", 1), ("wifi: {w0: 2, m: 3}", 5),
        ("laa: {w0: 2}", 1)])
    def test_root_above_half_terminates(self, tmp_path, group, budget):
        # with w0 = 2 the fallback's root lies in [0.5, 1), where the
        # bisection once spun forever on two neighbouring floats
        path = tmp_path / "scenario.yaml"
        path.write_text(f"n_wifi: 1\nn_laa: 1\n{group}\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(path), str(budget)],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode in (0, 3), proc.stderr


SCENARIO_HEADER = (
    "n_wifi", "n_laa", "wifi_w0", "wifi_m", "wifi_payload_bytes",
    "wifi_data_rate_mbps", "wifi_control_rate_mbps", "wifi_phy_header_us",
    "wifi_mac_header_bytes", "wifi_ack_bytes", "wifi_difs_us", "wifi_sifs_us",
    "wifi_slot_us", "wifi_prop_delay_us", "laa_w0", "laa_m",
    "laa_retry_limit", "laa_defer_us", "laa_txop_us", "laa_next_tx_delay_us",
    "laa_data_rate_mbps", "laa_pdcch_fraction", "p_dw", "p_dl",
    "comparison_mode")
RUN_HEADER = ("engine",) + SCENARIO_HEADER + (
    "tau_w", "tau_l", "p_w", "p_l", "residual", "iterations",
    "p_trw", "p_sw", "p_trl", "p_sl",
    "t_sw_us", "t_cw_us", "t_sl_us", "t_cl_us", "t_cc_us", "t_e_us",
    "tput_wifi_mbps", "tput_laa_mbps", "tput_total_mbps",
    "per_user_wifi_mbps", "per_user_laa_mbps",
    "seed", "horizon_events", "warmup_events",
    "stderr_tput_wifi_mbps", "stderr_tput_laa_mbps",
    "idle_events", "wifi_success_events", "laa_success_events",
    "wifi_collision_events", "laa_collision_events", "cross_collision_events")
SWEEP_HEADER = ("axis", "axis_value", "status") + SCENARIO_HEADER + (
    "wifi_only_total_mbps", "wifi_only_per_user_mbps",
    "coex_tput_wifi_mbps", "coex_tput_laa_mbps", "coex_total_mbps",
    "coex_per_user_wifi_mbps", "coex_per_user_laa_mbps")


# Scenarios for the CSV cells: an int or a float DIFS, which comparison mode
# copies into the LAA delay, and every field off its default.
_cell_scenarios = st.builds(
    Scenario, n_wifi=st.integers(0, 8), n_laa=st.integers(1, 8),
    wifi=st.builds(WifiParams, w0=st.integers(1, 64), m=st.integers(0, 8),
                   payload_bytes=st.integers(1, 10**4),
                   difs_us=st.one_of(st.integers(1, 100),
                                     st.floats(1.0, 100.0))),
    laa=st.builds(LaaParams, retry_limit=st.integers(0, 8),
                  txop_us=st.floats(1.0, 1e4),
                  next_tx_delay_us=st.floats(1.0, 1e3)),
    p_dw=st.floats(0.0, 1.0), p_dl=st.floats(0.0, 1.0),
    comparison_mode=st.booleans())


class TestScenarioCells:
    @settings(max_examples=200)
    @given(_cell_scenarios)
    def test_cells_are_the_flattened_dict_form(self, s):
        # the cells are read through attribute paths found once; they must
        # stay the scenario_to_dict values, in its order, of the same types
        flat = {}
        for key, value in scenario_to_dict(s).items():
            if isinstance(value, dict):
                flat.update((f"{key}_{name}", v) for name, v in value.items())
            else:
                flat[key] = value
        cells = cli._scenario_cells(s)
        assert list(cells.items()) == list(flat.items())
        assert list(map(type, cells.values())) == list(map(type,
                                                           flat.values()))
        assert tuple(cells) == cli._SCENARIO_COLUMNS


class TestRowShape:
    # the headers README lists, written out: a reordered column fails here
    def test_header_is_stable(self, capsys):
        _, out, _ = run_cli(capsys, "run", "table4_case1")
        _, header, _ = parse_csv(out)
        assert tuple(header) == RUN_HEADER

    def test_sweep_header_is_stable(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "fig7")
        _, header, _ = parse_csv(out)
        assert tuple(header) == SWEEP_HEADER

    def test_every_result_field_is_a_column(self):
        # the result columns are listed by hand; a new Solution,
        # ThroughputReport or SimReport field must not drop out of the CSV
        # unnoticed
        from laacoex import EVENT_CLASSES
        from laacoex.mcsim import SimReport
        results = {f.name for f in fields(Solution) if f.name != "method"}
        results |= {f.name for f in fields(ThroughputReport)}
        results |= {f.name for f in fields(SimReport)
                    if f.name not in ("event_counts", "stderr")}
        results |= {f"{c.replace('-', '_')}_events" for c in EVENT_CLASSES}
        assert results <= set(cli._RUN_COLUMNS)

    def test_simulate_row_has_measured_event_mix(self, capsys):
        _, out, _ = run_cli(capsys, "run", "table4_case3",
                            "--engine", "simulate",
                            "--horizon", "50000", "--seed", "5")
        _, _, rows = parse_csv(out)
        row = rows[0]
        counted = sum(int(row[c]) for c in (
            "idle_events", "wifi_success_events", "laa_success_events",
            "wifi_collision_events", "laa_collision_events",
            "cross_collision_events"))
        assert counted == 40_000
        assert row["residual"] == ""
        assert float(row["t_e_us"]) > 0
        # the success shares are the row's own counts
        for net in ("wifi", "laa"):
            won, lost = (int(row[f"{net}_{kind}_events"])
                         for kind in ("success", "collision"))
            assert float(row[f"p_s{net[0]}"]) == won / (won + lost)

    def test_lone_wifi_station_always_succeeds(self, tmp_path, capsys):
        path = tmp_path / "one.yaml"
        path.write_text("n_wifi: 1\nn_laa: 0\n")
        code, out, _ = run_cli(capsys, "run", str(path), "--engine",
                               "simulate", "--horizon", "20000")
        assert code == 0
        row = parse_csv(out)[2][0]
        assert (row["p_sw"], row["p_sl"]) == ("1.0", "0.0")

    def test_simulator_station_cap_names_the_counts(self, tmp_path, capsys):
        # far above the cap, refused before any per-station list is built
        path = tmp_path / "huge.yaml"
        path.write_text("n_wifi: 100000000000000000000\nn_laa: 0\n")
        code, out, err = run_cli(capsys, "run", str(path), "--engine",
                                 "simulate")
        assert code == 2
        assert out == ""
        assert "n_wifi + n_laa must be <= 1024 for the simulator" in err
