from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from laacoex import cli
from laacoex.core import (ED_BLOCKS, LaaParams, Scenario, WifiParams,
                          derived_durations, scenario_from_dict,
                          scenario_to_dict)


class TestDerivedDurations:
    def test_payload_airtime(self):
        psize, mach, ack = derived_durations(WifiParams(payload_bytes=2048,
                                                        data_rate_mbps=9.0))
        assert psize == pytest.approx(8 * 2048 / 9, abs=1e-9)   # 1820.44 us
        assert mach == pytest.approx(8 * 34 / 9, abs=1e-9)

    def test_ack_uses_control_rate(self):
        _, _, ack = derived_durations(WifiParams(control_rate_mbps=6.0))
        assert ack == pytest.approx(8 * 14 / 6, abs=1e-9)       # 18.67 us

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError, match="payload_bytes"):
            WifiParams(payload_bytes=0)


class TestValidation:
    def test_negative_txop_names_field(self):
        with pytest.raises(ValueError, match="txop_us"):
            LaaParams(txop_us=-1.0)

    def test_txop_cap(self):
        with pytest.raises(ValueError, match="txop_us"):
            LaaParams(txop_us=10_001.0)

    def test_retry_limit_range(self):
        with pytest.raises(ValueError, match="retry_limit"):
            LaaParams(retry_limit=9)
        with pytest.raises(ValueError, match="retry_limit"):
            LaaParams(retry_limit=-1)
        with pytest.raises(ValueError, match="retry_limit"):
            LaaParams(retry_limit=1.5)

    @pytest.mark.parametrize("params", [WifiParams, LaaParams])
    @pytest.mark.parametrize("w0, m", [(16, 2000), (1.5, 1)])
    def test_window_names_field(self, params, w0, m):
        # a huge m is named, not left to overflow 2.0 ** m
        with pytest.raises(ValueError, match=r"\b(w0|m)\b"):
            params(w0=w0, m=m)

    def test_pdcch_fraction_range(self):
        with pytest.raises(ValueError, match="pdcch_fraction"):
            LaaParams(pdcch_fraction=0.0)
        with pytest.raises(ValueError, match="pdcch_fraction"):
            LaaParams(pdcch_fraction=1.5)

    def test_scenario_needs_a_node(self):
        with pytest.raises(ValueError, match="n_wifi"):
            Scenario(n_wifi=0, n_laa=0)

    def test_detection_probability_range(self):
        with pytest.raises(ValueError, match="p_dw"):
            Scenario(n_wifi=1, n_laa=1, p_dw=1.5)

    def test_unknown_scenario_field_named(self):
        with pytest.raises(ValueError, match="bogus"):
            scenario_from_dict({"n_wifi": 1, "n_laa": 0, "bogus": 3})

    def test_unknown_nested_field_named(self):
        with pytest.raises(ValueError, match="cw_min"):
            scenario_from_dict({"n_wifi": 1, "n_laa": 0,
                                "wifi": {"cw_min": 16}})


wifi_params = st.builds(
    WifiParams,
    w0=st.sampled_from([2, 4, 8, 16, 32]),
    m=st.integers(0, 7),
    payload_bytes=st.integers(100, 4000),
    data_rate_mbps=st.sampled_from([6.0, 9.0, 18.0, 54.0]),
    difs_us=st.floats(20.0, 60.0),
)

laa_params = st.builds(
    LaaParams,
    w0=st.sampled_from([4, 8, 16]),
    m=st.integers(0, 7),
    retry_limit=st.integers(0, 8),
    txop_us=st.floats(1000.0, 10_000.0),
    data_rate_mbps=st.sampled_from([7.8, 15.6, 70.2]),
)

scenarios = st.builds(
    Scenario,
    n_wifi=st.integers(0, 10),
    n_laa=st.integers(1, 10),
    wifi=wifi_params,
    laa=laa_params,
    p_dw=st.floats(0.0, 1.0),
    p_dl=st.floats(0.0, 1.0),
    comparison_mode=st.booleans(),
)


def load_yaml(text):
    return yaml.load(text, Loader=cli._YamlLoader)


class TestScenarioFiles:
    @settings(max_examples=200)
    @given(scenarios)
    def test_yaml_round_trip(self, s):
        text = yaml.safe_dump(scenario_to_dict(s), sort_keys=False)
        assert scenario_from_dict(load_yaml(text)) == s

    @given(scenarios)
    def test_dict_round_trip(self, s):
        assert scenario_from_dict(scenario_to_dict(s)) == s

    ED = {"threshold_dbm": -72.0, "snr_db": 22.0, "noise_power_dbm": -94.0,
          "samples": 680}

    def test_ed_block_fills_detection_probability(self):
        for field, other in (("p_dw", "p_dl"), ("p_dl", "p_dw")):
            s = scenario_from_dict({"n_wifi": 1, "n_laa": 1,
                                    ED_BLOCKS[field]: self.ED})
            assert getattr(s, field) == pytest.approx(0.546, abs=0.005)
            assert getattr(s, other) == 1.0

    def test_ed_block_conflicts_with_scalar(self):
        for field, block in ED_BLOCKS.items():
            with pytest.raises(ValueError, match=f"^give either {field} or "
                                                 f"{block}, not both$"):
                scenario_from_dict({"n_wifi": 1, "n_laa": 1, field: 0.5,
                                    block: self.ED})


class TestYamlLoader:
    def test_yaml_12_exponent_floats(self):
        data = load_yaml("a: 8e3\nb: 5e-1\nc: 1e308\nd: 16\ne: -1E+3\n")
        assert data == {"a": 8000.0, "b": 0.5, "c": 1e308, "d": 16,
                        "e": -1000.0}
        assert [type(v) for v in data.values()] == [float, float, float,
                                                      int, float]

    def test_yaml_11_forms_unchanged(self):
        data = load_yaml("a: 1.5\nb: .inf\nc: 0x10\nd: '8e3'\ne: 08\n")
        assert data == {"a": 1.5, "b": float("inf"), "c": 16, "d": "8e3",
                        "e": "08"}

    def test_global_safe_loader_untouched(self):
        assert yaml.safe_load("a: 8e3") == {"a": "8e3"}

    def test_scenario_from_yaml_reads_exponent_floats(self):
        s = scenario_from_dict(load_yaml(
            "n_wifi: 1\nn_laa: 1\nlaa: {txop_us: 8e3}\np_dw: 5e-1\n"))
        assert s.laa.txop_us == 8000.0
        assert s.p_dw == 0.5

    def test_libyaml_backs_the_loader_when_present(self):
        assert issubclass(cli._YamlLoader, yaml.CSafeLoader
                          if yaml.__with_libyaml__ else yaml.SafeLoader)


class TestComparisonMode:
    """A comparison-mode scenario holds the overrides from construction."""

    RAW = dict(n_wifi=1, n_laa=1, wifi=WifiParams(difs_us=34.0),
               laa=LaaParams(retry_limit=4, next_tx_delay_us=500.0))

    def test_overrides_applied(self):
        s = Scenario(**self.RAW, comparison_mode=True)
        assert s.laa.retry_limit == 0
        assert s.laa.next_tx_delay_us == 34.0
        assert s.chains()[1] == (16, 2, 0)

    def test_noop_without_flag(self):
        s = Scenario(**self.RAW)
        assert s.laa is self.RAW["laa"]
        assert s.chains() == ((16, 6, 1), (16, 2, 4))

    def test_resolving_twice_returns_the_same_scenario(self):
        # replace applies the overrides again: to a scenario that holds
        # them, or to the raw values, they give the same scenario
        s = Scenario(**self.RAW, comparison_mode=True)
        assert replace(s) == s
        assert replace(s, laa=self.RAW["laa"]) == s
        assert replace(Scenario(**self.RAW), comparison_mode=True) == s

    def test_replace_reapplies_the_overrides(self):
        s = Scenario(**self.RAW, comparison_mode=True)
        moved = replace(s, wifi=replace(s.wifi, difs_us=50.0))
        assert moved.laa.next_tx_delay_us == 50.0

    def test_equal_delay_of_another_type_is_replaced(self):
        # an int DIFS stays an int, so it echoes as 34, not 34.0
        s = Scenario(n_wifi=1, n_laa=1, wifi=WifiParams(difs_us=34),
                     laa=LaaParams(retry_limit=0, next_tx_delay_us=34.0),
                     comparison_mode=True)
        assert type(s.laa.next_tx_delay_us) is int

    def test_visible_in_dict_form(self):
        s = Scenario(**self.RAW, comparison_mode=True)
        echoed = scenario_to_dict(s)
        assert echoed["laa"]["retry_limit"] == 0
        assert echoed["laa"]["next_tx_delay_us"] == s.wifi.difs_us
        assert scenario_from_dict(echoed) == s


def test_params_are_immutable():
    p = WifiParams()
    with pytest.raises(AttributeError):
        p.w0 = 32
