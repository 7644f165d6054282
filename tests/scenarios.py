"""Scenarios the tests share: the hardware testbed's comparison-mode cell,
and one Hypothesis strategy over every scenario the library accepts."""
import sys

from hypothesis import strategies as st

from laacoex.core import LaaParams, Scenario, WifiParams

# the testbed's (Wi-Fi, LAA) data rates in Mbps
RATES = [(9.0, 7.8), (18.0, 15.6), (54.0, 70.2)]

# (wifi w0, wifi m, laa w0, laa m, txop_us) for the two testbed cases
CASE2 = (4, 1, 4, 1, 2000.0)
CASE3 = (16, 2, 16, 2, 8000.0)


def comparison_cell(n_wifi, n_laa, case=CASE3, r_w=9.0, r_l=7.8):
    """One testbed cell: ``case`` at the rates (r_w, r_l), comparison mode."""
    w0w, mw, w0l, ml, txop = case
    return Scenario(
        n_wifi=n_wifi, n_laa=n_laa,
        wifi=WifiParams(w0=w0w, m=mw, data_rate_mbps=r_w),
        laa=LaaParams(w0=w0l, m=ml, txop_us=txop, data_rate_mbps=r_l),
        comparison_mode=True)


FLOAT_MAX = sys.float_info.max


def _positive(high=FLOAT_MAX):
    """A positive number up to ``high``, both ends included; an int too,
    which a float field accepts and echoes as an int."""
    return st.one_of(st.sampled_from([5e-324, high]), st.floats(5e-324, high),
                     st.integers(1, int(min(high, 10**6))))


_COUNT = st.one_of(st.integers(0, 8), st.integers(0, 10**6))
# a byte count is an int no larger than the largest float
_BYTES = st.integers(0, int(FLOAT_MAX))
_P_D = st.one_of(st.sampled_from([0, 0.0, 5e-324, 1, 1.0]),
                 st.floats(0.0, 1.0))


@st.composite
def scenarios(draw, w0=None, m=None):
    """Any scenario the library accepts, each field drawn over its whole
    range with its ends: counts up to 10**6 (0 and 0 excepted), top windows
    w0 * 2**m up to 2**64 slots, times and rates from 5e-324 to the largest
    float (LAA's rate up to 1e300, its TXOP up to 1e4), byte counts up to
    the largest float, p_d at 0, 5e-324 and 1 and between. Strategies for
    ``w0`` and ``m`` narrow both networks' windows; the top window must
    stay within 2**64 slots."""
    def window():
        stages = draw(st.integers(0, 64) if m is None else m)
        return {"w0": draw(st.integers(1, 2 ** (64 - stages)) if w0 is None
                           else w0), "m": stages}

    wifi = WifiParams(
        **window(), payload_bytes=draw(_BYTES.filter(bool)),
        mac_header_bytes=draw(_BYTES), ack_bytes=draw(_BYTES),
        **{name: draw(_positive()) for name in (
            "data_rate_mbps", "control_rate_mbps", "phy_header_us",
            "difs_us", "sifs_us", "slot_us", "prop_delay_us")})
    laa = LaaParams(
        **window(), retry_limit=draw(st.integers(0, 8)),
        defer_us=draw(_positive()), txop_us=draw(_positive(1e4)),
        next_tx_delay_us=draw(_positive()),
        data_rate_mbps=draw(_positive(1e300)),
        pdcch_fraction=draw(_positive(1.0)))
    n_wifi, n_laa = draw(st.tuples(_COUNT, _COUNT).filter(any))
    return Scenario(n_wifi, n_laa, wifi, laa, p_dw=draw(_P_D),
                    p_dl=draw(_P_D), comparison_mode=draw(st.booleans()))
