import math

import pytest

from laacoex.ed import EdConfig, dbm_to_mw, detection_probability


def upper_gamma_q(a, x):
    """The regularised upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a):
    one minus the series of P(a, x) below x = a + 1, Lentz's continued
    fraction at and above it (Numerical Recipes, section 6.2)."""
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, 10_000):
            term *= x / (a + n)
            total += term
            if term < total * 1e-17:
                return 1.0 - front * total
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for n in range(1, 10_000):
            an, b = n * (a - n), b + 2.0
            d = 1.0 / (an * d + b or tiny)
            c = b + an / c or tiny
            h *= d * c
            if abs(d * c - 1.0) < 1e-16:
                return front * h
    raise ArithmeticError(f"Q({a}, {x}) did not converge")


def chi2_detection_probability(c):
    """The exact P_d under the model's own assumptions: M * T / total is
    chi-squared with M degrees of freedom, so P(T > eta) is
    Q(M / 2, M * eta / (2 * total))."""
    eta = dbm_to_mw(c.threshold_dbm)
    total = dbm_to_mw(c.signal_power_dbm) + dbm_to_mw(c.noise_power_dbm)
    return upper_gamma_q(c.samples / 2, c.samples * eta / (2.0 * total))


class TestDbmConversion:
    @pytest.mark.parametrize("dbm, mw", [(0.0, 1.0), (-30.0, 1e-3),
                                         (10.0, 10.0)])
    def test_reference_points(self, dbm, mw):
        assert dbm_to_mw(dbm) == pytest.approx(mw, rel=1e-12)


def operating_point(threshold_dbm, samples=680):
    return EdConfig.from_snr(threshold_dbm, snr_db=22.0,
                             noise_power_dbm=-94.0, samples=samples)


class TestDetectionProbability:
    def test_from_snr_composes_signal_power(self):
        cfg = operating_point(-72.0)
        assert cfg.signal_power_dbm == pytest.approx(-72.0, abs=1e-12)

    def test_threshold_at_received_power(self):
        # -72 dBm sits almost exactly at the mean received power, so the
        # detector fires just over half the time
        assert detection_probability(operating_point(-72.0)) == pytest.approx(
            0.5460, abs=0.005)

    def test_threshold_above_received_power(self):
        assert detection_probability(operating_point(-62.0)) < 1e-6

    def test_threshold_below_received_power(self):
        assert detection_probability(operating_point(-82.0)) > 1.0 - 1e-6

    def test_decreasing_in_threshold(self):
        # strict inside the non-saturated band around the mean power;
        # beyond it the Gaussian tail underflows to exactly 0/1 in doubles
        band = [-74.0, -73.5, -73.0, -72.5, -72.0, -71.5, -71.0]
        values = [detection_probability(operating_point(t)) for t in band]
        assert all(a > b for a, b in zip(values, values[1:]))
        wide = [detection_probability(operating_point(t))
                for t in range(-90, -60, 2)]
        assert all(a >= b for a, b in zip(wide, wide[1:]))

    def test_more_samples_sharpen_detection(self):
        # below the mean power, longer averaging can only help
        values = [detection_probability(operating_point(-72.5, samples=m))
                  for m in (10, 50, 200, 680, 5000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_extreme_thresholds_saturate(self):
        assert detection_probability(operating_point(-300.0)) == pytest.approx(
            1.0, abs=1e-12)
        assert detection_probability(operating_point(100.0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EdConfig(-72.0, -72.0, -94.0, samples=0)
        with pytest.raises(ValueError):
            EdConfig(math.inf, -72.0, -94.0, samples=680)

    @pytest.mark.parametrize("build, field", [
        (lambda: EdConfig(-72.0, -72.0, -94.0, samples=10.5), "samples"),
        (lambda: EdConfig(-72.0, -72.0, -94.0, samples=True), "samples"),
        (lambda: EdConfig(True, -72.0, -94.0, samples=680), "threshold_dbm"),
        (lambda: EdConfig(-72.0, 3083.0, -94.0, samples=680),
         "signal_power_dbm"),
        (lambda: EdConfig(-72.0, -72.0, -5000.0, samples=680),
         "noise_power_dbm"),
        (lambda: EdConfig.from_snr(-72.0, "22", -94.0, 680), "snr_db"),
        (lambda: EdConfig.from_snr(-72.0, 22.0, "-94", 680),
         "noise_power_dbm"),
    ])
    def test_each_rejection_names_its_field(self, build, field):
        # out-of-range powers would overflow 10**(dBm/10) or divide 0 by 0
        with pytest.raises(ValueError, match=field):
            build()


class TestChiSquaredOracle:
    """``detection_probability`` is the Gaussian, large-M approximation of
    the chi-squared statistic; the oracle is exact under the same model."""

    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.9, 2.1, 2.9, 3.1, 10.0, 40.0])
    def test_closed_forms(self, x):
        # both branches of Q: the series below x = a + 1, the fraction above
        assert upper_gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)
        assert upper_gamma_q(2.0, x) == pytest.approx(math.exp(-x) * (1 + x),
                                                      rel=1e-12)

    # |Gaussian - chi-squared| over the thresholds -71.5, -72 and -72.5 dBm
    # at SNR 22 dB and noise -94 dBm, per sample count M: the recorded
    # bound. Largest at -72 dBm, where the Gaussian reads 0.5460 (C4),
    # 0.5146 and 0.5071 against the exact 0.5389, 0.4918 and 0.4600.
    GAP_BOUND = {680: 0.0072, 68: 0.0229, 16: 0.0472}

    @pytest.mark.parametrize("samples", sorted(GAP_BOUND))
    def test_gaussian_error_grows_as_samples_fall(self, samples):
        gaps = []
        for threshold in (-71.5, -72.0, -72.5):
            cfg = operating_point(threshold, samples)
            gaps.append(abs(detection_probability(cfg)
                            - chi2_detection_probability(cfg)))
        assert max(gaps) == gaps[1] <= self.GAP_BOUND[samples]
        # the error grows as M falls: the gap exceeds every larger M's bound
        larger = [m for m in self.GAP_BOUND if m > samples]
        assert all(max(gaps) > self.GAP_BOUND[m] for m in larger)

    def test_c4_point(self):
        cfg = operating_point(-72.0)
        assert round(detection_probability(cfg), 4) == 0.5460
        assert round(chi2_detection_probability(cfg), 4) == 0.5389
