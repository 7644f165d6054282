import math

import pytest

from laacoex.ed import EdConfig, dbm_to_mw, detection_probability


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
