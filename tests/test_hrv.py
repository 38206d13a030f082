import math

import numpy as np
import pytest

from codel.datasets import modulated_rr
from codel.errors import InsufficientDataError
from codel.hrv import (
    FEATURE_NAMES,
    _fft_length,
    breathing_rate,
    extract_features,
    poincare_features,
    time_domain_features,
)
from codel.signal import RrSeries

from oracles import (
    hrv_breathing_reference,
    hrv_vector_reference,
    random_rr_series,
)


class TestTimeDomain:

    def test_constant_series_has_no_variability(self):
        td = time_domain_features(RrSeries(np.full(5, 1000.0)))
        assert td.bpm == 60.0
        assert td.ibi == 1000.0
        assert td.sdnn == 0.0
        assert td.sdsd == 0.0
        assert td.rmssd == 0.0
        assert td.pnn20 == 0.0
        assert td.pnn50 == 0.0
        assert td.hr_mad == 0.0

    def test_alternating_series_by_hand(self):
        """Successive differences of exactly 50 ms.

        rmssd is 50 outright. The strict pnn50 comparison excludes
        differences equal to the threshold, so pnn50 stays 0 while all
        four differences clear 20 ms; the divisor is the series length,
        not the difference count, hence 80 rather than 100.
        """
        td = time_domain_features(RrSeries([800.0, 850.0, 800.0, 850.0, 800.0]))
        assert np.isclose(td.rmssd, 50.0)
        assert td.pnn50 == 0.0
        assert td.pnn20 == 80.0
        assert td.sdsd == 0.0
        assert np.isclose(td.hr_mad, 20.0)

    def test_sdnn_uses_population_divisor(self):
        td = time_domain_features(RrSeries([800.0, 820.0, 780.0, 810.0]))
        assert np.isclose(td.sdnn, math.sqrt(875.0 / 4.0))

    def test_pnn50_never_exceeds_pnn20(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rr = RrSeries(random_rr_series(rng))
            td = time_domain_features(rr)
            assert td.pnn50 <= td.pnn20

    def test_requires_three_intervals(self):
        with pytest.raises(InsufficientDataError):
            time_domain_features(RrSeries([800.0, 900.0]))


class TestPoincare:

    def test_constant_series_degenerates(self):
        pc = poincare_features(RrSeries(np.full(6, 900.0)))
        assert pc.sd1 == 0.0
        assert pc.sd2 == 0.0
        assert pc.s == 0.0
        assert pc.ratio is None

    def test_alternating_series_lies_across_identity(self):
        """A two-value oscillation spreads only across the identity line."""
        pc = poincare_features(RrSeries([800.0, 850.0, 800.0, 850.0, 800.0]))
        assert np.isclose(pc.sd1, 50.0 / math.sqrt(2.0))
        assert pc.sd2 == 0.0
        assert pc.s == 0.0
        assert pc.ratio is None

    def test_linear_ramp_lies_along_identity(self):
        pc = poincare_features(RrSeries([700.0, 800.0, 900.0]))
        assert np.isclose(pc.sd1, 0.0, atol=1e-12)
        assert np.isclose(pc.sd2, 100.0 / math.sqrt(2.0))
        assert pc.ratio == 0.0

    def test_area_is_ellipse_product(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            pc = poincare_features(RrSeries(random_rr_series(rng)))
            assert pc.s == math.pi * pc.sd1 * pc.sd2
            assert pc.ratio is not None
            assert np.isclose(pc.ratio, pc.sd1 / pc.sd2)

    def test_requires_three_intervals(self):
        with pytest.raises(InsufficientDataError):
            poincare_features(RrSeries([800.0, 900.0]))


class TestBreathingRate:

    def test_quarter_hertz_modulation(self):
        """A 0.25 Hz modulated series reads 15 breaths per minute."""
        rr = modulated_rr(duration_s=60.0, base_ms=1000.0, depth_ms=50.0,
                          freq_hz=0.25)
        br = breathing_rate(rr)
        assert abs(br.breaths_per_min - 15.0) <= 0.5
        assert not br.low_confidence

    def test_band_edge_modulation(self):
        rr = modulated_rr(duration_s=60.0, base_ms=1000.0, depth_ms=50.0,
                          freq_hz=0.40)
        br = breathing_rate(rr)
        assert abs(br.breaths_per_min - 24.0) <= 0.5
        assert not br.low_confidence

    def test_white_noise_is_flagged(self):
        """Unmodulated jitter has no concentrated peak to report."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rr = RrSeries(800.0 + rng.normal(0.0, 3.0, 80))
            br = breathing_rate(rr)
            assert br.low_confidence
            assert 6.0 <= br.breaths_per_min <= 24.0

    def test_estimate_stays_inside_band(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            br = breathing_rate(RrSeries(random_rr_series(rng)))
            assert 6.0 <= br.breaths_per_min <= 24.0

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            breathing_rate(RrSeries(np.full(10, 900.0)))


class TestFftLength:
    """The breathing periodogram's zero-padded length."""

    @staticmethod
    def _eightfold(n):
        nfft = 1
        while nfft < 8 * n:
            nfft *= 2
        return nfft

    def test_records_under_34_minutes_keep_eightfold_padding(self):
        """Up to 8,192 points at 4 Hz (34 min 8 s) the length is the next
        power of two at or above 8 n, as before the bound."""
        assert [_fft_length(n) for n in range(1, 8193)] == [
            self._eightfold(n) for n in range(1, 8193)]

    def test_longer_records_pad_to_two_to_the_16_or_their_own_length(self):
        assert _fft_length(8193) == _fft_length(2**16) == 2**16
        assert _fft_length(2**16 + 1) == 2**17
        for n in (8193, 40_000, 2**16, 2**16 + 1, 10**6):
            assert n <= _fft_length(n) < 2 * max(n, 2**16)

    def test_a_seven_day_record_is_bounded(self):
        """7 days at 4 Hz is 2,419,200 points: at most 2^22, not the
        eightfold 2^25 (a 268 MB complex spectrum)."""
        n = 7 * 86_400 * 4
        assert n == 2_419_200
        assert _fft_length(n) == 2**22 < self._eightfold(n) == 2**25


class TestExtractFeatures:

    def test_constant_minute(self):
        """A flat series: rate features survive, variability collapses.

        The flat tachogram has an empty spectrum, so the breathing
        estimate is low confidence, and the undefined sd1/sd2 ratio is
        imputed as 0 with its own flag.
        """
        record = extract_features(RrSeries(np.full(60, 1000.0)))
        assert record.bpm == 60.0
        assert record.ibi == 1000.0
        for name in ("sdnn", "sdsd", "rmssd", "pnn20", "pnn50", "hr_mad",
                     "sd1", "sd2", "s"):
            assert getattr(record, name) == 0.0
        assert record.ratio == 0.0
        assert "ratio_undefined" in record.flags
        assert "breathing_low_confidence" in record.flags
        assert 6.0 <= record.breathing_rate <= 24.0

    def test_modulated_series_has_no_flags(self):
        rr = modulated_rr(duration_s=60.0, base_ms=1000.0, depth_ms=50.0,
                          freq_hz=0.25)
        assert extract_features(rr).flags == ()

    def test_composition_matches_parts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rr = RrSeries(random_rr_series(rng))
            record = extract_features(rr)
            td = time_domain_features(rr)
            pc = poincare_features(rr)
            br = breathing_rate(rr)
            for name in td._fields:
                assert getattr(record, name) == getattr(td, name)
            assert record.sd1 == pc.sd1
            assert record.sd2 == pc.sd2
            assert record.s == pc.s
            assert record.ratio == pc.ratio
            assert record.breathing_rate == br.breaths_per_min

    def test_vector_follows_name_order(self):
        rr = modulated_rr(duration_s=30.0, base_ms=900.0, depth_ms=40.0,
                          freq_hz=0.2)
        record = extract_features(rr)
        vec = record.as_vector()
        assert vec.shape == (len(FEATURE_NAMES),)
        for i, name in enumerate(FEATURE_NAMES):
            assert vec[i] == getattr(record, name)


class TestScaling:

    def test_millisecond_scale_propagates(self):
        """Stretching every interval by c stretches the spread features by c.

        pnn20 and pnn50 are left out: their thresholds are absolute
        millisecond counts, so they do not transform.
        """
        rng = np.random.default_rng(5)
        for c in (0.5, 2.0, 3.7):
            base = random_rr_series(rng)
            a = extract_features(RrSeries(base))
            b = extract_features(RrSeries(c * base))
            for name in ("sdnn", "sdsd", "rmssd", "hr_mad", "sd1", "sd2"):
                assert np.isclose(getattr(b, name), c * getattr(a, name),
                                  rtol=1e-12)
            assert np.isclose(b.s, c * c * a.s, rtol=1e-12)
            assert np.isclose(b.ratio, a.ratio, rtol=1e-12)
            assert np.isclose(b.ibi, c * a.ibi, rtol=1e-12)
            assert np.isclose(b.bpm, a.bpm / c, rtol=1e-12)


class TestOracleAgreement:

    def test_feature_vectors_match_reference(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            rr = random_rr_series(rng)
            vec = extract_features(RrSeries(rr)).as_vector()
            ref = hrv_vector_reference(rr)
            np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-9)

    def test_confidence_flag_matches_reference_concentration(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            rr = random_rr_series(rng)
            record = extract_features(RrSeries(rr))
            _, concentration = hrv_breathing_reference(rr)
            flagged = "breathing_low_confidence" in record.flags
            assert flagged == (concentration < 0.5)
