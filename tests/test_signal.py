import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import ndimage  # the oracle of the rolling windows and the running median
from scipy import signal as sps  # the oracle of the numpy low-pass

import codel.signal
from codel.datasets import synthetic_heartbeat
from codel.errors import InsufficientDataError, ParameterError
from codel.signal import (
    MAD_SCALE,
    RrSeries,
    Signal,
    _butter_sos,
    _rolling_max,
    _rolling_mean,
    butterworth_lowpass,
    detect_r_peaks,
    hampel_filter,
    rr_from_peaks,
    signal_to_rr,
    standardize,
)

from oracles import hampel_reference, synthetic_pulse_train


def _steady_amplitude(samples, fs, skip_s=2.0):
    """Peak amplitude of a sinusoid after the filter transient has passed."""
    tail = samples[int(skip_s * fs):]
    return np.sqrt(2.0) * np.sqrt(np.mean(tail ** 2))


class TestSignalTypes:
    def test_signal_rejects_empty_and_nonfinite(self):
        with pytest.raises(ParameterError):
            Signal(np.array([]), 100.0)
        with pytest.raises(ParameterError):
            Signal(np.array([1.0, np.nan]), 100.0)
        with pytest.raises(ParameterError):
            Signal(np.ones(5), 0.0)

    @pytest.mark.parametrize("fs", [np.inf, -np.inf, np.nan])
    def test_signal_rejects_nonfinite_rate(self, fs):
        with pytest.raises(ParameterError, match="sampling rate"):
            Signal(np.ones(5), fs)

    def test_rr_series_rejects_nonpositive_intervals(self):
        with pytest.raises(ParameterError):
            RrSeries(np.array([800.0, 0.0, 900.0]))
        with pytest.raises(ParameterError):
            RrSeries(np.array([800.0, -5.0]))

    def test_rr_series_duration(self):
        rr = RrSeries(np.array([500.0, 1500.0]))
        assert rr.duration_ms == 2000.0
        assert len(rr) == 2


class TestStandardize:
    def test_three_point_example(self):
        out = standardize(Signal(np.array([1.0, 2.0, 3.0]), 10.0))
        np.testing.assert_allclose(
            out.samples, [-1.22474487, 0.0, 1.22474487], atol=1e-8
        )

    def test_constant_maps_to_zeros(self):
        out = standardize(Signal(np.full(7, 5.0), 10.0))
        np.testing.assert_array_equal(out.samples, np.zeros(7))

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10), 200)
            out = standardize(Signal(x, 100.0))
            assert abs(np.mean(out.samples)) < 1e-9
            assert abs(np.std(out.samples) - 1.0) < 1e-9
            assert out.fs == 100.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sig = Signal(rng.normal(3.0, 2.0, 150), 50.0)
            once = standardize(sig)
            twice = standardize(once)
            np.testing.assert_allclose(twice.samples, once.samples, atol=1e-9)


class TestHampelFilter:
    def test_isolated_spike_replaced(self):
        sig = Signal(np.array([1.0, 1, 1, 100, 1, 1, 1]), 6.0)
        out = hampel_filter(sig, half_window=3, n_sigmas=3.0)
        np.testing.assert_array_equal(out.samples, np.ones(7))

    def test_constant_unchanged(self):
        sig = Signal(np.full(20, 4.2), 10.0)
        out = hampel_filter(sig, half_window=5)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_length_one_unchanged(self):
        out = hampel_filter(Signal(np.array([3.0]), 10.0), half_window=2)
        np.testing.assert_array_equal(out.samples, [3.0])

    def test_sample_equal_to_window_median_never_changes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 300)
        hw = 5
        out = hampel_filter(Signal(x, 100.0), half_window=hw)
        for i in range(x.size):
            window = x[max(0, i - hw): min(x.size, i + hw + 1)]
            if x[i] == np.median(window):
                assert out.samples[i] == x[i]

    @pytest.mark.parametrize("half_window, n", [(2000, 4011), (10**6, 5)])
    def test_scratch_memory_is_bounded(self, half_window, n):
        """Windows are sorted a chunk at a time and are never wider than
        the signal needs. All 4,000 end windows of width 4,001 at once
        would take 128 MB; a million-sample half window padded in full
        would take 80 MB on a 5-sample signal."""
        x = np.sin(np.arange(n) / 7.0)
        x[n // 2] += 50.0
        tracemalloc.start()
        try:
            out = hampel_filter(Signal(x, 100.0), half_window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert np.array_equal(out.samples, hampel_reference(x, half_window))

    def test_long_record_builds_no_per_sample_index_arrays(self):
        """Window lengths are counted one scratch chunk at a time, and
        only in the chunks that reach an end. Three minutes at 250 Hz with
        the default half window then peaks near 1.51 MB: the padded copy,
        the output and the sort scratch. Five per-sample index arrays took
        it to 3.57 MB."""
        rng = np.random.default_rng(5)
        x = np.sin(np.arange(45_000) / 40.0) ** 15 + 0.05 * rng.normal(size=45_000)
        x[rng.integers(0, x.size, 40)] -= 3.0
        tracemalloc.start()
        try:
            hampel_filter(Signal(x, 250.0), 125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6

    def test_parameter_validation(self):
        sig = Signal(np.ones(10), 10.0)
        with pytest.raises(ParameterError):
            hampel_filter(sig, half_window=0)
        with pytest.raises(ParameterError):
            hampel_filter(sig, half_window=3, n_sigmas=0.0)

    @pytest.mark.parametrize("n_sigmas", [np.inf, 1e308, np.nan])
    def test_n_sigmas_whose_threshold_overflows_is_refused(self, n_sigmas):
        """Each product the filter forms is at most n_sigmas * 1.4826
        times the signal's range, here 10. Where that bound is not finite
        the call is refused by name, before any floating-point warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=re.escape(f"got {n_sigmas}")):
                hampel_filter(Signal(np.arange(11.0), 10.0), 2, n_sigmas)



# The n_sigmas that makes the threshold exactly one MAD, so a deviation
# equal to the MAD sits on the strict ">" boundary.
UNIT_THRESHOLD = 1.0 / MAD_SCALE
assert UNIT_THRESHOLD * MAD_SCALE == 1.0


@st.composite
def hampel_cases(draw):
    """A signal, half window and n_sigmas that stress the Hampel filter.

    Signals are runs of repeated values (ties, plateaus, constant
    stretches whose MAD is 0) with spikes on top. Lengths go from 1 to
    three full windows and include the full width w and its neighbours,
    below which no window is full and no running median is kept.
    """
    half_window = draw(st.integers(1, 30))
    width = 2 * half_window + 1
    n = draw(st.one_of(st.sampled_from([width - 1, width, width + 1]),
                       st.integers(1, 3 * width)))
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-10.0, 10.0, allow_nan=False))
    runs = draw(st.lists(st.tuples(values, st.integers(1, width)),
                         min_size=1, max_size=12))
    x = np.resize(np.repeat([v for v, _ in runs], [k for _, k in runs]), n)
    for i, jump in draw(st.lists(
            st.tuples(st.integers(0, n - 1),
                      st.sampled_from([-1e6, -50.0, 50.0, 1e6])),
            max_size=5)):
        x[i] += jump
    n_sigmas = draw(st.one_of(st.sampled_from([UNIT_THRESHOLD, 1.0, 2.0, 3.0]),
                              st.floats(0.01, 10.0)))
    return x, half_window, n_sigmas


class TestHampelMatchesReference:
    @given(hampel_cases())
    @example((np.array([0.0, 0.0, 9.0]), 1, 3.0))
    @example((np.array([1.0, 1.0, 1.0, 100.0]), 1, 3.0))
    @example((np.array([2.0, 5.0, 5.0, 5.0, 2.0, 2.0]), 2, 1.0))
    @example((np.array([0.0, 2.0, 1.0, 0.0, 2.0, 1.0]), 1, UNIT_THRESHOLD))
    # The repair is the mean of two subnormal middle values, which halving
    # each before adding would round to zero.
    @example((np.array([5e-324, 100.0, 5e-324, 5e-324]), 2, 3.0))
    def test_bit_identical_to_per_sample_loop(self, case):
        x, half_window, n_sigmas = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hampel_filter(Signal(x, 100.0), half_window, n_sigmas)
            assert np.array_equal(out.samples,
                                  hampel_reference(x, half_window, n_sigmas))

    def test_long_noisy_record(self):
        """Thousands of interior windows, several scratch chunks."""
        rng = np.random.default_rng(4)
        x = np.sin(np.arange(3000) / 20.0) + rng.normal(0, 0.1, 3000)
        x[rng.choice(3000, 40, replace=False)] -= 6.0
        out = hampel_filter(Signal(x, 100.0), half_window=50)
        assert np.array_equal(out.samples, hampel_reference(x, 50))
        assert np.sum(out.samples != x) >= 40

    @pytest.mark.parametrize("extra", [-1, 0, 1, 1602])
    def test_long_window(self, extra):
        """A 801-sample window, on signals one sample shorter than it, as
        long, one longer and three times as long."""
        half_window = 400
        n = 2 * half_window + 1 + extra
        rng = np.random.default_rng(n)
        x = np.round(np.sin(np.arange(n) / 40.0) + rng.normal(0, 0.2, n), 1)
        x[rng.choice(n, 12, replace=False)] += rng.choice([-8.0, 8.0], 12)
        out = hampel_filter(Signal(x, 100.0), half_window)
        assert np.array_equal(out.samples, hampel_reference(x, half_window))
        assert np.any(out.samples != x)

    def test_signed_zeros(self, monkeypatch):
        """Replacements whose median is zero may differ from the per-sample
        loop's in the sign of that zero, and only there; the beats and
        intervals read from either output are the same, and so are those
        of the whole chain with the per-sample loop in the filter's place."""
        sig, _ = synthetic_heartbeat(np.full(12, 1000.0), fs=100.0, noise_std=0.0)
        x = sig.samples.copy()
        rng = np.random.default_rng(1)
        spikes = []
        for start in (0, 530, x.size - 70):
            x[start:start + 70] = rng.choice([0.0, -0.0], 70)
            spikes.extend(start + rng.choice(70, 4, replace=False))
        x[spikes] = rng.choice([-5.0, 5.0], len(spikes))
        out = hampel_filter(Signal(x, 100.0), half_window=50).samples
        ref = hampel_reference(x, 50)
        assert np.array_equal(out, ref)
        assert np.all(out[spikes] == 0.0)
        sign_differs = np.signbit(out) != np.signbit(ref)
        assert np.all(out[sign_differs] == 0.0)
        peaks = detect_r_peaks(Signal(out, 100.0))
        ref_peaks = detect_r_peaks(Signal(ref, 100.0))
        np.testing.assert_array_equal(peaks, ref_peaks)
        np.testing.assert_array_equal(rr_from_peaks(peaks, 100.0).intervals,
                                      rr_from_peaks(ref_peaks, 100.0).intervals)
        intervals = signal_to_rr(Signal(x, 100.0)).intervals
        monkeypatch.setattr(codel.signal, "hampel_filter", lambda sig, half_window, n_sigmas:
                            Signal(hampel_reference(sig.samples, half_window, n_sigmas), sig.fs))
        np.testing.assert_array_equal(signal_to_rr(Signal(x, 100.0)).intervals, intervals)


class TestHampelCountRule:
    """An interior row is decided by counting the deviations d with
    ``fl(scale * d) < gap``. Integer neighbours make deviations tie at
    the MAD, so the boundary sits between tied counts."""

    @staticmethod
    def _row(centre, mad):
        # The centre's window is {-m, 0, 0, 0, m, m, centre}: median 0,
        # deviations {0, 0, 0, m, m, m, centre}, so the MAD is m and
        # exactly h = 3 deviations lie below it.
        x = np.zeros(21)
        x[7:14] = [0.0, mad, 0.0, centre, -mad, 0.0, mad]
        return x

    @pytest.mark.parametrize("n_sigmas", [3.0, 2.5, UNIT_THRESHOLD, 0.7])
    @pytest.mark.parametrize("mad", [1.0, 2.0, 3.0])
    def test_sample_on_the_threshold_stays_and_the_next_double_is_replaced(self, n_sigmas, mad):
        threshold = n_sigmas * MAD_SCALE * mad
        on = self._row(threshold, mad)
        out = hampel_filter(Signal(on, 100.0), 3, n_sigmas).samples
        assert out[10] == threshold
        assert np.array_equal(out, hampel_reference(on, 3, n_sigmas))
        above = self._row(np.nextafter(threshold, np.inf), mad)
        out = hampel_filter(Signal(above, 100.0), 3, n_sigmas).samples
        assert out[10] == 0.0
        assert np.array_equal(out, hampel_reference(above, 3, n_sigmas))


class TestHampelMatchesReferenceInSmallChunks(TestHampelMatchesReference):
    """The same cases with windows sorted 1 and 3 at a time, so that both
    the interior chunks and the edge chunks split unevenly."""

    @pytest.fixture(scope="class", autouse=True, params=[1, 3])
    def chunk_rows(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codel.signal, "_chunk_rows", lambda width: request.param)
            yield request.param


class TestButterworthLowpass:
    def test_dc_passthrough(self):
        """A constant converges back to its value once the transient settles."""
        sig = Signal(np.full(600, 2.5), 100.0)
        out = butterworth_lowpass(sig, 25.0)
        np.testing.assert_allclose(out.samples[300:], 2.5, atol=1e-6)

    def test_cutoff_attenuation_is_3db(self):
        fs = 100.0
        t = np.arange(int(10 * fs)) / fs
        sig = Signal(np.sin(2 * np.pi * 25.0 * t), fs)
        out = butterworth_lowpass(sig, 25.0, order=4)
        ratio = _steady_amplitude(out.samples, fs)
        assert abs(ratio - 10 ** (-3.01 / 20)) < 0.01

    def test_nyquist_annihilated(self):
        fs = 100.0
        t = np.arange(int(10 * fs)) / fs
        sig = Signal(np.sin(2 * np.pi * 50.0 * t), fs)
        out = butterworth_lowpass(sig, 25.0, order=4)
        assert _steady_amplitude(out.samples, fs) < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 500)
        y = rng.normal(0, 1, 500)
        a, b = 2.5, -1.25
        fs = 100.0
        combined = butterworth_lowpass(Signal(a * x + b * y, fs), 20.0)
        separate = (
            a * butterworth_lowpass(Signal(x, fs), 20.0).samples
            + b * butterworth_lowpass(Signal(y, fs), 20.0).samples
        )
        np.testing.assert_allclose(combined.samples, separate, atol=1e-9)

    def test_parameter_validation(self):
        sig = Signal(np.ones(100), 100.0)
        with pytest.raises(ParameterError):
            butterworth_lowpass(sig, 50.0)  # at Nyquist
        with pytest.raises(ParameterError):
            butterworth_lowpass(sig, 60.0)
        with pytest.raises(ParameterError):
            butterworth_lowpass(sig, 25.0, order=3)

    def test_long_record_holds_one_block_of_floats(self):
        """Three minutes at 250 Hz peak near 0.63 MB above the input: the
        output and one block's lists of Python floats. Record-wide lists,
        four per section, took 6.16 MB."""
        rng = np.random.default_rng(6)
        sig = Signal(np.sin(np.arange(45_000) / 40.0) ** 15 + 0.05 * rng.normal(size=45_000),
                     250.0)
        tracemalloc.start()
        try:
            butterworth_lowpass(sig, 25.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestButterworthMatchesScipy:
    """The numpy design and biquad are bit-equal to scipy's."""

    @given(order=st.sampled_from([2, 4, 6]),
           fs=st.floats(1.0, 4000.0),
           where=st.one_of(st.floats(1e-6, 1e-2), st.floats(0.0, 1.0),
                           st.floats(0.99, 1.0 - 1e-9)))
    @example(order=4, fs=250.0, where=0.2)
    @example(order=2, fs=100.0, where=1e-6)
    @example(order=6, fs=1000.0, where=1.0 - 1e-9)
    def test_design_equals_scipy_butter(self, order, fs, where):
        cutoff = where * fs / 2
        if not 0 < cutoff < fs / 2:
            return
        got = _butter_sos(order, cutoff, fs)
        want = sps.butter(order, cutoff, fs=fs, output="sos")
        assert got.tobytes() == want.tobytes()

    @given(order=st.sampled_from([2, 4, 6]),
           fs=st.floats(50.0, 1000.0),
           where=st.floats(0.01, 0.99),
           samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=400),
           magnitude=st.sampled_from([1e-3, 1.0, 37.5, 1e4]))
    @example(order=4, fs=250.0, where=0.2, samples=[1.0], magnitude=1e4)
    def test_filter_equals_sosfilt(self, order, fs, where, samples, magnitude):
        x = np.array(samples) * magnitude
        cutoff = where * fs / 2
        got = butterworth_lowpass(Signal(x, fs), cutoff, order).samples
        want = sps.sosfilt(sps.butter(order, cutoff, fs=fs, output="sos"), x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_state_carries_across_blocks(self, monkeypatch, order, block):
        """53 samples end in a partial block for every size but 1."""
        monkeypatch.setattr(codel.signal, "_LOWPASS_BLOCK", block)
        x = np.random.default_rng(order).normal(size=53) * 37.5
        got = butterworth_lowpass(Signal(x, 250.0), 40.0, order).samples
        want = sps.sosfilt(sps.butter(order, 40.0, fs=250.0, output="sos"), x)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_record_of_several_blocks(self, order):
        x = np.random.default_rng(order).normal(size=3 * codel.signal._LOWPASS_BLOCK + 1000)
        got = butterworth_lowpass(Signal(x, 250.0), 25.0, order).samples
        want = sps.sosfilt(sps.butter(order, 25.0, fs=250.0, output="sos"), x)
        assert got.tobytes() == want.tobytes()


@st.composite
def window_samples(draw):
    """1 to 400 samples: small integers (ties, plateaus), values rounded
    to 0.01, or values scaled by 1e-3 to 1e4."""
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=400)))
    form = draw(st.sampled_from(["integer", "rounded", "scaled"]))
    if form == "integer":
        return np.round(u * 4)
    if form == "rounded":
        return np.round(u, 2)
    return u * draw(st.sampled_from([1e-3, 1.0, 37.5, 1e4]))


class TestWindowsMatchScipy:
    """The rolling mean and max of peak detection and the Hampel filter's
    interior medians equal scipy.ndimage's, up to the sign of a zero."""

    @given(x=window_samples(), size=st.integers(3, 60))
    @example(x=np.array([0.1, 0.2, 0.7, 1e4, -3.0]), size=4)
    def test_rolling_mean_equals_uniform_filter1d(self, x, size):
        got = _rolling_mean(x, size)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got, ndimage.uniform_filter1d(x, size, mode="nearest"))

    @given(x=window_samples(), size=st.integers(3, 60))
    @example(x=np.array([3.0, -1.0, 2.0, 5.0, 0.0, 1.0, 1.0]), size=4)
    def test_rolling_max_equals_maximum_filter1d(self, x, size):
        got = _rolling_max(x, size)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got, ndimage.maximum_filter1d(x, size, mode="nearest"))

    @given(x=window_samples(), half_window=st.integers(1, 30),
           n_sigmas=st.sampled_from([UNIT_THRESHOLD, 1.0, 3.0]))
    def test_hampel_medians_equal_median_filter(self, x, half_window, n_sigmas):
        """With a zero MAD scale every sample off its window median is an
        outlier, so the output is the running median. Neither scale warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(codel.signal, "MAD_SCALE", 0.0)
                medians = hampel_filter(Signal(x, 100.0), half_window).samples
            interior = slice(half_window, x.size - half_window)
            want = ndimage.median_filter(x, size=2 * half_window + 1)
            assert np.array_equal(medians[interior], want[interior])
            out = hampel_filter(Signal(x, 100.0), half_window, n_sigmas).samples
            assert np.array_equal(out, hampel_reference(x, half_window, n_sigmas))


class TestDetectRPeaks:
    def test_impulse_train_recovered_exactly(self):
        sig, _ = synthetic_pulse_train(duration_s=10.0, fs=100.0,
                                       pulse_width_s=0.005)
        peaks = detect_r_peaks(sig)
        np.testing.assert_array_equal(peaks, np.arange(100, 1000, 100))

    def test_all_zeros_gives_empty(self):
        peaks = detect_r_peaks(Signal(np.zeros(500), 100.0))
        assert peaks.size == 0

    def test_noisy_beats_recovered_within_two_samples(self):
        """Every known beat is found within +/-2 samples under noise.

        Noise at a tenth of the template peak (20 dB peak SNR). The
        order-2 filter is used here: its group delay at these settings
        is about one sample, which is what leaves room for the +/-2
        localization budget.
        """
        for seed in range(5):
            sig, true_peaks = synthetic_pulse_train(
                duration_s=30.0, fs=100.0, pulse_width_s=0.03,
                noise_std=0.1, seed=seed,
            )
            filtered = butterworth_lowpass(standardize(sig), 25.0, order=2)
            peaks = detect_r_peaks(filtered)
            for truth in true_peaks:
                assert np.min(np.abs(peaks - truth)) <= 2

    def test_peak_at_threshold_is_not_a_beat(self):
        """x[5] equals its threshold bit for bit: the rule is a strict >."""
        from scipy import ndimage

        x = np.array([-3, -3, -3, 5, -2, 2, -2, -3, -3, -3, -3.0])
        mean = ndimage.uniform_filter1d(x, size=5, mode="nearest")
        top = ndimage.maximum_filter1d(x, size=5, mode="nearest")
        assert mean[5] + 0.4 * (top[5] - mean[5]) == x[5]
        np.testing.assert_array_equal(detect_r_peaks(Signal(x, 5.0)), [3])

    def test_peaks_one_refractory_gap_apart_are_both_kept(self):
        """At fs = 10 the gap is ceil(0.3 * 10) = 3 samples."""
        x = np.zeros(20)
        x[[5, 8]] = 1.0
        np.testing.assert_array_equal(detect_r_peaks(Signal(x, 10.0)), [5, 8])

    def test_equal_peaks_inside_the_gap_keep_the_earlier(self):
        x = np.zeros(20)
        x[[5, 7]] = 1.0
        np.testing.assert_array_equal(detect_r_peaks(Signal(x, 10.0)), [5])

    @given(fs=st.floats(1.0, 1000.0), n=st.integers(3, 3000),
           spike_rate=st.sampled_from([0.0, 0.01, 0.2]),
           seed=st.integers(0, 2**32 - 1))
    def test_strictly_increasing_with_refractory_gap(self, fs, n, spike_rate, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0, 1, n) + 8.0 * (rng.random(n) < spike_rate)
        peaks = detect_r_peaks(Signal(samples, fs))
        assert np.all(np.diff(peaks) >= np.ceil(0.3 * fs))


class TestRrFromPeaks:
    def test_uniform_spacing(self):
        rr = rr_from_peaks(np.array([100, 200, 300]), 100.0)
        np.testing.assert_array_equal(rr.intervals, [1000.0, 1000.0])

    def test_mixed_spacing(self):
        rr = rr_from_peaks(np.array([0, 50, 150]), 100.0)
        np.testing.assert_array_equal(rr.intervals, [500.0, 1000.0])

    def test_too_few_peaks(self):
        with pytest.raises(InsufficientDataError):
            rr_from_peaks(np.array([100, 200]), 100.0)

    def test_non_increasing_peaks(self):
        with pytest.raises(ParameterError):
            rr_from_peaks(np.array([100, 100, 200]), 100.0)

    @given(start=st.integers(0, 10**6),
           gaps=st.lists(st.integers(1, 10**4), min_size=2, max_size=60),
           fs=st.floats(1.0, 2000.0), data=st.data())
    def test_length_and_positivity(self, start, gaps, fs, data):
        peaks = start + np.cumsum([0, *gaps])
        rr = rr_from_peaks(peaks, fs)
        assert len(rr) == peaks.size - 1
        np.testing.assert_array_equal(rr.intervals, np.diff(peaks) / fs * 1000.0)
        assert np.all(rr.intervals > 0)
        i = data.draw(st.integers(0, peaks.size - 1), label="repeated")
        with pytest.raises(ParameterError):
            rr_from_peaks(np.insert(peaks, i + 1, peaks[i]), fs)


class TestFullChain:
    def test_heartbeat_intervals_recovered(self):
        """The complete cleaning chain gets the beat rate right.

        Individual peak positions may shift a sample or two, so the
        check is on the mean interval, not sample-exact indices.
        """
        intervals = np.full(40, 999.0)
        sig, _ = synthetic_heartbeat(intervals, fs=100.0, noise_std=0.01)
        rr = signal_to_rr(sig)
        assert len(rr) >= 35
        assert abs(np.mean(rr.intervals) - 999.0) < 30.0

    def test_deterministic(self):
        sig, _ = synthetic_heartbeat(np.full(20, 950.0), fs=100.0,
                                     noise_std=0.01, seed=9)
        first = signal_to_rr(sig)
        second = signal_to_rr(sig)
        np.testing.assert_array_equal(first.intervals, second.intervals)


class TestEndWindowFalseBeat:
    """A spike in a record's last half window can become a false beat.

    Reported in CHANGES.md with the benchmark's finding in the signal
    chain. Near the end, the Hampel window is cut short and still holds
    the last beat, so its median sits high on the wave. Repairing a
    trough spike with that median leaves a sample that stands above its
    neighbours and above the detector's threshold: one extra beat. The
    same spike one window further in is repaired harmlessly. Fixing this
    changes the outputs of the signal chain, so it is pinned here and
    left open.
    """

    INTERVALS = np.full(10, 1000.0)

    def _rr_with_spike(self, index):
        sig, _ = synthetic_heartbeat(self.INTERVALS, fs=100.0, noise_std=0.0)
        samples = sig.samples.copy()
        samples[index] -= 5.0
        return signal_to_rr(Signal(samples, sig.fs))

    def test_interior_spike_is_repaired(self):
        rr = self._rr_with_spike(584)
        np.testing.assert_array_equal(rr.intervals, self.INTERVALS)

    @pytest.mark.xfail(strict=True, reason="shrunk end window repairs a "
                       "trough spike into a false beat; see CHANGES.md")
    def test_spike_in_last_half_window_is_repaired(self):
        rr = self._rr_with_spike(1084)
        np.testing.assert_array_equal(rr.intervals, self.INTERVALS)
