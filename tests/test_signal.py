import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import ndimage  # the oracle of the rolling windows and the running median
from scipy import signal as sps  # the oracle of the low-pass taps

import codel.signal
from codel.datasets import synthetic_heartbeat
from codel.errors import InsufficientDataError, ParameterError
from codel.signal import (
    MAD_SCALE,
    MAX_RR_MS,
    RrSeries,
    Signal,
    _lowpass_taps,
    _rolling_max,
    _rolling_mean,
    detect_r_peaks,
    hampel_filter,
    lowpass,
    rr_from_peaks,
    signal_to_rr,
    standardize,
)

from oracles import hampel_reference, synthetic_pulse_train


def _pulse_record(rng, beats, fs=250.0):
    """A clean ECG-like record of `beats` beats, 800-1000 ms apart, that
    starts and ends in a trough half a cycle from a beat: a two-harmonic
    wave with a 15 ms bump on each peak, and noise of 0.04.

    Returns (samples, beat indices)."""
    rr = rng.uniform(800.0, 1000.0, beats)
    beats_ms = rr[0] / 2.0 + np.concatenate([[0.0], np.cumsum(rr[:-1])])
    t_ms = np.arange(int((beats_ms[-1] + rr[-1] / 2.0) * fs / 1000.0)) * 1000.0 / fs
    cycle = np.clip(np.searchsorted(beats_ms, t_ms, side="right") - 1, 0, beats - 1)
    since = t_ms - beats_ms[cycle]
    phase = 2.0 * np.pi * since / rr[cycle]
    to_beat = np.minimum(np.abs(since), np.abs(rr[cycle] - since))
    samples = 0.8 * (np.cos(phase) - 0.15 * np.cos(2.0 * phase)) + 0.3
    samples += np.exp(-0.5 * (to_beat / 15.0) ** 2) + rng.normal(0.0, 0.04, t_ms.size)
    return samples, np.round(beats_ms * fs / 1000.0).astype(int)


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

    def test_rr_series_refuses_intervals_over_a_minute(self):
        assert RrSeries(np.array([800.0, MAX_RR_MS])).intervals[1] == 60_000.0
        for longest in (np.nextafter(MAX_RR_MS, np.inf), 61_000.0, 1e160):
            with pytest.raises(ParameterError) as info:
                RrSeries(np.array([800.0, longest, 900.0]))
            assert str(info.value) == ("intervals must be at most 60000 ms (one beat a minute), "
                                       f"got {float(longest)} ms")

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
        padded = np.pad(x, hw, mode="symmetric")
        for i in range(x.size):
            window = padded[i: i + 2 * hw + 1]
            if x[i] == np.median(window):
                assert out.samples[i] == x[i]

    @pytest.mark.parametrize("half_window, n", [(2000, 4011), (10**6, 5)])
    def test_scratch_memory_is_bounded(self, half_window, n):
        """Windows are sorted a chunk at a time, and a half window of n
        or more acts as n - 1. All 4,011 windows of width 4,001 at once
        would take 128 MB; a million-sample half window padded in full
        would take 16 MB on a 5-sample signal, and its one window as
        much again."""
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
        """The screen and the exact pass each gather their windows one
        scratch chunk at a time, with index arrays no longer than a
        chunk. Three minutes at 250 Hz with the default half window then
        peaks near 1.5 MB: the padded copy, the output and one chunk of
        sorted windows. Five per-sample index arrays took an earlier
        filter to 3.57 MB, and whole-record index arrays took the screen
        to 3.15 MB."""
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


class TestHampelScreen:
    """The screen certifies whole groups of 2r + 1 samples off one sorted
    anchor window; only the other groups reach the exact pass."""

    @staticmethod
    def _certified(x, half_window, n_sigmas):
        """The samples the screen's rule certifies, one anchor at a time
        with ``np.sort``: a group is certified when at most h - r entries
        of its anchor's window lie within the group's bound of [lo, hi]."""
        h = min(half_window, x.size - 1)
        r = min(codel.signal._REACH, h)
        scale = n_sigmas * MAD_SCALE
        padded = np.pad(x, h, mode="symmetric")
        certified = np.zeros(x.size, dtype=bool)
        for first in range(0, x.size, 2 * r + 1):
            anchor = min(first + r, x.size - 1)
            s = np.sort(padded[anchor: anchor + 2 * h + 1])
            lo, hi = s[h - r], s[h + r]
            group = x[first: first + 2 * r + 1]
            bound = max(np.abs(group - lo).max(), np.abs(group - hi).max())
            distance = np.where(s < lo, lo - s, np.where(s > hi, s - hi, 0.0))
            if np.count_nonzero(scale * distance < bound) <= h - r:
                certified[first: first + 2 * r + 1] = True
        return certified

    @staticmethod
    def _spy(monkeypatch):
        """Record every sample that reaches the exact pass."""
        reached = []
        exact_pass = codel.signal._exact_pass

        def spy(windows, samples, scale, out):
            reached.extend(samples.tolist())
            return exact_pass(windows, samples, scale, out)

        monkeypatch.setattr(codel.signal, "_exact_pass", spy)
        return reached

    @pytest.mark.parametrize("seed", [0, 1])
    def test_certified_samples_never_reach_the_exact_pass(self, monkeypatch, seed):
        """On a 20 s, 250 Hz pulse record with spikes, the samples that
        reach the exact pass are exactly those the rule leaves open, each
        once, and they are under a tenth of the record."""
        rng = np.random.default_rng(seed)
        x = _pulse_record(rng, beats=22)[0]
        x[rng.choice(x.size, 20, replace=False)] -= rng.uniform(3.0, 6.0, 20)
        reached = self._spy(monkeypatch)
        out = hampel_filter(Signal(x, 250.0), 125).samples
        assert np.array_equal(out, hampel_reference(x, 125))
        assert sorted(reached) == np.flatnonzero(~self._certified(x, 125, 3.0)).tolist()
        assert len(reached) < x.size / 10

    @given(hampel_cases())
    def test_spy_matches_the_rule_on_drawn_records(self, case):
        x, half_window, n_sigmas = case
        with pytest.MonkeyPatch.context() as patch:
            reached = self._spy(patch)
            out = hampel_filter(Signal(x, 100.0), half_window, n_sigmas).samples
        assert np.array_equal(out, hampel_reference(x, half_window, n_sigmas))
        assert sorted(reached) == np.flatnonzero(~self._certified(x, half_window, n_sigmas)).tolist()

    # One period of 41 samples: 16 at -1, 9 at 0, 16 at +1. Every window
    # of 41 holds one period, so its median is 0 and its MAD is 1.
    PERIOD = np.array([-1.0, 0.0, 1.0] * 5 + [-1.0] * 11 + [0.0] * 4 + [1.0] * 11)

    def test_certificate_is_exact_to_the_ulp(self, monkeypatch):
        """At n_sigmas = 1 / 1.4826 the scale is exactly 1. An anchor's
        lo and hi are 0, and the (h - r + 1)-th smallest distance to them
        is 1, so a group whose largest |x| is 1 is certified with no room
        to spare: a ±1 sample sits on its threshold, gap == MAD, and
        stays. One ulp more sends only that sample's group to the exact
        pass, which repairs it. A rounding margin in the certificate
        would send every group of ±1 samples there too."""
        assert sorted(self.PERIOD.tolist()) == [-1.0] * 16 + [0.0] * 9 + [1.0] * 16
        x = np.tile(self.PERIOD, 6)
        interior = slice(41, x.size - 41)
        reached = self._spy(monkeypatch)
        kept = hampel_filter(Signal(x, 100.0), 20, UNIT_THRESHOLD).samples
        assert np.array_equal(kept[interior], x[interior])
        assert not any(41 <= i < x.size - 41 for i in reached)
        assert np.all(self._certified(x, 20, UNIT_THRESHOLD)[interior])

        reached.clear()
        bumped = x.copy()
        i = 41 * 3 + 2
        bumped[i] = np.nextafter(1.0, 2.0)
        out = hampel_filter(Signal(bumped, 100.0), 20, UNIT_THRESHOLD).samples
        assert np.array_equal(out, hampel_reference(bumped, 20, UNIT_THRESHOLD))
        assert out[i] == 0.0 and np.array_equal(np.delete(out, i), np.delete(kept, i))
        first = i - i % 9
        assert [j for j in reached if 41 <= j < x.size - 41] == list(range(first, first + 9))

    def test_rank_margin_is_kept(self):
        """The anchor's own test passes a sample its neighbour's window
        fails. The anchor window (samples 14-30, h = 8) holds four -1s,
        eight 0s, four +1s and the 3 at sample 23: median 0, MAD 1, so
        3 passes at 3 * 1.4826. Sample 23's window drops the +1 at 14
        and adds the 0 at 31: nine 0s make its MAD 0, so the 3 is an
        outlier. A screen that read the median and MAD off the anchor,
        without the r-rank margin, would certify sample 23 and keep it."""
        x = np.zeros(50)
        x[[15, 17, 28, 30]] = -1.0
        x[[14, 16, 27, 29]] = 1.0
        x[23] = 3.0
        out = hampel_filter(Signal(x, 100.0), 8).samples
        assert out[23] == 0.0
        assert np.array_equal(out, hampel_reference(x, 8))


class TestButterworthLowpass:
    """The low-pass contract that the Butterworth cascade met and the
    windowed-sinc FIR that replaced it keeps: unit DC gain, Nyquist
    removed, linearity, and no rate at or below twice the cutoff. The
    class keeps its name so that these test ids stay stable."""

    def test_dc_passthrough(self):
        """The taps sum to 1 within a few ulps, so a constant keeps its
        value to rounding, at the ends too, which repeat the end values."""
        for fs in (51.0, 100.0, 250.0, 1000.0):
            assert abs(np.sum(_lowpass_taps(fs)) - 1.0) <= 4 * np.finfo(float).eps
            out = lowpass(Signal(np.full(600, 2.5), fs))
            np.testing.assert_allclose(out.samples, 2.5, rtol=1e-14)

    def test_cutoff_gain_is_one_half(self):
        """A windowed sinc passes half the amplitude at its cutoff."""
        fs = 100.0
        t = np.arange(int(10 * fs)) / fs
        out = lowpass(Signal(np.sin(2 * np.pi * 25.0 * t), fs))
        assert abs(_steady_amplitude(out.samples, fs) - 0.5) < 0.01

    @pytest.mark.parametrize("fs", [100.0, 250.0])
    def test_passband_and_stopband(self, fs):
        """Within 1% of unit gain at 5 and 10 Hz, and under 0.5% from
        16 Hz above the cutoff, in the Hamming window's stopband. The
        gain is read one second away from both ends."""
        t = np.arange(int(10 * fs)) / fs
        for freq, low, high in ((5.0, 0.99, 1.01), (10.0, 0.99, 1.01), (41.0, 0.0, 0.005),
                                (45.0, 0.0, 0.005), (49.0, 0.0, 0.005)):
            out = lowpass(Signal(np.sin(2 * np.pi * freq * t), fs)).samples
            middle = out[int(fs):-int(fs)]
            assert low <= np.sqrt(2.0 * np.mean(middle ** 2)) < high

    def test_nyquist_annihilated(self):
        fs = 100.0
        t = np.arange(int(10 * fs)) / fs
        sig = Signal(np.sin(2 * np.pi * 50.0 * t), fs)
        out = lowpass(sig)
        assert _steady_amplitude(out.samples, fs) < 1e-6

    @pytest.mark.parametrize("fs", [51.0, 250.0, 1000.0])
    def test_impulse_response_is_the_taps_centred_on_the_impulse(self, fs):
        """Output i is centred on sample i: no phase shift, so a beat's
        peak stays where it was. An impulse comes back as the taps, bit
        for bit, with the middle tap on the impulse."""
        taps = _lowpass_taps(fs)
        half = taps.size // 2
        x = np.zeros(3 * taps.size)
        x[taps.size] = 1.0
        out = lowpass(Signal(x, fs)).samples
        assert out[taps.size - half: taps.size + half + 1].tobytes() == taps.tobytes()
        assert np.argmax(out) == taps.size

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 500)
        y = rng.normal(0, 1, 500)
        a, b = 2.5, -1.25
        fs = 100.0
        combined = lowpass(Signal(a * x + b * y, fs))
        separate = (
            a * lowpass(Signal(x, fs)).samples
            + b * lowpass(Signal(y, fs)).samples
        )
        np.testing.assert_allclose(combined.samples, separate, atol=1e-9)

    @given(samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300),
           k=st.integers(-900, 900), fs=st.sampled_from([51.0, 100.0, 250.0, 360.0]))
    def test_power_of_two_scales_the_output_exactly(self, samples, k, fs):
        """2^k times a record filters to 2^k times its output, bit for
        bit, while every product stays normal: the taps are fixed, so
        each product and each partial sum only shifts its exponent."""
        x = np.round(np.array(samples), 3)
        got = lowpass(Signal(np.ldexp(x, k), fs)).samples
        assert got.tobytes() == np.ldexp(lowpass(Signal(x, fs)).samples, k).tobytes()

    @pytest.mark.parametrize("fs", [50.0, 49.9, 1.0])
    def test_rate_at_or_below_twice_the_cutoff_is_refused(self, fs):
        """At fs = 50 the 25 Hz cutoff sits at Nyquist."""
        with pytest.raises(ParameterError, match=f"^sampling rate fs .* got fs={fs}$"):
            lowpass(Signal(np.ones(100), fs))

    def test_long_record_holds_one_padded_copy(self):
        """Three minutes at 250 Hz peak near 0.75 MB above the input: the
        output, one copy of the record padded by 20 samples at each end,
        and under 50 KB besides, of which one 32 KB block of products. The IIR cascade this filter replaced,
        holding one block of Python floats, peaked near 0.63 MB, and its
        record-wide lists 6.16 MB."""
        rng = np.random.default_rng(6)
        sig = Signal(np.sin(np.arange(45_000) / 40.0) ** 15 + 0.05 * rng.normal(size=45_000),
                     250.0)
        tracemalloc.start()
        try:
            lowpass(sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * 45_000 + 40) + 50_000


class TestLowpassMatchesScipy:
    """The numpy taps are bit-equal to scipy's ``firwin``, and the filter
    to one dot product per output. The rate is drawn as fs = 50 / where,
    so `where` is the cutoff's fraction of Nyquist."""

    @given(where=st.one_of(st.floats(1e-4, 1e-2), st.floats(1e-3, 1.0),
                           st.floats(0.99, 1.0 - 1e-9)))
    @example(where=0.2)
    @example(where=1e-3)
    @example(where=5e-5)
    @example(where=0.05)
    @example(where=50.0 / 360.0)
    @example(where=1.0 - 1e-9)
    def test_taps_equal_firwin(self, where):
        fs = 50.0 / where
        if not fs > 50.0:
            return
        got = _lowpass_taps(fs)
        n = 2 * int(np.ceil(2 * fs / 25.0)) + 1
        assert got.tobytes() == sps.firwin(n, 25.0, window="hamming", fs=fs).tobytes()

    @given(where=st.floats(0.01, 0.99),
           samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=400),
           magnitude=st.sampled_from([1e-3, 1.0, 37.5, 1e4]))
    @example(where=0.2, samples=[1.0], magnitude=1e4)
    @example(where=0.875, samples=[0.75], magnitude=1e-3)
    def test_filter_equals_per_output_dot(self, where, samples, magnitude):
        """Output i is the dot product of firwin's taps, reversed, with
        the record's samples i - n // 2 to i + n // 2, end values
        repeated, its products added one by one from 0.0 in the order of
        the samples, at every rate: no BLAS kernel picks the order."""
        x = np.array(samples) * magnitude
        fs = 50.0 / where
        got = lowpass(Signal(x, fs)).samples
        taps = sps.firwin(2 * int(np.ceil(2 * fs / 25.0)) + 1, 25.0, window="hamming", fs=fs)
        reversed_taps = taps[::-1].copy()
        padded = np.pad(x, taps.size // 2, mode="edge")
        want = np.array([sum((padded[i:i + taps.size] * reversed_taps).tolist(), 0.0)
                         for i in range(x.size)])
        assert got.dtype == np.float64 and got.shape == x.shape
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
    medians equal scipy.ndimage's, up to the sign of a zero."""

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
        outlier, so the output is the running median over the whole
        record, ends included: ndimage's "reflect" mode is numpy's
        "symmetric" pad. A half window of n or more acts as n - 1.
        Neither scale warns, so the screen never divides by the scale."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(codel.signal, "MAD_SCALE", 0.0)
                medians = hampel_filter(Signal(x, 100.0), half_window).samples
            size = 2 * min(half_window, x.size - 1) + 1
            want = ndimage.median_filter(x, size=size, mode="reflect")
            assert np.array_equal(medians, want)
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
        record is pre-filtered by the pipeline's own low-pass, which
        shifts no peak.
        """
        for seed in range(5):
            sig, true_peaks = synthetic_pulse_train(
                duration_s=30.0, fs=100.0, pulse_width_s=0.03,
                noise_std=0.1, seed=seed,
            )
            peaks = detect_r_peaks(lowpass(standardize(sig)))
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
        """Peaks more than a minute apart give an interval over
        `MAX_RR_MS`, which is refused by name."""
        peaks = start + np.cumsum([0, *gaps])
        intervals = np.diff(peaks) / fs * 1000.0
        if intervals.max() > MAX_RR_MS:
            with pytest.raises(ParameterError, match="intervals must be at most 60000 ms"):
                rr_from_peaks(peaks, fs)
        else:
            rr = rr_from_peaks(peaks, fs)
            assert len(rr) == peaks.size - 1
            np.testing.assert_array_equal(rr.intervals, intervals)
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



    def test_flat_record_is_refused_by_name(self):
        """A record whose samples are all equal holds no beats, at any
        offset, and says so."""
        for value in (0.0, 3.0, -1e13):
            with pytest.raises(InsufficientDataError, match="^flat record: all 1000 samples equal"):
                signal_to_rr(Signal(np.full(1000, value), 100.0))


class TestEndWindowFalseBeat:
    """A spike in a record's last half window is repaired like any other.

    The Hampel filter runs before the low-pass, so it sees the spike one
    sample wide, and its window at the end is as wide as anywhere else,
    extended by the record's mirror image. Run after the low-pass, with
    the end window cut short and still holding the last beat, the same
    spike was smeared, "repaired" with a median high on the wave, and
    left a sample standing above the threshold: one extra beat.
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

    def test_spike_in_last_half_window_is_repaired(self):
        rr = self._rr_with_spike(1084)
        np.testing.assert_array_equal(rr.intervals, self.INTERVALS)


class TestSingleSpike:
    """One downward spike, of any depth, anywhere in a clean 10-beat,
    100 Hz record leaves the beat count true.

    The rule for the intervals: a spike on the QRS, within 0.12 s of a
    beat's peak, may move that beat, by at most 0.1 s, and with it the
    two intervals it bounds. Every other interval lands within 2 samples
    of the truth. A spike on the steep flank of a peak can fall short of
    3 scaled MADs and stay, or its repair can leave a dip beside the
    peak; either way the low-pass then pulls the peak off its sample.
    """

    INTERVALS = np.full(10, 1000.0)
    PEAKS = 50 + 100 * np.arange(11)

    @given(position=st.integers(0, 1099),
           depth=st.one_of(st.floats(0.05, 12.0), st.floats(12.0, 1e6)))
    @example(position=1084, depth=5.0)
    @example(position=1084, depth=9.0)
    @example(position=1099, depth=9.0)
    @example(position=0, depth=9.0)
    @example(position=550, depth=5.0)
    @example(position=557, depth=3.0)
    @example(position=539, depth=3.0)
    def test_true_count_and_intervals_off_the_qrs_within_two_samples(self, position, depth):
        sig, _ = synthetic_heartbeat(self.INTERVALS, fs=100.0, noise_std=0.0)
        x = sig.samples.copy()
        x[position] -= depth
        rr = signal_to_rr(Signal(x, 100.0)).intervals
        assert rr.size == self.INTERVALS.size
        error = np.abs(rr - self.INTERVALS) / 10.0
        beat = int(np.argmin(np.abs(self.PEAKS - position)))
        if abs(self.PEAKS[beat] - position) <= 12:
            bounded = [k for k in (beat - 1, beat) if 0 <= k < rr.size]
            assert np.all(error[bounded] <= 10)
            error = np.delete(error, bounded)
        assert np.all(error <= 2)


class TestCleanRecordEndingInATrough:
    """A clean record that starts and ends in a trough keeps its count.

    This is the shape of the bench's seed-5 record 1. With the Hampel
    filter first and its end windows cut short, 3 of these 32 records
    (seeds 72, 73 and 90) gained a false beat 16 to 22 samples from the
    end: the cut window held the last beat's descent and little of the
    trough, so its median sat up the wave, and repairing the trough's
    lowest samples with it made a local maximum there."""

    def test_count_is_kept(self):
        for seed in range(64, 96):
            x, beats = _pulse_record(np.random.default_rng(seed), beats=20)
            rr = signal_to_rr(Signal(x, 250.0))
            assert len(rr) == beats.size - 1, seed
            np.testing.assert_allclose(rr.intervals, np.diff(beats) * 4.0, atol=8.0)


class TestClippedTroughIsNoBeat:
    """The golden records' wave, cos φ - 0.15 cos 2φ, has troughs much
    sharper than its flat tops. The Hampel filter clips each trough's
    lowest samples to the window median, high on the wave, and the
    low-pass rounds that plateau into a bump that stands above the
    threshold. No beat may rest on a repaired sample, so the bump is
    dropped. Without that rule, 39 of these 40 records gained beats (163
    in all), and the two pinned records went 44 -> 47 and 199 -> 206.

    The rule for a record: each beat inside it has a peak within 0.1 s,
    and each other peak lies in the record's last 0.15 s, before a beat
    past its end. There the wave rises to a beat that the record cuts off,
    and noise can leave a local maximum on the rise: one peak 2 to 6
    samples from the end, for a beat 21 to 120 ms past it, in the 100 Hz
    pinned record, at seeds 12 and 18 at 100 Hz and at seed 1 at 250 Hz.
    The earlier chain, the low-pass first, put 6 false beats inside 6 of
    these records and 3 more 0.10 to 0.12 s from the end.
    """

    @pytest.mark.parametrize("fs, beats, spikes", [(100.0, 44, 12), (250.0, 198, 54)])
    def test_every_beat_found_and_no_other(self, monkeypatch, fs, beats, spikes):
        from test_golden import _raw_signal

        found = []

        def spy(peaks, fs):
            found.append(peaks)
            return rr_from_peaks(peaks, fs)

        monkeypatch.setattr(codel.signal, "rr_from_peaks", spy)
        case = "extract-signal" if fs == 100.0 else "extract-signal-250hz"
        for seed in [*range(20), [20230504, *case.encode()]]:
            x = _raw_signal(np.random.default_rng(seed), fs, beats, spikes)
            # The generator's first draw is its intervals. Past the last
            # beat they place, the wave goes on with the last interval.
            rr = np.random.default_rng(seed).uniform(800.0, 1000.0, beats)
            wave = (500.0 + np.cumsum([0.0, *rr, *np.full(4, rr[-1])])) * fs / 1000.0
            signal_to_rr(Signal(x, fs))
            peaks = found.pop()
            inside = wave[wave <= x.size - 1]
            near = np.abs(inside[:, None] - peaks) <= 0.1 * fs
            assert np.all(np.any(near, axis=1)), seed
            others = peaks[~np.any(near, axis=0)]
            assert np.all(others >= x.size - 0.15 * fs), seed
