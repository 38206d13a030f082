"""Single-channel signal cleaning and beat-to-beat interval extraction.

The processing chain used by the feature pipeline is:

    standardize -> hampel_filter -> lowpass -> detect_r_peaks
    -> rr_from_peaks

Outlier repair runs first, on the raw waveform, where a spike is still
one sample wide and its windows are dominated by the true signal. A
low-pass run first would smear the spike over its taps into a bump that
the Hampel filter no longer sees as one outlier, and whose repair can
stand above the trough around it as a false beat. The Hampel windows are
all full width: the record is extended at each end by its mirror image,
so no window near an end is cut short and none of them gets a median
pulled up the wave by the last beat. The low-pass then smooths what the
repair leaves, with no phase shift to move the beats. A run of repaired
samples, as when the filter clips a trough much sharper than the rest of
the wave, reaches the low-pass as a plateau at the window median, which
it rounds into a bump that can pass for a beat. A repaired sample holds
its window's median, not a feature of the wave, so `signal_to_rr` takes
no beat whose peak sits on one.

The module is numpy and Python floats alone. The low-pass is one fixed
linear-phase filter, a Hamming-windowed sinc at `LOWPASS_HZ` with no
settings, whose taps are bit-equal to ``scipy.signal.firwin``'s. It adds
each output's products in one fixed order, with no BLAS call, so its
bits do not depend on the machine. The peak detector's rolling mean and max are
bit-equal to ``scipy.ndimage``'s filters. The Hampel filter sorts each
window it has to, reads the median and the MAD test off the sorted row
by one count rule, and skips the sort wherever a cheaper certificate,
read off one sorted window in every ``2 * _REACH + 1``, proves that the
sample stays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError

__all__ = [
    "Signal",
    "RrSeries",
    "standardize",
    "hampel_filter",
    "lowpass",
    "detect_r_peaks",
    "rr_from_peaks",
    "signal_to_rr",
]

# Scale factor relating the median absolute deviation to the standard
# deviation of a Gaussian.
MAD_SCALE = 1.4826

# Minimum spacing between accepted beats, in seconds.
REFRACTORY_S = 0.3

# How far a beat's peak must reach from the rolling mean to the rolling max.
THRESHOLD_FRACTION = 0.4

# The longest inter-beat interval taken, in ms; `RrSeries` says why.
MAX_RR_MS = 60_000.0

# The Hampel filter sorts its windows in chunks of about this many
# doubles: 358 of the 251-sample windows of a 250 Hz record. Each step of
# its binary search costs a fixed amount per chunk, so larger chunks are
# faster, and this size keeps the scratch near 0.7 MB.
_CHUNK_DOUBLES = 90_000

# The Hampel filter's screen sorts one window in every 2 * _REACH + 1 and
# certifies the samples up to _REACH places either side of it at once.
# At 4 it decided 96.6% of the samples of six bench records, at 2 98.6%
# and at 8 87.3%; 4 to 6 ran about equally fast.
_REACH = 4

# The low-pass cutoff, in Hz. Rates at or below twice it are refused.
LOWPASS_HZ = 25.0

# The low-pass sums its products over blocks of this many outputs, so its
# scratch is one block of products, 32 KB. Blocks of 4,096 and 8,192 ran
# as fast as the whole record at once, and blocks of 2,048 2.5x slower.
_LOWPASS_BLOCK = 4096


@dataclass(frozen=True)
class Signal:
    """A finite, uniformly sampled single-channel signal."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ParameterError("signal must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("signal contains non-finite samples")
        if not (0 < self.fs < np.inf):
            raise ParameterError(f"sampling rate must be positive and finite, got {self.fs}")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class RrSeries:
    """Ordered inter-beat intervals in milliseconds.

    Each is finite, positive and at most `MAX_RR_MS`, a minute: one beat
    a minute is far outside any heart rhythm, so a longer interval is a
    unit or file error. Left in, it would also size `breathing_rate`'s
    4 Hz tachogram and its zero-padded FFT past any memory.
    """

    intervals: np.ndarray

    def __post_init__(self):
        intervals = np.asarray(self.intervals, dtype=float)
        if intervals.ndim != 1:
            raise ParameterError("interval sequence must be 1-D")
        if not np.all(np.isfinite(intervals)) or np.any(intervals <= 0):
            raise ParameterError("intervals must be finite and strictly positive")
        if np.any(intervals > MAX_RR_MS):
            raise ParameterError(f"intervals must be at most {MAX_RR_MS:g} ms (one beat a "
                                 f"minute), got {float(intervals.max())} ms")
        object.__setattr__(self, "intervals", intervals)

    def __len__(self):
        return self.intervals.size

    @property
    def duration_ms(self) -> float:
        return float(np.sum(self.intervals))


def standardize(signal: Signal) -> Signal:
    """Rescale to zero mean and unit population standard deviation.

    The record is first scaled by the exact power of two that brings its
    largest magnitude into [0.5, 1), so the mean and the std neither
    overflow nor underflow, and 2^k times a record standardizes to the
    same bits for every k that keeps its samples finite and normal. A
    flat record, all of whose samples are equal, maps to all zeros, so
    batch pipelines stay total on it; `signal_to_rr` refuses it by name.
    Any other record has a positive std, at any offset: after the
    prescale, some sample lies at least 2^-54 from the mean, and the
    square of that cannot underflow.
    """
    x = np.ldexp(signal.samples, -np.frexp(np.abs(signal.samples).max())[1])
    if x.max() == x.min():
        return Signal(np.zeros_like(x), signal.fs)
    std = float(np.std(x))
    # In place, so the peak is the scaled copy and np.std's scratch.
    x -= np.mean(x)
    return Signal(np.divide(x, std, out=x), signal.fs)


def hampel_filter(signal: Signal, half_window: int, n_sigmas: float = 3.0) -> Signal:
    """Replace outliers with their windowed median.

    A sample is an outlier when its deviation from the median of its
    window exceeds ``n_sigmas * 1.4826 * MAD``. Every window holds the
    ``2h + 1`` samples centred on its sample, h the half window, in the
    record extended at each end by its mirror image
    (``np.pad(mode="symmetric")``, which repeats the end sample). A half
    window of n or more samples, n the record's length, acts as n - 1,
    the widest that one reflection covers.

    **The exact pass.** A window is sorted once, so its entry h is the
    median. With ``scale = n_sigmas * 1.4826`` and ``gap = |x -
    median|``, call a sorted entry s within the gap when ``fl(scale * |s
    - median|) < gap``. The rounded product never decreases as ``|s -
    median|`` grows, so the entries within the gap are one run of the
    sorted row around entry h, and the MAD (the (h + 1)-th smallest
    deviation) is within the gap exactly when that run holds h + 1
    entries (`_crowded`). The output is a per-sample loop's up to the
    sign of a zero-valued replacement.

    **The screen.** Most samples never reach that pass. With r =
    `_REACH`, the record is cut into groups of 2r + 1 samples, and only
    the window of each group's middle sample, the anchor, is sorted. A
    window up to r places away differs from the anchor's by at most r
    samples out and r in, so its median lies in [lo, hi], the anchor's
    sorted entries h - r and h + r, and its MAD is at least the
    (h - r + 1)-th smallest distance from the anchor's entries to
    [lo, hi]. So with G the largest ``max(|x - lo|, |x - hi|)`` over the
    group, each of its samples has ``gap <= G``, and when at most h - r
    of the anchor's entries s have ``fl(scale * dist(s, [lo, hi])) <
    G``, each has ``G <= fl(scale * MAD)`` too and keeps x. Every
    rounded operation on the way is monotone, so the certificate needs no
    rounding margin, and it only multiplies by scale, so a zero scale
    divides nothing. Only the samples of the groups it leaves open go
    through the exact pass, so the output is the exact pass's bit for
    bit. The 2r + 1 entries in [lo, hi] are at distance 0, so a group
    whose G is above 0 can be certified only when h >= 3r + 1. At worst,
    when no group is certified, the screen sorts one window more per
    2r + 1 samples.

    Each product it forms is at most ``scale`` times the signal's range,
    so an ``n_sigmas`` that makes that bound overflow (``inf``, or
    ``1e308`` on a range above about 1.21), or a NaN, raises ParameterError.
    """
    if half_window < 1:
        raise ParameterError("half_window must be >= 1")
    x = signal.samples
    # Python floats, so an overflow gives inf, not a warning.
    scale = float(n_sigmas) * MAD_SCALE
    if not (n_sigmas > 0 and scale * (float(x.max()) - float(x.min())) < np.inf):
        raise ParameterError(
            f"n_sigmas must be positive, and n_sigmas * {MAD_SCALE} times the "
            f"signal's range finite, got {n_sigmas}"
        )
    n = x.size
    half_window = min(half_window, n - 1)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, half_window, mode="symmetric"), 2 * half_window + 1)
    reach = min(_REACH, half_window)
    group = 2 * reach + 1
    chunk_rows = _chunk_rows(2 * half_window + 1)
    out = x.copy()
    for start in range(0, n, chunk_rows * group):
        opened = _open_groups(windows, x, start, min(start + chunk_rows * group, n), reach, scale)
        samples = (opened[:, None] + np.arange(group)).ravel()
        samples = samples[samples < n]
        for at in range(0, samples.size, chunk_rows):
            _exact_pass(windows, samples[at:at + chunk_rows], scale, out)
    return Signal(out, signal.fs)


def _open_groups(windows: np.ndarray, x: np.ndarray, start: int, stop: int, reach: int,
                 scale: float) -> np.ndarray:
    """The first samples of the groups of ``2 * reach + 1`` samples from
    `start` up to `stop` that the screen does not certify."""
    half_window = windows.shape[1] // 2
    firsts = np.arange(start, stop, 2 * reach + 1)
    # Each group's anchor is its middle sample, except that a last group
    # of reach samples or fewer takes the record's last sample.
    anchors = windows[start + reach:stop + reach:2 * reach + 1]
    rows = np.empty((firsts.size, windows.shape[1]))
    rows[:len(anchors)] = anchors
    rows[len(anchors):] = windows[-1]
    rows.sort(axis=1)
    hi = rows[:, half_window + reach]
    top = np.maximum.reduceat(x[start:stop], firsts - start)
    bottom = np.minimum.reduceat(x[start:stop], firsts - start)
    # G: since lo <= hi, the largest of |x - lo| and |x - hi| over the
    # group is top - lo or hi - bottom, and rounding keeps that order.
    bound = np.maximum(top - rows[:, half_window - reach], hi - bottom)
    return firsts[_crowded(rows, half_window - reach, hi, bound, scale)]


def _exact_pass(windows: np.ndarray, samples: np.ndarray, scale: float,
                out: np.ndarray) -> None:
    """Sort the windows of `samples` and replace each outlier among them
    in `out` by its median. `out` still holds these samples' own values,
    as each sample passes through here at most once."""
    rows = windows[samples]
    rows.sort(axis=1)
    middle = rows[:, rows.shape[1] // 2]
    outlier = _crowded(rows, rows.shape[1] // 2, middle, np.abs(out[samples] - middle), scale)
    out[samples[outlier]] = middle[outlier]


def _crowded(rows: np.ndarray, j: int, right: np.ndarray, bound: np.ndarray,
             scale: float) -> np.ndarray:
    """Whether each sorted row of `rows` holds more than j entries s with
    ``fl(scale * dist(s, [left, right])) < bound``, where left is the
    row's entry j and `right` is at least left.

    Those entries are one run of the sorted row, which holds entry j
    when bound > 0. A binary search finds the run's first entry left of
    j, and the entry j places to its right is in the run exactly when
    more than j entries are.
    """
    width = rows.shape[1]
    flat = rows.ravel()
    first = np.arange(0, flat.size, width)
    left = flat.take(first + j)
    pos = first.copy()
    # pos starts at each row's first entry and moves right past the
    # entries left of j that lie outside the bound. A probe at or right of
    # j gives left - s <= 0, never at or above a bound > 0, so pos stops
    # at entry j at most. Each probe reads entry pos + step - 1.
    for step in [1 << k for k in reversed(range(j.bit_length()))]:
        probe = flat[step - 1:].take(pos)
        # Left of entry j, dist(s, [left, right]) is left - s, bit for bit.
        np.subtract(left, probe, out=probe)
        probe *= scale
        np.add(pos, step, out=pos, where=probe >= bound)
    # A row with bound == 0 may pass entry j, and none of its entries is
    # within the bound. There `right` is entry j itself: the exact pass's
    # median, or a screened group's lo == hi, as only a group of samples
    # all equal to both has G == 0. So its entry 2j is not below `right`
    # and decides the row as it should.
    last = flat.take(np.minimum(pos, first + j) + j)
    return scale * (last - right) < bound


def _chunk_rows(width: int) -> int:
    """Windows of `width` samples that the Hampel filter sorts at once."""
    return max(1, _CHUNK_DOUBLES // width)


def lowpass(signal: Signal) -> Signal:
    """Low-pass the signal with a linear-phase FIR filter whose cutoff
    is `LOWPASS_HZ`, applied with no phase shift.

    The taps are a Hamming-windowed sinc, ``n = 2 * ceil(2 * fs / 25) +
    1`` of them (41 at 250 Hz), scaled to a DC gain of 1: bit for bit
    ``scipy.signal.firwin(n, LOWPASS_HZ, window="hamming", fs=fs)``,
    computed with numpy (`_lowpass_taps`). The gain at the cutoff is
    about one half. The record is extended at each end by n // 2 copies
    of its end sample, and output i is the convolution of the taps with
    the n samples centred on sample i, its products added one by one
    from 0.0, the leftmost sample's first (`_convolve`). No BLAS call
    picks that order, so the bits are the same on every machine. The
    taps are symmetric up to rounding, so output i is centred on sample
    i. Beyond the output, the memory is one padded copy of the record
    and one block of products. A rate at or below twice the cutoff
    raises ParameterError.

    The taps span a fixed 0.16 s, so their count grows with fs, and the
    work per second of record grows as fs²: 161 taps at 1 kHz, against
    41 at 250 Hz. The taps are checked against ``firwin`` from just above
    50 Hz to 1 MHz (160,001 taps), and the filter from 50.5 Hz to 5 kHz.
    """
    if not signal.fs > 2 * LOWPASS_HZ:
        raise ParameterError(f"sampling rate fs must exceed {2 * LOWPASS_HZ:g} Hz, twice the "
                             f"{LOWPASS_HZ:g} Hz low-pass cutoff, got fs={signal.fs}")
    taps = _lowpass_taps(signal.fs)
    return Signal(_convolve(np.pad(signal.samples, taps.size // 2, mode="edge"), taps), signal.fs)


def _convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """``np.convolve(x, taps, mode="valid")``, each output's products
    added one by one from 0.0, the product with the leftmost sample
    first, over blocks of `_LOWPASS_BLOCK` outputs."""
    out = np.zeros(x.size - taps.size + 1)
    products = np.empty(min(out.size, _LOWPASS_BLOCK))
    for start in range(0, out.size, _LOWPASS_BLOCK):
        block = out[start:start + _LOWPASS_BLOCK]
        for k, tap in enumerate(taps[::-1].tolist()):
            block += np.multiply(x[start + k:start + k + block.size], tap,
                                 out=products[:block.size])
    return out


def _lowpass_taps(fs: float) -> np.ndarray:
    """The low-pass taps at rate fs, in ``firwin``'s operation order so
    every bit matches: the sinc at the cutoff's fraction of Nyquist, times
    the Hamming window summed from its two cosine terms over
    ``np.linspace(-pi, pi, n)``, divided by the taps' sum."""
    n = 2 * int(np.ceil(2 * fs / LOWPASS_HZ)) + 1
    cutoff = LOWPASS_HZ / (0.5 * fs)
    taps = cutoff * np.sinc(cutoff * (np.arange(n, dtype=float) - 0.5 * (n - 1)))
    angles = np.linspace(-np.pi, np.pi, n)
    taps *= 0.54 + (1.0 - 0.54) * np.cos(angles)
    return taps / np.sum(taps)


def detect_r_peaks(signal: Signal) -> np.ndarray:
    """Locate beat peaks with an adaptive rolling threshold.

    Candidates are strict local maxima above
    ``rolling_mean + 0.4 * (rolling_max - rolling_mean)``
    over a one-second window, the record extended by its end values
    (`_rolling_mean`, `_rolling_max`). Candidates closer than 0.3 s keep
    only the taller peak, so accepted indices are strictly increasing
    with gaps of at least ``0.3 * fs`` samples.
    """
    x = signal.samples
    n = x.size
    if n < 3:
        return np.array([], dtype=int)
    window = max(3, int(round(signal.fs)))
    rolling_mean = _rolling_mean(x, window)
    rolling_max = _rolling_max(x, window)
    threshold = rolling_mean + THRESHOLD_FRACTION * (rolling_max - rolling_mean)

    interior = np.arange(1, n - 1)
    is_peak = (x[interior] > x[interior - 1]) & (x[interior] > x[interior + 1])
    candidates = interior[is_peak & (x[interior] > threshold[interior])]

    refractory = int(np.ceil(REFRACTORY_S * signal.fs))
    accepted: list[int] = []
    for idx in candidates:
        if accepted and idx - accepted[-1] < refractory:
            if x[idx] > x[accepted[-1]]:
                accepted[-1] = int(idx)
        else:
            accepted.append(int(idx))
    return np.asarray(accepted, dtype=int)


def _rolling_mean(x: np.ndarray, size: int) -> np.ndarray:
    """The mean of the `size` samples around each sample, the record
    extended by its end values: ``scipy.ndimage.uniform_filter1d(x, size,
    mode="nearest")`` bit for bit.

    Window i holds samples i - size // 2 to i + (size - 1) // 2. As in
    scipy, the first window is summed in order, each next sum adds the
    sample entering and subtracts the one leaving, and every sum is then
    divided by `size`.
    """
    left = size // 2
    padded = np.pad(x, (left, size - 1 - left), mode="edge")
    steps = np.concatenate([padded[:size], padded[size:] - padded[:-size]])
    return np.cumsum(steps)[size - 1:] / size


def _rolling_max(x: np.ndarray, size: int) -> np.ndarray:
    """The maximum over the same windows as `_rolling_mean`:
    ``scipy.ndimage.maximum_filter1d(x, size, mode="nearest")``.

    A van Herk / Gil-Werman filter, O(n) for any size. The padded record
    is cut into blocks of `size` samples, so a window meets at most two
    blocks, and its max is the larger of the running max from its first
    sample to that block's end and the running max from its last
    sample's block start to that sample.
    """
    left = size // 2
    blocks = -(-(x.size + size - 1) // size)
    padded = np.pad(x, (left, blocks * size - x.size - left), mode="edge").reshape(blocks, size)
    ahead = np.maximum.accumulate(padded, axis=1).ravel()
    behind = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(behind[: x.size], ahead[size - 1: size - 1 + x.size])


def rr_from_peaks(peaks, fs: float) -> RrSeries:
    """Convert beat indices to successive inter-beat intervals in ms."""
    peaks = np.asarray(peaks)
    if peaks.size < 3:
        raise InsufficientDataError(
            f"need at least 3 beats to form an interval series, got {peaks.size}"
        )
    if np.any(np.diff(peaks) <= 0):
        raise ParameterError("peak indices must be strictly increasing")
    if not (fs > 0):
        raise ParameterError("sampling rate must be positive")
    return RrSeries(np.diff(peaks) / fs * 1000.0)


def signal_to_rr(signal: Signal) -> RrSeries:
    """Run the full cleaning chain and return the interval series: a
    Hampel filter at 3 scaled MADs whose half window is half the
    sampling rate, rounded (at least 1 sample), then the low-pass at
    `LOWPASS_HZ`, then peak detection. The Hampel filter goes first so
    that it repairs each spike while it is one sample wide, before the
    low-pass spreads it over its taps.

    A peak on a sample that the Hampel filter repaired is no beat: that
    sample holds its window's median, and a run of them, where the filter
    clipped a sharp trough, is a plateau that the low-pass rounds into a
    bump. This assumes that the filter never clips a beat's own peak; on
    a wave whose peaks it clips, the beats are lost.

    A flat record, all of whose samples are equal, holds no beats and is
    refused by name with InsufficientDataError.
    """
    x = signal.samples
    if x.max() == x.min():
        raise InsufficientDataError(f"flat record: all {x.size} samples equal {float(x[0])!r}, "
                                    f"so it holds no beats")
    standardized = standardize(signal)
    cleaned = hampel_filter(standardized, max(1, int(round(signal.fs / 2))), 3.0)
    peaks = detect_r_peaks(lowpass(cleaned))
    return rr_from_peaks(peaks[cleaned.samples[peaks] == standardized.samples[peaks]], signal.fs)
