"""Single-channel signal cleaning and beat-to-beat interval extraction.

The processing chain used by the feature pipeline is:

    standardize -> butterworth_lowpass -> hampel_filter -> detect_r_peaks
    -> rr_from_peaks

Filtering runs before outlier rejection so the Hampel filter sees a
signal whose local median/MAD estimates are not dominated by
high-frequency noise.

The module is numpy and Python floats alone. The Butterworth design is
bit-equal to ``scipy.signal.butter``, and its cascade to ``sosfilt``:
the record goes through every section one block of samples at a time, so
the low-pass holds a block's worth of Python floats, not a record's. The
peak detector's rolling mean and max are bit-equal to
``scipy.ndimage``'s filters. The Hampel filter sorts each window once
and reads its median and its MAD test off the sorted row, by one count
rule for every window. The one exception is a window of even length,
which only the record's ends hold: ``np.median`` averages its two middle
entries, so that window also sorts its deviations for the MAD.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError

__all__ = [
    "Signal",
    "RrSeries",
    "standardize",
    "hampel_filter",
    "butterworth_lowpass",
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

# The Hampel filter sorts its windows in chunks of about this many
# doubles: 358 of the 251-sample windows of a 250 Hz record. Each step of
# its binary search costs a fixed amount per chunk, so larger chunks are
# faster, and this size keeps the scratch near 0.7 MB.
_CHUNK_DOUBLES = 90_000

# The low-pass runs the record through its sections in blocks of this
# many samples. A block's input and output are lists of Python floats,
# about 32 bytes a sample each, so a block holds about 0.26 MB of them.
# Blocks of 1,024 to 16,384 samples ran at the same speed.
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
    """Ordered inter-beat intervals in milliseconds."""

    intervals: np.ndarray

    def __post_init__(self):
        intervals = np.asarray(self.intervals, dtype=float)
        if intervals.ndim != 1:
            raise ParameterError("interval sequence must be 1-D")
        if not np.all(np.isfinite(intervals)) or np.any(intervals <= 0):
            raise ParameterError("intervals must be finite and strictly positive")
        object.__setattr__(self, "intervals", intervals)

    def __len__(self):
        return self.intervals.size

    @property
    def duration_ms(self) -> float:
        return float(np.sum(self.intervals))


def standardize(signal: Signal) -> Signal:
    """Rescale to zero mean and unit population standard deviation.

    A signal whose variance is (numerically) zero maps to all zeros, so
    batch pipelines stay total on degenerate records.
    """
    x = signal.samples
    std = float(np.std(x))
    if std < 1e-12:
        return Signal(np.zeros_like(x), signal.fs)
    return Signal((x - np.mean(x)) / std, signal.fs)


def hampel_filter(signal: Signal, half_window: int, n_sigmas: float = 3.0) -> Signal:
    """Replace outliers with their windowed median.

    A sample is an outlier when its deviation from the median of the
    surrounding window exceeds ``n_sigmas * 1.4826 * MAD``. Windows
    shrink at the boundaries instead of padding.

    Each sample's window is a row of one sliding view over x, padded with
    NaN, and is sorted once, in a scratch chunk of rows. Row i holds
    ``L = min(i, h) + min(n - 1 - i, h) + 1`` samples, which sort ahead
    of its pads, so for an odd L its entry ``j = (L - 1) // 2`` is the
    median. With ``scale = n_sigmas * 1.4826`` and ``gap = |x - median|``,
    call a sorted entry s within the gap when ``fl(scale * |s - median|)
    < gap``. The rounded product never decreases as ``|s - median|``
    grows, so the entries within the gap are one run of the sorted row
    around entry j, and the MAD (the (j + 1)-th smallest deviation) is
    within the gap exactly when that run holds j + 1 entries. A binary
    search finds the run's first entry left of j, and the entry j places
    to its right decides the row.

    The one exception is an even L, which only the 2h end rows can have:
    ``np.median`` then takes the mean of entries j and j + 1. Those rows
    take their median that way, and their MAD the same way from one more
    sort, of their deviations. The output is a per-sample loop's up to
    the sign of a zero-valued replacement.

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
    # A window wider than the signal already holds all of it.
    half_window = min(half_window, n - 1)
    width = 2 * half_window + 1
    # NaN pads sort after every sample. A probe that lands on one compares
    # false with no warning, even at a zero scale, where an infinite pad
    # would give 0 * inf.
    pad = np.full(half_window, np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([pad, x, pad]), width)
    med = np.empty(n)
    chunk_rows = _chunk_rows(width)
    scratch = np.empty((min(chunk_rows, n), width))
    steps = [1 << k for k in reversed(range(int(half_window).bit_length()))]
    for start in range(0, n, chunk_rows):
        chunk = slice(start, min(start + chunk_rows, n))
        rows = scratch[: chunk.stop - start]
        rows[...] = windows[chunk]
        rows.sort(axis=1)
        # Rows h or more from both ends hold L = 2h + 1 samples, so only
        # chunks that reach an end count L - 1 row by row.
        j, even = half_window, ()
        if min(start, n - chunk.stop) < half_window:
            i = np.arange(start, chunk.stop)
            spread = np.minimum(i, half_window) + np.minimum(n - 1 - i, half_window)
            j, even = spread >> 1, np.flatnonzero(spread & 1)
        flat = rows.ravel()
        pos = np.arange(0, rows.size, width)
        centre = pos + j
        middle = med[chunk]
        middle[...] = flat[centre]
        gap = np.abs(x[chunk] - middle)
        # pos, a flat index into the chunk, starts at each row's first
        # entry and moves right past the entries left of j that lie
        # outside the gap. A probe at or right of j gives median - s <= 0,
        # never at or above a gap > 0, or a pad's NaN, so pos stops at
        # entry j at most. Each probe reads entry pos + step - 1.
        for step in steps:
            probe = flat[step - 1:].take(pos)
            # Left of entry j, |s - median| is median - s, bit for bit.
            np.subtract(middle, probe, out=probe)
            probe *= scale
            np.add(pos, step, out=pos, where=probe >= gap)
        # A row with gap == 0 may pass entry j; no entry is within its
        # gap, so any entry of the row decides it.
        last = flat.take(np.minimum(pos, centre) + j)
        outlier = scale * np.abs(last - middle) < gap
        if len(even):
            # np.median of an even count is the mean of its two middle
            # entries, j and j + 1. The MAD is read the same way off the
            # sorted deviations, which overwrite the chunk's first rows:
            # row even[k] >= k is read before row k is written, so no copy
            # of the even rows is held.
            j = j[even]
            middle[even] = (rows[even, j] + rows[even, j + 1]) / 2
            deviations = rows[: even.size]
            for k, e in enumerate(even.tolist()):
                np.subtract(rows[e], middle[e], out=deviations[k])
            np.abs(deviations, out=deviations)
            deviations.sort(axis=1)
            at = np.arange(even.size)
            mad = (deviations[at, j] + deviations[at, j + 1]) / 2
            outlier[even] = np.abs(x[chunk][even] - middle[even]) > scale * mad
        np.copyto(middle, x[chunk], where=~outlier)
    return Signal(med, signal.fs)


def _chunk_rows(width: int) -> int:
    """Windows of `width` samples that the Hampel filter sorts at once."""
    return max(1, _CHUNK_DOUBLES // width)


def butterworth_lowpass(signal: Signal, cutoff_hz: float, order: int = 4) -> Signal:
    """Low-pass the signal with a digital Butterworth filter.

    The filter is designed by bilinear transform and applied causally as
    cascaded second-order sections. DC gain is 1 and the response at the
    cutoff is -3.01 dB. The design and the output are bit-equal to
    ``scipy.signal.butter(order, cutoff_hz, fs=fs, output="sos")`` and
    ``scipy.signal.sosfilt``, computed with numpy and Python floats only.

    Each section is direct form II transposed, whose whole past is its
    two state values z0 and z1. So the record runs through the cascade
    one block of samples at a time, each sample through every section in
    turn, and each section's state carries over to the next block. The
    Python-float arithmetic is the same IEEE double arithmetic, in the
    same order, as scipy's loop, and the memory beyond the output is
    bounded by the block, not by the record.
    """
    nyquist = signal.fs / 2.0
    if not (0 < cutoff_hz < nyquist):
        raise ParameterError(
            f"cutoff must lie in (0, {nyquist}) Hz for fs={signal.fs}, got {cutoff_hz}"
        )
    if order not in (2, 4, 6):
        raise ParameterError(f"order must be one of 2, 4, 6, got {order}")
    x = signal.samples
    out = np.empty(x.size)
    sections = [(b0, b1, b2, a1, a2, [0.0, 0.0])
                for b0, b1, b2, _, a1, a2 in _butter_sos(order, cutoff_hz, signal.fs).tolist()]
    for start in range(0, x.size, _LOWPASS_BLOCK):
        block = []
        for v in x[start:start + _LOWPASS_BLOCK].tolist():
            for b0, b1, b2, a1, a2, z in sections:
                y = b0 * v + z[0]
                z[0] = b1 * v - a1 * y + z[1]
                z[1] = b2 * v - a2 * y
                v = y
            block.append(v)
        out[start:start + _LOWPASS_BLOCK] = block
    return Signal(out, signal.fs)


def _butter_sos(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """The ``(order // 2, 6)`` second-order sections of an even-order
    Butterworth low-pass, in scipy's operation order so every bit matches.

    The analog poles, prewarped to ``wo``, go through the bilinear
    transform at fs = 2. Each conjugate pair is one section with its two
    zeros at -1, the gain is applied to section 0, and the sections run
    from the pole pair farthest from the unit circle to the nearest.
    """
    wo = 4 * np.tan(np.pi * (2 * cutoff_hz / fs) / 2)
    m = np.arange(-order + 1, order, 2)
    analog = wo * -np.exp(1j * np.pi * m / (2 * order))
    gain = wo**order * np.real(1 / np.prod(4 - analog))
    poles = (4 + analog) / (4 - analog)
    poles = poles[poles.imag > 0]
    poles = poles[np.argsort(np.abs(1 - np.abs(poles)))[::-1]]
    sos = np.zeros((poles.size, 6))
    sos[:, :4] = [1.0, 2.0, 1.0, 1.0]
    sos[:, 4] = -2 * poles.real
    sos[:, 5] = poles.real * poles.real + poles.imag * poles.imag
    sos[0, :3] *= gain
    return sos


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
    """Run the full cleaning chain and return the interval series: a 25 Hz
    fourth-order low-pass, then a Hampel filter at 3 scaled MADs whose
    half window is half the sampling rate, rounded (at least 1 sample)."""
    cleaned = butterworth_lowpass(standardize(signal), 25.0, 4)
    cleaned = hampel_filter(cleaned, max(1, int(round(signal.fs / 2))), 3.0)
    return rr_from_peaks(detect_r_peaks(cleaned), signal.fs)
