"""Single-channel signal cleaning and beat-to-beat interval extraction.

The processing chain used by the feature pipeline is:

    standardize -> butterworth_lowpass -> hampel_filter -> detect_r_peaks
    -> rr_from_peaks

Filtering runs before outlier rejection so the Hampel filter sees a
signal whose local median/MAD estimates are not dominated by
high-frequency noise.
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

# Windows whose absolute deviations the Hampel filter partitions at once.
_MAD_CHUNK_ROWS = 256


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

    Interior samples, whose windows have the full odd width
    ``2 * half_window + 1``, get their medians from one running median
    filter and their MADs from `_full_window_mad`. The ``2 * half_window``
    samples at the ends, whose shrunk windows can have even length, go
    through `_shrunk_window_stats` together. Both sort at most
    ``_MAD_CHUNK_ROWS`` windows at a time, so memory stays bounded
    whatever the signal's length, and both pick the same order
    statistics as a per-sample ``np.median``, with its arithmetic for an
    even count. So the output is the same as a per-sample loop's up to
    the sign of a zero-valued replacement.
    """
    if half_window < 1:
        raise ParameterError("half_window must be >= 1")
    if not (n_sigmas > 0):
        raise ParameterError("n_sigmas must be positive")
    # Imported here, not at module level, so commands without signal work skip scipy.
    from scipy import ndimage

    x = signal.samples
    n = x.size
    width = 2 * half_window + 1
    med = np.empty(n)
    mad = np.empty(n)
    if n >= width:
        inner = slice(half_window, n - half_window)
        med[inner] = ndimage.median_filter(x, size=width)[inner]
        mad[inner] = _full_window_mad(x, med[inner], width)
        edges = np.r_[:half_window, n - half_window:n]
    else:
        edges = np.arange(n)
    med[edges], mad[edges] = _shrunk_window_stats(x, edges, half_window)
    outlier = np.abs(x - med) > n_sigmas * MAD_SCALE * mad
    return Signal(np.where(outlier, med, x), signal.fs)


def _full_window_mad(x: np.ndarray, med: np.ndarray, width: int) -> np.ndarray:
    """MAD of each full-width window of x, given each window's median.

    Each chunk of ``_MAD_CHUNK_ROWS`` windows' absolute deviations is
    sorted in place and its middle column read: the order statistic
    that a partition would pick, found faster by numpy's vectorized sort.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, width)
    middle = width // 2
    mad = np.empty_like(med)
    scratch = np.empty((min(_MAD_CHUNK_ROWS, med.size), width))
    for start in range(0, med.size, _MAD_CHUNK_ROWS):
        stop = min(start + _MAD_CHUNK_ROWS, med.size)
        dev = scratch[: stop - start]
        np.subtract(windows[start:stop], med[start:stop, None], out=dev)
        np.abs(dev, out=dev)
        dev.sort(axis=1)
        mad[start:stop] = dev[:, middle]
    return mad


def _shrunk_window_stats(x: np.ndarray, centers: np.ndarray, half_window: int):
    """Median and MAD of the window around each of `centers`, cut at the
    ends of x.

    Each window is a row of the full width, padded with +inf past the
    ends of x so that, sorted, its samples come first. Rows are sorted
    ``_MAD_CHUNK_ROWS`` at a time, which bounds the memory even where
    ``2 * half_window`` rows of that width would not fit. A half window
    beyond ``x.size - 1`` is cut to it: such windows already hold all of x.
    """
    half_window = min(half_window, x.size - 1)
    pad = np.full(half_window, np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, x, pad]), 2 * half_window + 1)
    length = (np.minimum(x.size, centers + half_window + 1)
              - np.maximum(0, centers - half_window))
    med = np.empty(centers.size)
    mad = np.empty(centers.size)
    for start in range(0, centers.size, _MAD_CHUNK_ROWS):
        chunk = slice(start, start + _MAD_CHUNK_ROWS)
        rows = windows[centers[chunk]]
        rows.sort(axis=1)
        med[chunk] = _sorted_median(rows, length[chunk])
        np.subtract(rows, med[chunk, None], out=rows)
        np.abs(rows, out=rows)
        rows.sort(axis=1)
        mad[chunk] = _sorted_median(rows, length[chunk])
    return med, mad


def _sorted_median(rows: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``np.median`` of the first `length` entries of each sorted row.

    An odd count takes the middle entry; an even count takes
    ``(lower + upper) / 2``, the arithmetic of ``np.median`` itself.
    """
    row = np.arange(len(rows))
    lower = rows[row, (length - 1) // 2]
    upper = rows[row, length // 2]
    return np.where(length % 2 == 1, lower, (lower + upper) / 2)


def butterworth_lowpass(signal: Signal, cutoff_hz: float, order: int = 4) -> Signal:
    """Low-pass the signal with a digital Butterworth filter.

    The filter is designed by bilinear transform and applied causally as
    cascaded second-order sections. DC gain is 1 and the response at the
    cutoff is -3.01 dB.
    """
    nyquist = signal.fs / 2.0
    if not (0 < cutoff_hz < nyquist):
        raise ParameterError(
            f"cutoff must lie in (0, {nyquist}) Hz for fs={signal.fs}, got {cutoff_hz}"
        )
    if order not in (2, 4, 6):
        raise ParameterError(f"order must be one of 2, 4, 6, got {order}")
    # Imported here, not at module level, so commands without signal work skip scipy.
    from scipy import signal as sps

    sos = sps.butter(order, cutoff_hz, btype="low", fs=signal.fs, output="sos")
    return Signal(sps.sosfilt(sos, signal.samples), signal.fs)


def detect_r_peaks(signal: Signal, threshold_fraction: float = 0.4) -> np.ndarray:
    """Locate beat peaks with an adaptive rolling threshold.

    Candidates are strict local maxima above
    ``rolling_mean + threshold_fraction * (rolling_max - rolling_mean)``
    over a one-second window. Candidates closer than 0.3 s keep only the
    taller peak, so accepted indices are strictly increasing with gaps of
    at least ``0.3 * fs`` samples.
    """
    x = signal.samples
    n = x.size
    if n < 3:
        return np.array([], dtype=int)
    # Imported here, not at module level, so commands without signal work skip scipy.
    from scipy import ndimage

    window = max(3, int(round(signal.fs)))
    rolling_mean = ndimage.uniform_filter1d(x, size=window, mode="nearest")
    rolling_max = ndimage.maximum_filter1d(x, size=window, mode="nearest")
    threshold = rolling_mean + threshold_fraction * (rolling_max - rolling_mean)

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


def signal_to_rr(
    signal: Signal,
    cutoff_hz: float = 25.0,
    order: int = 4,
    half_window: int | None = None,
    n_sigmas: float = 3.0,
) -> RrSeries:
    """Run the full cleaning chain and return the interval series.

    `half_window` defaults to half the sampling rate, rounded.
    """
    if half_window is None:
        half_window = max(1, int(round(signal.fs / 2)))
    cleaned = standardize(signal)
    cleaned = butterworth_lowpass(cleaned, cutoff_hz=cutoff_hz, order=order)
    cleaned = hampel_filter(cleaned, half_window=half_window, n_sigmas=n_sigmas)
    peaks = detect_r_peaks(cleaned)
    return rr_from_peaks(peaks, signal.fs)
