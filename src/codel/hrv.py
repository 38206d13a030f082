"""Heart-rate-variability features computed from an RR-interval series.

Thirteen features in a fixed order: bpm, ibi, sdnn, sdsd, rmssd, pnn20,
pnn50, hr_mad, sd1, sd2, s, ratio, breathing_rate. Together they form
the input vector of the downstream classifier.
"""

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError
from .signal import RrSeries

__all__ = [
    "FeatureRecord",
    "FEATURE_NAMES",
    "BreathingRate",
    "time_domain_features",
    "poincare_features",
    "breathing_rate",
    "extract_features",
]

# Respiration search band in Hz (6 to 24 breaths per minute).
BREATHING_BAND = (0.1, 0.4)

# Uniform resampling rate for the interval tachogram.
TACHOGRAM_FS = 4.0

# Fraction of band power that must sit near the dominant peak for the
# breathing estimate to count as confident.
PEAK_CONCENTRATION_MIN = 0.5


@dataclass(frozen=True)
class FeatureRecord:
    """One feature vector, plus quality flags that never enter the vector."""

    bpm: float
    ibi: float
    sdnn: float
    sdsd: float
    rmssd: float
    pnn20: float
    pnn50: float
    hr_mad: float
    sd1: float
    sd2: float
    s: float
    ratio: float
    breathing_rate: float
    flags: tuple = field(default=(), compare=False)

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


# The vector's order: the record's fields, without the flags.
FEATURE_NAMES = tuple(f.name for f in fields(FeatureRecord) if f.name != "flags")


class BreathingRate(NamedTuple):
    breaths_per_min: float
    low_confidence: bool


class TimeDomainFeatures(NamedTuple):
    bpm: float
    ibi: float
    sdnn: float
    sdsd: float
    rmssd: float
    pnn20: float
    pnn50: float
    hr_mad: float


class PoincareFeatures(NamedTuple):
    sd1: float
    sd2: float
    s: float
    ratio: float | None


def _require_length(rr: RrSeries, n_min: int):
    if len(rr) < n_min:
        raise InsufficientDataError(
            f"need at least {n_min} intervals, got {len(rr)}"
        )


def time_domain_features(rr: RrSeries) -> TimeDomainFeatures:
    """Compute the eight time-domain features.

    sdnn uses the population divisor N. sdsd is the population standard
    deviation of the absolute successive differences. rmssd divides the
    squared successive differences by their count N-1. pnn20 and pnn50
    count differences strictly greater than the threshold and divide by
    N. hr_mad is the mean absolute deviation from the median.
    """
    _require_length(rr, 3)
    x = rr.intervals
    n = x.size
    diffs = np.diff(x)
    abs_diffs = np.abs(diffs)

    mean_rr = float(np.mean(x))
    bpm = 60000.0 / mean_rr
    ibi = mean_rr
    # Shift by the first interval before measuring spread: identical
    # floats subtract to exact zero, so a constant series reports sdnn
    # of exactly 0 rather than summation noise.
    rel = x - x[0]
    sdnn = float(np.sqrt(np.sum((rel - np.mean(rel)) ** 2) / n))
    sdsd = float(np.sqrt(np.mean((abs_diffs - np.mean(abs_diffs)) ** 2)))
    rmssd = float(np.sqrt(np.mean(diffs ** 2)))
    pnn20 = float(np.count_nonzero(abs_diffs > 20.0)) / n * 100.0
    pnn50 = float(np.count_nonzero(abs_diffs > 50.0)) / n * 100.0
    hr_mad = float(np.mean(np.abs(x - np.median(x))))
    return TimeDomainFeatures(bpm, ibi, sdnn, sdsd, rmssd, pnn20, pnn50, hr_mad)


def poincare_features(rr: RrSeries) -> PoincareFeatures:
    """Spread of the lag-1 return map along and across the identity line.

    Each consecutive interval pair (x, y) is rotated 45 degrees; sd1 is
    the population standard deviation across the identity line, sd2
    along it. s is the area pi*sd1*sd2 of the fitted ellipse. When sd2
    is zero the ratio sd1/sd2 is undefined and reported as None; callers
    building feature vectors impute 0 and set a flag.
    """
    _require_length(rr, 3)
    # Same shift as the time-domain spread: keeps sd1 and sd2 exactly
    # zero on constant input, which is what makes the undefined-ratio
    # path reachable there.
    rel = rr.intervals - rr.intervals[0]
    x = rel[:-1]
    y = rel[1:]
    d1 = (x - y) / math.sqrt(2.0)
    d2 = (x + y) / math.sqrt(2.0)
    sd1 = float(np.sqrt(np.mean((d1 - np.mean(d1)) ** 2)))
    sd2 = float(np.sqrt(np.mean((d2 - np.mean(d2)) ** 2)))
    s = math.pi * sd1 * sd2
    ratio = sd1 / sd2 if sd2 > 0 else None
    return PoincareFeatures(sd1, sd2, s, ratio)


def _fft_length(n: int) -> int:
    """The zero-padded FFT length of an n-point tachogram: the next power
    of two at or above max(n, min(8 n, 2^16)).

    Up to 8,192 points (about 34 min at 4 Hz) that is 8-fold padding,
    whose frequency grid resolves the band edges well below the 0.5
    breaths/min reporting tolerance. A longer record pads to 2^16 points,
    a grid of 0.0037 breaths/min, or to its own next power of two, so a
    7-day record takes 2^22 points, not 2^25.
    """
    target = max(n, min(8 * n, 2**16))
    return 1 << (target - 1).bit_length()


def breathing_rate(rr: RrSeries) -> BreathingRate:
    """Estimate respiration frequency from the interval tachogram.

    The tachogram is linearly interpolated to a uniform 4 Hz grid,
    mean-removed, and its periodogram searched for the dominant
    frequency in the 0.1 to 0.4 Hz band. The estimate is 60 times that
    frequency. When the spectral power in the band is spread out rather
    than concentrated at the peak, the estimate is flagged low
    confidence.
    """
    duration_s = rr.duration_ms / 1000.0
    if duration_s < 10.0:
        raise InsufficientDataError(
            f"need at least 10 s of intervals for a breathing estimate, "
            f"got {duration_s:.2f} s"
        )
    beat_times = np.cumsum(rr.intervals) / 1000.0
    grid = np.arange(beat_times[0], beat_times[-1], 1.0 / TACHOGRAM_FS)
    tachogram = np.interp(grid, beat_times, rr.intervals)
    tachogram = tachogram - np.mean(tachogram)

    nfft = _fft_length(grid.size)
    spectrum = np.abs(np.fft.rfft(tachogram, n=nfft)) ** 2
    freqs = np.fft.rfftfreq(nfft, d=1.0 / TACHOGRAM_FS)

    lo, hi = BREATHING_BAND
    band = (freqs >= lo) & (freqs <= hi)
    band_power = spectrum[band]
    band_freqs = freqs[band]
    peak = int(np.argmax(band_power))
    f_star = float(band_freqs[peak])

    total = float(np.sum(band_power))
    if total <= 0:
        return BreathingRate(60.0 * f_star, True)
    near_peak = np.abs(band_freqs - f_star) <= 0.02
    concentration = float(np.sum(band_power[near_peak])) / total
    return BreathingRate(60.0 * f_star, concentration < PEAK_CONCENTRATION_MIN)


def extract_features(rr: RrSeries) -> FeatureRecord:
    """Assemble the full 13-feature record for one interval series.

    An undefined sd1/sd2 ratio is imputed as 0 with flag
    "ratio_undefined"; a diffuse breathing spectrum adds
    "breathing_low_confidence".
    """
    td = time_domain_features(rr)
    pc = poincare_features(rr)
    br = breathing_rate(rr)

    flags = []
    ratio = pc.ratio
    if ratio is None:
        ratio = 0.0
        flags.append("ratio_undefined")
    if br.low_confidence:
        flags.append("breathing_low_confidence")
    return FeatureRecord(**td._asdict(), **pc._replace(ratio=ratio)._asdict(),
                         breathing_rate=br.breaths_per_min, flags=tuple(flags))
