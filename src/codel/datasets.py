"""Synthetic data generators used by the test-suite and the demos.

Nothing here touches disk; every generator is a pure function of its
seed, so fixtures stay reproducible.

No command calls them, and all four stay here on purpose: the README's
quick start and four of the demos import them, so moving them into the
test files would copy them, not delete them.
"""

import numpy as np

from .mlp import Dataset
from .signal import RrSeries, Signal
from .streams import named_rng

__all__ = [
    "xor_dataset",
    "two_gaussian_dataset",
    "synthetic_heartbeat",
    "modulated_rr",
]


def xor_dataset() -> Dataset:
    """The four XOR rows; exactly learnable by a [2, 4, 1] network."""
    rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    return Dataset(rows, labels)


def two_gaussian_dataset(n_per_class: int = 500, n_features: int = 13,
                         separation: float = 2.0, seed: int = 0) -> Dataset:
    """Two unit-variance Gaussian clouds with means `separation` apart.

    The mean shift is spread evenly over the features, so the optimal
    boundary uses all of them. With separation 2 the best achievable
    accuracy is about 84%.
    """
    rng = named_rng(seed, "two-gaussian")
    shift = separation / np.sqrt(n_features)
    neg = rng.normal(0.0, 1.0, size=(n_per_class, n_features))
    pos = rng.normal(shift, 1.0, size=(n_per_class, n_features))
    rows = np.vstack([neg, pos])
    labels = np.concatenate([np.zeros(n_per_class, dtype=int),
                             np.ones(n_per_class, dtype=int)])
    return Dataset(rows, labels)


def synthetic_heartbeat(rr_ms, fs: float = 100.0, noise_std: float = 0.01,
                        seed: int = 0):
    """A smooth pulse waveform whose beat peaks follow the given intervals.

    Each cardiac cycle is one period of a two-harmonic wave anchored so
    its maximum falls exactly on the cycle boundary, which makes the
    true peak times the cumulative interval times. Unlike an impulse
    train, the waveform has no quiet baseline, so a robust outlier
    filter leaves its beats alone and the full cleaning chain recovers
    the input intervals.

    Returns:
        (Signal, true peak indices).
    """
    rr_s = np.asarray(rr_ms, dtype=float) / 1000.0
    beat_times = np.concatenate([[0.0], np.cumsum(rr_s)])
    lead = 0.5
    t = np.arange(int(round((beat_times[-1] + 2 * lead) * fs))) / fs - lead
    cycle = np.clip(np.searchsorted(beat_times, t, side="right") - 1,
                    0, len(rr_s) - 1)
    period = rr_s[cycle]
    phase = np.pi / 2 + 2.0 * np.pi * (t - beat_times[cycle]) / period
    # Harmonic weight 0.2 keeps the peak sharp enough to localize while
    # leaving it well inside the 3-sigma envelope of a robust outlier
    # filter over a one-second window.
    samples = np.sin(phase) - 0.2 * np.cos(2.0 * phase)
    if noise_std > 0:
        samples = samples + named_rng(seed, "heartbeat-noise").normal(
            0, noise_std, t.size
        )
    true_peaks = np.round((beat_times[:-1] + lead) * fs).astype(int)
    return Signal(samples, fs), true_peaks


def modulated_rr(duration_s: float = 60.0, base_ms: float = 1000.0,
                 depth_ms: float = 50.0, freq_hz: float = 0.25) -> RrSeries:
    """Intervals whose length oscillates sinusoidally at a known rate.

    With freq_hz = 0.25 the series mimics breathing at 15 breaths/min.
    A depth of 0 gives a perfectly constant series.
    """
    intervals = []
    t = 0.0
    while t < duration_s:
        rr = base_ms + depth_ms * np.sin(2.0 * np.pi * freq_hz * t)
        intervals.append(rr)
        t += rr / 1000.0
    return RrSeries(np.array(intervals))
