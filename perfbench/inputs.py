"""Seeded input generators for the benchmark workloads.

Everything here draws from its own numpy generator seeded by the
benchmark's --seed, and never from the program's own dataset helpers,
so a change to the program cannot change what the benchmark feeds it.
"""

import numpy as np

FS_HZ = 250.0
RECORD_S = 180.0
RR_RANGE_MS = (700.0, 1100.0)
FEATURE_NAMES = (
    "bpm", "ibi", "sdnn", "sdsd", "rmssd", "pnn20", "pnn50", "hr_mad",
    "sd1", "sd2", "s", "ratio", "breathing_rate",
)


def seeded(seed: int, stream: str) -> np.random.Generator:
    """The generator of one named input stream under the benchmark seed."""
    return np.random.default_rng([int(seed), *stream.encode()])


def rr_truth(rng, duration_s: float) -> np.ndarray:
    """Beat-to-beat intervals in ms covering duration_s, inside RR_RANGE_MS.

    A slow random walk around a per-record resting interval, plus a
    breathing oscillation, so the intervals carry HRV structure.
    """
    base = rng.uniform(800.0, 1000.0)
    breath_hz = rng.uniform(0.18, 0.32)
    walk = 0.0
    t = 0.0
    out = []
    while t < duration_s * 1000.0:
        walk = 0.97 * walk + rng.normal(0.0, 8.0)
        rr = base + walk + 40.0 * np.sin(2.0 * np.pi * breath_hz * t / 1000.0)
        rr = float(np.clip(rr + rng.normal(0.0, 10.0), *RR_RANGE_MS))
        out.append(rr)
        t += rr
    return np.array(out)


def pulse_record(rng, duration_s: float = RECORD_S, fs: float = FS_HZ):
    """One raw ECG-like record with noise and injected spikes.

    Each cycle is a smooth two-harmonic wave peaking at its beat time,
    with a narrow 15 ms bump on the peak that pins the beat down. The
    wave has no quiet baseline, so a one-second Hampel window treats the
    beats as signal and only the spikes as outliers.

    Returns:
        (samples, beat times in ms relative to the first sample).
    """
    rr = rr_truth(rng, duration_s + 2.0)
    beats_ms = 500.0 + np.concatenate([[0.0], np.cumsum(rr)])
    # Start and end half a cycle away from a beat, so no beat is cut off.
    last = np.flatnonzero(beats_ms[:-1] + rr / 2.0 <= duration_s * 1000.0)[-1]
    n = int((beats_ms[last] + rr[last] / 2.0) * fs / 1000.0)
    t_ms = np.arange(n) * 1000.0 / fs
    cycle = np.clip(np.searchsorted(beats_ms, t_ms, side="right") - 1, 0, rr.size - 1)
    since = t_ms - beats_ms[cycle]
    phase = 2.0 * np.pi * since / rr[cycle]
    to_beat = np.minimum(np.abs(since), np.abs(rr[cycle] - since))
    samples = 0.8 * (np.cos(phase) - 0.15 * np.cos(2.0 * phase)) + 0.3
    samples += np.exp(-0.5 * (to_beat / 15.0) ** 2)
    samples += rng.normal(0.0, 0.04, n)
    # Downward spikes land in the troughs, at least 300 ms from any beat
    # and 1 s from either end, and stay small enough that the low-pass
    # filter's overshoot after one cannot pass for a beat. Elsewhere the
    # cleaning chain can add a beat: near a peak, on a high stretch of
    # the wave, or where the Hampel window shrinks at the record's end.
    # Those inputs would make the interval check fail on the draw.
    inside = (t_ms > 1000.0) & (t_ms < t_ms[-1] - 1000.0)
    spikes = rng.choice(np.flatnonzero((to_beat > 300.0) & inside),
                        size=int(duration_s / 2), replace=False)
    samples[spikes] -= rng.uniform(5.0, 9.0, spikes.size)
    return samples, beats_ms[: last + 1]


def feature_table(rng, n_rows: int, n_twins: int, margin: float = 0.6):
    """A balanced two-class table of 13 standardized features.

    The classes sit on either side of a random hyperplane, pushed apart
    by a margin so that they are separable. Then n_twins rows (half per
    class) get a twin: an exact copy with the other label. No classifier
    can get both rows of a pair right, which puts a floor of
    n_twins / n_rows under the training error whatever the draw.

    Returns:
        (rows, labels).
    """
    n_base = n_rows - n_twins
    w = rng.normal(0.0, 1.0, len(FEATURE_NAMES))
    w /= np.linalg.norm(w)
    rows = rng.normal(0.0, 1.0, size=(n_base, len(FEATURE_NAMES)))
    labels = (np.arange(n_base) >= n_base // 2).astype(int)
    along = rows @ w
    side = np.where(labels == 1, 1.0, -1.0)
    rows += np.outer(side * (margin + np.abs(along)) - along, w)
    twins = np.concatenate([
        rng.choice(np.flatnonzero(labels == cls), size=n_twins // 2, replace=False)
        for cls in (0, 1)
    ])
    rows = np.vstack([rows, rows[twins]])
    labels = np.concatenate([labels, 1 - labels[twins]])
    order = rng.permutation(n_rows)
    return rows[order], labels[order]


def write_signal_csv(path, samples) -> None:
    path.write_text("sample\n" + "\n".join(repr(float(v)) for v in samples) + "\n")


def write_feature_csv(path, rows, labels) -> None:
    lines = [",".join(FEATURE_NAMES) + ",label"]
    lines += [",".join(repr(float(v)) for v in row) + f",{int(y)}" for row, y in zip(rows, labels)]
    path.write_text("\n".join(lines) + "\n")
