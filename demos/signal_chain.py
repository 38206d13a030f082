"""Recover beat intervals from a noisy synthetic waveform.

Builds a pulse waveform with known beat times, pushes it through the
cleaning chain (standardize, outlier repair, low-pass, peak detection),
and reports how far the recovered intervals drift from the truth.
"""

import numpy as np

from codel.datasets import synthetic_heartbeat
from codel.signal import signal_to_rr


def main() -> None:
    rng = np.random.default_rng(0)
    true_rr = rng.uniform(850.0, 1150.0, 40)
    signal, _ = synthetic_heartbeat(true_rr, fs=100.0, noise_std=0.05, seed=1)

    recovered = signal_to_rr(signal).intervals
    print(f"true intervals:      {len(true_rr)}")
    print(f"recovered intervals: {len(recovered)}")

    n = min(len(true_rr), len(recovered))
    err = recovered[:n] - true_rr[:n]
    print(f"interval error   mean {np.mean(err):+.2f} ms, "
          f"max |.| {np.max(np.abs(err)):.2f} ms")
    print()
    print("first five intervals (true -> recovered):")
    for t, r in zip(true_rr[:5], recovered[:5]):
        print(f"  {t:8.1f} ms -> {r:8.1f} ms")


if __name__ == "__main__":
    main()
