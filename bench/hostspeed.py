"""Host-speed probe: pass times at a fixed reference speed.

On a shared host the CPU speed a process gets can change by a factor of two
for tens of seconds at a time (on the 2-core host: 5 ms and 9 ms for the same
batched RK4 propagation, minutes apart), and a run of a few tens of seconds
cannot average that out.  `SpeedProbe` measures the speed while the work
runs: every `PERIOD` seconds a timer signal runs `reference_kernel`, a fixed
small RK4 loop in numpy that belongs to the benchmark (so no change to
bisweep alters it), in the same thread as the work.  `at_reference` scales
each stretch of work between two samples by ``REFERENCE_S / sample`` and
leaves the samples themselves out, which gives the time the work would have
taken had the kernel run in exactly `REFERENCE_S`.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.1          # seconds between samples
REFERENCE_S = 1e-3    # nominal kernel time that the reported times refer to

_rng = np.random.default_rng(0)
_X0 = _rng.uniform(-1.0, 1.0, (256, 2))
_Y = _rng.uniform(-1.0, 1.0, (256, 2))
_U = _rng.uniform(-1.0, 1.0, (256, 2))


def reference_kernel():
    """Six RK4 steps of a smoothed cone pull on 256 points (~1 ms).

    The batch matches bisweep's gradient batches (B = 2 * dim, about 250 at
    N = 40); of the kernels tried, this one tracked a lower solve's time best.
    """
    x = _X0
    for _ in range(6):
        ks = []
        xs = x
        for _stage in range(4):
            d = xs - _Y
            c = np.minimum(1.5, 24.0 * np.exp(np.minimum(12.0 * ((d * d).sum(-1) - 1.0), 50.0)))
            f = _U - c[:, None] * d
            ks.append(f)
            xs = x + 0.05 * f
        x = x + (0.1 / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
    return x


class SpeedProbe:
    """Samples `reference_kernel` on SIGALRM while started (main thread only)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._previous = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        reference_kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        reference_kernel()  # first call allocates; keep it out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def at_reference(self, t0: float, t1: float) -> float:
        """Work time in [t0, t1] at the reference speed, samples excluded."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        if not inside:
            if not self.samples:
                return t1 - t0
            nearest = min(self.samples, key=lambda s: abs(s[0] - t0))
            return (t1 - t0) * REFERENCE_S / nearest[1]
        total, prev_end = 0.0, t0
        for start, dur in inside:
            total += (start - prev_end) * REFERENCE_S / dur
            prev_end = start + dur
        total += max(0.0, t1 - prev_end) * REFERENCE_S / inside[-1][1]
        return total

    def median_sample(self) -> float:
        return statistics.median(d for _, d in self.samples) if self.samples else float("nan")
