"""Host-speed probe: rescales wall time to a reference host speed.

The host this benchmark was defined on switches between two speed states
for seconds to minutes at a time, and the slow state runs Python 1.4x to
1.8x slower, depending on the code.  CPU time slows by the same
factor, so neither wall nor CPU time of one run can be compared with
another run's.  The probe runs a fixed pure-Python kernel, which does not
depend on drinfeldlab, from a SIGALRM handler every INTERVAL_S seconds, and
``reference_seconds`` integrates wall time weighted by REF_KERNEL_S divided
by the kernel's duration at that moment: the time the same work would have
taken had the kernel run in REF_KERNEL_S throughout.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
REF_KERNEL_S = 0.001     # about the kernel's time on an uncontended core
SMOOTH = 5               # median over this many neighbouring samples


# sparse products of small exponent-keyed dicts, the shape of drinfeldlab's
# own arithmetic; this kernel tracked its slow-state slowdown better than
# plain integer loops or large-list scans
_POLYS = [{(e, f): (e * f + k) % 3 for e in range(12) for f in range(6)}
          for k in range(100)]


def kernel():
    acc = {}
    for k in range(0, 100, 7):
        a, b = _POLYS[k], _POLYS[(k * 7 + 3) % 100]
        for (e1, f1), c1 in list(a.items())[:12]:
            for (e2, f2), c2 in list(b.items())[:12]:
                key = (e1 + e2, f1 + f2)
                acc[key] = (acc.get(key, 0) + c1 * c2) % 3
    return len(acc)


class HostSpeedProbe:
    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []        # (start, kernel seconds)
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.monotonic()
        kernel()
        self.samples.append((start, time.monotonic() - start))

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._sample()

    def _factors(self):
        """(segment start, kernel time of the sample, factor) per sample."""
        durations = [d for _, d in self.samples]
        half = SMOOTH // 2
        out = []
        for k, (start, d) in enumerate(self.samples):
            window = durations[max(0, k - half):k + half + 1]
            out.append((start, d, REF_KERNEL_S / statistics.median(window)))
        return out

    def reference_seconds(self, t_a, t_b):
        """Wall interval [t_a, t_b] rescaled to the reference speed.

        Time spent in the kernel itself is left out; before the first
        sample the first factor applies.
        """
        if t_b <= t_a:
            return 0.0
        factors = self._factors()
        segments = [(float("-inf"), factors[0][0], factors[0][2])]
        for k, (start, d, factor) in enumerate(factors):
            end = factors[k + 1][0] if k + 1 < len(factors) else float("inf")
            segments.append((start + d, end, factor))
        total = 0.0
        for seg_a, seg_b, factor in segments:
            lo, hi = max(seg_a, t_a), min(seg_b, t_b)
            if hi > lo:
                total += (hi - lo) * factor
        return total

    def slowdown(self):
        """Median kernel time relative to the reference."""
        return statistics.median(d for _, d in self.samples) / REF_KERNEL_S
