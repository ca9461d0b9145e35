"""Host-speed calibration: timings in seconds at a fixed reference speed.

The benchmark shares a few cores of a host whose speed flips between
states up to twice apart, for a fraction of a second to a minute at a
time, so raw timings of one pass vary by a third between runs.  So every
benchmark process that runs timed work also runs a `Sampler`: a SIGPROF
handler that times a short fixed pure-Python probe loop (integer, bit,
dict and list operations, like the package's own inner loops) after every
INTERVAL_S of CPU time.  `Scale` then scales each stretch of program time
between two probes by REF_S / (the probe's time), so a stretch run while
the host was slow counts as the time it would have taken at full speed.
On this host, over 2 s windows of a program call interleaved with the
probe, raw times spread (IQR / median) by 0.33-0.39 and their ratio to
the probe's time by 0.05-0.08.  On a steady host reference and raw
seconds differ by a constant factor, the same for every commit.

Probe time is left out of the program's time.  CPU seconds are scaled by
the factor of the pass's wall seconds: the probe is CPU-bound, and a
process CPU clock read while RLIMIT_CPU is set (as for every benchmark
child) only advances in scheduler ticks.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

# Seconds of one `_probe` at full speed on the 2-vCPU Xeon VM the benchmark
# was tuned on.
REF_S = 0.00023
INTERVAL_S = 0.01  # CPU seconds between probes
SMOOTH = 5  # probes whose median time scales one stretch


def _probe() -> int:
    counts: dict[int, int] = {}
    acc, window = 0, []
    for i in range(1000):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        acc ^= (key << 3) | (i & 7)
        window.append(acc & 255)
        if len(window) > 64:
            window.clear()
    return acc


class Sampler:
    """Times `_probe` from a SIGPROF handler while started."""

    def __init__(self) -> None:
        self.ends = array("d")  # perf_counter at each probe's end
        self.durations = array("d")

    def start(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> list:
        """Stop; return [ends, durations] as lists."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return [list(self.ends), list(self.durations)]

    def _tick(self, signum, frame) -> None:
        try:
            t0 = time.perf_counter()
            _probe()
            t1 = time.perf_counter()
        except RecursionError:  # the program is at its recursion limit
            return
        self.ends.append(t1)
        self.durations.append(t1 - t0)


class Scale:
    """Reference seconds of the program's time, from one process's probes."""

    def __init__(self, rows: list) -> None:
        self.ends, self.durations = rows if rows else ([], [])
        half = SMOOTH // 2
        # A probe the scheduler interrupted reads long; the median of its
        # neighbours keeps it from rescaling its stretch.
        self.smooth = [_median(self.durations[max(i - half, 0):i + half + 1])
                       for i in range(len(self.durations))]
        self.probe_s = sum(self.durations)

    def program(self, a: float, b: float) -> tuple[float, float]:
        """(raw, reference) seconds of [a, b] outside the probes; each
        stretch is scaled by the probe that ends it, the last one by the
        next probe or else the last.  Without probes the two are equal."""
        n = len(self.ends)
        i = bisect.bisect_right(self.ends, a)
        raw = ref = 0.0
        prev = a
        while i < n and self.ends[i] <= b:
            stretch = max(0.0, self.ends[i] - self.durations[i] - prev)
            raw += stretch
            ref += stretch * REF_S / self.smooth[i]
            prev = self.ends[i]
            i += 1
        stretch = max(0.0, b - prev)
        raw += stretch
        ref += stretch * (REF_S / self.smooth[min(i, n - 1)] if n else 1.0)
        return raw, ref


def _median(values) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]
