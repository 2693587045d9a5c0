"""Host-speed probe: normalizes timings for a host whose speed drifts.

On a small shared virtual machine the same pass of pure-Python work can
take 1.0 s in one minute and 2.1 s a few minutes later, and the slow and
fast stretches last seconds to minutes, so the median of a run moves
with them.  A fixed reference loop timed before and after each pass tracks
the drift only partly: the host's speed also changes within a pass.

:class:`SpeedProbe` samples the speed *during* each timed interval.  A
real-time interval timer (``SIGALRM``, every :data:`TICK_S` seconds)
runs one of three fixed kernels of about a millisecond each in the
main thread, round robin, and records how long it took:

- ``int``: 32-bit integer rotates, masks and adds, as in a hash round;
- ``mem``: random byte reads from a 16 MiB buffer (cache and memory);
- ``alloc``: allocation and release of small objects, tuples and lists.

(A fourth kernel of dict lookups and method calls was dropped: in a
six-minute recording of ``farm_resume`` passes it over-reacted to the
host's drift, by 1.4 times the passes' own change, and made the
normalized medians of 20-second windows spread more, 0.060 against
0.037 without it.)

:meth:`SpeedProbe.normalize` cuts an interval into windows of about
:data:`WINDOW_S`.  In each window it takes the mean time of each kernel
over the samples taken inside it, divides it by that kernel's
:data:`NOMINAL_S`, and takes the geometric mean of the three quotients
as the host's slowdown ``factor`` over the window.  The window's own
time minus the probe time inside it, divided by ``factor``, is its
normalized time, and the interval's is their sum: seconds on a host
that runs the kernels in :data:`NOMINAL_S`.  The kernels are fixed
code of this benchmark, so a change to the program moves the factor
only as far as it changes what the kernels find in the caches.
"""

import bisect
import math
import os
import resource
import signal
import statistics
import time

#: Seconds between probe samples.
TICK_S = 0.02
#: Length of the windows a long interval is normalized in.
WINDOW_S = 1.0
#: Each kernel's time, run from the timer, on the reference host: a
#: 2.1 GHz Xeon vCPU of a 2-vCPU virtual machine, CPython 3.11.  (Run
#: back to back, the kernels take about 0.9 ms each.)
NOMINAL_S = {"int": 0.0014, "mem": 0.0014, "alloc": 0.0017}

_BUFFER_BYTES = 1 << 24


class _Node:
    __slots__ = ("key", "pair", "cell")

    def __init__(self, key, pair, cell):
        self.key = key
        self.pair = pair
        self.cell = cell


class SpeedProbe:
    """Samples host speed on a timer; see the module docstring."""

    def __init__(self):
        rss_before = _rss_bytes()
        self._buffer = bytearray(_BUFFER_BYTES)
        for at in range(0, _BUFFER_BYTES, 1 << 20):
            self._buffer[at:at + (1 << 20)] = os.urandom(1 << 20)
        #: Resident bytes the probe's own data adds to the process.
        self.resident_bytes = max(0, _rss_bytes() - rss_before)
        self._state = 12345
        self._kernels = (("int", self._int), ("mem", self._mem),
                         ("alloc", self._alloc))
        self._tick = 0
        self._previous = None
        #: Per kernel sample, in time order: its start on the host clock,
        #: and ``(kernel name, seconds)``.
        self._starts = []
        self._samples = []

    # -- kernels --------------------------------------------------------------

    def _int(self):
        a, b, c = self._state, 0x67452301, 0xEFCDAB89
        for i in range(2500):
            t = (((a << 5) | (a >> 27)) + (b ^ c) + i) & 0xFFFFFFFF
            a, b, c = t, a, ((b << 30) | (b >> 2)) & 0xFFFFFFFF
        self._state = (a & 0x7FFFFFFF) or 12345

    def _mem(self):
        x, buf, size, total = self._state, self._buffer, _BUFFER_BYTES, 0
        for _ in range(3000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += buf[x % size]
        self._state = x

    def _alloc(self):
        keep, index = [], {}
        for i in range(2400):
            node = _Node(i, (i, i + 1), [i])
            index[i & 31] = node
            keep.append(node)
            if len(keep) > 200:
                keep = keep[100:]

    # -- sampling -------------------------------------------------------------

    def _on_tick(self, signum, frame):
        name, kernel = self._kernels[self._tick % len(self._kernels)]
        self._tick += 1
        start = time.perf_counter()
        kernel()
        self._starts.append(start)
        self._samples.append((name, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float):
        """``(normalized seconds, slowdown factor)`` of ``[start, end)``.

        An interval longer than :data:`WINDOW_S` is cut into equal
        windows of about that length, each normalized by its own
        factor, so drift within a long interval is followed.  The factor
        returned is the interval's host time, less the probe time in
        it, over its normalized time.
        """
        windows = max(1, round((end - start) / WINDOW_S))
        step = (end - start) / windows
        total_s = probe_total = 0.0
        for i in range(windows):
            lo_t = start + i * step
            hi_t = end if i == windows - 1 else lo_t + step
            seconds, probe_s = self._window(lo_t, hi_t)
            total_s += seconds
            probe_total += probe_s
        return total_s, (end - start - probe_total) / total_s

    def _window(self, start, end):
        """Normalized seconds of one window, and probe seconds in it."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        inside = self._samples[lo:hi]
        probe_s = sum(seconds for _, seconds in inside)
        logs = []
        for name in NOMINAL_S:
            times = [s for n, s in inside if n == name]
            if not times:
                times = self._nearest(name, lo, hi)
            logs.append(math.log(statistics.fmean(times)
                                 / NOMINAL_S[name]))
        factor = math.exp(sum(logs) / len(logs))
        return (end - start - probe_s) / factor, probe_s

    def _nearest(self, name, lo, hi):
        before = next((s for n, s in reversed(self._samples[:lo])
                       if n == name), None)
        after = next((s for n, s in self._samples[hi:] if n == name), None)
        found = [s for s in (before, after) if s is not None]
        if not found:
            raise RuntimeError(f"speed probe took no {name!r} sample")
        return found


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * resource.getpagesize()
    except OSError:
        return 0
