"""A fixed calibration kernel that measures how fast the machine runs now.

The benchmark's times are reported in reference seconds: a measured time
multiplied by REF_KERNEL_S / (the kernel's time measured next to it). On a
shared machine whose speed drifts by tens of percent over minutes, the
kernel slows down with everything else, and the ratio cancels most of the
drift. The kernel imports nothing from zetaheights, so a change to the
program moves only the measured time, never the kernel's.

The kernel mixes the two kinds of work the program does: a Python loop over
a list of small integers with dict lookups (as splitting tables and prime
sums do), and numpy arithmetic and sorting on float arrays (as theta, the
kernel and the sweep do). It allocates nothing while it runs: its cost
would otherwise depend on the state of the process's allocator, which
differs between a fresh process and one that has built large arrays. It
takes about 8 ms on a 2-core Intel Xeon virtual machine.

A workload whose operations stream large arrays (the table rows: the sieve,
the direct series and theta over 1e6 and more coefficients) adds a stream
part to the kernel: one multiply and one add in place over a 32 MB array,
which leaves the 2 MB of L2 a core has and so feels contention for the
shared cache and memory as those rows do. The stream part tracks such
operations better and the library session's short calls worse, so each
workload states whether it uses it.
"""

import signal
import statistics
import time

import numpy as np

# the kernel's time on a 2-core Intel Xeon virtual machine (Python 3.11.7,
# numpy 2.4.6) in a calm stretch; it only sets the scale of reported times
REF_KERNEL_S = 0.008
REF_STREAM_S = 0.005  # the stream part's share of that reference
STREAM_FLOATS = 4_000_000

_KEYS = list(range(1, 25000))
_TABLE = {k: k % 7 for k in _KEYS}
_XS = np.linspace(0.0, 50.0, 40000)
_BUF = np.empty_like(_XS)
_TMP = np.empty_like(_XS)


def kernel_seconds(big=None):
    """Run the kernel once and return its wall time in seconds; with big,
    an array of STREAM_FLOATS floats, the stream part too."""
    start = time.perf_counter()
    acc, table = 0, _TABLE
    for k in _KEYS:
        acc = (acc + table[k] * k) % 1000003
    for _ in range(8):
        np.multiply(_XS, 1.3, out=_BUF)
        np.cos(_BUF, out=_BUF)
        np.multiply(_XS, -0.01, out=_TMP)
        np.exp(_TMP, out=_TMP)
        np.multiply(_BUF, _TMP, out=_BUF)
        _BUF.sort()
    if big is not None:
        np.multiply(big, 1.0000001, out=big)
        np.add(big, 1e-9, out=big)
    return time.perf_counter() - start


class Sampler:
    """Runs the kernel in bursts on request and, once started, every
    `interval` seconds from a SIGALRM handler, so that long operations are
    sampled while they run.

    `spent` adds up the time the handler took; a timed region subtracts
    what it grew by. The handler runs between bytecodes of the main thread,
    so a long numpy call delays it until the call returns.
    """

    def __init__(self, interval, stream):
        self.interval = interval
        self.samples = []  # kernel times taken by the handler
        self.spent = 0.0
        self._busy = False
        self._big = np.ones(STREAM_FLOATS) if stream else None
        self.ref_s = REF_KERNEL_S + (REF_STREAM_S if stream else 0.0)

    def burst(self, n):
        """n kernel times, one after the other."""
        self._busy = True
        try:
            return [kernel_seconds(self._big) for _ in range(n)]
        finally:
            self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(kernel_seconds(self._big))
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, samples):
        """Factor that turns seconds measured next to these samples into
        reference seconds."""
        return self.ref_s / statistics.median(samples)
