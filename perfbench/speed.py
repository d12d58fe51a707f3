"""Speed correction for timings taken on a shared host.

On a shared host the machine's speed drifts by up to 2x within seconds, in
wall and CPU time alike, so raw times of identical passes differ by more
than any useful regression bound. While a pass runs, a timer signal
interrupts it every PERIOD_S seconds to time a small fixed computation,
``reference()``. That computation shares no code and no global state with
updownlab: it uses mpmath's low-level integer-mantissa functions at an
explicit precision, and big-integer products. An interval's time is then
corrected to the speed at which the reference takes REFERENCE_MS: the time
the samples themselves took is removed, and the rest is scaled by the
trimmed mean of REFERENCE_MS / reference time over the samples taken during
the interval (at least MIN_SAMPLES, borrowed from its neighbours if it is
short). REFERENCE_MS is about the reference's time on an unloaded core of the
2-vCPU 2.1 GHz x86_64 box the baseline was taken on.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

from mpmath.libmp import fone, from_int, mpf_add, mpf_div

PERIOD_S = 0.02
REFERENCE_MS = 0.4
MIN_SAMPLES = 5

# Set-up runs in fresh interpreters, whose start-up time (spawning, reading
# and unmarshalling modules, initialising C extensions) does not follow the
# reference computation's speed. Each set-up sample is therefore paired with
# a fresh interpreter that imports this fixed set of standard-library modules,
# and scaled to the speed at which that takes SETUP_REFERENCE_S.
SETUP_REFERENCE_CODE = ("import json, decimal, fractions, asyncio, email.mime.text, "
                        "xml.dom.minidom, sqlite3, unittest, argparse, statistics, "
                        "random, csv, logging")
SETUP_REFERENCE_S = 0.1

_PREC = 200
_BIG = 3 ** 6000


def reference() -> None:
    """The fixed computation whose time measures the machine's speed."""
    total = from_int(0)
    for n in range(1, 100):
        total = mpf_add(total, mpf_div(fone, from_int(n * n + 1), _PREC), _PREC)
    for _ in range(6):
        _BIG * _BIG


class SpeedSampler:
    """Context manager that samples the reference's time on a timer signal.

    It must be entered from the main thread, and only one may be active.
    """

    def __init__(self):
        self.starts = []   # perf_counter at the start of each sample
        self.ms = []       # the sample's reference time in milliseconds
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference()
        self.starts.append(t0)
        self.ms.append(1000 * (perf_counter() - t0))
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def correct(self, t0: float, t1: float, seconds: list) -> list:
        """Correct each of ``seconds``, measured over the wall-clock interval
        [t0, t1], to the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = sum(self.ms[lo:hi]) / 1000
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ms)):
            if lo > 0:
                lo -= 1
            if hi < len(self.ms) and hi - lo < MIN_SAMPLES:
                hi += 1
        factors = sorted(REFERENCE_MS / ms for ms in self.ms[lo:hi])
        cut = len(factors) // 10
        kept = factors[cut:len(factors) - cut] or [1.0]
        scale = sum(kept) / len(kept)
        return [max(0.0, s - own) * scale for s in seconds]
