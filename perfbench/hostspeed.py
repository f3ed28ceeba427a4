"""Correction of measured times for the speed of the host.

On a shared machine the speed of one core drifts: on the 2-core host
this benchmark was built on, a fixed pure-Python loop took 20-40 % longer
in some minutes than in others, the same on both cores, and the CLI's
operations slowed by the same factor. Left in, that drift is larger than
any regression bound worth having.

So the benchmark times a fixed reference loop while it measures: every
SAMPLE_S seconds of wall time (a SIGALRM handler, so samples also fall
inside long operations), and around each set-up process. A time t
measured while the loop took r seconds on average is reported as
t * REF_NOMINAL_S / r: the time the same work would take on a host
where the loop takes REF_NOMINAL_S; r is the mean of the samples taken
during the operation when there are at least MIN_OWN_SAMPLES of them,
else during its round. The time spent in the handler is taken out of the
operation it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_S = 0.1
# the reference loop's typical time on the development host, so that
# corrected figures stay close to seconds as measured there
REF_NOMINAL_S = 0.003
# an operation with at least this many samples taken during it is
# corrected by their mean, a shorter one by the mean over its round
MIN_OWN_SAMPLES = 10

_TABLE = [(i * 37 + 11) % 251 for i in range(256)]


def reference() -> float:
    """Seconds for one pass of a fixed loop of the kind the program runs:
    tuple keys, list indexing, dict updates and small-integer arithmetic."""
    table = _TABLE
    start = time.perf_counter()
    acc: dict = {}
    x = 1
    for i in range(6000):
        x = table[(x * 31 + i) & 255]
        key = (x & 15, i & 7)
        acc[key] = acc.get(key, 0) + x
    return time.perf_counter() - start


def bracket_factor(before: list[float], after: list[float]) -> float:
    """REF_NOMINAL_S over the reference time seen around a measurement."""
    return REF_NOMINAL_S / statistics.mean(before + after)


class Sampler:
    """Times `reference()` every SAMPLE_S seconds while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0  # wall seconds spent inside the handler

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference())
        self.busy += time.perf_counter() - start

    def sample_now(self) -> None:
        self._tick(None, None)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
