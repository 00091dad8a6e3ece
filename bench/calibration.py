"""How fast the machine runs Python right now, from a fixed workload.

On a shared machine the speed of the same code drifts by 10-70 % over tens
of seconds, as neighbours come and go.  While the benchmark measures, an
interval timer asks for a short sample of this fixed workload every
INTERVAL_S of wall time, whatever code is running, and the benchmark
reports times scaled to the speed at which one sample takes REFERENCE_S:

    scaled = measured * REFERENCE_S / mean(samples of the run)

Samples are spread evenly in time over the window, so their mean follows
the speed the operations met.  Time spent in samples is subtracted from
every interval it falls in.

The samples run in a helper interpreter of their own (this file run as a
script), started before anything is timed; the measuring process sends a
request and waits for the answer, so only one of the two runs at a time.
Fresh interpreters of the benchmark share their parent's helper.
The helper never imports ellquot and shares no heap, allocator or garbage
collector with the measured process, so what the library keeps in memory
cannot move the samples.  The workload uses only the standard library; it
mixes the operations ellquot spends its time on (Fraction arithmetic,
integer lists reduced mod p, dicts, method calls).
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.004
INTERVAL_S = 0.2


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def add(self, other):
        return _Point(self.x + other.x, self.y * other.y % 10007)


def _work():
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
    p = 10007
    f = [i % p for i in range(1, 30)]
    g = f[:]
    for _ in range(5):
        h = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                h[i + j] = (h[i + j] + a * b) % p
        g = h[:30]
    table = {}
    pt = _Point(1, 2)
    for k in range(2000):
        table[(k, k % 7)] = pt
        pt = pt.add(_Point(k, k + 3))
    return acc, g, len(table), pt.y


def _timed_work() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def _serve():
    """Helper loop: one timed run of the workload per request line."""
    gc.disable()
    _timed_work()  # warm up before the first request
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for _ in sys.stdin.buffer:
        out.write(f"{_timed_work()!r}\n")
        out.flush()


class Probe:
    """Talks to the helper; sample() blocks until it has run the workload.

    A fresh interpreter of the benchmark reuses its parent's helper through
    the inherited pipe ends `fds` (write, read) while the parent waits for
    it, so no interpreter start is added to a timed window.
    """

    def __init__(self, fds=None):
        self._proc = None
        if fds is not None:
            self._send, self._recv = open(fds[0], "wb"), open(fds[1], "rb")
            return
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._send, self._recv = self._proc.stdin, self._proc.stdout
        if self._recv.readline() != b"ready\n":
            self.close()
            raise RuntimeError("calibration helper did not start")

    @property
    def fds(self):
        return self._send.fileno(), self._recv.fileno()

    def sample(self) -> float:
        self._send.write(b"\n")
        self._send.flush()
        line = self._recv.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def close(self):
        self._send.close()
        self._recv.close()
        if self._proc is not None:
            self._proc.wait(timeout=30)


_probe = None


@contextlib.contextmanager
def helper(fds=None):
    """Start the helper (or join the parent's) and stop it, waiting, on exit."""
    global _probe
    _probe = Probe(fds)
    try:
        yield _probe
    finally:
        _probe.close()
        _probe = None


def probe() -> Probe:
    """The helper of this process, while helper() is active."""
    return _probe


def sample() -> float:
    """Seconds one run of the fixed workload takes now, in the helper."""
    return _probe.sample()


def factor(taken) -> float:
    """REFERENCE_S over the mean sample: measured times are multiplied by it."""
    return REFERENCE_S / statistics.fmean(taken)


class Sampler:
    """Takes a sample every INTERVAL_S while active, from SIGALRM.

    `spent` is the wall time taken by samples so far; a caller subtracts
    its growth over an interval from that interval.  `on_sample(start,
    end)`, if given, is told about each sample (the tracer records it as a
    span, so it is not counted as any layer's self time).
    """

    def __init__(self, on_sample=None):
        self.samples = []
        self.spent = 0.0
        self.on_sample = on_sample
        self._previous = None
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        if self._busy:  # the machine stalled for a whole interval mid-sample
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(sample())
        end = time.perf_counter()
        self.spent += end - start
        self._busy = False
        if self.on_sample is not None:
            self.on_sample(start, end)


if __name__ == "__main__":
    _serve()
