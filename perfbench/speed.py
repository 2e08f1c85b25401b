"""Host-speed calibration: times converted to seconds at a reference speed.

The benchmark runs on a few cores of a shared host whose speed changes
from second to second and drifts over minutes (other tenants on the same
cores; process CPU time equals wall time, so nothing is stolen, the CPU
is just slower).  A fixed piece of this file's own code, the *reference
kernel*, is timed while the program runs: a signal handler interrupts the
op every ``PERIOD_S`` seconds, on the same CPU, and times one pass of the
kernel.  The op's work is then its wall time (minus the handler's time)
multiplied by the mean of ``REF_S / kernel time`` over its samples, that
is, the time the op would have taken with the CPU running at the speed at
which one kernel pass takes ``REF_S`` seconds.

The kernel is polynomial arithmetic over F_p on small Python objects,
the same kind of work the library does.  It is part of the benchmark, not
of the program, so a change to the program does not change it.  Work the
program does outside the CPU (waiting on a disk, say) is not corrected.
"""

from __future__ import annotations

import gc
import signal
import time

# One kernel pass takes about this long on the reference host (2-CPU
# Intel Xeon KVM guest, Python 3.11) when the CPU is in a fast spell, so
# calibrated seconds read close to wall seconds there.
REF_S = 2.5e-4
PERIOD_S = 0.01
_P = 3


class _Poly:
    """Dense polynomial over F_3, low degree first, trailing zeros stripped."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        cs = [a % _P for a in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.c = tuple(cs)

    def __mul__(self, other):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] = (out[i + j] + a * b) % _P
        return _Poly(out)

    def __mod__(self, other):
        rem = list(self.c)
        n = len(other.c) - 1
        inv = other.c[-1]  # 1 and 2 are their own inverses mod 3
        for k in range(len(rem) - 1, n - 1, -1):
            q = rem[k] * inv % _P
            if q:
                for i, b in enumerate(other.c):
                    rem[k - n + i] = (rem[k - n + i] - q * b) % _P
        return _Poly(rem[:n])


_A = _Poly([1, 2, 0, 1, 1, 2, 1])
_B = _Poly([2, 1, 1, 0, 2, 1])


def kernel():
    """One pass of the reference kernel: products and Euclid's algorithm."""
    a, b = _A, _B
    for _ in range(4):
        a, b = a * b, b * _B
        x, y = a, b
        while y.c:
            x, y = y, x % y
    return x


def probe() -> float:
    """Seconds one kernel pass takes now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    t = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t


class Clock:
    """Times a block in wall seconds and in seconds at the reference speed.

    ``with Clock() as c: ...`` sets ``c.wall`` (wall seconds, minus the
    time spent in the kernel) and ``c.seconds`` (calibrated).  One probe
    runs right before the block and one right after it, so even a block
    shorter than ``PERIOD_S`` has samples.  Uses SIGALRM and the real-time
    interval timer; only one Clock may run at a time.
    """

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        for _ in range(2):  # the first pass after other work warms caches
            self.samples = [probe()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        inside = sum(self.samples[1:])
        self.samples.append(probe())
        self.wall = t1 - self._t0 - inside
        self.speed = sum(REF_S / s for s in self.samples) / len(self.samples)
        self.seconds = self.wall * self.speed
        return False
