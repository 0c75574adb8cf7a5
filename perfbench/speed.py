"""Reference-speed timing: interleaved probes that track the machine's speed.

The benchmark machine shares its cores; the speed of the same code drifts
by up to 1.6x over seconds to minutes, far more than any bound worth
enforcing.  A ``Probe`` therefore runs a small fixed piece of work from a
``SIGALRM`` interval timer, every ``interval`` seconds, inside the process
being measured.  The probe samples the machine's speed throughout each
operation, not only between them.  A timed interval is reported in
reference seconds:

    (raw interval - probe time inside it) * REF / mean probe time inside it

so a constant machine slowdown cancels.  The probes use no fklab code, so a
change to fklab never changes them; they add about 1.5% to the raw time.
Raw times are kept in the run record.
"""

import gc
import signal
import time

# Typical probe durations on the machine the bounds were set on; any
# constant works, it only fixes the unit.
REF_PY_S = 3.2e-4
REF_MIX_S = 1.3e-3


def python_probe():
    """Interpreter-only work, for timing imports before numpy is loaded."""
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return acc


class MixProbe:
    """Interpreter loop, in-place elementwise math on 256 KiB, a batch of
    row FFTs and small-array calls: the kinds of work fklab does, in
    buffers small enough not to disturb the measured code's caches."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.random(1 << 15)
        self.buf = np.empty_like(self.x)
        self.grid = rng.random((64, 256))
        self.spec = np.empty((64, 129), dtype=complex)
        self.back = np.empty_like(self.grid)

    def __call__(self):
        np = self.np
        acc = 0
        for i in range(2000):
            acc += i
        np.copyto(self.buf, self.x)
        for _ in range(8):
            np.multiply(self.buf, self.buf, out=self.buf)
            np.add(self.buf, 1.0, out=self.buf)
            np.sqrt(self.buf, out=self.buf)
        np.fft.rfft(self.grid, axis=-1, out=self.spec)
        np.fft.irfft(self.spec, n=256, axis=-1, out=self.back)
        for _ in range(200):
            self.x[:8].sum()


class Probe:
    """Runs ``work`` every ``interval`` seconds while active; ``clock()``
    and ``reference()`` turn a raw interval into reference seconds."""

    def __init__(self, work, ref, interval):
        self.work = work
        self.ref = ref
        self.interval = interval
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        # A garbage collection triggered inside the probe would time the
        # measured code's heap, not the machine.
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - t)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self):
        return time.perf_counter(), len(self.samples)

    def reference(self, start):
        """(raw seconds, reference seconds) since ``start = clock()``.
        Without a probe sample inside the interval the raw time is returned
        for both."""
        t0, n0 = start
        raw = time.perf_counter() - t0
        inside = self.samples[n0:]
        if not inside:
            return raw, raw
        mean = sum(inside) / len(inside)
        return raw, (raw - sum(inside)) * self.ref / mean
