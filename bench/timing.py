"""Program-call timing, scaled to a nominal host speed.

The host's speed drifts by tens of percent over seconds: other tenants
share its cores and caches.  The program and a fixed block of Python that
does the same kind of arithmetic slow down together, so the benchmark
times such a reference block before each operation, every ``every``
seconds during each program call (from a SIGALRM handler, whose time is
taken out of the call's), and after it.  Each call is scaled by the
nominal block time over the mean of the blocks timed before, during and
just after it.  A scaled time reads as seconds on a host where the block
takes its nominal time; the unscaled sums are kept for comparison.

The blocks are benchmark code that no program change touches.
``tuple_block`` makes GF(2^8) products on coefficient tuples, like the
program's extension-field arithmetic.  ``mixed_block`` adds a rank-2
64 x 64 product over GF(65537) on plain ints, like its prime-field fast
paths.  A workload names the block whose speed follows its own.
"""

import random
import signal
import time
from collections import defaultdict

import planted

_INT = planted.PrimeArith(65537)
_TUPLE_ELEMENTS = [tuple(random.Random(t).randrange(2) for _ in range(8)) for t in range(32)]
_X8 = (1, 0, 0, 0, 1, 1, 0, 1)  # x^8 mod x^8 + x^7 + x^5 + x^4 + 1


def _times_x(v):
    return tuple(((v[t - 1] if t else 0) + v[7] * _X8[t]) % 2 for t in range(8))


_REDUCE = [_X8]  # x^(8+i) mod the modulus, i < 7
for _ in range(6):
    _REDUCE.append(_times_x(_REDUCE[-1]))


def _int_block():
    planted.low_rank(_INT, planted.rng_for(0, "reference"), (64, 64), 2)


def _tuple_mul(a, b):
    conv = [0] * 15
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    out = [c % 2 for c in conv[:8]]
    for i, red in enumerate(_REDUCE):
        if conv[8 + i] % 2:
            out = [(o + r) % 2 for o, r in zip(out, red)]
    return tuple(out)


def tuple_block():
    for a in _TUPLE_ELEMENTS[:20]:
        [_tuple_mul(a, b) for b in _TUPLE_ELEMENTS]


def mixed_block():
    _int_block()
    tuple_block()


# reference block and its nominal seconds, by name
BLOCKS = {"mixed": (mixed_block, 0.005), "tuple": (tuple_block, 0.003)}


class Speed:
    """Reference-block timings of one run (mean of two per calibration)."""

    def __init__(self, block="mixed", every=0.1, in_calls=True):
        self.block, self.nominal = BLOCKS[block]
        self.every = every
        self.in_calls = in_calls  # off while tracing, so spans hold no block time
        self.blocks: list[float] = []
        self.windows: list[tuple[float, float]] = []  # (start, end) of each calibration
        self._last = float("-inf")

    def calibrate(self, force=False):
        """Time the block, unless one was timed less than ``every`` s ago."""
        if not force and time.perf_counter() - self._last < self.every:
            return
        t0 = time.perf_counter()
        self.block()
        self.block()
        self._last = time.perf_counter()
        self.blocks.append((self._last - t0) / 2)
        self.windows.append((t0, self._last))

    def _alarm(self, signum, frame):
        self.calibrate(force=True)

    def sampled(self, fn, *args, **kwargs):
        """(seconds, result) of fn, timing the block every ``every`` s during it.

        A SIGALRM handler runs the block between the call's bytecodes; its
        time is taken out of the call's.
        """
        every = self.every if self.in_calls else 0  # 0 disarms the timer
        old = signal.signal(signal.SIGALRM, self._alarm)
        first = len(self.windows)
        signal.setitimer(signal.ITIMER_REAL, every, every)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        # a handler runs to its end before the next bytecode, so a window that
        # starts before t1 lies inside the call; later ones (a late alarm) do not
        inside = sum(end - start for start, end in self.windows[first:] if start < t1)
        return t1 - t0 - inside, out

    def scale(self, before: int, after: int) -> float:
        """Factor for a span timed between calibrations ``before`` and ``after``."""
        span = self.blocks[before : after + 1]
        return self.nominal * len(span) / sum(span)

    def timed(self, fn, *args):
        """(seconds, scale factor, result) of one call, calibrating around it."""
        self.calibrate(force=True)
        before = len(self.blocks) - 1
        dt, out = self.sampled(fn, *args)
        self.calibrate(force=True)
        return dt, self.scale(before, len(self.blocks) - 1), out


class Clock:
    """Program-call time of one round, by role and by pipeline metric.

    ``role`` is "measure" (an input to its syndromes), "recover" (syndromes
    or a received word back to the input) or None (other program work);
    every call counts towards the round's work.  ``sample`` names a
    per-operation pipeline metric, and ``end_op`` closes one sample of it.
    ``begin_op`` calibrates the speed; ``finish`` calibrates once more and
    scales every call by the blocks around it.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self._calls = []  # (calibrations before and after, seconds, role, sample, op number)
        self._op = 0
        self.raw_work = 0.0
        self.roles = defaultdict(float)
        self.samples = defaultdict(list)
        self.round_totals = defaultdict(float)

    def begin_op(self):
        self.speed.calibrate()

    def call(self, role, sample, fn, *args, **kwargs):
        before = len(self.speed.blocks) - 1
        dt, out = self.speed.sampled(fn, *args, **kwargs)
        self._calls.append((before, len(self.speed.blocks), dt, role, sample, self._op))
        return out

    def end_op(self):
        self._op += 1

    def finish(self):
        self.speed.calibrate(force=True)
        per_op = defaultdict(float)
        for before, after, dt, role, sample, op in self._calls:
            self.raw_work += dt
            dt *= self.speed.scale(before, after)
            self.roles["work"] += dt
            if role:
                self.roles[role] += dt
            if sample:
                per_op[sample, op] += dt
                self.round_totals[sample] += dt
        for (sample, _), dt in per_op.items():
            self.samples[sample].append(dt)
        return self

    @property
    def factor(self) -> float:
        """Scaled over unscaled work: the round's effective speed factor."""
        return self.roles["work"] / self.raw_work if self.raw_work else 1.0
