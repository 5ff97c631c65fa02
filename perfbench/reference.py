"""A fixed reference computation that times the machine, not qcap.

The host's speed drifts by up to a factor of two, on a scale of about a
second, and each vCPU drifts on its own (see README.md, "Measurement
limit").  So an untraced pass does not just time its work: ``Rescaler``
interrupts it every ``TICK_S`` seconds, runs one rep of the reference
computation in the same process, and rescales each stretch of work between
two reps by their mean time.  A slow phase of the machine slows work and
reps alike and cancels out.  The reps' own time is left out of the pass's
time.

The computation is frozen and uses nothing from qcap, so no change to the
program moves it.  It mixes what qcap spends its time on: schoolbook
convolution of small integer lists, recursive generators of tuples,
dictionary look-ups of tuple keys, and big-integer products.  Its
allocations peak below 100 KB, so it hardly moves a pass's peak RSS.
"""

from __future__ import annotations

import gc
import resource
import signal
from time import perf_counter

# Seconds between reps while a pass runs.
TICK_S = 0.4
# Seconds one rep takes on the machine the benchmark was defined on when it
# ran fast (2 vCPU Xeon, Python 3.11.7); rescaled times are in seconds of
# such a machine.  It only sets the scale.
NOMINAL_S = 0.025
# Reps timed just before and just after a pass.
EDGE_REPS = 3
# What the computation returns; a rep that returns anything else raises.
_EXPECTED = 1597626


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _parts(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _parts(n - k, k):
            yield (k,) + rest


def _kernel() -> int:
    a = [(7 * i * i + 3) % 101 - 50 for i in range(200)]
    b = [(5 * i + 11) % 97 - 48 for i in range(150)]
    check = sum(_convolve(a, b))
    memo: dict[tuple[int, int], int] = {}
    for n in range(800):
        for k in range(25):
            memo[n % 20, k] = (memo.get(((n - 1) % 20, k), 1)
                               + memo.get((n % 20, k - 1), 0)) % 1009
    check += sum(memo.values())
    check += sum(1 for p in _parts(26, 26) if len(set(p)) == len(p))
    big = 7 ** 8000 + 1
    for k in range(30):
        check += (big * (big + k)).bit_length()
    return check


def rep_seconds() -> float:
    """Wall seconds of one rep of the reference computation."""
    start = perf_counter()
    if _kernel() != _EXPECTED:
        raise RuntimeError("the reference computation changed its result")
    return perf_counter() - start


def sample(reps: int) -> float:
    """Median wall seconds of ``reps`` reps."""
    times = sorted(rep_seconds() for _ in range(reps))
    return times[len(times) // 2]


def process_cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Rescaler:
    """Times one stretch of work, raw and rescaled to ``NOMINAL_S``.

    ``start()`` and ``stop()`` bracket the work; in between, SIGALRM runs
    one rep every ``TICK_S`` seconds.  Each stretch of work between two reps
    (the first and last: ``EDGE_REPS`` reps outside the work) counts
    ``NOMINAL_S / mean(rep before, rep after)`` times its wall and CPU
    seconds.  Garbage collection is off during a rep, so reps start no
    collections in the program's heap.
    """

    def __init__(self) -> None:
        self.wall_s = self.cpu_s = 0.0  # raw, reps left out
        self.scaled_wall_s = self.scaled_cpu_s = 0.0
        self.refs: list[float] = []
        self._active = self._in_tick = False

    def _open(self, ref: float) -> None:
        self.refs.append(ref)
        self._ref, self._wall0, self._cpu0 = ref, perf_counter(), process_cpu_s()

    def _close(self, ref: float, wall: float, cpu: float) -> None:
        wall, cpu = wall - self._wall0, cpu - self._cpu0
        scale = NOMINAL_S / ((self._ref + ref) / 2)
        self.wall_s += wall
        self.cpu_s += cpu
        self.scaled_wall_s += wall * scale
        self.scaled_cpu_s += cpu * scale

    def _tick(self, signum, frame) -> None:
        if not self._active or self._in_tick:
            return
        self._in_tick = True
        wall, cpu = perf_counter(), process_cpu_s()
        collecting = gc.isenabled()
        gc.disable()
        try:
            ref = rep_seconds()
        finally:
            if collecting:
                gc.enable()
        self._close(ref, wall, cpu)
        self._open(ref)
        self._in_tick = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        ref = sample(EDGE_REPS)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._open(ref)

    def stop(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = perf_counter(), process_cpu_s()
        ref = sample(EDGE_REPS)
        self._close(ref, wall, cpu)
        self.refs.append(ref)
