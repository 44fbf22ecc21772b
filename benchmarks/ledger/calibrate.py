"""The reference kernel host timings are calibrated against.

The reference box is a shared VM whose speed moves by 1.3-1.7x for
minutes at a time (CPU time tracks wall time and ``/proc/stat`` shows no
steal, so it is contention below the guest, not descheduling).  Neither
the fastest pass of a 30 s run nor a per-segment minimum across passes
escapes a phase that long.  What does hold still is the *ratio* of the
program's time to the time of a fixed piece of interpreter work run in
between: over twelve 32 s windows of one hostile stretch the fastest
pass spread 14% (IQR / median), the fastest pass over the fastest
kernel run 4.7%.

So the harness runs this kernel before and after every timed pass (and
around every set-up probe) and reports

    calibrated time = measured time / kernel time * NOMINAL_S

that is, host time in units of the kernel, scaled so that the numbers
read as seconds on the reference box when it is quiet.  For a run's
passes both times are the fastest of the run (identical work, and
interference only adds time); for a single pass or probe the kernel
time is the mean of the two runs that bracket it.  The raw wall clock
of every pass and of every kernel run stays in the ledger file.

The kernel is a miniature of what the simulator does — generators
resumed by a heap-ordered scheduler, each touching small slotted
objects — and imports nothing from the program, so a change under
``src/`` cannot move it.  Changing the kernel or ``NOMINAL_S`` rescales
every calibrated metric and is a benchmark change.
"""

from __future__ import annotations

import heapq
import random
import time

#: the kernel's wall time on the reference box when it is quiet
#: (2 vCPUs, py3.11.7): the lower quartile of 200 consecutive runs was
#: 0.1642 s, the fastest 0.1595 s
NOMINAL_S = 0.165
_EVENTS = 200_000
_PROCESSES = 240
_WORDS = 4096


class _Word:
    __slots__ = ("value", "waiters")

    def __init__(self) -> None:
        self.value = 0
        self.waiters: list[int] = []


def _process(pid: int, words: list[_Word], rng: random.Random):
    while True:
        word = words[rng.randrange(_WORDS)]
        word.value += 1
        word.waiters.append(pid)
        yield 3 + (word.value & 7)
        word.waiters.pop()
        yield 1


def kernel_s() -> float:
    """Run the fixed kernel once; its wall time in seconds."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    words = [_Word() for _ in range(_WORDS)]
    heap = []
    for pid in range(_PROCESSES):
        process = _process(pid, words, rng)
        heap.append((next(process), pid, process))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    for seq in range(_PROCESSES, _PROCESSES + _EVENTS):
        now, _, process = pop(heap)
        push(heap, (now + process.send(None), seq, process))
    return time.perf_counter() - t0


def calibrated(measured_s: float, kernel_s: float) -> float:
    """``measured_s`` in reference-box seconds, given the kernel's time
    under the same conditions."""
    return measured_s / kernel_s * NOMINAL_S
