"""Host-speed calibration sampled while a timed call runs.

The host this benchmark was built on changes speed by 10-20% from one
second to the next, and drifts over minutes. Process CPU time tracks
wall time, so it is the hardware slowing down, not time stolen by the
hypervisor. A fixed pure-Python loop of dict and list churn (the kind of
work the simulator does) slows down with it.

While a timed call runs, ``SIGALRM`` fires every ``SAMPLE_EVERY_S`` and
the handler times one short pass of that loop; between bytecodes, so
the program is paused, not raced. The call's time, minus the samples'
own time, is then scaled by ``REFERENCE_S`` over the mean sample. Timings
become "seconds on a host where the loop takes ``REFERENCE_S``"; the raw
seconds stay in each run's detail record. On 6 to 12 back-to-back
repetitions of each batch workload this narrowed the spread (IQR over
median) from 0.28 to 0.12 (fig2-turbo), 0.14 to 0.07 (fig4-sweep) and
0.10 to 0.06 (paper-capture); timing a loop before and after each
repetition instead widened it for the long repetitions.

The loop is the benchmark's own code, so no change to the program can
change it. It runs only on the main thread, which is why the two-thread
serve workload is not scaled: there the handler would compete with the
clients for the interpreter lock.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter

SAMPLE_ITERATIONS = 6000
SAMPLE_EVERY_S = 0.25
#: one sample's duration on the reference host (2-CPU container, Python
#: 3.11); a fixed constant, so scaled times keep seconds as their unit
REFERENCE_S = 0.003


def sample() -> float:
    """Seconds for one pass of the reference loop."""
    start = perf_counter()
    table: dict[int, int] = {}
    counts = [0] * 64
    for i in range(SAMPLE_ITERATIONS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = i
        if len(table) > 4096:
            table.pop(next(iter(table)))
        counts[i & 63] += 1
    return perf_counter() - start


class Timer:
    """Times the calls it runs, raw and scaled to the reference host.

    ``raw_s`` sums host seconds. ``scaled_s`` sums each call's seconds
    net of the samples taken during it, scaled by the samples' mean
    (a call too short to be sampled gets one sample afterwards).
    ``span`` (a context-manager factory) wraps every timed call, and a
    timer built with ``sampled=False`` takes no samples, which the
    traced repetition uses so that no span contains benchmark code.
    """

    def __init__(self, sampled: bool = True, span=None) -> None:
        self.sampled = sampled
        self.span = span
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.samples: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        taken: list[float] = []
        if self.sampled:
            previous = signal.signal(
                signal.SIGALRM, lambda _sig, _frame: taken.append(sample())
            )
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = perf_counter()
        try:
            if self.span is None:
                out = fn(*args, **kwargs)
            else:
                with self.span():
                    out = fn(*args, **kwargs)
        finally:
            raw = perf_counter() - start
            if self.sampled:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.raw_s += raw
        if self.sampled:
            net = raw - sum(taken)
            if not taken:
                taken.append(sample())
            self.samples += taken
            self.scaled_s += net * REFERENCE_S / mean(taken)
        else:
            self.scaled_s += raw
        return out
