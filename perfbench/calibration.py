"""A fixed probe of the host's speed, to take its drift out of the timings.

The host is shared, and its speed changes within seconds: the same
pure-Python loop runs at 43 to 61 rounds a second from one 3-second window
to the next, and two runs of one seed minutes apart differ by more than
two seeds do. So while a piece of work is timed, a timer signal interrupts
it every INTERVAL_S and runs a small fixed kernel, and the kernel also
runs a few times right before and right after the work. The work's time,
less the time spent in those interruptions, is reported at a fixed host
speed,

    reported = (measured - probes inside) * NOMINAL_NS / mean probe time,

that is, in the nanoseconds the work would take on a host where the
kernel takes NOMINAL_NS. The kernel imports nothing from ccgraph and its
inputs are fixed, so a change to the program moves the reported figures
exactly as it moves the measured ones, while a slow spell of the host
slows the kernel and the work alike. Its mix (edge relaxation over numpy
columns, a binary heap, dict traffic, a numpy sort) follows the mix of
ccgraph's answers, because the host's slow spells slow some kinds of work
more than others: a plain interpreter loop slowed by 40% where an answer
slowed by 70%, while this mix slows about as much as the answers do.

The signal handler runs in the main thread between bytecodes, so no
thread or process is added; a long call into numpy delays a probe but
does not lose it. The probes inside take about 5% of the work's time and
are subtracted; what they do to the work's caches is not.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

import numpy as np

NOMINAL_NS = 2_000_000
INTERVAL_S = 0.05
BRACKET = 3

# Fixed inputs: a random digraph on 20000 vertices with 60000 edges as
# int64 columns, the size of an spt_flow instance.
_RNG = np.random.default_rng(12345)
_TAILS = _RNG.integers(0, 20_000, 60_000)
_HEADS = _RNG.integers(0, 20_000, 60_000)
_WEIGHTS = _RNG.integers(1, 4, 60_000)
_KEYS = _RNG.integers(0, 1 << 20, 4_000)


def kernel() -> int:
    """About 2 ms of the kinds of work ccgraph's answers are made of."""
    # Edge relaxation over numpy columns into a list, as in Bellman-Ford
    # and the flow searches.
    dist = list(range(20_000))
    for j in range(0, 60_000, 60):
        v = int(_HEADS[j])
        nd = dist[int(_TAILS[j])] + int(_WEIGHTS[j])
        if nd < dist[v]:
            dist[v] = nd
    # A priority queue, as in Dijkstra.
    heap: list[tuple[int, int]] = []
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 601, i))
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    # Dict and tuple traffic, as in the label sweeps and parsing.
    table: dict[tuple[int, int], int] = {}
    for i in range(800):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + dist[i]
    # A numpy sort and scan, as in building adjacency lists.
    order = np.argsort(_KEYS, kind="stable")
    return total + len(table) + int(np.cumsum(_KEYS[order])[-1] % 1000)


def probe() -> int:
    """Wall time of one kernel, in ns."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


class Speedometer:
    """Times calls with the host's speed probed before, during and after.

    Only one instance may exist: it owns the SIGALRM handler.
    """

    def __init__(self):
        self._inside: list[tuple[int, int]] = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        for _ in range(BRACKET):
            probe()

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter_ns()
        kernel()
        self._inside.append((t0, time.perf_counter_ns() - t0))

    def time(self, fn):
        """Call fn(); return (result, ns measured less the probes inside,
        the same at the nominal host speed). Exceptions pass through."""
        before = [probe() for _ in range(BRACKET)]
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = time.perf_counter_ns()
            result = fn()
            t1 = time.perf_counter_ns()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        # A signal that arrived as the timer stopped may run its probe
        # after t1; only probes that started inside the call count.
        inside = [ns for start, ns in self._inside if t0 <= start < t1]
        after = [probe() for _ in range(BRACKET)]
        work = t1 - t0 - sum(inside)
        return (result, work,
                work * NOMINAL_NS / statistics.fmean(before + inside + after))

    def after(self, ns: float) -> float:
        """`ns` that ended just now, at the nominal host speed, from
        probes taken after it alone."""
        return ns * NOMINAL_NS / statistics.fmean(
            probe() for _ in range(BRACKET))
