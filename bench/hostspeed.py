"""Wall-clock time at a reference host speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over tens of seconds (other tenants, frequency changes).  That
drift hits the simulator and any other Python code alike, so a
stopwatch here times a fixed pure-Python kernel between stretches of
measured work and divides each stretch by how slow the host was just
before and just after it.  The result is the stretch's length on a host
running at :data:`REFERENCE_S` per kernel call.

The kernel is this module's own code and never calls the simulator, so
a change to the simulator cannot change the yardstick.  It walks a
megabyte-sized object table in pseudo-random order, pushing onto a
heap and counting into a dict: the interpreter work the simulator's
event loop does, with a working set larger than the core's caches.
"""

from __future__ import annotations

import heapq
import time

#: Kernel iterations per probe.
ITERATIONS = 10_000
#: Seconds one probe takes at the reference speed: the median, between
#: simulator runs, on the host the benchmark was defined on (2-core
#: Intel Xeon VM, Python 3.11) in its faster state; the same host
#: measured up to 1.8x slower while other tenants were busy.
REFERENCE_S = 0.011
#: Measured work between two probes, in wall seconds.
PROBE_EVERY_S = 0.25


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 2

    def step(self, value: int) -> int:
        return self.key + value


class HostClock:
    """Accumulates wall seconds per phase, raw and at reference speed.

    Call :meth:`add` after each stretch of work.  Stretches are pooled
    until :data:`PROBE_EVERY_S` of work has accumulated (or ``probe`` is
    set), then the kernel runs once and every pooled stretch is scaled
    by the mean of the host speeds measured on either side of it.
    """

    def __init__(self) -> None:
        self.raw: dict[str, float] = {}
        self.ref: dict[str, float] = {}
        self.probes: list[float] = []
        self._table = [_Node(i) for i in range(1 << 14)]
        self._pending: list[tuple[str, float]] = []
        self._probe()  # the first call runs cold; it does not count
        self.probes.clear()
        self._slowdown = self._probe()

    def _probe(self) -> float:
        """Run the kernel once; host slowdown relative to reference."""
        table = self._table
        heap: list = []
        counts: dict[int, int] = {}
        x = 1
        acc = 0
        start = time.perf_counter()
        for i in range(ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x3FFF
            node = table[x]
            acc += node.step(i)
            heapq.heappush(heap, (x, i, node))
            if len(heap) > 512:
                heapq.heappop(heap)
            counts[x & 4095] = counts.get(x & 4095, 0) + 1
        elapsed = time.perf_counter() - start
        self.probes.append(elapsed)
        return elapsed / REFERENCE_S

    def add(self, phase: str, seconds: float, probe: bool = False) -> None:
        self._pending.append((phase, seconds))
        if probe or sum(s for _, s in self._pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        before = self._slowdown
        self._slowdown = self._probe()
        slowdown = (before + self._slowdown) / 2
        for phase, seconds in self._pending:
            self.raw[phase] = self.raw.get(phase, 0.0) + seconds
            self.ref[phase] = self.ref.get(phase, 0.0) + seconds / slowdown
        self._pending.clear()

    def timed(self, phase: str, fn, *args, probe: bool = False):
        """``fn(*args)``, its wall time added to ``phase``."""
        start = time.perf_counter()
        result = fn(*args)
        self.add(phase, time.perf_counter() - start, probe)
        return result
