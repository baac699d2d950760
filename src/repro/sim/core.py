"""The discrete-event simulator kernel.

The kernel maintains a time-ordered heap of triggered events and scheduled
calls and processes them one at a time, advancing the simulated clock to
each entry's due time. Time is a float in seconds. Determinism is
guaranteed by a monotonically increasing tie-break sequence number:
entries scheduled for the same instant are processed in scheduling order.
"""

from __future__ import annotations

import heapq
import time
from types import FunctionType, MethodType
from typing import Callable, Iterable

from .errors import StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process


_heappush = heapq.heappush
_heappop = heapq.heappop


class _ScheduledCall:
    """A :meth:`Simulator.call_later` callback, pushed onto the heap as is.

    The entry is its own heap item and its own cancellable handle: it
    has the ``_process()`` the dispatch loop calls, so a scheduled call
    costs no :class:`Event`, no callbacks list and no ``_enqueue_event``
    frame.  The self-profiler reads ``fn`` to attribute the dispatch to
    the callee's owner.  ``pending`` turns False once the call has run
    or been cancelled.
    """

    __slots__ = ("fn", "args", "pending")

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args
        self.pending = True

    def _process(self) -> None:
        if self.pending:
            self.pending = False
            self.fn(*self.args)


def _make_profiled_hooks(sim: "Simulator", profiler):
    """Build the self-profiling dispatch hooks (``step``, ``_advance``).

    Closures rather than methods so every hot name — the heap, the
    profiler's count/second tables, the key cache — is a local.  Per
    event the loop reduces the scheduled call's ``fn`` (or an event's
    first callback) to a hashable key with plain type checks
    (``getattr`` with a missed attribute costs ~10x a hit, so no
    speculative lookups), resolves the section through the key cache,
    and bumps its count.  Only every ``timing_stride``-th event pays
    the ``perf_counter`` pair; explicit sections observe the
    ``_timing`` flag and skip their own timing on unsampled dispatches.

    ``_advance`` fuses the dispatch body straight into the run loop —
    no per-event ``step()`` frame — which pays back a large share of
    the instrumentation cost.  ``step`` wraps the same body for direct
    single-event callers; the two must stay in sync.
    """
    heappop = _heappop
    perf_counter = time.perf_counter
    queue = sim._queue
    cache = profiler._key_cache
    classify = profiler._classify
    extra_counts = profiler._extra_counts
    extra_seconds = profiler._extra_seconds
    stride = profiler.timing_stride
    tick = 0
    profiler._timing = False

    def advance(deadline: float) -> None:
        nonlocal tick
        while queue and queue[0][0] < deadline:
            when, _seq, event = heappop(queue)
            sim._now = when
            sim._event_count += 1
            # Branches ordered by observed frequency: scheduled calls
            # dominate (packet timers), then process resumes.
            if event.__class__ is _ScheduledCall:
                fn = event.fn
                fn_cls = fn.__class__
                if fn_cls is MethodType:
                    key = fn.__self__.__class__
                elif fn_cls is FunctionType:
                    key = fn.__code__
                else:
                    key = fn_cls
            elif event.callbacks:
                owner = event.callbacks[0]
                cls = owner.__class__
                if cls is MethodType:
                    obj = owner.__self__
                    # Process resume: attribute to the generator's code.
                    key = (
                        obj._generator.gi_code
                        if obj.__class__ is Process
                        else obj.__class__
                    )
                elif cls is FunctionType:
                    # Keyed by code object: closures are re-created per
                    # call site, their code is shared.
                    key = owner.__code__
                else:
                    key = cls
            else:
                key = None
            try:
                cell = cache[key]
            except KeyError:
                cell = classify(key)
            cell[0] += 1
            tick += 1
            if tick >= stride:
                tick = 0
                profiler._timing = True
                profiler._child = 0.0
                start = perf_counter()
                event._process()
                elapsed = perf_counter() - start
                profiler._timing = False
                cell[1] += elapsed - profiler._child
            else:
                event._process()

    def step() -> None:
        # Single-event mirror of the fused loop for direct callers
        # (``run(until=<Event>)``, tests).  Off the hot path, so it
        # classifies through the uncached slow path and accumulates
        # into the section-keyed extras.
        nonlocal tick
        when, _seq, event = heappop(queue)
        sim._now = when
        sim._event_count += 1
        if event.__class__ is _ScheduledCall:
            owner = event
        else:
            owner = event.callbacks[0] if event.callbacks else None
        section = profiler._section_of(owner)
        extra_counts[section] = extra_counts.get(section, 0) + 1
        tick += 1
        if tick >= stride:
            tick = 0
            profiler._timing = True
            profiler._child = 0.0
            start = perf_counter()
            event._process()
            elapsed = perf_counter() - start
            profiler._timing = False
            extra_seconds[section] = (
                extra_seconds.get(section, 0.0) + elapsed - profiler._child
            )
        else:
            event._process()

    return step, advance


class Simulator:
    """A discrete-event simulation kernel.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list = []
        self._sequence = 0
        self._active_process: Process | None = None
        self._event_count = 0
        #: Optional :class:`repro.obs.profile.SimProfiler`.  ``None``
        #: means no profiling hooks are installed: ``step`` stays the
        #: plain class method and the dispatch loop is untouched.
        self.profiler = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (diagnostics)."""
        return self._event_count

    # -- event factories -------------------------------------------------
    def event(self, name: str | None = None) -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self, name=name)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name: str | None = None) -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def call_at(self, when: float, callback: Callable, *args) -> _ScheduledCall:
        """Run ``callback(*args)`` at absolute simulated time ``when``.

        Returns the cancellable handle :meth:`cancel_call` takes.  The
        instant is ``now + (when - now)``, as :meth:`call_later` computes
        it, which can differ from ``when`` by one ulp.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        return self.call_later(when - self._now, callback, *args)

    def call_later(self, delay: float, callback: Callable, *args) -> _ScheduledCall:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Returns the cancellable handle :meth:`cancel_call` takes (not an
        :class:`Event`: nothing can wait on it).  Calls and events due at
        the same instant run in the order they were scheduled.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        entry = _ScheduledCall(callback, args)
        self._sequence += 1
        _heappush(self._queue, (self._now + delay, self._sequence, entry))
        return entry

    def reserve(self, delay: float) -> tuple[float, int]:
        """Claim the heap position of a :meth:`call_later` made now.

        Returns the ``(due time, sequence number)`` key that
        ``call_later(delay, ...)`` would use at this moment, and
        schedules nothing.  :meth:`call_reserved` can later put a call
        under that key: it then runs exactly where the call made now
        would have run, both in time and among same-instant events.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._sequence += 1
        return self._now + delay, self._sequence

    def call_reserved(
        self, key: tuple[float, int], callback: Callable, *args
    ) -> _ScheduledCall:
        """Run ``callback(*args)`` under a key claimed by :meth:`reserve`.

        Returns the cancellable handle :meth:`cancel_call` takes.  The
        key's due time must not be in the past.
        """
        when, sequence = key
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        entry = _ScheduledCall(callback, args)
        _heappush(self._queue, (when, sequence, entry))
        return entry

    def cancel_call(self, handle: _ScheduledCall) -> bool:
        """Cancel a pending :meth:`call_later`/:meth:`call_at` callback.

        ``handle`` is what those methods returned.  Returns True if the
        call was pending, False once it has run or was already
        cancelled.  The heap entry stays (removing mid-heap would be
        O(n)); it is still popped, and counted as a processed event,
        but runs nothing.  The fluid transport cancels completions this
        way when a connection closes with transfers in flight.
        """
        if not handle.pending:
            return False
        handle.pending = False
        return True

    # -- profiling ---------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Install the self-profiling dispatch hook.

        ``step`` and ``_advance`` are overridden with instance
        attributes built by :func:`_make_profiled_hooks`: a fused
        dispatch loop that counts every event into its owning subsystem
        and stride-samples the wall-clock.  With no profiler attached
        there is nothing to pay: no wrapper, no branch.
        """
        if profiler is None:
            self.detach_profiler()
            return
        self.profiler = profiler
        self.step, self._advance = _make_profiled_hooks(self, profiler)

    def detach_profiler(self) -> None:
        """Remove the dispatch hooks, restoring the plain loop."""
        self.profiler = None
        self.__dict__.pop("step", None)
        self.__dict__.pop("_advance", None)

    # -- kernel ------------------------------------------------------------
    def _enqueue_event(self, event: Event, delay: float = 0.0) -> None:
        """Put a triggered event on the processing queue (kernel use)."""
        self._sequence += 1
        _heappush(self._queue, (self._now + delay, self._sequence, event))

    def peek(self) -> float:
        """Due time of the next event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its due time."""
        when, _seq, event = _heappop(self._queue)
        self._now = when
        self._event_count += 1
        event._process()

    def _advance(self, deadline: float) -> None:
        """Dispatch every event due strictly before ``deadline``.

        The inner loop of :meth:`run`, with :meth:`step`'s body fused in
        so there is no per-event method call; the profiler installs an
        instrumented override of the same shape.
        """
        queue = self._queue
        heappop = _heappop
        while queue and queue[0][0] < deadline:
            when, _seq, event = heappop(queue)
            self._now = when
            self._event_count += 1
            event._process()

    def run(self, until: float | Event | None = None):
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until simulated time reaches ``until``
          (events due exactly at ``until`` are *not* processed; the clock is
          left at ``until``).
        * ``until=<Event>`` — run until that event is processed, returning
          its value (or raising its exception).
        """
        if until is None:
            try:
                self._advance(float("inf"))
            except StopSimulation as stop:
                return stop.value
            return None

        if isinstance(until, Event):
            marker = until
            outcome: list = []

            def _mark(event: Event) -> None:
                outcome.append(event)

            if not marker.processed:
                marker.callbacks.append(_mark)
            else:
                outcome.append(marker)
            try:
                while not outcome:
                    if not self._queue:
                        raise RuntimeError(
                            "simulation ran out of events before the awaited "
                            f"event {marker!r} was processed"
                        )
                    self.step()
            except StopSimulation as stop:
                return stop.value
            return marker.value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"cannot run backwards ({deadline} < {self._now})")
        try:
            self._advance(deadline)
        except StopSimulation as stop:
            return stop.value
        self._now = deadline
        return None

    def stop(self, value=None) -> None:
        """Halt :meth:`run` from within a callback or process."""
        raise StopSimulation(value)

    def __repr__(self):
        return f"<Simulator t={self._now:.6f} queued={len(self._queue)}>"
