"""Outside-in per-layer tracing: call counts and self time at the layer
boundaries, recorded from the benchmark's own files.

:class:`Tracer` replaces public methods at class level with a timing
wrapper before the scenario is built, and puts the originals back
afterwards (``restore`` is idempotent and runs from ``finally``).  Each
wrapper keeps ``[calls, total seconds, self seconds]`` in memory; a
call stack turns total time into self time, so a layer's number
excludes the wrapped calls it makes into other layers.

Only methods that other code calls directly are wrapped.  A method the
kernel dispatches as a scheduled callback is left alone: the
self-profiler attributes a dispatch by its callback's owner, and a
wrapper would move that time into this module.

A target that no longer exists (renamed class or method, removed
module) is skipped and listed in ``skipped``; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import time
from types import FunctionType

#: (metric prefix, "package:Class", method, also wrap subclasses).
#: Subclass overrides are wrapped too where the layer is a family
#: (every qdisc, every connection end).
TARGETS = (
    ("sim.call_later", "repro.sim:Simulator", "call_later", False),
    ("sim.process", "repro.sim:Simulator", "process", False),
    ("net.enqueue", "repro.net:Interface", "enqueue", False),
    ("net.carry", "repro.net:Link", "carry", False),
    ("net.qdisc", "repro.net:Qdisc", "enqueue", True),
    ("net.qdisc", "repro.net:Qdisc", "dequeue", True),
    ("transport.send", "repro.transport:ConnectionEnd", "send", True),
    ("transport.handle_packet", "repro.transport:ConnectionEnd",
     "handle_packet", True),
    ("transport.connect", "repro.transport:TransportStack", "connect", False),
    ("transport.fluid", "repro.transport:FluidModel", "start_transfer",
     False),
    ("transport.mux.send", "repro.transport:MuxConnection", "send", False),
    ("mesh.gateway.submit", "repro.mesh:IngressGateway", "submit", False),
    ("mesh.request", "repro.mesh:Sidecar", "request", False),
    ("mesh.record_request", "repro.mesh:Telemetry", "record_request", False),
    ("overload.admit", "repro.overload:AdmissionGate", "admit", False),
    ("overload.offer", "repro.overload:LevelingQueue", "offer", False),
    ("overload.retry_acquire", "repro.overload:RetryBudget", "try_acquire",
     False),
    ("obs.finish_request", "repro.obs:LayerAttributor", "finish_request",
     False),
    ("obs.queue_wait", "repro.obs:LayerAttributor", "observe_queue_wait",
     False),
    ("obs.graph.observe", "repro.obs:GraphCollector", "observe_request",
     False),
    ("obs.slo.observe", "repro.obs:SloEngine", "observe", False),
    ("workload.record", "repro.workload:LatencyRecorder", "record", False),
)

#: The target whose receivers are kept: a retransmission happens on the
#: end that sent the data, so ``transport.retransmits`` sums over them.
SENDS = "transport.send"


def _resolve(path: str):
    module, _, name = path.partition(":")
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _family(cls) -> list:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """Class-level call/self-time wrappers over :data:`TARGETS`."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        #: metric prefix -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: id -> every connection end :data:`SENDS` was called on
        self.senders: dict[int, object] = {}
        self.skipped: list[str] = []
        self._patched: list[tuple] = []
        self._stack: list[float] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.skipped = []
        for name, path, attr, subclasses in self.targets:
            self.stats.setdefault(name, [0, 0.0, 0.0])
            cls = _resolve(path)
            if cls is None or not isinstance(getattr(cls, attr, None),
                                             FunctionType):
                self.skipped.append(f"{path}.{attr}")
                continue
            # One call through an override that delegates to super()
            # counts once: the outermost wrapper on a receiver accounts.
            inside = set() if subclasses else None
            for owner in _family(cls) if subclasses else [cls]:
                original = owner.__dict__.get(attr)
                if isinstance(original, FunctionType):
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, inside))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, inside: set | None):
        cell = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        keep = self.senders if name == SENDS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            receiver = id(args[0])
            if inside is not None:
                if receiver in inside:
                    return fn(*args, **kwargs)
                inside.add(receiver)
            if keep is not None:
                keep[receiver] = args[0]
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if inside is not None:
                    inside.discard(receiver)
                child = stack.pop()
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return traced

    def report(self, sim=None, cluster=None, mesh=None, gateway=None) -> dict:
        """Calls and times per target, the self-profiler's sections, and
        end-of-run counters read off the scenario's objects."""
        calls = {
            name: {"calls": c, "total_s": total, "self_s": own}
            for name, (c, total, own) in sorted(self.stats.items())
        }
        profile = None
        if sim is not None and sim.profiler is not None:
            profile = sim.profiler.report()
        counters, missing = read_counters(cluster, mesh, gateway, self.senders)
        return {
            "calls": calls,
            "profile": profile,
            "counters": counters,
            "skipped": self.skipped + missing,
        }


def read_counters(cluster, mesh, gateway, senders) -> tuple[dict, list]:
    """Per-layer counters the simulation keeps, read after the drain.
    A counter whose attribute is gone is reported missing, not fatal."""
    counters: dict[str, float] = {}
    missing: list[str] = []

    def probe(name, fn):
        try:
            counters[name] = fn()
        except AttributeError as error:
            missing.append(f"{name}: {error}")

    def interfaces():
        devices = cluster.network.devices
        return [i for n in sorted(devices) for i in devices[n].interfaces]

    probe("net.qdisc.drops",
          lambda: sum(i.qdisc.stats.dropped for i in interfaces()))
    probe("net.wire_bytes",
          lambda: sum(i.bytes_transmitted for i in interfaces()))
    probe("net.fluid_bytes",
          lambda: sum(i.fluid_bytes_transmitted for i in interfaces()))
    probe("transport.retransmits",
          lambda: sum(c.retransmits for c in senders.values()))
    probe("mesh.spans_retained",
          lambda: sum(len(t.spans) for t in mesh.tracer.traces))
    probe("mesh.retries", lambda: mesh.telemetry.retries_total)
    probe("overload.shed",
          lambda: gateway.requests_shed
          + mesh.telemetry.overload_rejections_total)
    return counters, missing
