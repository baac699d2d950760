"""Resource-capacity observability: USE metrics for every shared resource.

The rest of the plane watches *requests* (latency attribution, RED
edges, SLOs); this module watches the *resources* those requests
contend for, using Brendan Gregg's USE method — per resource, track:

* **Utilization** — the time-weighted busy fraction over a trailing
  window (a :class:`~repro.obs.windows.WindowedGauge` fed
  ``in_use / capacity`` at every state transition, so the mean is the
  exact busy integral, not a sample average);
* **Saturation** — the degree of queueing for the resource (waiter
  count, buffer depth, admission stride), same time-weighted window;
* **Errors** — work the resource refused (sheds, rejects, displaced
  entries, qdisc drops), a windowed counter plus a cumulative total.

Registered resources span every layer of the simulation: pod
app-framework worker pools (``Pod.cpu``), sidecar leveling queues and
per-service concurrency pools, ambient node-proxy pools, the ingress
admission gate, retry budgets, links (packet *and* fluid bytes), and
qdisc backlogs.

The zero-overhead-when-detached contract matches the attributor/SLO/
graph hooks: ``Telemetry.resources`` is ``None`` by default, every
instrumented hot path pays a single ``is None`` branch, and **no sim
events exist** unless a collector is installed (the link sampler
process is created by :meth:`ResourceCollector.install`, never by the
scenario itself) — so detached runs keep byte-identical event counts
and digests.

On top of the telemetry sits the capacity analyzer: fit each resource's
utilization against offered load (:func:`fit_capacity`), rank which
resource saturates first as load grows (:func:`rank_bottlenecks`), and
predict the saturation knee the X-9 overload harness measures
empirically — the signal observability-driven autoscaling needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import MetricsRegistry
from .promexport import prometheus_text
from .windows import DEFAULT_SLICES, WindowedCounter, WindowedGauge

#: Default trailing window for the USE gauges (seconds of sim time).
DEFAULT_USE_WINDOW_S = 8.0

#: Link/qdisc polling cadence; the sampler process only exists while a
#: collector is installed, so detached runs never pay these events.
DEFAULT_POLL_INTERVAL_S = 0.25

#: Utilization below which a sweep point is "sub-knee": the fit trusts
#: only the linear region (past the knee, measured utilization clips at
#: 1.0 and would flatten the slope).
SUBKNEE_UTILIZATION = 0.85

#: Snapshot CSV header — also the magic ``repro compare`` keys on.
RESOURCES_CSV_HEADER = (
    "resource,kind,node,capacity,utilization,util_max,"
    "saturation,sat_max,errors"
)


class TrackedResource:
    """One resource's USE triple over a trailing window."""

    def __init__(
        self,
        name: str,
        kind: str,
        node: str,
        capacity: float,
        window: float = DEFAULT_USE_WINDOW_S,
        slices: int = DEFAULT_SLICES,
    ) -> None:
        self.name = name
        self.kind = kind
        self.node = node
        self.capacity = float(capacity)
        self.util = WindowedGauge(window, slices)
        self.sat = WindowedGauge(window, slices)
        self.errors = WindowedCounter(window, slices)
        self.errors_total = 0.0
        self._busy = 0  # pool occupancy for busy_acquire/busy_release

    def sample(self, now: float, in_use: float, queued: float) -> None:
        """Record a state transition: ``in_use`` units busy (scaled by
        capacity into the utilization gauge) and ``queued`` waiting."""
        scale = self.capacity if self.capacity > 0 else 1.0
        self.util.set(now, in_use / scale)
        self.sat.set(now, float(queued))

    def sample_raw(self, now: float, utilization: float, saturation: float) -> None:
        """Record pre-scaled levels (polled resources compute their own
        busy fraction from counter deltas)."""
        self.util.set(now, utilization)
        self.sat.set(now, float(saturation))

    def busy_acquire(self, now: float, queued: float = 0.0) -> None:
        """Pool-style tracking for resources without a counted grant
        object (sidecar inbound workers): one unit goes busy."""
        self._busy += 1
        self.sample(now, self._busy, queued)

    def busy_release(self, now: float, queued: float = 0.0) -> None:
        self._busy -= 1
        self.sample(now, self._busy, queued)

    def error(self, now: float, amount: float = 1.0) -> None:
        """Count refused work (shed/reject/displace/drop)."""
        self.errors.add(now, amount)
        self.errors_total += amount

    def row(self, now: float) -> dict:
        """The snapshot row: plain primitives, picklable across the
        sweep engine's process boundary."""
        return {
            "resource": self.name,
            "kind": self.kind,
            "node": self.node,
            "capacity": self.capacity,
            "utilization": self.util.mean(now),
            "util_max": self.util.maximum(now),
            "saturation": self.sat.mean(now),
            "sat_max": self.sat.maximum(now),
            "errors": self.errors_total,
        }


class _PolledInterface:
    """Cumulative-counter poller for one interface: busy-time deltas
    (packet serialization *plus* fluid occupancy, so the flow-level fast
    path is never invisible) and qdisc backlog/drops."""

    def __init__(self, iface, link: TrackedResource, qdisc: TrackedResource,
                 interval: float) -> None:
        self.iface = iface
        self.link = link
        self.qdisc = qdisc
        self.interval = interval
        self._last_busy = iface.busy_time + iface.fluid_busy_time
        self._last_drops = iface.qdisc.stats.dropped

    def poll(self, now: float) -> None:
        iface = self.iface
        busy = iface.busy_time + iface.fluid_busy_time
        utilization = min(1.0, (busy - self._last_busy) / self.interval)
        self._last_busy = busy
        self.link.sample_raw(now, utilization, len(iface.qdisc))
        drops = iface.qdisc.stats.dropped
        if drops > self._last_drops:
            self.qdisc.error(now, drops - self._last_drops)
        self._last_drops = drops
        limit = getattr(iface.qdisc, "limit_packets", None)
        occupancy = len(iface.qdisc) / limit if limit else 0.0
        self.qdisc.sample_raw(now, occupancy, iface.qdisc.backlog_bytes)


class ResourceCollector:
    """The resource-capacity plane: a registry of tracked resources plus
    the wiring that hooks every contended resource of a built scenario.

    Construct one, pass it to
    :class:`~repro.obs.plane.ObservabilityPlane` (``resources=``), and
    ``install`` walks the scenario: pod worker pools, sidecar leveling
    queues / concurrency pools / retry budgets, ambient node proxies,
    the ingress admission gate, and (via a polling process that exists
    only while installed) every interface and qdisc.
    """

    def __init__(
        self,
        window: float = DEFAULT_USE_WINDOW_S,
        poll_interval: float = DEFAULT_POLL_INTERVAL_S,
        slices: int = DEFAULT_SLICES,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.window = float(window)
        self.poll_interval = float(poll_interval)
        self.slices = int(slices)
        self._trackers: dict[str, TrackedResource] = {}
        self._pollers: list[_PolledInterface] = []
        self._sampling = False
        self.installed = False

    def __len__(self) -> int:
        return len(self._trackers)

    def track(self, name: str, kind: str, node: str, capacity: float) -> TrackedResource:
        """Get-or-create the tracker for ``name``."""
        tracker = self._trackers.get(name)
        if tracker is None:
            tracker = TrackedResource(
                name, kind, node, capacity, window=self.window, slices=self.slices
            )
            self._trackers[name] = tracker
        return tracker

    def tracker(self, name: str) -> TrackedResource:
        return self._trackers[name]

    # -- wiring: event-driven hooks ------------------------------------

    def watch_counted(self, name: str, kind: str, node: str, resource) -> TrackedResource:
        """Hook a :class:`repro.sim.Resource` (pod CPU pools, node-proxy
        worker pools): its ``monitor`` fires on every acquire/release,
        which is every utilization/queue transition."""
        tracker = self.track(name, kind, node, float(resource.capacity))

        def monitor(res, _t=tracker):
            _t.sample(res.sim.now, res.in_use, res.queue_length)

        resource.monitor = monitor
        tracker.sample(resource.sim.now, resource.in_use, resource.queue_length)
        return tracker

    def watch_leveling(self, name: str, node: str, queue) -> TrackedResource:
        """Hook a sidecar :class:`~repro.overload.LevelingQueue`:
        occupancy is utilization *and* saturation (it is a buffer), and
        rejected/displaced entries are errors."""
        from ..overload.limiter import REJECTED

        tracker = self.track(name, "leveling-queue", node, float(queue.depth))
        sim = queue.store.sim

        def monitor(outcome, displaced, _t=tracker, _q=queue, _sim=sim):
            now = _sim.now
            if outcome == REJECTED:
                _t.error(now)
            if displaced is not None:
                _t.error(now)
            _t.sample(now, len(_q), len(_q))

        queue.monitor = monitor
        tracker.sample(sim.now, len(queue), len(queue))
        return tracker

    def watch_gate(self, name: str, node: str, gate, sim) -> TrackedResource:
        """Hook the CoDel admission gate: the time-weighted mean of the
        0/1 dropping state is the *fraction of time spent shedding*, the
        stride is saturation (how hard the protected class is thinned),
        and every shed arrival is an error."""
        tracker = self.track(name, "admission-gate", node, 1.0)

        def monitor(now, admitted, _t=tracker, _g=gate):
            if not admitted:
                _t.error(now)
            _t.sample(now, 1.0 if _g.dropping else 0.0, float(_g.stride))

        gate.monitor = monitor
        tracker.sample(sim.now, 0.0, 0.0)
        return tracker

    def watch_budget(self, name: str, node: str, budget, sim) -> TrackedResource:
        """Hook a sidecar :class:`~repro.overload.RetryBudget`:
        utilization is retries-in-flight over the current limit,
        saturation is the active-request denominator, denials are
        errors."""
        tracker = self.track(name, "retry-budget", node, 1.0)

        def monitor(b, denied, _t=tracker, _sim=sim):
            now = _sim.now
            if denied:
                _t.error(now)
            _t.sample(
                now,
                b.active_retries / max(b.limit, 1),
                float(b.active_requests),
            )

        budget.monitor = monitor
        tracker.sample(sim.now, 0.0, 0.0)
        return tracker

    # -- wiring: polled resources --------------------------------------

    def poll_interface(self, iface) -> None:
        """Register an interface for periodic USE sampling: the link's
        busy fraction (packet + fluid) and its qdisc's backlog/drops."""
        node = iface.owner.name if iface.owner is not None else ""
        link = self.track(f"link:{iface.name}", "link", node, iface.rate_bps)
        qdisc = self.track(f"qdisc:{iface.name}", "qdisc", node, 0.0)
        self._pollers.append(
            _PolledInterface(iface, link, qdisc, self.poll_interval)
        )

    def _run_sampler(self, sim):
        while True:
            yield sim.timeout(self.poll_interval)
            now = sim.now
            for poller in self._pollers:
                poller.poll(now)

    # -- wiring: the scenario walk -------------------------------------

    def install(self, sim, mesh=None, cluster=None, network=None, gateway=None):
        """Hook every contended resource of a built scenario.  Any
        argument may be ``None`` to skip that layer (unit tests exercise
        single layers); ``network`` defaults to ``cluster.network``."""
        if mesh is not None:
            mesh.telemetry.resources = self
            for sidecar in mesh.sidecars:
                self._watch_sidecar(sidecar)
            for proxy in sorted(
                getattr(mesh.dataplane, "node_proxies", []),
                key=lambda p: p.node.name,
            ):
                self.watch_counted(
                    f"nodeproxy:{proxy.node.name}",
                    "proxy-pool",
                    proxy.node.name,
                    proxy.workers,
                )
        if gateway is not None and gateway.admission is not None:
            self.watch_gate(
                "gate:ingress",
                gateway.sidecar.pod.node.name,
                gateway.admission,
                gateway.sim,
            )
        if cluster is not None:
            for pod in cluster.pods:
                self.watch_counted(
                    f"cpu:{pod.name}", "worker-pool", pod.node.name, pod.cpu
                )
            if network is None:
                network = cluster.network
        if network is not None:
            for name in sorted(network.devices):
                for iface in network.devices[name].interfaces:
                    self.poll_interface(iface)
        if sim is not None and self._pollers and not self._sampling:
            self._sampling = True
            sim.process(self._run_sampler(sim), name="resource-sampler")
        self.installed = True
        return self

    def _watch_sidecar(self, sidecar) -> None:
        pod = sidecar.pod.name
        node = sidecar.pod.node.name
        queue = sidecar._inbound_queue
        # The overload posture's queue displaces; the legacy one rejects.
        if queue is not None and queue.displace:
            self.watch_leveling(f"leveling:{pod}", node, queue)
        if sidecar._retry_budget is not None:
            self.watch_budget(
                f"retry-budget:{pod}", node, sidecar._retry_budget, sidecar.sim
            )
        overload = sidecar._overload
        concurrency = (
            overload.concurrency
            if overload is not None and overload.concurrency is not None
            else sidecar.config.inbound_concurrency
        )
        if queue is not None and concurrency:
            tracker = self.track(
                f"sidecar-pool:{pod}", "concurrency", node, float(concurrency)
            )
            tracker.sample(sidecar.sim.now, 0, 0)
            sidecar._worker_tracker = tracker

    # -- outputs -------------------------------------------------------

    def snapshot(self, now: float) -> list[dict]:
        """Every tracked resource's USE row, sorted by name."""
        return [
            self._trackers[name].row(now) for name in sorted(self._trackers)
        ]

    def csv(self, now: float) -> str:
        return rows_csv(self.snapshot(now))

    def prometheus(self, now: float) -> str:
        return rows_prometheus(self.snapshot(now))

    def fill_registry(self, registry: MetricsRegistry, now: float) -> None:
        fill_registry_from_rows(registry, self.snapshot(now))

    def text(self, now: float) -> str:
        lines = ["resource  kind  node  util  sat  errors"]
        for row in self.snapshot(now):
            lines.append(
                f"{row['resource']}  {row['kind']}  {row['node']}  "
                f"{row['utilization']:.3f}  {row['saturation']:.2f}  "
                f"{row['errors']:.0f}"
            )
        return "\n".join(lines)


# -- row-level exports (rows are plain dicts, so harnesses that carried
# them across a process boundary can export without the collector) -----


def rows_csv(rows: list[dict]) -> str:
    """Snapshot rows in the :data:`RESOURCES_CSV_HEADER` format."""
    lines = [RESOURCES_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join([
                row["resource"],
                row["kind"],
                row["node"],
                f"{row['capacity']:g}",
                f"{row['utilization']:.6f}",
                f"{row['util_max']:.6f}",
                f"{row['saturation']:.4f}",
                f"{row['sat_max']:.4f}",
                f"{row['errors']:.0f}",
            ])
        )
    return "\n".join(lines) + "\n"


def fill_registry_from_rows(registry: MetricsRegistry, rows: list[dict]) -> None:
    """Export snapshot rows into a registry as the Prometheus families
    ``repro_resource_{utilization,saturation,errors_total}`` with
    ``{resource,kind,node}`` labels (gauges carry window max as the
    registry's high-water mark)."""
    for row in rows:
        labels = {
            "resource": row["resource"],
            "kind": row["kind"],
            "node": row["node"],
        }
        gauge = registry.gauge("repro_resource_utilization", **labels)
        gauge.value = row["utilization"]
        gauge.maximum = max(gauge.maximum, row["util_max"])
        gauge = registry.gauge("repro_resource_saturation", **labels)
        gauge.value = row["saturation"]
        gauge.maximum = max(gauge.maximum, row["sat_max"])
        registry.counter("repro_resource_errors_total", **labels).inc(
            row["errors"]
        )


def rows_prometheus(rows: list[dict]) -> str:
    """Snapshot rows as Prometheus text exposition."""
    registry = MetricsRegistry()
    fill_registry_from_rows(registry, rows)
    return prometheus_text(registry.snapshot())


# -- the capacity analyzer ---------------------------------------------


def fit_capacity(
    points: list[tuple[float, float]],
    subknee: float = SUBKNEE_UTILIZATION,
) -> float:
    """Max sustainable RPS from a utilization-vs-offered-load fit.

    Utilization of a stable resource is linear in offered load
    (``util = load × service_demand``), so a least-squares fit *through
    the origin* over the sub-knee points yields the demand slope, and
    the load at which utilization reaches 1.0 — the predicted knee — is
    ``1 / slope``.  Points at or past the knee are excluded (measured
    utilization clips at 1.0 and would flatten the slope); a resource
    whose utilization never registers predicts ``inf`` (it is not the
    bottleneck at any swept load).
    """
    usable = [(rps, util) for rps, util in points if rps > 0 and util < subknee]
    if not usable:
        usable = [(rps, util) for rps, util in points if rps > 0]
    if not usable:
        return float("inf")
    denominator = sum(rps * rps for rps, _util in usable)
    slope = sum(rps * util for rps, util in usable) / denominator
    if slope <= 0:
        return float("inf")
    return 1.0 / slope


@dataclass(frozen=True)
class CapacityEstimate:
    """One resource's fitted capacity across a load sweep."""

    resource: str
    kind: str
    node: str
    predicted_max_rps: float
    #: Highest windowed utilization observed anywhere in the sweep.
    peak_utilization: float

    @property
    def headroom(self) -> float:
        """Utilization headroom left at the sweep's hottest point."""
        return max(0.0, 1.0 - self.peak_utilization)


def rank_bottlenecks(curves: dict[str, dict]) -> list[CapacityEstimate]:
    """Rank resources by which saturates first as offered load grows.

    ``curves`` maps resource name to ``{"kind", "node", "points"}``
    where points is ``[(offered_rps, utilization), ...]``.  The first
    estimate — smallest predicted max RPS, ties broken by peak
    utilization then name — is the predicted bottleneck.
    """
    estimates = []
    for name in sorted(curves):
        entry = curves[name]
        points = list(entry.get("points", []))
        peak = max((util for _rps, util in points), default=0.0)
        estimates.append(
            CapacityEstimate(
                resource=name,
                kind=entry.get("kind", ""),
                node=entry.get("node", ""),
                predicted_max_rps=fit_capacity(points),
                peak_utilization=peak,
            )
        )
    estimates.sort(
        key=lambda e: (e.predicted_max_rps, -e.peak_utilization, e.resource)
    )
    return estimates
