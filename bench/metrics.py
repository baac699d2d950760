"""Metric definitions: the per-layer table, summary statistics, and the
functions that turn run records into metric values.

End-to-end metrics are measured on untraced runs, one value per run.
Layer metrics come from the one traced run of a workload; the timings
among the ``derived`` ones (µs per event, set-up phases, harvest, trace
overhead) come from the untraced runs.  Every layer metric names the
end-to-end metrics it should move and on which workloads, so a change
that claims a gain in one layer can be checked against the prediction.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

ALL = ("fig4-packet", "fig4-mux", "dag-fluid", "dag-observed", "overload-shed")
FIG4 = ("fig4-packet", "fig4-mux")
DAG = ("dag-fluid", "dag-observed")
HYBRID = ("dag-fluid", "dag-observed", "overload-shed")
MESH = ("dag-fluid", "overload-shed")
SHED = ("overload-shed",)
OBSERVED = ("dag-observed",)


SETUP_PHASES = ("import", "build", "install")


def sim_rate(record: dict, clock: str = "ref_s") -> float:
    """Simulated seconds per second of run + drain."""
    return record["sim_time"] / record[clock]["run"]


def wall_s(record: dict, clock: str = "ref_s") -> float:
    """Seconds from before the import to outputs summarized."""
    return sum(record[clock].values())


def setup_s(record: dict, clock: str = "ref_s") -> float:
    """Seconds of import + build + observability-plane install."""
    return sum(record[clock].get(phase, 0.0) for phase in SETUP_PHASES)


#: End-to-end metric -> its value in one run record.  Times are at the
#: reference host speed (``hostspeed.py``); the same functions with
#: ``clock="raw_s"`` give the raw wall-clock readings.
END_TO_END = {
    "sim_rate": sim_rate,
    "wall_s": wall_s,
    "setup_s": setup_s,
    "peak_rss_mb": lambda record, clock="ref_s": record["peak_rss_mb"],
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: ``calls:<target>``, ``us:<target>`` (mean self µs per call),
    #: ``section:<profiler section>`` (self seconds), ``counter:<name>``
    #: or ``derived:<name>`` (computed in :func:`layer_values`).
    source: str
    #: End-to-end metrics this one should move, and on which workloads.
    moves: tuple
    workloads: tuple


RATE = ("sim_rate",)
OBS = ("sim_rate", "wall_s")

LAYER_METRICS = tuple(LayerMetric(*row) for row in (
    # sim: the event kernel.  One timer per packet on the packet path.
    ("sim.events", "count", "lower", "derived:events", RATE, ALL),
    ("sim.us_per_event", "us", "lower", "derived:us_per_event", RATE, ALL),
    ("sim.call_later.calls", "count", "lower", "calls:sim.call_later",
     RATE, FIG4),
    ("sim.call_later.us", "us", "lower", "us:sim.call_later", RATE, FIG4),
    ("sim.process.calls", "count", "lower", "calls:sim.process", RATE, ALL),
    ("sim.dispatch.self_s", "s", "lower", "section:dispatch", RATE, ALL),
    # net: interfaces, links and qdiscs.
    ("net.enqueue.calls", "count", "lower", "calls:net.enqueue", RATE, FIG4),
    ("net.enqueue.us", "us", "lower", "us:net.enqueue", RATE, FIG4),
    ("net.carry.calls", "count", "lower", "calls:net.carry", RATE, FIG4),
    ("net.qdisc.calls", "count", "lower", "calls:net.qdisc", RATE, FIG4),
    ("net.qdisc.us", "us", "lower", "us:net.qdisc", RATE, FIG4),
    ("net.qdisc.self_s", "s", "lower", "section:qdisc", RATE, FIG4),
    ("net.qdisc.drops", "count", "lower", "counter:net.qdisc.drops",
     RATE, FIG4),
    ("net.wire_bytes", "bytes", "lower", "counter:net.wire_bytes",
     RATE, FIG4),
    ("net.fluid_bytes", "bytes", "higher", "counter:net.fluid_bytes",
     RATE, HYBRID),
    # transport: connections, the fluid model, multiplexing.
    ("transport.self_s", "s", "lower", "section:transport", RATE, FIG4),
    ("transport.send.calls", "count", "lower", "calls:transport.send",
     RATE, FIG4),
    ("transport.handle_packet.calls", "count", "lower",
     "calls:transport.handle_packet", RATE, FIG4),
    ("transport.handle_packet.us", "us", "lower",
     "us:transport.handle_packet", RATE, FIG4),
    ("transport.connect.calls", "count", "lower", "calls:transport.connect",
     RATE, FIG4),
    ("transport.retransmits", "count", "lower",
     "counter:transport.retransmits", RATE, FIG4),
    ("transport.fluid.transfers", "count", "higher", "calls:transport.fluid",
     RATE, HYBRID),
    ("transport.fluid_share", "ratio", "higher", "derived:fluid_share",
     RATE, HYBRID),
    ("transport.mux.send.calls", "count", "lower",
     "calls:transport.mux.send", RATE, ("fig4-mux",)),
    # mesh: gateway, sidecars, telemetry, tracing.
    ("mesh.self_s", "s", "lower", "section:sidecar", RATE, MESH),
    ("mesh.gateway.submit.calls", "count", "lower",
     "calls:mesh.gateway.submit", RATE, MESH),
    ("mesh.request.calls", "count", "lower", "calls:mesh.request", RATE, MESH),
    ("mesh.request.us", "us", "lower", "us:mesh.request", RATE, MESH),
    ("mesh.record_request.calls", "count", "lower",
     "calls:mesh.record_request", RATE, MESH),
    ("mesh.record_request.us", "us", "lower", "us:mesh.record_request",
     RATE, MESH),
    ("mesh.spans_retained", "count", "lower", "counter:mesh.spans_retained",
     ("peak_rss_mb",), DAG),
    ("mesh.retries", "count", "lower", "counter:mesh.retries", RATE, MESH),
    # overload: admission gate, leveling queues, retry budgets.
    ("overload.admit.calls", "count", "lower", "calls:overload.admit",
     RATE, SHED),
    ("overload.admit.us", "us", "lower", "us:overload.admit", RATE, SHED),
    ("overload.shed", "count", "lower", "counter:overload.shed", RATE, SHED),
    ("overload.offer.calls", "count", "lower", "calls:overload.offer",
     RATE, SHED),
    ("overload.retry_acquire.calls", "count", "lower",
     "calls:overload.retry_acquire", RATE, SHED),
    # obs: the observability plane; no calls at all while detached.
    ("obs.self_s", "s", "lower", "section:obs", OBS, OBSERVED),
    ("obs.finish_request.calls", "count", "lower",
     "calls:obs.finish_request", OBS, OBSERVED),
    ("obs.finish_request.us", "us", "lower", "us:obs.finish_request",
     OBS, OBSERVED),
    ("obs.queue_wait.calls", "count", "lower", "calls:obs.queue_wait",
     OBS, OBSERVED),
    ("obs.graph.observe.calls", "count", "lower", "calls:obs.graph.observe",
     OBS, OBSERVED),
    ("obs.slo.observe.calls", "count", "lower", "calls:obs.slo.observe",
     OBS, OBSERVED),
    ("obs.harvest_s", "s", "lower", "derived:harvest_s", ("wall_s",),
     OBSERVED),
    # The workload generator.
    ("workload.self_s", "s", "lower", "section:workload", RATE, SHED),
    ("workload.record.calls", "count", "lower", "calls:workload.record",
     RATE, SHED),
    # Set-up phases.
    ("setup.import_s", "s", "lower", "derived:import_s", ("setup_s",), ALL),
    ("setup.build_s", "s", "lower", "derived:build_s", ("setup_s",), ALL),
    ("setup.install_s", "s", "lower", "derived:install_s", ("setup_s",), ALL),
    # What the trace itself costs; not an optimisation target.
    ("trace.overhead_frac", "ratio", "lower", "derived:trace_overhead",
     (), ()),
    # Untraced dag-fluid ÷ dag-observed sim_rate − 1: what observing costs.
    ("obs.overhead_frac", "ratio", "lower", "derived:obs_overhead", OBS,
     OBSERVED),
))

#: Layer metrics only the full suite reports, not the single-workload
#: form (and so not BENCHMARK.json): ``obs.overhead_frac`` needs two
#: workloads, and the mean-µs metrics of layers that most workloads
#: never call would read a constant 0 there.
SUITE_ONLY = frozenset({
    "obs.overhead_frac",
    "transport.handle_packet.us",
    "overload.admit.us",
    "obs.finish_request.us",
})


def spread(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of ``values``."""
    ordered = sorted(values)
    q1 = q3 = ordered[0]
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def layer_values(traced: dict | None, untraced: list[dict]) -> dict:
    """Every :data:`LAYER_METRICS` value for one workload."""
    median = statistics.median
    derived = {}
    base = untraced or ([traced] if traced else [])
    if base:
        events = median(r["events"] for r in base)
        derived = {
            "events": events,
            "us_per_event": median(r["ref_s"]["run"] for r in base)
            / events * 1e6,
        }
        for phase in ("harvest",) + SETUP_PHASES:
            derived[phase + "_s"] = median(
                r["ref_s"].get(phase, 0.0) for r in base
            )
    trace = (traced or {}).get("trace") or {}
    counters = trace.get("counters", {})
    wire = counters.get("net.wire_bytes", 0)
    fluid = counters.get("net.fluid_bytes", 0)
    derived["fluid_share"] = fluid / (wire + fluid) if wire + fluid else 0.0
    derived["trace_overhead"] = 0.0
    if traced and untraced:
        derived["trace_overhead"] = (
            median(sim_rate(r) for r in untraced) / sim_rate(traced) - 1.0
        )
    calls = trace.get("calls", {})
    sections = (trace.get("profile") or {}).get("seconds", {})
    values = {}
    for metric in LAYER_METRICS:
        kind, _, key = metric.source.partition(":")
        row = calls.get(key, {})
        if kind == "calls":
            value = row.get("calls", 0)
        elif kind == "us":
            value = row["self_s"] / row["calls"] * 1e6 if row.get("calls") else 0.0
        elif kind == "section":
            value = sections.get(key, 0.0)
        elif kind == "counter":
            value = counters.get(key, 0)
        elif key in derived:
            value = derived[key]
        else:
            continue  # needs more than one workload's runs
        values[metric.name] = value
    return values


def profile_shares(traced: dict | None) -> dict:
    """Each self-profiler section's share of all profiled seconds."""
    trace = (traced or {}).get("trace") or {}
    sections = (trace.get("profile") or {}).get("seconds", {})
    total = sum(sections.values())
    return {k: v / total for k, v in sorted(sections.items())} if total else {}
