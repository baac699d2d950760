"""The benchmark's five workloads and one measured run of any of them.

Every workload is an open loop in simulated time: ``MixedWorkload``
issues uniform arrivals at fixed LS and LI rates from the run's seed,
whatever the simulated system does with them.  The simulator is driven
from outside through its public API only (``ScenarioConfig``,
``build_scenario``, ``Simulator.run/peek/now/processed_events``,
``MixedWorkload`` and ``ObservabilityPlane``), so the benchmark keeps
working while the code behind that API is rebuilt.

:func:`execute` is the body of one child process: it builds, runs and
drains one workload, checks nothing, and returns the timings, the
simulated outputs and (when traced) the per-layer trace.  Its caller
(``child.py``) times the ``import`` of this module, which is where the
package is imported.  Timings are kept per phase (import, build,
install, run, harvest, summarize) both as raw wall seconds and at the
reference host speed (``hostspeed.py``).
"""

from __future__ import annotations

import hashlib
import resource
from dataclasses import dataclass

from repro.apps import DagConfig, ELibraryConfig
from repro.experiments import ScenarioConfig, build_scenario
from repro.mesh import MeshConfig
from repro.obs import (
    GraphCollector,
    ObservabilityPlane,
    ResourceCollector,
    SloEngine,
    SloSpec,
)
from repro.overload import GateConfig, OverloadConfig
from repro.transport import TransportSpec

#: Sim-scale transport pinned here rather than taken from the package's
#: default, so a change of default shows up as an output change.
PACKET = TransportSpec(mss=15_000, header_bytes=60)
HYBRID = TransportSpec(fidelity="hybrid", mss=15_000, header_bytes=60)

#: Simulated seconds per timed slice of the run phase.
SLICE_S = 0.5

#: Grace period (simulated seconds) for requests in flight at the end.
DRAIN_S = 30.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in ``BENCHMARK.json``."""

    name: str
    duration: float          # simulated seconds of arrivals
    warmup: float            # excluded from the latency outputs
    ls_rps: float
    li_rps: float
    app: str = "elibrary"
    transport: TransportSpec = PACKET
    mux: bool = False
    overload: bool = False
    observed: bool = False
    #: Non-2xx statuses that are the workload's designed outcome, not a
    #: failure of the run (the overload workload's 429 sheds).
    expected_statuses: frozenset = frozenset()


#: X-9's constricted frontend: one worker at ~31 ms, so ≈30 rps.
OVERLOAD_ELIBRARY = ELibraryConfig(
    batch_multiplier=20.0,
    specs_overrides={
        "frontend": {
            "workers": 1,
            "service_time_median": 0.03,
            "service_time_p99": 0.06,
        }
    },
)
ON_OVERLOAD = OverloadConfig(
    gate=GateConfig(target_s=0.5, ls_escalation=12.0),
    concurrency=2,
    queue_depth=64,
)
DAG = DagConfig(layers=4, services_per_layer=3, fanout=2)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4-packet", duration=12.0, warmup=2.0, ls_rps=30.0,
                 li_rps=30.0),
        Workload("fig4-mux", duration=5.0, warmup=1.0, ls_rps=30.0,
                 li_rps=30.0, mux=True),
        Workload("dag-fluid", duration=10.0, warmup=2.0, ls_rps=60.0,
                 li_rps=60.0, app="dag", transport=HYBRID),
        Workload("dag-observed", duration=10.0, warmup=2.0, ls_rps=60.0,
                 li_rps=60.0, app="dag", transport=HYBRID, observed=True),
        # 2x the frontend's capacity: most LI requests are shed by design.
        Workload("overload-shed", duration=120.0, warmup=4.0, ls_rps=12.0,
                 li_rps=48.0, transport=HYBRID, overload=True,
                 expected_statuses=frozenset({429})),
    )
}


def scenario_config(
    workload: Workload,
    seed: int,
    duration: float | None = None,
    profile: bool = False,
) -> ScenarioConfig:
    """The scenario one run of ``workload`` builds."""
    extra = {}
    if workload.mux:
        extra["mesh"] = MeshConfig(transport=TransportSpec(mux=True))
    if workload.overload:
        extra["mesh"] = MeshConfig(overload=ON_OVERLOAD)
        extra["elibrary"] = OVERLOAD_ELIBRARY
    if workload.app == "dag":
        extra["dag"] = DAG
    return ScenarioConfig(
        rps=workload.ls_rps,
        li_rps=workload.li_rps,
        duration=workload.duration if duration is None else duration,
        warmup=workload.warmup,
        drain=DRAIN_S,
        seed=seed,
        cross_layer=True,
        app=workload.app,
        transport=workload.transport,
        profile=profile,
        **extra,
    )


def run_steps(sim, mix, config):
    """Deadlines for successive ``sim.run`` calls: ``SLICE_S`` slices up
    to the end of arrivals, then the drain's 1-second slices until every
    issued request is recorded, the event heap empties, or the grace
    period ends."""
    until = 0.0
    while until < config.duration:
        until = min(until + SLICE_S, config.duration)
        yield until
    deadline = config.duration + config.drain
    while len(mix.recorder) < mix.issued and sim.now < deadline:
        if sim.peek() == float("inf"):
            return
        yield min(sim.now + 1.0, deadline)


def quantile(ordered: list[float], q: float) -> float:
    """Linearly interpolated quantile of an ascending list (0 if empty)."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def outputs(workload: Workload, samples, issued: int, window) -> dict:
    """The simulated outputs a run is checked on.

    Per class: p50/p99 of successful requests sent inside the
    steady-state window.  Counts: requests issued, recorded, answered
    2xx, not answered 2xx (``failed``), and failed with a status the
    workload does not expect (``unexpected``).  The fingerprint hashes
    every recorded sample in sorted order, so it changes with any
    outcome and not with the order in which requests finished.
    """
    start, end = window
    result: dict = {"classes": {}}
    for cls in ("ls", "li"):
        ok = sorted(
            s.latency for s in samples
            if s.workload == cls and s.ok and start <= s.sent_at < end
        )
        result["classes"][cls] = {
            "n": len(ok),
            "p50_s": quantile(ok, 0.50),
            "p99_s": quantile(ok, 0.99),
        }
    ok = sum(1 for s in samples if s.ok)
    expected = sum(1 for s in samples if s.status in workload.expected_statuses)
    result["issued"] = issued
    result["recorded"] = len(samples)
    result["ok"] = ok
    result["failed"] = issued - ok
    result["unexpected"] = issued - ok - expected
    rows = sorted((s.workload, s.status, s.sent_at, s.latency) for s in samples)
    digest = hashlib.sha256()
    for cls, status, sent_at, latency in rows:
        digest.update(f"{cls},{status},{sent_at!r},{latency!r}\n".encode())
    result["fingerprint"] = digest.hexdigest()
    return result


def install_plane(workload, sim, cluster, mesh, gateway, window_s: float):
    """The full observability plane, installed the way the SLO, diagnose
    and capacity harnesses install it; None for a detached workload."""
    if not workload.observed:
        return None
    engine = SloEngine()
    engine.register(
        SloSpec(
            name="LS-p99", target="LS", threshold_s=0.05, quantile=99.0,
            window_s=4.0,
        )
    )
    graph = GraphCollector(window=4.0)
    resources = ResourceCollector(window=window_s)
    plane = ObservabilityPlane(slo=engine, graph=graph, resources=resources)
    plane.install(mesh=mesh, cluster=cluster, gateway=gateway)
    engine.attach(sim)
    return plane


def harvest_plane(plane, sim, cluster, mesh) -> None:
    """The harnesses' post-run work: a last SLO evaluation, a resource
    snapshot and the plane's harvest."""
    if plane is None:
        return
    plane.slo.evaluate(sim.now)
    plane.slo.finalize(sim.now)
    plane.resources.snapshot(sim.now)
    plane.harvest(mesh=mesh, network=cluster.network)


def execute(
    name: str,
    seed: int,
    clock,
    *,
    tracer=None,
    duration: float | None = None,
    setup_only: bool = False,
) -> dict:
    """One run of workload ``name``, timed phase by phase on ``clock``
    (a ``hostspeed.HostClock`` that has already timed the import).

    With a ``tracer`` (``trace.Tracer``) the self-profiler is attached
    and the tracer's wrappers are live from before the build until the
    outputs are summarized; they are removed again even if the run
    raises.
    """
    workload = WORKLOADS[name]
    config = scenario_config(workload, seed, duration, tracer is not None)
    if tracer is not None:
        tracer.install()
    try:
        return _execute(workload, config, clock, tracer, setup_only)
    finally:
        if tracer is not None:
            tracer.restore()


def _execute(workload, config, clock, tracer, setup_only) -> dict:
    sim, cluster, mesh, _app, gateway, mix, _manager = clock.timed(
        "build", build_scenario, config
    )
    plane = clock.timed(
        "install", install_plane, workload, sim, cluster, mesh, gateway,
        max(config.duration - config.warmup, 1.0), probe=True,
    )
    record = {
        "workload": workload.name,
        "seed": config.seed,
        "duration": config.duration,
        "traced": tracer is not None,
    }
    if not setup_only:
        mix.start(config.duration)
        for until in run_steps(sim, mix, config):
            clock.timed("run", sim.run, until)
        clock.flush()
        clock.timed("harvest", harvest_plane, plane, sim, cluster, mesh)
        record["outputs"] = clock.timed(
            "summarize", outputs, workload, mix.recorder.samples, mix.issued,
            (config.warmup, config.duration), probe=True,
        )
        # Simulated time up to the last completion, not ``sim.now``: the
        # drain stops on 1-second slice boundaries, which would make the
        # simulated span jump by a second between seeds.
        record["sim_time"] = max(
            [config.duration]
            + [s.sent_at + s.latency for s in mix.recorder.samples]
        )
        record["events"] = sim.processed_events
        if tracer is not None:
            record["trace"] = tracer.report(
                sim=sim, cluster=cluster, mesh=mesh, gateway=gateway
            )
    record["raw_s"] = clock.raw
    record["ref_s"] = clock.ref
    record["probes_s"] = clock.probes
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return record
