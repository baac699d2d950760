"""The USE resource plane: trackers, wiring hooks, exports, analyzer."""

import pytest

from helpers import MeshTestbed, echo_handler

from repro.http import HttpRequest
from repro.mesh import MeshConfig, RetryPolicy
from repro.obs import compare_runs
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import (
    RESOURCES_CSV_HEADER,
    CapacityEstimate,
    ResourceCollector,
    TrackedResource,
    fill_registry_from_rows,
    fit_capacity,
    rank_bottlenecks,
    rows_csv,
    rows_prometheus,
)
from repro.overload import AdmissionGate, LevelingQueue, OverloadConfig, RetryBudget
from repro.sim import Resource, Simulator


class TestTrackedResource:
    def test_sample_scales_by_capacity(self):
        tracked = TrackedResource("cpu:x", "worker-pool", "node-0", capacity=4)
        tracked.sample(0.0, in_use=2, queued=3)
        assert tracked.util.last == pytest.approx(0.5)
        assert tracked.sat.last == 3.0

    def test_zero_capacity_uses_raw_scale(self):
        tracked = TrackedResource("qdisc:x", "qdisc", "node-0", capacity=0.0)
        tracked.sample(0.0, in_use=7, queued=0)
        assert tracked.util.last == 7.0  # scale 1.0, not a ZeroDivisionError

    def test_busy_pool_tracking(self):
        tracked = TrackedResource("pool", "concurrency", "n", capacity=2)
        tracked.busy_acquire(0.0)
        tracked.busy_acquire(1.0, queued=5)
        assert tracked.util.last == pytest.approx(1.0)
        assert tracked.sat.last == 5.0
        tracked.busy_release(2.0)
        assert tracked.util.last == pytest.approx(0.5)

    def test_errors_accumulate(self):
        tracked = TrackedResource("gate", "admission-gate", "n", capacity=1)
        tracked.error(0.0)
        tracked.error(0.1, amount=2.0)
        assert tracked.errors_total == 3.0
        assert tracked.errors.total(0.1) == 3.0

    def test_row_is_plain_primitives(self):
        tracked = TrackedResource("cpu:x", "worker-pool", "node-0", capacity=4)
        tracked.sample(0.0, in_use=4, queued=1)
        row = tracked.row(2.0)
        assert row["resource"] == "cpu:x"
        assert row["kind"] == "worker-pool"
        assert row["node"] == "node-0"
        assert row["capacity"] == 4.0
        assert row["utilization"] == pytest.approx(1.0)
        assert row["sat_max"] == 1.0
        assert all(
            isinstance(v, (str, float, int)) for v in row.values()
        )


class TestCollectorWiring:
    def test_track_is_get_or_create(self):
        collector = ResourceCollector()
        first = collector.track("cpu:a", "worker-pool", "n", 2.0)
        second = collector.track("cpu:a", "worker-pool", "n", 2.0)
        assert first is second
        assert len(collector) == 1
        assert collector.tracker("cpu:a") is first

    def test_invalid_poll_interval(self):
        with pytest.raises(ValueError):
            ResourceCollector(poll_interval=0.0)

    def test_watch_counted_tracks_transitions(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=2)
        collector = ResourceCollector(window=4.0)
        tracked = collector.watch_counted("cpu:p", "worker-pool", "n", cpu)

        def worker():
            grant = yield cpu.acquire()
            yield sim.timeout(1.0)
            cpu.release(grant)

        sim.process(worker())
        sim.run(until=2.0)
        # One of two units busy for 1 s out of 2 -> mean 0.25, max 0.5.
        assert tracked.util.mean(2.0) == pytest.approx(0.25)
        assert tracked.util.maximum(2.0) == pytest.approx(0.5)

    def test_watch_counted_sees_queueing_saturation(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        collector = ResourceCollector(window=4.0)
        tracked = collector.watch_counted("cpu:p", "worker-pool", "n", cpu)

        def worker():
            grant = yield cpu.acquire()
            yield sim.timeout(1.0)
            cpu.release(grant)

        for _ in range(3):
            sim.process(worker())
        sim.run(until=0.5)
        assert tracked.util.last == 1.0
        assert tracked.sat.last == 2.0  # two acquires waiting

    def test_watch_leveling_counts_rejects_and_displacements(self):
        sim = Simulator()
        queue = LevelingQueue(sim, depth=2, key=lambda item: item)
        collector = ResourceCollector(window=4.0)
        tracked = collector.watch_leveling("leveling:p", "n", queue)
        assert queue.offer(1)[0] == "queued"
        assert queue.offer(1)[0] == "queued"
        # Same priority, full buffer: the newcomer is rejected.
        outcome, _ = queue.offer(1)
        assert outcome == "rejected"
        assert tracked.errors_total == 1.0
        # A better (lower-key) newcomer displaces the worst entry.
        outcome, displaced = queue.offer(0)
        assert outcome == "queued" and displaced is not None
        assert tracked.errors_total == 2.0
        assert tracked.sat.last == 2.0

    def test_watch_gate_samples_dropping_state(self):
        sim = Simulator()
        gate = AdmissionGate()
        collector = ResourceCollector(window=4.0)
        tracked = collector.watch_gate("gate:ingress", "n", gate, sim)
        assert gate.admit("default", now=0.1)
        assert tracked.errors_total == 0.0
        assert tracked.util.last == 0.0  # not dropping
        # Saturate the gate: sustained latency far above target.
        for i in range(200):
            gate.observe(0.5 + i * 0.01, 10.0)
        for i in range(50):
            gate.admit("default", now=3.0 + i * 0.05)
        assert gate.shed.get("default", 0) > 0
        assert tracked.errors_total > 0
        # The dropping epoch is visible in the windowed max even after
        # the gate recovers (its latency evidence ages out).
        assert tracked.util.maximum(5.5) == 1.0

    def test_watch_budget_tracks_denials(self):
        sim = Simulator()
        budget = RetryBudget(ratio=0.0, min_retries=1)
        collector = ResourceCollector(window=4.0)
        tracked = collector.watch_budget("retry-budget:p", "n", budget, sim)
        budget.request_started()
        assert budget.try_acquire()
        assert tracked.util.last == pytest.approx(1.0)  # 1 of limit 1
        assert not budget.try_acquire()
        assert tracked.errors_total == 1.0
        budget.release()
        budget.request_finished()
        assert tracked.sat.last == 0.0


class TestPolledInterfaces:
    def _network(self, sim):
        from repro.net import Network

        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", rate_bps=8e6)
        net.bind("10.0.0.1", "a")
        net.bind("10.0.0.2", "b", handler=lambda p: None)
        net.build_routes()
        return net

    def test_fluid_bytes_drive_link_utilization(self):
        sim = Simulator()
        net = self._network(sim)
        collector = ResourceCollector(window=4.0, poll_interval=0.1)
        collector.install(sim, network=net)
        iface = net.interface_between("a", "b")
        # 50 kB fluid transfer = 0.05 s of busy time on a 1 MB/s link.
        iface.fluid_register(50_000)
        sim.run(until=0.35)
        tracked = collector.tracker(f"link:{iface.name}")
        assert tracked.util.maximum(sim.now) == pytest.approx(0.5)
        assert collector.tracker(f"qdisc:{iface.name}").errors_total == 0.0

    def test_no_sampler_process_without_install(self):
        sim = Simulator()
        self._network(sim)
        ResourceCollector()  # constructed but never installed
        sim.run(until=1.0)
        assert sim.processed_events == 0


class TestScenarioInstall:
    def _run_testbed(self, collector=None):
        config = MeshConfig(
            retry=RetryPolicy(max_attempts=1),
            overload=OverloadConfig(gate=None, concurrency=2, queue_depth=8),
        )
        testbed = MeshTestbed(mesh_config=config, seed=3)

        def compute_handler(ctx, request):
            yield from ctx.compute(0.005)  # hold a CPU worker
            return request.reply(body_size=200)

        testbed.add_service("svc", compute_handler)
        gateway = testbed.finish("svc")
        if collector is not None:
            collector.install(
                testbed.sim,
                mesh=testbed.mesh,
                cluster=testbed.cluster,
                gateway=gateway,
            )
        events = []

        def drive():
            for _ in range(20):
                events.append(gateway.submit(HttpRequest(service="")))
                yield testbed.sim.timeout(0.02)

        testbed.sim.process(drive())
        testbed.sim.run(until=2.0)
        statuses = tuple(e.value.status for e in events)
        return testbed, statuses

    def test_leveling_tracker_sees_the_queue_drain(self):
        # Workers dequeue through LevelingQueue.get, so the tracker
        # samples every dequeue, not only offers: once the burst has
        # drained, the queue reads empty instead of its high-water mark.
        config = MeshConfig(
            retry=RetryPolicy(max_attempts=1),
            overload=OverloadConfig(gate=None, concurrency=2, queue_depth=8),
        )
        testbed = MeshTestbed(mesh_config=config, seed=3)

        def compute_handler(ctx, request):
            yield from ctx.compute(0.005)
            return request.reply(body_size=200)

        testbed.add_service("svc", compute_handler)
        gateway = testbed.finish("svc")
        collector = ResourceCollector(window=2.0)
        collector.install(testbed.sim, mesh=testbed.mesh)
        events = [gateway.submit(HttpRequest(service="")) for _ in range(20)]
        testbed.sim.run(until=testbed.sim.all_of(events))
        tracked = collector.tracker("leveling:svc-v1-1")
        now = testbed.sim.now
        assert tracked.sat.maximum(now) == 8.0  # the burst filled it
        assert tracked.util.last == 0.0
        assert tracked.sat.last == 0.0

    def test_install_registers_every_layer(self):
        collector = ResourceCollector(window=2.0)
        testbed, statuses = self._run_testbed(collector)
        assert collector.installed
        assert testbed.mesh.telemetry.resources is collector
        names = [row["resource"] for row in collector.snapshot(testbed.sim.now)]
        assert names == sorted(names)
        assert any(name.startswith("cpu:svc-v1") for name in names)
        assert any(name.startswith("sidecar-pool:svc-v1") for name in names)
        assert any(name.startswith("leveling:svc-v1") for name in names)
        assert any(name.startswith("retry-budget:svc-v1") for name in names)
        assert any(name.startswith("link:") for name in names)
        assert any(name.startswith("qdisc:") for name in names)
        pool = collector.tracker(
            next(n for n in names if n.startswith("cpu:svc-v1"))
        )
        assert pool.util.mean(testbed.sim.now) > 0.0

    def test_collector_does_not_perturb_the_run(self):
        _testbed, with_collector = self._run_testbed(ResourceCollector())
        _testbed, without = self._run_testbed(None)
        assert with_collector == without

    def test_text_and_exports(self, tmp_path):
        collector = ResourceCollector(window=2.0)
        testbed, _ = self._run_testbed(collector)
        now = testbed.sim.now
        text = collector.text(now)
        assert text.splitlines()[0].startswith("resource")
        csv = collector.csv(now)
        assert csv.splitlines()[0] == RESOURCES_CSV_HEADER
        prom = collector.prometheus(now)
        assert "repro_resource_utilization" in prom
        registry = MetricsRegistry()
        collector.fill_registry(registry, now)
        snapshot = registry.snapshot()
        assert any(
            key.startswith("repro_resource_errors_total")
            for key in snapshot["counters"]
        )
        assert any(
            key.startswith("repro_resource_utilization")
            for key in snapshot["gauges"]
        )

    def test_compare_reads_resource_csv(self, tmp_path):
        rows = [
            {
                "resource": "cpu:svc-v1-1", "kind": "worker-pool",
                "node": "node-0", "capacity": 1.0, "utilization": 0.40,
                "util_max": 0.9, "saturation": 0.5, "sat_max": 2.0,
                "errors": 0.0,
            },
        ]
        drifted = [dict(rows[0], utilization=0.80)]
        extra = dict(rows[0], resource="cpu:svc-v2-1")
        before = tmp_path / "before"
        after = tmp_path / "after"
        before.mkdir()
        after.mkdir()
        (before / "resources.csv").write_text(rows_csv(rows))
        (after / "resources.csv").write_text(rows_csv(drifted + [extra]))
        report = compare_runs(before, after)
        assert any(d.metric == "cpu:svc-v1-1" for d in report.regressions)
        assert any("cpu:svc-v2-1" in key for key in report.extras)


class TestCapacityAnalyzer:
    def test_fit_capacity_linear(self):
        # util = 0.02 * rps -> knee at 50 rps.
        points = [(10.0, 0.2), (20.0, 0.4), (30.0, 0.6)]
        assert fit_capacity(points) == pytest.approx(50.0)

    def test_fit_excludes_clipped_points(self):
        # The 1.0-clipped past-knee point would flatten the slope.
        points = [(10.0, 0.2), (20.0, 0.4), (80.0, 1.0)]
        assert fit_capacity(points) == pytest.approx(50.0)

    def test_fit_falls_back_when_everything_clips(self):
        points = [(10.0, 0.9), (20.0, 1.0)]
        assert fit_capacity(points) < 25.0  # fitted on the clipped points

    def test_idle_resource_predicts_inf(self):
        assert fit_capacity([]) == float("inf")
        assert fit_capacity([(10.0, 0.0), (20.0, 0.0)]) == float("inf")
        assert fit_capacity([(0.0, 0.5)]) == float("inf")

    def test_rank_bottlenecks_orders_by_predicted_capacity(self):
        curves = {
            "link:fast": {
                "kind": "link", "node": "core",
                "points": [(10.0, 0.01), (20.0, 0.02)],
            },
            "cpu:hot": {
                "kind": "worker-pool", "node": "node-0",
                "points": [(10.0, 0.33), (20.0, 0.66)],
            },
        }
        ranked = rank_bottlenecks(curves)
        assert [e.resource for e in ranked] == ["cpu:hot", "link:fast"]
        assert ranked[0].predicted_max_rps == pytest.approx(30.3, rel=0.01)
        assert ranked[0].peak_utilization == pytest.approx(0.66)
        assert ranked[0].headroom == pytest.approx(0.34)

    def test_headroom_floors_at_zero(self):
        estimate = CapacityEstimate("r", "k", "n", 10.0, peak_utilization=1.0)
        assert estimate.headroom == 0.0


class TestRowExports:
    ROWS = [
        {
            "resource": "cpu:a", "kind": "worker-pool", "node": "n0",
            "capacity": 4.0, "utilization": 0.5, "util_max": 1.0,
            "saturation": 2.5, "sat_max": 7.0, "errors": 3.0,
        },
    ]

    def test_rows_csv_format(self):
        lines = rows_csv(self.ROWS).splitlines()
        assert lines[0] == RESOURCES_CSV_HEADER
        assert lines[1] == "cpu:a,worker-pool,n0,4,0.500000,1.000000,2.5000,7.0000,3"

    def test_fill_registry_from_rows(self):
        registry = MetricsRegistry()
        fill_registry_from_rows(registry, self.ROWS)
        fill_registry_from_rows(registry, self.ROWS)  # errors re-inc
        text = rows_prometheus(self.ROWS)
        assert 'resource="cpu:a"' in text
        assert "repro_resource_saturation" in text
        assert "repro_resource_errors_total" in text
