"""Overload posture wired through the mesh: bounded leveling queues,
429 shedding, priority displacement, retry budgets, and the gate at
the gateway."""

from helpers import MeshTestbed, echo_handler

from repro.core.hooks import PriorityPolicyHooks
from repro.core.policy import CrossLayerPolicy
from repro.core.priorities import Priority, set_priority
from repro.http import Headers, HttpRequest, HttpStatus
from repro.mesh import MeshConfig, RetryPolicy
from repro.overload import GateConfig, OverloadConfig


def overload_config(**kwargs):
    defaults = dict(gate=None, concurrency=1, queue_depth=2, retry_budget_ratio=None)
    defaults.update(kwargs)
    return MeshConfig(
        retry=RetryPolicy(max_attempts=1),
        overload=OverloadConfig(**defaults),
    )


class TestLevelingQueue:
    def test_overflow_sheds_with_429(self):
        testbed = MeshTestbed(mesh_config=overload_config())
        testbed.add_service("slow", echo_handler(delay=0.5))
        gateway = testbed.finish("slow")
        events = [
            gateway.submit(HttpRequest(service=""), timeout=10.0)
            for _ in range(8)
        ]
        testbed.sim.run(until=testbed.sim.all_of(events))
        statuses = [event.value.status for event in events]
        shed = sum(1 for s in statuses if s == HttpStatus.TOO_MANY_REQUESTS)
        served = sum(1 for s in statuses if s == 200)
        # 1 executing + 2 queued; the 5 simultaneous equal-priority
        # latecomers are deterministically rejected (never displaced).
        assert served == 3
        assert shed == 5
        sidecar = [s for s in testbed.mesh.sidecars if s.service_name == "slow"][0]
        assert sidecar.requests_shed == shed
        assert testbed.mesh.telemetry.overload_rejections_total == shed

    def test_429_is_not_retried(self):
        # The coupling that stops shed load from re-entering: 429 is not
        # in RETRYABLE, so an aggressive retry policy must not amplify
        # rejected requests.
        config = overload_config()
        config.retry = RetryPolicy(max_attempts=4, backoff_base=0.001)
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("slow", echo_handler(delay=0.5))
        gateway = testbed.finish("slow")
        events = [
            gateway.submit(HttpRequest(service=""), timeout=10.0)
            for _ in range(8)
        ]
        testbed.sim.run(until=testbed.sim.all_of(events))
        assert testbed.mesh.telemetry.retries_total == 0

    def test_queue_depth_bound_holds_during_flood(self):
        testbed = MeshTestbed(mesh_config=overload_config(queue_depth=2))
        testbed.add_service("slow", echo_handler(delay=0.1))
        gateway = testbed.finish("slow")
        sidecar = [s for s in testbed.mesh.sidecars if s.service_name == "slow"][0]
        high_water = {"depth": 0}

        def watch():
            while testbed.sim.now < 3.0:
                if sidecar._inbound_queue is not None:
                    high_water["depth"] = max(
                        high_water["depth"], len(sidecar._inbound_queue)
                    )
                yield testbed.sim.timeout(0.005)

        testbed.sim.process(watch())
        events = [
            gateway.submit(HttpRequest(service=""), timeout=10.0)
            for _ in range(30)
        ]
        testbed.sim.run(until=testbed.sim.all_of(events))
        assert 1 <= high_water["depth"] <= 2

    def test_high_priority_displaces_queued_low(self):
        testbed = MeshTestbed(mesh_config=overload_config(queue_depth=1))
        services = testbed.add_service("slow", echo_handler(delay=0.5))
        gateway = testbed.finish("slow")
        # Priority-aware queueing needs the cross-layer hooks on the
        # serving sidecar; the gateway keeps neutral hooks so the
        # x-priority headers set below survive ingress classification.
        for micro in services:
            micro.sidecar.policy = PriorityPolicyHooks(CrossLayerPolicy())

        def submit(priority):
            request = HttpRequest(service="")
            set_priority(request, priority)
            return gateway.submit(request, timeout=10.0)

        low_events = [submit(Priority.LOW) for _ in range(2)]

        def vip_later():
            yield testbed.sim.timeout(0.1)
            vip_events.append(submit(Priority.HIGH))

        vip_events = []
        testbed.sim.process(vip_later())
        testbed.sim.run(until=3.0)
        testbed.sim.run(until=testbed.sim.all_of(low_events + vip_events))
        # The queued LI request was displaced (429) by the later LS
        # arrival, which then completed normally.
        assert vip_events[0].value.status == 200
        low_statuses = sorted(e.value.status for e in low_events)
        assert low_statuses == [200, HttpStatus.TOO_MANY_REQUESTS]


class TestRetryBudget:
    def build(self, mesh_config):
        testbed = MeshTestbed(mesh_config=mesh_config)
        calls = {"n": 0}

        def flaky(ctx, request):
            # Deterministic 50% failure: odd calls 503, even calls OK.
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                return request.reply(HttpStatus.SERVICE_UNAVAILABLE)
            if False:
                yield  # pragma: no cover - marks this as a generator
            return request.reply(body_size=100)

        testbed.add_service("flaky", flaky)
        return testbed, testbed.finish("flaky")

    def run_batch(self, testbed, gateway, n=10):
        events = [
            gateway.submit(HttpRequest(service=""), timeout=10.0)
            for _ in range(n)
        ]
        testbed.sim.run(until=testbed.sim.all_of(events))
        return [event.value.status for event in events]

    def test_without_budget_retries_amplify(self):
        config = MeshConfig(retry=RetryPolicy(max_attempts=3, backoff_base=0.001))
        testbed, gateway = self.build(config)
        statuses = self.run_batch(testbed, gateway)
        # Concurrent tries interleave through the alternating handler, so
        # an unlucky request can draw three failures; most recover.
        assert statuses.count(200) >= 7
        assert testbed.mesh.telemetry.retries_total >= 5

    def test_zero_budget_denies_every_retry(self):
        config = MeshConfig(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.001),
            overload=OverloadConfig(
                gate=None,
                concurrency=None,
                retry_budget_ratio=0.0,
                retry_budget_min=0,
            ),
        )
        testbed, gateway = self.build(config)
        statuses = self.run_batch(testbed, gateway)
        telemetry = testbed.mesh.telemetry
        assert telemetry.retries_total == 0
        assert telemetry.retries_denied_total >= 5
        # Denied retries surface the original failure.
        assert HttpStatus.SERVICE_UNAVAILABLE in statuses


class TestGatewayGate:
    def build(self):
        config = MeshConfig(
            retry=RetryPolicy(max_attempts=1),
            overload=OverloadConfig(
                gate=GateConfig(
                    target_s=0.05, interval_s=0.1, window_s=30.0, min_samples=5
                ),
                concurrency=None,
                retry_budget_ratio=None,
            ),
        )
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("quick", echo_handler(delay=0.001))
        return testbed, testbed.finish("quick")

    def test_gate_installed_from_mesh_config(self):
        _testbed, gateway = self.build()
        assert gateway.admission is not None
        assert gateway._shed_status == HttpStatus.TOO_MANY_REQUESTS

    def test_sustained_violation_sheds_batch_not_interactive(self):
        testbed, gateway = self.build()
        # Feed the gate a standing queue: 10 completions at 1 s each,
        # far past the 50 ms target.
        for _ in range(10):
            gateway.admission.observe(0.0, 1.0)
        first = gateway.submit(
            HttpRequest(service="", headers=Headers({"x-workload": "batch"}))
        )
        testbed.sim.run(until=first)      # starts the violation clock at t=0
        testbed.sim.run(until=0.2)        # past interval_s
        shed = gateway.submit(
            HttpRequest(service="", headers=Headers({"x-workload": "batch"}))
        )
        assert shed.value.status == HttpStatus.TOO_MANY_REQUESTS
        assert gateway.requests_shed == 1
        assert testbed.mesh.telemetry.requests_shed_total == 1
        # Protected class still flows through the same dropping gate.
        ls = gateway.submit(
            HttpRequest(service="", headers=Headers({"x-workload": "interactive"}))
        )
        testbed.sim.run(until=ls)
        assert ls.value.status == 200

    def test_shed_requests_never_reach_the_service(self):
        testbed, gateway = self.build()
        for _ in range(10):
            gateway.admission.observe(0.0, 1.0)
        first = gateway.submit(
            HttpRequest(service="", headers=Headers({"x-workload": "batch"}))
        )
        testbed.sim.run(until=first)
        testbed.sim.run(until=0.2)
        proxied_before = sum(
            s.requests_proxied for s in testbed.mesh.sidecars
        )
        shed = gateway.submit(
            HttpRequest(service="", headers=Headers({"x-workload": "batch"}))
        )
        testbed.sim.run(until=1.0)
        assert shed.value.status == HttpStatus.TOO_MANY_REQUESTS
        assert (
            sum(s.requests_proxied for s in testbed.mesh.sidecars)
            == proxied_before
        )

    def test_gate_conservation_counters(self):
        testbed, gateway = self.build()
        for _ in range(10):
            gateway.admission.observe(0.0, 1.0)
        events = []
        for i in range(6):
            events.append(
                gateway.submit(
                    HttpRequest(service="", headers=Headers({"x-workload": "batch"}))
                )
            )
            testbed.sim.run(until=0.1 * (i + 1))
        testbed.sim.run(until=testbed.sim.all_of(events))
        totals = gateway.admission.totals()
        offered = sum(totals["offered"].values())
        assert offered == 6
        assert offered == sum(totals["admitted"].values()) + sum(
            totals["shed"].values()
        )
        assert gateway.requests_admitted + gateway.requests_shed == offered
