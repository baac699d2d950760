"""Sidecar behaviour: proxying, retries, timeouts, breakers, pooling,
routing, hedging, mTLS — exercised over the real simulated network."""

import pytest

from helpers import MeshTestbed, echo_handler

from repro.experiments import ScenarioConfig, build_scenario
from repro.http import HttpRequest, HttpStatus, REQUEST_ID, TRACE_ID
from repro.mesh import (
    HeaderMatch,
    HedgePolicy,
    MeshConfig,
    MtlsContext,
    RetryPolicy,
    RouteDestination,
    RouteRule,
    subset,
)
from repro.mesh.loadbalancer import LeastRequestLB
from repro.obs import GraphCollector, ObservabilityPlane
from repro.transport import TransportSpec


def submit(testbed, gateway, path="/", **headers):
    request = HttpRequest(service="", path=path)
    for key, value in headers.items():
        request.headers[key.replace("_", "-")] = value
    event = gateway.submit(request)
    response = testbed.sim.run(until=event)
    return request, response


class TestBasicProxying:
    def test_round_trip(self):
        testbed = MeshTestbed()
        testbed.add_service("echo", echo_handler(body_size=1234))
        gateway = testbed.finish("echo")
        _, response = submit(testbed, gateway)
        assert response.status == 200
        assert response.body_size == 1234

    def test_request_id_and_trace_assigned(self):
        testbed = MeshTestbed()
        testbed.add_service("echo", echo_handler())
        gateway = testbed.finish("echo")
        request, _ = submit(testbed, gateway)
        assert REQUEST_ID in request.headers
        assert TRACE_ID in request.headers

    def test_unknown_service_is_503(self):
        testbed = MeshTestbed()
        testbed.add_service("echo", echo_handler())
        gateway = testbed.finish("ghost-service")
        _, response = submit(testbed, gateway)
        assert response.status == HttpStatus.SERVICE_UNAVAILABLE

    def test_missing_handler_is_404(self):
        testbed = MeshTestbed()
        testbed.add_service("empty", handler=None)
        gateway = testbed.finish("empty")
        _, response = submit(testbed, gateway)
        assert response.status == HttpStatus.NOT_FOUND

    def test_crashing_handler_is_500(self):
        def broken(ctx, request):
            yield ctx.sleep(0.001)
            raise RuntimeError("app bug")

        testbed = MeshTestbed()
        testbed.add_service("broken", broken)
        gateway = testbed.finish("broken")
        _, response = submit(testbed, gateway)
        assert response.status == HttpStatus.INTERNAL_ERROR

    def test_telemetry_records_the_hop(self):
        testbed = MeshTestbed()
        testbed.add_service("echo", echo_handler())
        gateway = testbed.finish("echo")
        submit(testbed, gateway)
        records = testbed.mesh.telemetry.records
        assert any(
            r.source == "ingress-gateway" and r.destination == "echo"
            for r in records
        )

    def test_spans_recorded_for_both_sides(self):
        testbed = MeshTestbed()
        testbed.add_service("echo", echo_handler())
        gateway = testbed.finish("echo")
        request, _ = submit(testbed, gateway)
        trace = testbed.mesh.tracer.trace(request.headers[TRACE_ID])
        operations = {span.operation for span in trace.spans}
        assert any(op.startswith("client:") for op in operations)
        assert any(op.startswith("server:") for op in operations)


class TestConnectionPool:
    def test_connections_reused_across_requests(self):
        testbed = MeshTestbed()
        testbed.add_service("echo", echo_handler())
        gateway = testbed.finish("echo")
        for _ in range(5):
            submit(testbed, gateway)
        created = gateway.sidecar.pool_connections_created
        assert created == 1, f"expected 1 pooled connection, created {created}"

    def test_concurrent_requests_grow_the_pool(self):
        testbed = MeshTestbed()
        testbed.add_service("echo", echo_handler(delay=0.050), workers=16)
        gateway = testbed.finish("echo")
        events = []
        for _ in range(4):
            request = HttpRequest(service="", path="/")
            events.append(gateway.submit(request))
        testbed.sim.run(until=testbed.sim.all_of(events))
        assert gateway.sidecar.pool_connections_created == 4


class TestRetries:
    def flaky_handler(self, failures_then_ok=2):
        state = {"failures_left": failures_then_ok}

        def handler(ctx, request):
            yield ctx.sleep(0.001)
            if state["failures_left"] > 0:
                state["failures_left"] -= 1
                return request.reply(HttpStatus.SERVICE_UNAVAILABLE)
            return request.reply(body_size=10)

        return handler

    def test_retry_turns_failure_into_success(self):
        config = MeshConfig(retry=RetryPolicy(max_attempts=3, backoff_base=0.001))
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("flaky", self.flaky_handler(failures_then_ok=2))
        gateway = testbed.finish("flaky")
        _, response = submit(testbed, gateway)
        assert response.status == 200
        assert testbed.mesh.telemetry.retries_total >= 2

    def test_retry_budget_exhaustion(self):
        config = MeshConfig(retry=RetryPolicy(max_attempts=2, backoff_base=0.001))
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("flaky", self.flaky_handler(failures_then_ok=10))
        gateway = testbed.finish("flaky")
        _, response = submit(testbed, gateway)
        assert response.status == HttpStatus.SERVICE_UNAVAILABLE

    def test_no_retry_on_4xx(self):
        def not_found(ctx, request):
            yield ctx.sleep(0.001)
            return request.reply(HttpStatus.NOT_FOUND)

        config = MeshConfig(retry=RetryPolicy(max_attempts=3))
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("nf", not_found)
        gateway = testbed.finish("nf")
        _, response = submit(testbed, gateway)
        assert response.status == HttpStatus.NOT_FOUND
        assert testbed.mesh.telemetry.retries_total == 0


class TestTimeouts:
    def test_slow_handler_times_out(self):
        testbed = MeshTestbed(
            mesh_config=MeshConfig(retry=RetryPolicy(max_attempts=1))
        )
        testbed.add_service("slow", echo_handler(delay=5.0))
        gateway = testbed.finish("slow")
        request = HttpRequest(service="", path="/")
        event = gateway.submit(request, timeout=0.25)
        response = testbed.sim.run(until=event)
        assert response.status == HttpStatus.GATEWAY_TIMEOUT
        assert testbed.sim.now < 1.0  # gave up at the timeout, not at 5 s

    def test_per_try_timeout_with_recovery(self):
        # First try hits the slow replica; the retry (new connection)
        # can succeed if a fast replica exists.
        testbed = MeshTestbed(
            mesh_config=MeshConfig(
                retry=RetryPolicy(
                    max_attempts=3, per_try_timeout=0.2, backoff_base=0.001
                ),
                lb_name="round-robin",
            )
        )
        calls = {"n": 0}

        def sometimes_slow(ctx, request):
            calls["n"] += 1
            if calls["n"] == 1:
                yield ctx.sleep(5.0)
            else:
                yield ctx.sleep(0.001)
            return request.reply(body_size=10)

        testbed.add_service("mixed", sometimes_slow)
        gateway = testbed.finish("mixed")
        _, response = submit(testbed, gateway)
        assert response.status == 200
        assert testbed.mesh.telemetry.timeouts_total >= 1


class TestCircuitBreaker:
    def test_breaker_opens_on_dead_backend(self):
        def dead(ctx, request):
            yield ctx.sleep(0.001)
            return request.reply(HttpStatus.SERVICE_UNAVAILABLE)

        config = MeshConfig(retry=RetryPolicy(max_attempts=1))
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("dead", dead)
        gateway = testbed.finish("dead")
        # Hammer it: after 5 consecutive failures the breaker opens and
        # later requests are rejected locally.
        for _ in range(8):
            submit(testbed, gateway)
        assert testbed.mesh.telemetry.circuit_breaker_rejections > 0


class TestRouting:
    def test_header_pinning_selects_version(self):
        testbed = MeshTestbed()
        testbed.add_service("split", echo_handler(body_size=111), version="v1")
        testbed.add_service("split", echo_handler(body_size=222), version="v2")
        gateway = testbed.finish("split")
        testbed.mesh.set_route_rules(
            "split",
            [
                RouteRule(
                    matches=(HeaderMatch("x-priority", "high"),),
                    destinations=(RouteDestination(subset=subset(version="v1")),),
                ),
                RouteRule(
                    matches=(HeaderMatch("x-priority", "low"),),
                    destinations=(RouteDestination(subset=subset(version="v2")),),
                ),
                RouteRule(),
            ],
        )
        _, high = submit(testbed, gateway, x_priority="high")
        _, low = submit(testbed, gateway, x_priority="low")
        assert high.body_size == 111
        assert low.body_size == 222

    def test_endpoint_distribution_respects_pinning(self):
        testbed = MeshTestbed()
        testbed.add_service("split", echo_handler(), version="v1")
        testbed.add_service("split", echo_handler(), version="v2")
        gateway = testbed.finish("split")
        testbed.mesh.set_route_rules(
            "split",
            [
                RouteRule(
                    matches=(HeaderMatch("x-priority", "high"),),
                    destinations=(RouteDestination(subset=subset(version="v1")),),
                ),
                RouteRule(),
            ],
        )
        for _ in range(6):
            submit(testbed, gateway, x_priority="high")
        distribution = testbed.mesh.telemetry.endpoint_distribution("split")
        assert distribution == {"split-v1-1": 6}


class TestHedging:
    def test_hedges_issued_for_slow_first_try(self):
        config = MeshConfig(hedge=HedgePolicy(delay=0.05, max_hedges=1))
        calls = {"n": 0}

        def skewed(ctx, request):
            calls["n"] += 1
            delay = 2.0 if calls["n"] == 1 else 0.001
            yield ctx.sleep(delay)
            return request.reply(body_size=10)

        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("skewed", skewed, replicas=2)
        gateway = testbed.finish("skewed")
        request = HttpRequest(service="", path="/")
        event = gateway.submit(request)
        response = testbed.sim.run(until=event)
        assert response.status == 200
        assert gateway.sidecar.hedges_issued == 1
        assert testbed.sim.now < 1.0  # did not wait for the slow try


class TestMtls:
    def test_mtls_works_and_costs_latency(self):
        def run(mtls_enabled):
            config = MeshConfig(mtls=MtlsContext(enabled=mtls_enabled))
            testbed = MeshTestbed(mesh_config=config)
            testbed.add_service("echo", echo_handler())
            gateway = testbed.finish("echo")
            start = testbed.sim.now
            _, response = submit(testbed, gateway)
            assert response.status == 200
            return testbed.sim.now - start

        plain = run(False)
        secured = run(True)
        assert secured > plain  # handshake cost on the first connection


class TestTryBookkeeping:
    """Every way a try can travel (pooled connection, mux stream, a
    connection between ambient nodes, an in-process node-local hop)
    balances its bookkeeping on every exit: success, per-try timeout,
    and a hedge loser interrupted mid-flight."""

    CARRIERS = {
        "pooled": ({}, 2),
        "mux": ({"transport": TransportSpec(mux=True)}, 2),
        "ambient-2-nodes": ({"data_plane": "ambient"}, 2),
        "ambient-node-local": ({"data_plane": "ambient"}, 1),
    }

    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_bookkeeping_balances_after_drain(self, carrier):
        mesh_overrides, nodes = self.CARRIERS[carrier]
        mesh_config = MeshConfig(
            lb_name="least-request",
            # LS requests race a hedge; LI requests retry under a
            # per-try timeout tight enough to expire.
            hedge=HedgePolicy(
                delay=0.002, max_hedges=1, only_priorities=frozenset({"high"})
            ),
            retry=RetryPolicy(max_attempts=2, per_try_timeout=0.005),
            **mesh_overrides,
        )
        config = ScenarioConfig(
            rps=30.0,
            li_rps=30.0,
            duration=1.0,
            warmup=0.0,
            drain=30.0,
            seed=1,
            nodes=nodes,
            transport=TransportSpec(
                fidelity="hybrid", mss=15_000, header_bytes=60
            ),
            mesh=mesh_config,
        )
        sim, cluster, mesh, _app, _gateway, mix, _manager = build_scenario(
            config
        )
        plane = ObservabilityPlane(graph=GraphCollector(window=1.0))
        plane.install(mesh=mesh, cluster=cluster)
        mix.start(config.duration)
        sim.run(until=config.duration + config.drain)

        assert mix.issued > 0
        assert len(mix.recorder) == mix.issued
        balancers = [
            lb
            for sidecar in mesh.sidecars
            for lb in sidecar._lbs.values()
            if isinstance(lb, LeastRequestLB)
        ]
        assert balancers
        for lb in balancers:
            assert all(count == 0 for count in lb.outstanding.values())
        assert plane.attributor._flow_roots == {}
        assert plane.graph._flows == {}
        # Both give-up exits ran: hedge losers were interrupted and
        # tries timed out.
        assert sum(s.hedges_cancelled for s in mesh.sidecars) > 0
        assert mesh.telemetry.timeouts_total > 0
