"""Multiplexed sidecar channels (§3.6) end to end in the mesh."""

import pytest

from helpers import MeshTestbed, echo_handler

from repro.core import CrossLayerPolicy, PriorityPolicyHooks
from repro.http import HttpRequest
from repro.mesh import MeshConfig
from repro.transport import TransportSpec


def mux_testbed(**config_kwargs):
    config = MeshConfig(transport=TransportSpec(mux=True), **config_kwargs)
    return MeshTestbed(mesh_config=config)


class TestMuxBasics:
    def test_round_trip(self):
        testbed = mux_testbed()
        testbed.add_service("echo", echo_handler(body_size=777))
        gateway = testbed.finish("echo")
        event = gateway.submit(HttpRequest(service=""))
        response = testbed.sim.run(until=event)
        assert response.status == 200
        assert response.body_size == 777

    def test_sequential_requests_share_one_connection(self):
        testbed = mux_testbed()
        testbed.add_service("echo", echo_handler())
        gateway = testbed.finish("echo")
        for _ in range(10):
            testbed.sim.run(until=gateway.submit(HttpRequest(service="")))
        assert gateway.sidecar.pool_connections_created == 1

    def test_concurrent_requests_share_one_connection(self):
        """The headline difference vs the pool: concurrency without
        extra connections."""
        testbed = mux_testbed()
        testbed.add_service("echo", echo_handler(delay=0.05), workers=16)
        gateway = testbed.finish("echo")
        events = [gateway.submit(HttpRequest(service="")) for _ in range(8)]
        testbed.sim.run(until=testbed.sim.all_of(events))
        assert all(e.value.status == 200 for e in events)
        assert gateway.sidecar.pool_connections_created == 1

    def test_responses_correlated_not_ordered(self):
        """A fast request issued after a slow one returns first."""
        testbed = mux_testbed()
        calls = {"n": 0}

        def mixed_speed(ctx, request):
            calls["n"] += 1
            yield ctx.sleep(1.0 if calls["n"] == 1 else 0.001)
            return request.reply(body_size=calls["n"])

        testbed.add_service("svc", mixed_speed, workers=8)
        gateway = testbed.finish("svc")
        slow = gateway.submit(HttpRequest(service=""))
        testbed.sim.run(until=0.01)
        fast = gateway.submit(HttpRequest(service=""))
        testbed.sim.run(until=fast)
        assert not slow.processed  # fast finished while slow still runs
        testbed.sim.run(until=slow)
        assert slow.value.status == 200

    def test_timeout_abandons_stream_not_channel(self):
        testbed = mux_testbed()
        calls = {"n": 0}

        def first_slow(ctx, request):
            calls["n"] += 1
            yield ctx.sleep(10.0 if calls["n"] == 1 else 0.001)
            return request.reply(body_size=1)

        testbed.add_service("svc", first_slow)
        gateway = testbed.finish("svc")
        timed_out = gateway.submit(HttpRequest(service=""), timeout=0.2)
        response = testbed.sim.run(until=timed_out)
        assert response.status == 504
        # Channel survives: the next request works on the same connection.
        ok = gateway.submit(HttpRequest(service=""))
        assert testbed.sim.run(until=ok).status == 200
        assert gateway.sidecar.pool_connections_created == 1


class TestMuxPriority:
    def test_ls_response_overtakes_bulk_on_shared_channel(self):
        """The cross-layer payoff of mux channels: with priority-aware
        stream scheduling, a small HIGH response is not blocked behind
        a multi-megabyte LOW response on the same connection."""
        # A slow pod link so the 5 MB response occupies the wire long
        # enough for the HIGH response to need to overtake it.
        testbed = MeshTestbed(
            mesh_config=MeshConfig(transport=TransportSpec(mux=True)),
            pod_link_rate_bps=100_000_000,
        )
        testbed.mesh.set_policy(PriorityPolicyHooks(CrossLayerPolicy.disabled()))

        def sized_by_priority(ctx, request):
            yield ctx.sleep(0.001)
            if request.headers.get("x-priority") == "low":
                return request.reply(body_size=5_000_000)
            return request.reply(body_size=5_000)

        testbed.add_service("svc", sized_by_priority, workers=8)
        gateway = testbed.finish("svc")
        bulk = HttpRequest(service="")
        bulk.headers["x-priority"] = "low"
        bulk_event = gateway.submit(bulk)
        testbed.sim.run(until=0.01)  # bulk response transfer begins
        quick = HttpRequest(service="")
        quick.headers["x-priority"] = "high"
        quick_event = gateway.submit(quick)
        testbed.sim.run(until=quick_event)
        high_done = testbed.sim.now
        testbed.sim.run(until=bulk_event)
        low_done = testbed.sim.now
        assert high_done < low_done / 3, (high_done, low_done)


class TestMuxWithFeatures:
    def test_mux_with_retries(self):
        from repro.mesh import RetryPolicy

        testbed = mux_testbed(retry=RetryPolicy(max_attempts=3, backoff_base=0.01))
        calls = {"n": 0}

        def flaky(ctx, request):
            calls["n"] += 1
            yield ctx.sleep(0.001)
            if calls["n"] <= 2:
                return request.reply(503)
            return request.reply(body_size=1)

        testbed.add_service("svc", flaky)
        gateway = testbed.finish("svc")
        response = testbed.sim.run(until=gateway.submit(HttpRequest(service="")))
        assert response.status == 200

    def test_mux_with_inbound_queue(self):
        testbed = mux_testbed(inbound_concurrency=2)
        testbed.add_service("svc", echo_handler(delay=0.02))
        gateway = testbed.finish("svc")
        events = [gateway.submit(HttpRequest(service="")) for _ in range(6)]
        testbed.sim.run(until=testbed.sim.all_of(events))
        assert all(e.value.status == 200 for e in events)

    def test_mux_telemetry_and_traces_intact(self):
        testbed = mux_testbed()
        testbed.add_service("echo", echo_handler())
        gateway = testbed.finish("echo")
        testbed.sim.run(until=gateway.submit(HttpRequest(service="")))
        assert testbed.mesh.telemetry.request_count(destination="echo") == 1
        assert len(testbed.mesh.tracer.traces) == 1
