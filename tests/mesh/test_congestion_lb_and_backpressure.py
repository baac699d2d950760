"""§3.5 congestion-aware load balancing and §3.6 backpressure."""

import pytest

from helpers import MeshTestbed, echo_handler

from repro.cluster import Cluster, PodSpec, Scheduler
from repro.core.hooks import PriorityPolicyHooks
from repro.core.policy import CrossLayerPolicy
from repro.core.priorities import Priority, set_priority
from repro.http import HttpRequest, HttpStatus
from repro.mesh import CongestionAwareLB, MeshConfig, RetryPolicy, ServiceMesh
from repro.mesh.policy import PolicyHooks
from repro.apps import Microservice
from repro.net import Packet, SdnController
from repro.sim import RngRegistry, Simulator
from repro.transport import TransportConfig


class TestCongestionAwareLB:
    def build(self):
        """Two backend replicas on two nodes; SDN monitor running."""
        sim = Simulator()
        rng = RngRegistry(0)
        cluster = Cluster(
            sim,
            scheduler=Scheduler("least-pods"),
            transport_config=TransportConfig(mss=15_000),
            node_link_rate_bps=1e8,  # congestible node uplinks
        )
        cluster.add_node("node-0")
        cluster.add_node("node-1")
        sdn = SdnController(sim, cluster.network)

        def lb_factory(sidecar):
            return CongestionAwareLB(sdn, f"pod:{sidecar.pod.name}")

        mesh = ServiceMesh(
            sim, cluster, MeshConfig(lb_factory=lb_factory), rng_registry=rng
        )
        return sim, cluster, mesh, sdn

    def test_prefers_uncongested_replica(self):
        sim, cluster, mesh, sdn = self.build()
        cluster.create_deployment(
            "backend-a", replicas=1,
            spec=PodSpec(labels={"app": "backend"}, node_hint="node-0"),
        )
        cluster.create_deployment(
            "backend-b", replicas=1,
            spec=PodSpec(labels={"app": "backend"}, node_hint="node-1"),
        )
        cluster.create_service("backend", selector={"app": "backend"})
        for pod in cluster.pods:
            sidecar = mesh.inject_pod(pod, service_name="backend")
            Microservice(sim, pod, sidecar, pod.name).default_route(
                echo_handler(body_size=100)
            )
        gateway = mesh.create_gateway("backend", node_hint="node-0")
        cluster.build_routes()
        sdn.start()

        # Congest the path toward the node-1 replica: background bulk
        # traffic from the gateway pod (node-0) into the victim pod.
        victim = cluster.pods_of("backend-b")[0]
        gateway_pod = cluster.pods_of("istio-ingressgateway")[0]

        def congest():
            while sim.now < 6.0:
                noise = Packet(src=gateway_pod.ip, dst=victim.ip, size=100_000)
                cluster.network.send(noise)
                yield sim.timeout(0.005)  # 20 MB/s into a 12.5 MB/s link

        sim.process(congest())
        sim.run(until=1.0)  # let utilization samples accumulate

        # Now issue requests: they should overwhelmingly hit backend-a.
        events = []
        for _ in range(10):
            events.append(gateway.submit(HttpRequest(service="")))
        sim.run(until=sim.all_of(events))
        distribution = mesh.telemetry.endpoint_distribution("backend")
        assert distribution.get("backend-a-1", 0) >= 9, distribution

    def test_falls_back_to_round_robin_when_idle(self):
        sim, cluster, mesh, sdn = self.build()
        cluster.create_deployment(
            "backend-a", replicas=1,
            spec=PodSpec(labels={"app": "backend"}, node_hint="node-0"),
        )
        cluster.create_deployment(
            "backend-b", replicas=1,
            spec=PodSpec(labels={"app": "backend"}, node_hint="node-1"),
        )
        cluster.create_service("backend", selector={"app": "backend"})
        for pod in cluster.pods:
            sidecar = mesh.inject_pod(pod, service_name="backend")
            Microservice(sim, pod, sidecar, pod.name).default_route(
                echo_handler(body_size=100)
            )
        gateway = mesh.create_gateway("backend", node_hint="node-0")
        cluster.build_routes()
        sdn.start()
        for _ in range(10):
            event = gateway.submit(HttpRequest(service=""))
            sim.run(until=event)
        distribution = mesh.telemetry.endpoint_distribution("backend")
        # Idle network -> ties -> round robin spreads across both.
        assert set(distribution) == {"backend-a-1", "backend-b-1"}


class TestBackpressure:
    def test_queue_overflow_sheds_with_503(self):
        config = MeshConfig(
            inbound_concurrency=1,
            max_inbound_queue=2,
            retry=RetryPolicy(max_attempts=1),
        )
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("slow", echo_handler(delay=0.5))
        gateway = testbed.finish("slow")
        events = [
            gateway.submit(HttpRequest(service=""), timeout=10.0)
            for _ in range(8)
        ]
        testbed.sim.run(until=testbed.sim.all_of(events))
        statuses = [event.value.status for event in events]
        shed = sum(1 for s in statuses if s == HttpStatus.SERVICE_UNAVAILABLE)
        served = sum(1 for s in statuses if s == 200)
        sidecar = testbed.mesh.sidecars[0]
        assert sidecar.requests_shed == shed
        assert shed >= 1, statuses
        assert served >= 3  # 1 executing + 2 queued, plus later capacity

    def test_full_queue_turns_away_a_better_newcomer(self):
        # The legacy queue never displaces: even an LS arrival at a full
        # queue is turned away with a retryable 503, and the overload
        # posture's rejection counter stays untouched.
        config = MeshConfig(
            inbound_concurrency=1,
            max_inbound_queue=2,
            retry=RetryPolicy(max_attempts=1),
        )
        testbed = MeshTestbed(mesh_config=config)
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

        # One executing, two queued: the queue is full.
        low_events = [submit(Priority.LOW) for _ in range(3)]
        vip_events = []

        def vip_later():
            yield testbed.sim.timeout(0.1)
            vip_events.append(submit(Priority.HIGH))

        testbed.sim.process(vip_later())
        testbed.sim.run(until=3.0)
        testbed.sim.run(until=testbed.sim.all_of(low_events + vip_events))
        assert vip_events[0].value.status == HttpStatus.SERVICE_UNAVAILABLE
        assert [e.value.status for e in low_events] == [200, 200, 200]
        sidecar = services[0].sidecar
        assert sidecar.requests_shed == 1
        assert testbed.mesh.telemetry.overload_rejections_total == 0

    @pytest.mark.parametrize(
        "fields",
        [{"inbound_concurrency": 0}, {"max_inbound_queue": 0}],
    )
    def test_empty_worker_pool_or_queue_rejected_at_build(self, fields):
        # No worker would ever serve the queue, or a queue that holds
        # nothing would turn every request away even with idle workers.
        with pytest.raises(ValueError):
            MeshConfig(**fields)

    def test_no_shedding_below_limit(self):
        config = MeshConfig(inbound_concurrency=4, max_inbound_queue=100)
        testbed = MeshTestbed(mesh_config=config)
        testbed.add_service("quick", echo_handler(delay=0.01))
        gateway = testbed.finish("quick")
        events = [gateway.submit(HttpRequest(service="")) for _ in range(6)]
        testbed.sim.run(until=testbed.sim.all_of(events))
        assert all(event.value.status == 200 for event in events)
        assert testbed.mesh.sidecars[0].requests_shed == 0
