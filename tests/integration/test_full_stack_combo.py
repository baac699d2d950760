"""Everything at once: the full §4.2 stack over multiplexed channels.

The most loaded configuration the library supports — replica pinning,
TC priority, scavenger transport, packet tagging, priority inbound
queues, AND one multiplexed connection per sidecar pair — run end to
end to verify the features compose.
"""

import pytest

from repro.core import CrossLayerPolicy, audit_provenance
from repro.experiments import ScenarioConfig, run_scenario
from repro.mesh import MeshConfig
from repro.transport import TransportSpec

EVERYTHING = CrossLayerPolicy(
    replica_pinning=True,
    tc_prio=True,
    scavenger_transport=True,
    packet_tagging=True,
    inbound_queueing=True,
)

SHORT = dict(rps=25.0, duration=4.0, warmup=1.0, seed=9)


@pytest.fixture(scope="module")
def combo_run():
    return run_scenario(
        ScenarioConfig(
            policy=EVERYTHING,
            mesh=MeshConfig(transport=TransportSpec(mux=True)),
            **SHORT,
        )
    )


@pytest.fixture(scope="module")
def plain_baseline():
    return run_scenario(ScenarioConfig(cross_layer=False, **SHORT))


class TestComposition:
    def test_everything_completes_without_errors(self, combo_run):
        assert combo_run.mix.issued > 0
        assert len(combo_run.recorder) == combo_run.mix.issued
        assert combo_run.recorder.error_rate() == 0.0

    def test_ls_still_wins(self, combo_run, plain_baseline):
        assert combo_run.ls_summary().p99 < plain_baseline.ls_summary().p99

    def test_provenance_survives_all_features(self, combo_run):
        report = audit_provenance(combo_run.tracer)
        assert report.traces_total > 0
        assert report.consistent, report.violations[:3]

    def test_mux_kept_connection_count_low(self, combo_run, plain_baseline):
        combo_conns = sum(
            s.pool_connections_created for s in combo_run.mesh.sidecars
        )
        plain_conns = sum(
            s.pool_connections_created for s in plain_baseline.mesh.sidecars
        )
        assert combo_conns < plain_conns

    def test_pinning_held_under_mux(self, combo_run):
        for record in combo_run.telemetry.records:
            if record.destination == "reviews" and record.endpoint:
                if record.priority == "high":
                    assert "v1" in record.endpoint
                elif record.priority == "low":
                    assert "v2" in record.endpoint

    def test_scavenger_connections_created(self, combo_run):
        """LOW traffic rode LEDBAT: some sidecar opened a scavenger-keyed
        channel (pool key includes the cc algorithm)."""
        ledbat_keys = [
            key
            for sidecar in combo_run.mesh.sidecars
            for key in sidecar._mux_channels
            if key[3] == "ledbat"
        ]
        assert ledbat_keys

    def test_manager_installed_all_layers(self, combo_run):
        summary = combo_run.manager.summary()
        assert summary["applied"]
        assert summary["pinned_services"] == ["reviews"]
        assert summary["tc_interfaces"] > 0
        for sidecar in combo_run.mesh.sidecars:
            assert sidecar._inbound_queue is not None
