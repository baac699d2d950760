"""X-10 integration: the dissection grid is deterministic, the proxy
sub-components close against the proxy layer, and the architecture
ordering (none < ambient < sidecar) holds end to end."""

import pytest

import repro.experiments.dataplane as dp
from repro.experiments import (
    DataplaneExperiment,
    Runner,
    ScenarioConfig,
    measure_dataplane,
)
from repro.experiments.dataplane import _mesh_for
from repro.obs.attribution import LAYER_PROXY

TINY = dict(rps=20.0, duration=2.0, warmup=0.3, drain=10.0, seed=42)


def shrink_grid(monkeypatch):
    """Shrink the grid so the full experiment runs in test time."""
    monkeypatch.setattr(dp, "RPS_LEVELS", (20.0,))
    monkeypatch.setattr(
        dp, "PROTOCOLS", {"plain": {}, "mtls": dp.PROTOCOLS["mtls"]}
    )


def cell(arch, proto="plain"):
    return ScenarioConfig(**TINY, nodes=2, mesh=_mesh_for(arch, proto))


class TestMeasureDataplane:
    @pytest.fixture(scope="class")
    def by_arch(self):
        return {
            arch: measure_dataplane(
                ScenarioConfig(**TINY, nodes=2, mesh=_mesh_for(arch, "mtls"))
            )
            for arch in ("sidecar", "ambient", "none")
        }

    def test_components_close_against_proxy_layer(self, by_arch):
        for arch in ("sidecar", "ambient"):
            report = by_arch[arch].extra["attribution"]
            for request_class, row in report.items():
                proxy = row["layer_means"][LAYER_PROXY]
                total = sum(row["proxy_component_means"].values())
                assert proxy > 0.0, (arch, request_class)
                assert total == pytest.approx(proxy, rel=0.01), (
                    arch, request_class,
                )

    def test_nomesh_has_zero_proxy_attribution(self, by_arch):
        report = by_arch["none"].extra["attribution"]
        assert report, "no requests attributed"
        for row in report.values():
            assert row["layer_means"][LAYER_PROXY] == 0.0
            assert row["proxy_component_means"] == {}
            # The partition still closes without a proxy layer.
            assert row["max_error"] <= 0.01

    def test_ambient_cheaper_than_sidecar(self, by_arch):
        def proxy_seconds(measurement):
            return sum(
                row["layers"][LAYER_PROXY]
                for row in measurement.extra["attribution"].values()
            )

        assert proxy_seconds(by_arch["ambient"]) < proxy_seconds(
            by_arch["sidecar"]
        )

    def test_ambient_reports_node_proxies(self, by_arch):
        proxies = by_arch["ambient"].extra["node_proxies"]
        assert {p["node"] for p in proxies} == {"node-0", "node-1"}
        assert all(p["traversals"] > 0 for p in proxies)
        assert "node_proxies" not in by_arch["sidecar"].extra

    def test_back_to_back_determinism(self):
        first = measure_dataplane(cell("ambient"))
        second = measure_dataplane(cell("ambient"))
        assert first.sim_events == second.sim_events
        assert first.extra["attribution"] == second.extra["attribution"]


class TestExperimentGrid:
    @pytest.fixture(scope="class")
    def serial(self):
        """One serial run of the shrunken grid, shared by the class; the
        grid stays shrunken until the class is done."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            shrink_grid(monkeypatch)
            with Runner(workers=1, cache_dir=None) as runner:
                result = DataplaneExperiment(**TINY).run(runner)
            yield result

    def test_serial_vs_parallel_byte_identical(self, serial):
        with Runner(workers=2, cache_dir=None) as parallel:
            b = DataplaneExperiment(**TINY).run(parallel)
        assert serial.csv() == b.csv()
        assert serial.report() == b.report()

    def test_invariants_and_rendering(self, serial):
        assert serial.max_component_residual <= 0.01
        assert serial.max_nomesh_proxy_seconds == 0.0
        assert serial.ambient_leaner_everywhere
        report = serial.report()
        assert "X-10" in report and "PASS" in report and "FAIL" not in report
        assert set(serial.figure4) == {"sidecar", "ambient", "none"}
        for arch, stage in serial.figure4.items():
            assert stage["off"]["p99"] > 0 and stage["on"]["p99"] > 0
        lines = serial.csv().strip().splitlines()
        assert lines[0].startswith("section,arch,proto,rps,class,name")
        assert any(line.startswith("figure4,") for line in lines)
        assert any(line.startswith("component,") for line in lines)
