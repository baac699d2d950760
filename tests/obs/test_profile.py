"""The simulator's self-profiler: attribution, overhead posture, and
the zero-hooks-when-disabled contract."""

import os
import time

import pytest

from repro.experiments import ScenarioConfig, run_scenario
from repro.obs import MetricsRegistry, PROFILE_SCHEMA, SimProfiler, profile_text
from repro.obs.profile import classify_module
from repro.sim import Simulator


class TestAttachDetach:
    def test_disabled_simulator_installs_no_hooks(self):
        sim = Simulator()
        assert sim.profiler is None
        # The plain class method runs; no instance override exists.
        assert "step" not in sim.__dict__

    def test_attach_installs_instance_override(self):
        sim = Simulator()
        profiler = SimProfiler()
        sim.attach_profiler(profiler)
        assert sim.profiler is profiler
        assert "step" in sim.__dict__

    def test_detach_restores_plain_step(self):
        sim = Simulator()
        sim.attach_profiler(SimProfiler())
        sim.detach_profiler()
        assert sim.profiler is None
        assert "step" not in sim.__dict__

    def test_attach_none_detaches(self):
        sim = Simulator()
        sim.attach_profiler(SimProfiler())
        sim.attach_profiler(None)
        assert sim.profiler is None
        assert "step" not in sim.__dict__

    def test_profiled_run_matches_unprofiled(self):
        def ticker(sim, out):
            for _ in range(5):
                yield sim.timeout(1.0)
                out.append(sim.now)

        plain_out, prof_out = [], []
        plain = Simulator()
        plain.process(ticker(plain, plain_out))
        plain.run(until=10.0)
        profiled = Simulator()
        profiled.attach_profiler(SimProfiler())
        profiled.process(ticker(profiled, prof_out))
        profiled.run(until=10.0)
        assert prof_out == plain_out
        assert profiled.processed_events == plain.processed_events


class TestClassification:
    @pytest.mark.parametrize(
        ("module", "section"),
        [
            ("repro.mesh.sidecar", "sidecar"),
            ("repro.transport.tcp", "transport"),
            ("repro.net.qdisc", "qdisc"),
            ("repro.net.link", "transport"),
            ("repro.apps.elibrary", "app"),
            ("repro.cluster.cluster", "app"),
            ("repro.workload.generator", "workload"),
            ("repro.obs.metrics", "obs"),
            ("repro.sim.core", "dispatch"),
            ("repro.util.stats", "other"),
            ("some.other.package", "other"),
        ],
    )
    def test_module_rules(self, module, section):
        assert classify_module(module) == section

    def test_counts_sum_to_processed_events(self):
        result = run_scenario(
            ScenarioConfig(duration=1.0, warmup=0.25, rps=10, profile=True)
        )
        profiler = result.sim.profiler
        # Per-event charges (explicit sections add *extra* counts, so
        # compare against the report's events minus section entries by
        # reconstructing from charge-only runs is fragile; instead the
        # kernel guarantee is: every processed event charged exactly one
        # section, so the total is at least processed_events).
        assert sum(profiler.counts.values()) >= result.sim.processed_events
        assert profiler.counts.get("transport", 0) > 0
        assert profiler.counts.get("sidecar", 0) > 0
        assert profiler.counts.get("qdisc", 0) > 0

    def test_obs_section_charged_when_telemetry_profiled(self):
        result = run_scenario(
            ScenarioConfig(duration=1.0, warmup=0.25, rps=10, profile=True)
        )
        assert result.mesh.telemetry.profiler is result.sim.profiler
        assert result.sim.profiler.counts.get("obs", 0) > 0

    @pytest.mark.parametrize("stepping", [False, True])
    def test_scheduled_call_charged_to_its_callee(self, stepping):
        from repro.transport import TransportConfig

        sim = Simulator()
        profiler = SimProfiler()
        sim.attach_profiler(profiler)
        # Any bound method of a transport-layer object will do.
        handle = sim.call_later(1.0, TransportConfig().__repr__)
        sim.call_later(2.0, sim.cancel_call, handle)
        cancelled = sim.call_later(3.0, TransportConfig().__repr__)
        sim.cancel_call(cancelled)
        if stepping:
            for _ in range(3):
                sim.step()
        else:
            sim.run()
        # A cancelled call still counts, under its callee's section.
        assert profiler.counts == {"transport": 2, "dispatch": 1}


class TestDeterminism:
    def test_event_counts_identical_across_runs(self):
        config = ScenarioConfig(duration=1.5, warmup=0.5, rps=12, profile=True)
        first = run_scenario(config).sim.profiler.report()
        second = run_scenario(config).sim.profiler.report()
        assert first["events"] == second["events"]
        # Wall-clock is host noise and deliberately NOT asserted equal.

    def test_profile_does_not_change_simulation(self):
        base = ScenarioConfig(duration=1.5, warmup=0.5, rps=12)
        plain = run_scenario(base)
        profiled = run_scenario(base, profile=True)
        assert plain.sim.processed_events == profiled.sim.processed_events
        assert plain.ls_summary().p99 == profiled.ls_summary().p99


class TestReporting:
    def _profiler(self):
        profiler = SimProfiler()
        profiler.charge(None, 0.25)
        with profiler.section("qdisc"):
            time.sleep(0.001)
        with profiler.phase("run"):
            time.sleep(0.001)
        profiler.add_phase("build", 0.5)
        return profiler

    def test_report_shape(self):
        report = self._profiler().report()
        assert report["schema"] == PROFILE_SCHEMA
        assert list(report["events"]) == sorted(report["events"])
        assert report["events"]["dispatch"] == 1
        assert report["events"]["qdisc"] == 1
        assert report["phases"]["build"] == {"count": 1, "seconds": 0.5}
        assert report["phases"]["run"]["count"] == 1

    def test_section_time_accumulates_child(self):
        profiler = SimProfiler()
        profiler._child = 0.0
        with profiler.section("obs"):
            pass
        assert profiler._child > 0.0
        assert profiler.seconds["obs"] == pytest.approx(profiler._child)

    def test_text_render_contract(self):
        report = self._profiler().report()
        text = profile_text(report, sim_time=10.0)
        assert text.endswith("\n")
        assert not text.endswith("\n\n")
        # Double render is byte-identical (exporter contract).
        assert text == profile_text(report, sim_time=10.0)
        assert "dispatch" in text and "total" in text
        assert "phase build" in text

    def test_to_registry_exports_counters(self):
        registry = MetricsRegistry()
        self._profiler().to_registry(registry)
        assert (
            registry.counter_total("sim_profile_events_total", section="qdisc")
            == 1
        )
        assert (
            registry.counter_total(
                "sim_profile_seconds_total", section="dispatch"
            )
            == pytest.approx(0.25)
        )


class TestOverhead:
    def test_profiler_overhead_within_budget(self):
        """Enabled profiling must stay close to the plain run on the
        smoke-scale Figure-4 scenario (~5% min-of-pairs on quiet
        hardware).  Shared CI runners show >20% run-to-run swings on
        *identical* code, so the always-on bound is a loose catastrophe
        guard (the naive per-event implementation measured +68% and
        must never come back); set ``REPRO_PERF_STRICT=1`` on quiet
        hardware to assert the tight bound."""
        limit = 1.15 if os.environ.get("REPRO_PERF_STRICT") else 1.5
        config = ScenarioConfig(duration=1.5, warmup=0.5, rps=15)
        # Warm both paths once (imports, allocator pools).
        run_scenario(config)
        run_scenario(config, profile=True)
        plain_times, profiled_times = [], []
        for _ in range(3):
            start = time.perf_counter()
            run_scenario(config)
            plain_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            run_scenario(config, profile=True)
            profiled_times.append(time.perf_counter() - start)
        plain, profiled = min(plain_times), min(profiled_times)
        assert profiled <= plain * limit, (plain_times, profiled_times)
