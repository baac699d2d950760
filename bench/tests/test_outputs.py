"""Tracing does not change what the simulator computes, and the output
checks accept and reject what they should."""

import copy

import pytest

from bench import checks, metrics, workloads
from bench.hostspeed import HostClock
from bench.trace import Tracer


def run(name, traced, duration):
    tracer = Tracer() if traced else None
    return workloads.execute(
        name, 7, HostClock(), tracer=tracer, duration=duration
    )


@pytest.mark.parametrize(
    "name, duration",
    [("fig4-packet", 3.0), ("dag-observed", 3.0), ("overload-shed", 6.0)],
)
def test_traced_and_untraced_runs_agree(name, duration):
    plain = run(name, False, duration)
    traced = run(name, True, duration)
    assert plain["outputs"] == traced["outputs"]
    assert plain["events"] == traced["events"]
    assert plain["outputs"]["recorded"] == plain["outputs"]["issued"] > 0
    problems, _ = checks.check_runs(
        name, [plain, traced], None, name in metrics.OBSERVED
    )
    assert problems == []
    calls = traced["trace"]["calls"]
    assert traced["trace"]["skipped"] == []
    assert calls["sim.call_later"]["calls"] > 0
    obs_calls = sum(row["calls"] for key, row in calls.items()
                    if key.startswith("obs."))
    assert (obs_calls > 0) == (name in metrics.OBSERVED)
    values = metrics.layer_values(traced, [plain])
    assert set(values) == {m.name for m in metrics.LAYER_METRICS} - {
        "obs.overhead_frac"
    }


def test_setup_only_run_reports_setup():
    record = workloads.execute("dag-observed", 1, HostClock(), setup_only=True)
    assert "outputs" not in record
    assert metrics.setup_s(record) > 0
    assert set(record["ref_s"]) == {"build", "install"}


OUTPUTS = {
    "classes": {
        "ls": {"n": 100, "p50_s": 0.010, "p99_s": 0.020},
        "li": {"n": 100, "p50_s": 0.030, "p99_s": 0.060},
    },
    "issued": 1000, "recorded": 1000, "ok": 900, "failed": 100,
    "unexpected": 0, "fingerprint": "a" * 64,
}


def reference_for(outputs):
    return checks.reference_entry(outputs, 10.0)


def test_gate_passes_identical_outputs():
    assert checks.check_reference(OUTPUTS, reference_for(OUTPUTS)) == ([], [])


def test_gate_notes_fingerprint_change_inside_gate():
    moved = copy.deepcopy(OUTPUTS)
    moved["classes"]["ls"]["p99_s"] += 40e-6  # inside 5% + 50 µs
    moved["ok"] += 5  # inside 1%
    moved["fingerprint"] = "b" * 64
    problems, notes = checks.check_reference(moved, reference_for(OUTPUTS))
    assert problems == []
    assert notes == ["behaviour changed within gate (fingerprint differs)"]


@pytest.mark.parametrize(
    "path, value",
    [(("classes", "li", "p50_s"), 0.030 * 1.06 + 60e-6), (("failed",), 120)],
)
def test_gate_fails_outside(path, value):
    moved = copy.deepcopy(OUTPUTS)
    target = moved
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    problems, _ = checks.check_reference(moved, reference_for(OUTPUTS))
    assert len(problems) == 1


def test_lost_requests_and_disagreeing_runs_fail():
    lost = {"seed": 7, "duration": 10.0,
            "outputs": dict(OUTPUTS, recorded=990)}
    other = {"seed": 7, "duration": 10.0,
             "outputs": dict(OUTPUTS, fingerprint="c" * 64)}
    elsewhere = {"seed": 8, "duration": 10.0,
                 "outputs": dict(OUTPUTS, fingerprint="d" * 64)}
    problems, _ = checks.check_runs("fig4-packet", [lost, other, elsewhere],
                                    None, False)
    assert len(problems) == 2


def test_reference_applies_to_the_reference_seed_only():
    reference = {"seed": 42,
                 "workloads": {"fig4-packet": reference_for(OUTPUTS)}}
    wrong = dict(OUTPUTS, ok=500)
    runs = [{"seed": 43, "duration": 10.0, "outputs": wrong}]
    assert checks.check_runs("fig4-packet", runs, reference, False) == ([], [])
    runs.append({"seed": 42, "duration": 10.0, "outputs": wrong})
    problems, _ = checks.check_runs("fig4-packet", runs, reference, False)
    assert problems == ["ok count 500 vs reference 900"]
