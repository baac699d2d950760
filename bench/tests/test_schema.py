"""BENCHMARK.json is well formed and agrees with the benchmark's code."""

import json
import re
from pathlib import Path

from bench import checks, metrics
from bench.trace import TARGETS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}


def test_command_and_paths():
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in command)
    scripts = [arg for arg in command if "/" in arg]
    assert scripts and all(
        any(arg.startswith(p + "/") for p in SPEC["paths"]) for arg in scripts
    )


def test_names_units_and_counts():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_end_to_end_bounds():
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(bounds.values())


def test_time_budget():
    # A single-workload run lasts about run_seconds plus its set-up-only
    # runs and rounding; an evaluation of 4 + 22 runs per workload must
    # fit in 57 minutes.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) <= 3420


def test_metrics_match_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    table = {m.name: m for m in metrics.LAYER_METRICS}
    assert metrics.SUITE_ONLY <= set(table)
    assert [m["name"] for m in SPEC["per_layer"]] == [
        name for name in table if name not in metrics.SUITE_ONLY
    ]
    for metric in SPEC["per_layer"]:
        assert (metric["unit"], metric["better"]) == (
            table[metric["name"]].unit, table[metric["name"]].better
        )


def test_every_layer_metric_names_what_it_moves():
    end_to_end = set(metrics.END_TO_END)
    workloads = {w["name"] for w in SPEC["workloads"]}
    for metric in metrics.LAYER_METRICS:
        if metric.name == "trace.overhead_frac":
            continue  # the trace's own cost is not an optimisation target
        assert metric.moves and set(metric.moves) <= end_to_end, metric.name
        assert metric.workloads and set(metric.workloads) <= workloads, metric.name


def test_layer_sources_exist():
    targets = {name for name, *_ in TARGETS}
    for metric in metrics.LAYER_METRICS:
        kind, _, key = metric.source.partition(":")
        assert kind in ("calls", "us", "section", "counter", "derived")
        if kind in ("calls", "us"):
            assert key in targets, metric.name


def test_workload_lists_agree():
    from bench.run import NOMINAL_S
    from bench.workloads import WORKLOADS

    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(metrics.ALL) == list(WORKLOADS) == list(NOMINAL_S)
    reference = checks.load_reference()
    assert reference["seed"] == checks.REFERENCE_SEED
    assert sorted(reference["workloads"]) == sorted(names)
