"""run.py's single-workload form keeps the one-JSON-line contract."""

import json

import pytest

from bench import run

SPEC = run.load_spec()


def record(workload, seed, trace=False, setup_only=False, timeout=None):
    """A synthetic child record: 100 requests, all answered 200."""
    rec = {
        "workload": workload, "seed": seed, "duration": 1.0, "traced": trace,
        "raw_s": {"import": 0.5, "build": 0.01, "install": 1e-6},
        "ref_s": {"import": 0.4, "build": 0.01, "install": 1e-6},
        "probes_s": [0.011, 0.012], "peak_rss_mb": 60.0 + seed % 3,
    }
    if setup_only:
        return rec
    for clock in ("raw_s", "ref_s"):
        rec[clock] = dict(rec[clock], run=2.0 + seed % 5 / 10,
                          harvest=1e-6, summarize=1e-3)
    rec.update(sim_time=1.0, events=1000, outputs={
        "classes": {}, "issued": 100, "recorded": 100, "ok": 100,
        "failed": 0, "unexpected": 0, "fingerprint": f"print-{seed}",
    })
    if trace:
        rec["trace"] = {"calls": {}, "profile": None, "counters": {},
                        "skipped": []}
    return rec


def last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_json_line(monkeypatch, capsys, trace, group):
    monkeypatch.setattr(run, "spawn", record)
    code = run.main(["--workload", "dag-fluid", "--seed", "5",
                     "--seconds", "20", "--trace", str(trace)])
    result = last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
    for metric in SPEC[group]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    runs = 2 if trace else round(20 / run.NOMINAL_S["dag-fluid"])
    assert result["attempted"] == 100 * runs


def test_distinct_seeds_per_full_run(monkeypatch, capsys):
    seeds = []

    def spy(workload, seed, **kwargs):
        if not kwargs.get("setup_only"):
            seeds.append(seed)
        return record(workload, seed, **kwargs)

    monkeypatch.setattr(run, "spawn", spy)
    assert run.main(["--workload", "fig4-packet", "--seed", "42",
                     "--seconds", "20", "--trace", "0"]) == 0
    assert seeds[0] == 42 and len(set(seeds)) == len(seeds) >= 2


def test_failed_check_reports_incorrect(monkeypatch, capsys):
    def lossy(workload, seed, **kwargs):
        rec = record(workload, seed, **kwargs)
        if "outputs" in rec:
            rec["outputs"] = dict(rec["outputs"], recorded=99)
        return rec

    monkeypatch.setattr(run, "spawn", lossy)
    assert run.main(["--workload", "dag-fluid", "--seed", "5",
                     "--seconds", "20", "--trace", "0"]) == 1
    assert last_json(capsys)["correct"] is False


def test_crash_prints_no_result(monkeypatch, capsys):
    def crash(workload, seed, **kwargs):
        raise run.ChildFailed("no simulator")

    monkeypatch.setattr(run, "spawn", crash)
    assert run.main(["--workload", "dag-fluid", "--seed", "5",
                     "--seconds", "20", "--trace", "0"]) == 1
    assert capsys.readouterr().out == ""
