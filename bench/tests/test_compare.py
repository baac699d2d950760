"""compare.py: exit codes on regression, unresolved and passing inputs."""

import io
import json

from bench import compare
from bench.metrics import spread

SPEC = {
    "end_to_end": [
        {"name": "sim_rate", "unit": "sim-s/s", "better": "higher",
         "bound": 0.1},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]
}


def results(rates, walls, failed=0, **more):
    values = dict(sim_rate=rates, wall_s=walls, **more)
    block = {
        "end_to_end": {key: spread(v) for key, v in values.items()},
        "runs": [dict(zip(values, row)) for row in zip(*values.values())],
        "ops": 1000,
        "failed": failed,
        "layers": {"sim.events": 100.0},
    }
    return {"workloads": {"fig4-packet": block}}


def run(base, new):
    out = io.StringIO()
    code = compare.compare(base, new, SPEC, out=out)
    return code, out.getvalue()


STEADY = ([1.00, 1.01, 0.99, 1.00, 1.02], [10.0, 10.1, 9.9, 10.0, 10.05])
NOISY = ([0.7, 0.9, 1.0, 1.1, 1.3], [7.0, 9.0, 10.0, 11.0, 13.0])


def test_pass():
    code, text = run(results(*STEADY), results(*STEADY))
    assert code == 0
    assert text.count("ok") == 2 and text.rstrip().endswith("no regression")


def test_regression():
    slower = ([0.80, 0.81, 0.79, 0.80, 0.82], [12.5, 12.6, 12.4, 12.5, 12.55])
    code, text = run(results(*STEADY), results(*slower))
    assert code == 1
    assert text.count("REGRESSION") == 3  # two pairs and the verdict


def test_unresolved_when_base_spread_exceeds_bound():
    slower = ([0.6, 0.85, 0.88, 1.0, 1.2], [8.0, 10.0, 11.5, 12.0, 14.0])
    code, text = run(results(*NOISY), results(*slower))
    assert code == 0
    assert text.count("unresolved") == 2


def test_separated_runs_resolve_a_noisy_base():
    far = ([0.40, 0.45, 0.50, 0.55, 0.60], [20.0, 21.0, 22.0, 23.0, 24.0])
    code, text = run(results(*NOISY), results(*far))
    assert code == 1 and "unresolved" not in text


def test_gain_beyond_the_bound_is_better():
    faster = ([1.30, 1.31, 1.29, 1.30, 1.32], [7.0, 7.1, 6.9, 7.0, 7.05])
    code, text = run(results(*STEADY), results(*faster))
    assert code == 0 and text.count("better") == 2


def test_more_failures_fail():
    code, text = run(results(*STEADY), results(*STEADY, failed=3))
    assert code == 1 and "MORE FAILED" in text


def test_main_reads_files_and_the_real_bounds(tmp_path):
    steady = results(*STEADY, setup_s=[0.5] * 5, peak_rss_mb=[64.0] * 5)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(steady))
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base)]) == 2
