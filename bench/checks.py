"""Output checks: is what the simulator computed still right?

A run is checked three ways:

* **Invariants**, on every seed: every issued request was recorded by
  the end of the drain, and runs of one seed in one invocation (traced
  or not) have one fingerprint.  While the observability plane is
  detached it must do no work at all.
* **Reference gate**, on the seed the references were made with
  (``reference.json``): per-class p50/p99 within 5% relative + 50 µs
  absolute (the gate of the X-8 fidelity harness), OK and failed counts
  within 1%.  Outside the gate the run fails.
* **Fingerprint**, inside the gate: a mismatch is reported as
  "behaviour changed within gate" and does not fail the run, so a
  change that only reorders same-instant events stays visible.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 42

REL_GATE = 0.05
ABS_GATE_S = 50e-6
COUNT_GATE = 0.01


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def reference_entry(outputs: dict, duration: float) -> dict:
    """The part of a run's outputs that ``reference.json`` keeps."""
    return {
        "duration": duration,
        "classes": {
            cls: {"p50_s": row["p50_s"], "p99_s": row["p99_s"]}
            for cls, row in sorted(outputs["classes"].items())
        },
        "ok": outputs["ok"],
        "failed": outputs["failed"],
        "fingerprint": outputs["fingerprint"],
    }


def check_reference(outputs: dict, ref: dict) -> tuple[list[str], list[str]]:
    """(problems, notes) of one run's outputs against its reference."""
    problems, notes = [], []
    for cls, want in sorted(ref["classes"].items()):
        got = outputs["classes"][cls]
        for key in ("p50_s", "p99_s"):
            limit = REL_GATE * abs(want[key]) + ABS_GATE_S
            if abs(got[key] - want[key]) > limit:
                problems.append(
                    f"{cls} {key[:3]} {got[key] * 1e3:.4f} ms vs reference "
                    f"{want[key] * 1e3:.4f} ms (gate ±{limit * 1e3:.4f} ms)"
                )
    for key in ("ok", "failed"):
        limit = COUNT_GATE * max(ref[key], 1)
        if abs(outputs[key] - ref[key]) > limit:
            problems.append(f"{key} count {outputs[key]} vs reference {ref[key]}")
    if not problems and outputs["fingerprint"] != ref["fingerprint"]:
        notes.append("behaviour changed within gate (fingerprint differs)")
    return problems, notes


def check_runs(
    name: str,
    runs: list[dict],
    reference: dict | None,
    observed: bool,
) -> tuple[list[str], list[str]]:
    """(problems, notes) for the runs of one workload."""
    problems, notes = [], []
    prints: dict[int, set] = {}
    for run in runs:
        out = run["outputs"]
        prints.setdefault(run["seed"], set()).add(out["fingerprint"])
        if out["recorded"] != out["issued"]:
            problems.append(
                f"seed {run['seed']}: {out['issued'] - out['recorded']} of "
                f"{out['issued']} requests never recorded"
            )
        calls = (run.get("trace") or {}).get("calls") or {}
        busy = [k for k, row in calls.items()
                if k.startswith("obs.") and row["calls"]]
        if busy and not observed:
            problems.append(f"detached observability plane did work: {busy}")
    for seed, found in sorted(prints.items()):
        if len(found) > 1:
            problems.append(
                f"runs of seed {seed} disagree: fingerprints "
                + ", ".join(p[:12] for p in sorted(found))
            )
    entry = (reference or {}).get("workloads", {}).get(name)
    for run in runs:
        if (
            entry is not None
            and run["seed"] == reference["seed"]
            and run["duration"] == entry["duration"]
        ):
            p, n = check_reference(run["outputs"], entry)
            problems += p
            notes += n
            break
    return problems, notes
