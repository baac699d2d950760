"""Run the benchmark.

    python bench/run.py [--seed 42] [--reps 5] [--out DIR] [--workloads a,b]
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python bench/run.py --refresh-reference

Run from the root of a checkout; the simulator is imported from its
``src``.  Every run is a fresh child process (``bench/child.py``),
started one at a time.

The first form is the full suite: ``--reps`` untraced runs of every
workload, interleaved round-robin so a slow spell on the machine
spreads over all workloads, then one traced run of each.  It prints
every metric by name with its unit, writes ``DIR/results.json`` and
``DIR/trace.json`` and exits 1 if any output check fails.

The second form measures one workload for about ``S`` seconds: with
``--trace 0``, two set-up-only runs and then ``round(S / NOMINAL_S)``
full runs (at least two, each on its own seed derived from ``N``),
reporting medians of the end-to-end metrics;
with ``--trace 1``, one untraced and one traced run on seed ``N``,
reporting the layer metrics.  Its last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run that
cannot start or crashes ends the command with exit code 1 and no
result line.

The third form reruns every workload once at the reference seed and
rewrites ``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import checks, metrics  # noqa: E402
from bench.hostspeed import REFERENCE_S  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
SCHEMA = "repro-bench-suite/1"

#: End-to-end times also reported as raw wall-clock readings, by unit.
RAW = {"sim_rate": "sim-s/wall-s", "wall_s": "wall-s", "setup_s": "wall-s"}
#: Longest a single child may take before it is killed.
CHILD_TIMEOUT_S = 120.0
#: Single-workload form: set-up-only runs, the fewest full runs, and
#: the wall-clock by which the command must have finished.
SETUP_PROBES = 2
MIN_RUNS = 2
DEADLINE_S = 170.0
#: Seconds one full run of each workload takes at the reference host
#: speed (suite medians); ``--seconds S`` buys ``round(S / NOMINAL_S)``
#: full runs, so the count depends on the arguments, not on the host.
NOMINAL_S = {
    "fig4-packet": 8.5,
    "fig4-mux": 7.9,
    "dag-fluid": 7.0,
    "dag-observed": 10.0,
    "overload-shed": 3.7,
}
SUB_SEED_STRIDE = 1_000_003


class ChildFailed(RuntimeError):
    """A child run crashed, timed out or printed no record."""


def spawn(
    workload: str,
    seed: int,
    *,
    trace: bool = False,
    setup_only: bool = False,
    timeout: float = CHILD_TIMEOUT_S,
) -> dict:
    """One child run; returns its record."""
    cmd = [sys.executable, "-m", "bench.child", workload, str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(
            f"{workload} seed {seed}: killed after {timeout:.0f} s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise ChildFailed(
            f"{workload} seed {seed}: exit code {proc.returncode}: {tail}"
        )
    return json.loads(lines[-1])


def load_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def fmt(value: float) -> str:
    return f"{value:.6g}"


# -- one workload, timed (the JSON-line form) --------------------------------

def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th full run of a single-workload measurement.
    Runs use distinct inputs so the median is not one input's value; the
    first run uses ``seed`` itself, so the reference seed is checked."""
    return seed + SUB_SEED_STRIDE * index


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    clock = time.perf_counter
    started = clock()

    def left() -> float:
        return DEADLINE_S - (clock() - started)

    try:
        reference = checks.load_reference()
        setups, traced = [], None
        if trace:
            untraced = [spawn(name, seed, timeout=left())]
            traced = spawn(name, seed, trace=True, timeout=left())
        else:
            setups = [spawn(name, seed, setup_only=True, timeout=left())
                      for _ in range(SETUP_PROBES)]
            count = max(MIN_RUNS, round(seconds / NOMINAL_S[name]))
            untraced = [spawn(name, sub_seed(seed, k), timeout=left())
                        for k in range(count)]
    except (ChildFailed, KeyError, OSError, ValueError) as error:
        print(f"bench: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    runs = untraced + ([traced] if traced else [])
    problems, notes = checks.check_runs(
        name, runs, reference, name in metrics.OBSERVED
    )
    if trace:
        values = metrics.layer_values(traced, untraced)
        wanted = spec["per_layer"]
    else:
        values = {
            m: statistics.median(fn(r) for r in untraced)
            for m, fn in metrics.END_TO_END.items()
        }
        values["setup_s"] = statistics.median(
            metrics.setup_s(r) for r in setups + untraced
        )
        wanted = spec["end_to_end"]
    print(f"{name}  seed {seed}  {len(untraced)} untraced"
          + (" + 1 traced" if trace else "") + " runs")
    for metric in wanted:
        print(f"  {metric['name']:<32} {fmt(values[metric['name']]):>14} "
              f"{metric['unit']}")
    if not trace:
        for m in RAW:
            raw = statistics.median(
                metrics.END_TO_END[m](r, "raw_s") for r in untraced
            )
            print(f"  {'raw_' + m:<32} {fmt(raw):>14} {RAW[m]}")
    for line in problems:
        print(f"  FAIL  {line}")
    for line in notes:
        print(f"  note  {line}")
    result = {
        "correct": not problems,
        "attempted": sum(r["outputs"]["issued"] for r in runs),
        "failed": sum(r["outputs"]["unexpected"] for r in runs),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


# -- the full suite ------------------------------------------------------------

def run_row(record: dict) -> dict:
    """One untraced run's end-to-end values, at reference speed and raw,
    and how much slower than the reference the host ran."""
    row = {m: fn(record) for m, fn in metrics.END_TO_END.items()}
    for m in RAW:
        row["raw_" + m] = metrics.END_TO_END[m](record, "raw_s")
    row["host_slowdown"] = statistics.median(record["probes_s"]) / REFERENCE_S
    return row


def summarize(
    name: str,
    runs: list[dict],
    crashes: list[str],
    traced: dict | None,
    reference: dict | None,
    spec: dict,
) -> dict:
    """One workload's block of ``results.json``.

    ``ops`` counts the requests the untraced runs issued; ``failed`` the
    ones not answered 2xx, except that every request of a run that
    crashed, or of every run when the outputs fail a check, counts as
    failed.
    """
    problems, notes = checks.check_runs(
        name, runs + ([traced] if traced else []), reference,
        name in metrics.OBSERVED,
    )
    per_run = runs[0]["outputs"]["issued"] if runs else 0
    ops = per_run * (len(runs) + len(crashes))
    failed = sum(r["outputs"]["failed"] for r in runs) + per_run * len(crashes)
    if problems:
        failed = ops
    if traced is None:
        problems.append("no traced run")
    problems += crashes
    block = {
        "end_to_end": {},
        "raw": {},
        "ops": ops,
        "failed": failed,
        "outputs": runs[0]["outputs"] if runs else None,
        "problems": problems,
        "notes": notes,
        "runs": [run_row(r) for r in runs],
        "layers": metrics.layer_values(traced, runs),
        "profile_shares": metrics.profile_shares(traced),
    }
    rows = block["runs"]
    for metric in spec["end_to_end"]:
        key = metric["name"]
        if rows:
            block["end_to_end"][key] = dict(
                metrics.spread([row[key] for row in rows]), unit=metric["unit"]
            )
    for key in ["raw_" + m for m in RAW] + ["host_slowdown"]:
        if rows:
            block["raw"][key] = metrics.spread([row[key] for row in rows])
    return block


def print_block(name: str, block: dict, spec: dict) -> None:
    def row_line(key, row, unit):
        return (f"  {key:<14} {fmt(row['median']):>10} {unit:<13} "
                f"q1 {fmt(row['q1'])}  q3 {fmt(row['q3'])}  "
                f"min {fmt(row['min'])}  max {fmt(row['max'])}  n={row['n']}")

    print(f"\n{name}  ({len(block['runs'])} untraced runs + 1 traced)")
    for key, row in block["end_to_end"].items():
        print(row_line(key, row, row["unit"]))
    units = {"raw_" + m: unit for m, unit in RAW.items()}
    units["host_slowdown"] = "x reference"
    for key, row in block["raw"].items():
        print(row_line(key, row, units[key]))
    print(f"  {'ops':<14} {block['ops']:>10} requests      "
          f"failed {block['failed']}")
    verdict = "FAIL" if block["problems"] else "ok"
    print(f"  {'check':<14} {verdict:>10}"
          + "".join(f"\n    {p}" for p in block["problems"] + block["notes"]))
    shares = sorted(block["profile_shares"].items(), key=lambda kv: -kv[1])
    print("  profile        " + "  ".join(
        f"{k} {v * 100:.1f}%" for k, v in shares if v >= 0.005
    ))
    units = {m.name: m.unit for m in metrics.LAYER_METRICS}
    for key, value in block["layers"].items():
        print(f"    {key:<32} {fmt(value):>14} {units[key]}")


def suite(seed: int, reps: int, out: Path, names: list[str]) -> int:
    spec = load_spec()
    reference = checks.load_reference()
    known = [w["name"] for w in spec["workloads"]]
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"bench: unknown workloads {unknown}; choose from {known}",
              file=sys.stderr)
        return 2
    try:
        spawn(names[0], seed, setup_only=True)  # untimed cache warm-up
    except ChildFailed as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    runs = {n: [] for n in names}
    crashes = {n: [] for n in names}
    traced = {}
    total = reps * len(names) + len(names)
    done = 0

    def attempt(name: str, trace: bool) -> None:
        nonlocal done
        done += 1
        try:
            record = spawn(name, seed, trace=trace)
        except ChildFailed as error:
            if not trace:  # a traced crash shows as "no traced run"
                crashes[name].append(str(error))
            print(f"[{done}/{total}] {name}: {error}", file=sys.stderr)
            return
        if trace:
            traced[name] = record
        else:
            runs[name].append(record)
        print(f"[{done}/{total}] {name}{' traced' if trace else ''}: "
              f"{metrics.sim_rate(record, 'raw_s'):.3f} sim-s/wall-s raw, "
              f"{metrics.sim_rate(record):.3f} at reference speed",
              file=sys.stderr)

    for _ in range(reps):
        for name in names:
            attempt(name, trace=False)
    for name in names:
        attempt(name, trace=True)

    blocks = {
        n: summarize(n, runs[n], crashes[n], traced.get(n), reference, spec)
        for n in names
    }
    if runs.get("dag-fluid") and runs.get("dag-observed"):
        rate = {
            n: statistics.median(metrics.sim_rate(r) for r in runs[n])
            for n in ("dag-fluid", "dag-observed")
        }
        blocks["dag-observed"]["layers"]["obs.overhead_frac"] = (
            rate["dag-fluid"] / rate["dag-observed"] - 1.0
        )
    for name in names:
        print_block(name, blocks[name], spec)
    correct = not any(b["problems"] for b in blocks.values())
    results = {
        "schema": SCHEMA,
        "seed": seed,
        "reps": reps,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "correct": correct,
        "workloads": blocks,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n"
    )
    (out / "trace.json").write_text(
        json.dumps({n: t["trace"] for n, t in sorted(traced.items())},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"\nwrote {out / 'results.json'} and {out / 'trace.json'}; "
          f"outputs {'correct' if correct else 'WRONG'}")
    return 0 if correct else 1


def refresh_reference() -> int:
    spec = load_spec()
    seed = checks.REFERENCE_SEED
    entries = {}
    for workload in spec["workloads"]:
        record = spawn(workload["name"], seed)
        entries[workload["name"]] = checks.reference_entry(
            record["outputs"], record["duration"]
        )
        print(f"{workload['name']}: {record['outputs']['fingerprint']}")
    checks.REFERENCE.write_text(
        json.dumps({"seed": seed, "workloads": entries}, indent=1,
                   sort_keys=True) + "\n"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator (see bench/README.md).",
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset, in this order")
    parser.add_argument("--workload", default=None,
                        help="measure one workload and print a JSON line")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refresh-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.refresh_reference:
        return refresh_reference()
    if args.workload is not None:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in load_spec()["workloads"]])
    return suite(args.seed, args.reps, args.out, names)


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run so the running child is
    # killed and waited for, as on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
