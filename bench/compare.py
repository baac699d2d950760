"""Compare two suite results.

    python bench/compare.py BASE.json NEW.json

BASE and NEW are ``results.json`` files written by ``bench/run.py``.
For each workload and end-to-end metric it prints both medians and
quartiles and applies the metric's bound from ``BENCHMARK.json``:

* ``REGRESSION`` — NEW's median is worse than BASE's by more than the
  bound;
* ``unresolved`` — BASE's own quartile spread is wider than the bound,
  so the runs cannot tell a change from noise, unless every run on one
  side beats every run on the other;
* ``better`` — better by more than the bound;
* ``ok`` — otherwise.

It then prints the layer metrics of both traced runs side by side.  It
exits 1 on any regression, on a workload missing from NEW, or when NEW
fails a larger share of its requests than BASE; unresolved pairs do not
change the exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    return json.loads(Path(path).read_text())


def judge(metric: dict, base: dict, new: dict) -> tuple[str, float]:
    """(verdict, signed change of the median as a share of BASE's)."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b, n = base["end_to_end"][name], new["end_to_end"][name]
    change = (n["median"] - b["median"]) / b["median"]
    worse_by = -sign * change
    base_runs = [sign * run[name] for run in base["runs"]]
    new_runs = [sign * run[name] for run in new["runs"]]
    separated = min(new_runs) > max(base_runs) or max(new_runs) < min(base_runs)
    if (b["q3"] - b["q1"]) / b["median"] > bound and not separated:
        return "unresolved", change
    if worse_by > bound:
        return "REGRESSION", change
    return ("better" if worse_by < -bound else "ok"), change


def failed_share(block: dict) -> float:
    return block["failed"] / block["ops"] if block["ops"] else 1.0


def compare(base: dict, new: dict, spec: dict, out=sys.stdout) -> int:
    code = 0
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            print(f"{name}: missing from NEW", file=out)
            code = 1
            continue
        print(f"\n{name}", file=out)
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in b["end_to_end"] or key not in n["end_to_end"]:
                print(f"  {key:<12} not measured on both sides", file=out)
                code = 1
                continue
            verdict, change = judge(metric, b, n)
            if verdict == "REGRESSION":
                code = 1
            rb, rn = b["end_to_end"][key], n["end_to_end"][key]
            print(
                f"  {key:<12} base {rb['median']:.6g} [{rb['q1']:.6g}, "
                f"{rb['q3']:.6g}]  new {rn['median']:.6g} [{rn['q1']:.6g}, "
                f"{rn['q3']:.6g}] {metric['unit']}  {change * 100:+.1f}% "
                f"(bound {metric['bound'] * 100:.0f}%)  {verdict}",
                file=out,
            )
        shares = failed_share(b), failed_share(n)
        flag = ""
        if shares[1] > shares[0]:
            flag = "  MORE FAILED"
            code = 1
        print(
            f"  {'failed':<12} base {b['failed']}/{b['ops']}  "
            f"new {n['failed']}/{n['ops']}{flag}",
            file=out,
        )
        for key, old in b["layers"].items():
            value = n["layers"].get(key)
            if value is None:
                continue
            delta = f"{(value - old) / old * 100:+.1f}%" if old else ""
            print(f"    {key:<32} {old:>14.6g} {value:>14.6g}  {delta}",
                  file=out)
    print(f"\n{'REGRESSION' if code else 'no regression'}", file=out)
    return code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python bench/compare.py BASE.json NEW.json",
              file=sys.stderr)
        return 2
    spec = load(ROOT / "BENCHMARK.json")
    return compare(load(args[0]), load(args[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
