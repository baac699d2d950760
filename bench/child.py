"""One measured benchmark run in a fresh interpreter.

    python -m bench.child WORKLOAD SEED [--trace] [--setup-only]

Run from the root of the checkout.  Prints the run record (see
``workloads.execute``) as one JSON line on stdout.  ``run.py`` starts
one of these per repetition, so every run pays its own import and
build, and its peak RSS is its own.  The package is imported from this
checkout's ``src`` only; a run that cannot import it from there fails.
"""

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

from bench.hostspeed import HostClock

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    clock = HostClock()
    start = time.perf_counter()
    workloads = importlib.import_module("bench.workloads")  # imports repro
    clock.add("import", time.perf_counter() - start)
    origin = Path(sys.modules["repro"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"repro imported from {origin}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from bench.trace import Tracer

        tracer = Tracer()
    record = workloads.execute(
        args.workload,
        args.seed,
        clock,
        tracer=tracer,
        setup_only=args.setup_only,
    )
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
