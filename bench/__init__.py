"""The repository's benchmark: see ``bench/README.md``.

Importing this package imports nothing else; ``bench.workloads``
imports the simulator.
"""
