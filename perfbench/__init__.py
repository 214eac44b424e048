"""The repository's benchmark: ``python3 perfbench/run.py --workload NAME``.

Workloads, metrics and the layer table are declared in ``BENCHMARK.json``
at the repository root and explained in ``perfbench/README.md``.
"""
