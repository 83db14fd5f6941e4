"""The repository's benchmark: four workloads timed from outside.

``BENCHMARK.json`` at the repo root names the workloads and metrics;
``bench/README.md`` defines them.  Nothing here is imported by
``src/`` or the tier-1 tests.
"""
