"""Benchmark for the icufunnel pipeline: workloads, checks, tracing.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a source checkout. See ``run.py`` for the output format.
"""
