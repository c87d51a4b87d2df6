"""Benchmark for the aoi_offload package: workloads, tracing and comparison.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a checkout; see ``perfbench/README.md``.
"""
