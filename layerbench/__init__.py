"""End-to-end and per-layer benchmark of the whitebox_tools_ray engine.

Run ``python3 layerbench/run.py --help``; BENCHMARK.json at the
repository root lists the workloads and metrics.
"""
