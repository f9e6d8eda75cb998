"""CQoS benchmark: three seeded workloads, end to end and per layer.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
