"""The repository benchmark: seeded workloads, exactness gate, traced layer split.

Run it with ``python3 perfbench/run.py --workload <name>`` from the
repository root; see ``perfbench/README.md``.
"""
