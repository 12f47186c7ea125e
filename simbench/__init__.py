"""End-to-end and per-layer benchmark of the HACK simulator.

Run ``python3 simbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``simbench/README.md``.
"""
