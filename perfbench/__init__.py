"""End-to-end and per-layer benchmark of the private federated query engine.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
