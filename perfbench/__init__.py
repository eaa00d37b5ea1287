"""Repository benchmark: seeded workloads, end-to-end metrics and a traced
per-layer split.  Run ``python3 perfbench/run.py --help`` from the repo root."""
