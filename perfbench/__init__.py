"""The repository benchmark: three workloads, end-to-end metrics, and a
traced per-layer table.  Entry point: ``python3 perfbench/run.py``;
see ``perfbench/README.md``."""
