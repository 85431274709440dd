"""The repository benchmark: three workloads, end-to-end and per-layer
metrics.  Run it with ``python3 perfbench/run.py``; see ``GLOSSARY.md``."""
