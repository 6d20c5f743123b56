"""End-to-end and per-layer training benchmark (entry point: ``run.py``)."""
