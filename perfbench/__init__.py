"""Benchmark of the prefdiff reproduction pipeline; the entry point is run.py."""
