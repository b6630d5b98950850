"""Benchmark of the repro serving stack.

The package measures the program under ``src/`` from outside, through its
public API only.  ``perfbench/run.py`` is the entry point; see
``perfbench/README.md`` for the workloads, metrics and layer table.
"""
