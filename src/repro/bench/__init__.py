"""Shared benchmark harnesses (used by benchmarks/ and the CLI)."""

from .table3 import TABLE3_BUDGET, TABLE3_CELLS, render_table3

__all__ = ["TABLE3_BUDGET", "TABLE3_CELLS", "render_table3"]
