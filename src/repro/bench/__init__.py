"""Benchmark harness: regenerate every table and figure of the paper."""

from . import paper_data, tables
from .report import (ComparisonTable, TableRow, render_gantt,
                     render_series, render_table)
from .tables import all_tables, table1, table2, table3

__all__ = [
    "paper_data", "tables",
    "ComparisonTable", "TableRow", "render_gantt", "render_series",
    "render_table",
    "all_tables", "table1", "table2", "table3",
]
