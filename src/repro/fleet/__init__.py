"""Fleet execution and KPI regression: many scenarios, one verdict.

The layer that turns the checked-in ``scenarios/`` corpus (or a
parameter-matrix sweep) into a regression instrument::

    python -m repro.run --fleet scenarios/ --jobs 4 --check

:mod:`~repro.fleet.runner` executes a :class:`~repro.config.fleet.FleetSpec`
across a process pool with per-run isolation and deterministic
ordering; :mod:`~repro.fleet.kpis` reduces each run's metrics snapshot
to a typed KPI row and renders/persists the resulting document;
:mod:`~repro.fleet.diff` compares a fresh fleet against a checked-in
``KPIS_<fleet>.json`` baseline, every KPI exactly.  The KPI goldens
guard *simulated behavior*; ``benchmarks/e2e`` measures
*implementation speed* — together they cover both axes of "did this
change break anything".
"""

from .kpis import (KPI_SCHEMA, KpiRow, extract_kpis, goodput, kpi_doc,
                   load_kpi_doc, render_table, write_kpi_doc)
from .diff import diff_kpis, diff_rows
from .runner import FleetResult, RunOutcome, run_fleet

__all__ = [
    "KPI_SCHEMA", "KpiRow", "extract_kpis", "goodput", "kpi_doc",
    "load_kpi_doc", "render_table", "write_kpi_doc",
    "diff_kpis", "diff_rows",
    "FleetResult", "RunOutcome", "run_fleet",
]
