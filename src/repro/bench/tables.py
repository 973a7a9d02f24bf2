"""Regenerate the paper's Tables 1, 2 and 3.

Each ``tableN()`` runs every (platform, node-count) cell the paper
reports, for both the p4 baseline and NCS_MTS/p4, and returns a
:class:`~repro.bench.report.ComparisonTable` with the paper's own
numbers alongside.  ``python -m repro.bench`` prints all three.

Every cell is one declarative scenario: :func:`run_cell` builds a
:class:`~repro.config.ScenarioSpec` over the registered app driver
(``matmul-p4``, ``jpeg-ncs``, ...) and runs it through
:func:`~repro.config.run_scenario` — the same path as the checked-in
``scenarios/*.toml`` files and ``python -m repro.run``.
"""

from __future__ import annotations

from ..config import AppSpec, ClusterSpec, ScenarioSpec, run_scenario
from . import paper_data as paper
from .report import ComparisonTable, TableRow

__all__ = ["run_cell", "cell_spec", "table1", "table2", "table3"]


def cell_spec(driver: str, platform: str, n_nodes: int,
              **params) -> ScenarioSpec:
    """The scenario for one table cell: ``driver`` on the
    ``platform-<platform>`` topology with a host and ``n_nodes`` nodes,
    ``params`` its ``[app.params]``."""
    return ScenarioSpec(
        name=f"{driver}-{platform}-{n_nodes}n",
        cluster=ClusterSpec(topology=f"platform-{platform}",
                            n_hosts=n_nodes + 1),
        app=AppSpec(driver, params))


def run_cell(driver: str, platform: str, n_nodes: int, **params):
    """Run one table cell via the scenario layer; returns the
    :class:`~repro.apps.AppResult`."""
    return run_scenario(cell_spec(driver, platform, n_nodes,
                                  **params)).value


def _build(title: str, p4_driver: str, ncs_driver: str,
           p4_ref: dict, ncs_ref: dict, nodes_by_platform: dict,
           platforms=("ethernet", "nynet"), **params) -> ComparisonTable:
    table = ComparisonTable(title)
    for platform in platforms:
        for n in nodes_by_platform[platform]:
            rp = run_cell(p4_driver, platform, n, **params)
            rn = run_cell(ncs_driver, platform, n, **params)
            if not (rp.correct and rn.correct):
                raise AssertionError(
                    f"{title}: wrong application result at "
                    f"{platform}/{n} nodes")
            table.add(TableRow(
                platform, n, rp.makespan_s, rn.makespan_s,
                p4_ref.get((platform, n)), ncs_ref.get((platform, n))))
    return table


def table1(n: int = 128) -> ComparisonTable:
    """Table 1: distributed matrix multiplication (128x128)."""
    return _build(
        "Table 1: Execution times of Matrix Multiplication (seconds)",
        "matmul-p4", "matmul-ncs",
        paper.TABLE1_P4, paper.TABLE1_NCS, paper.TABLE_NODES["table1"],
        n=n)


def table2() -> ComparisonTable:
    """Table 2: JPEG compression/decompression pipeline (600 KB image)."""
    return _build(
        "Table 2: Total execution times of JPEG (seconds)",
        "jpeg-p4", "jpeg-ncs",
        paper.TABLE2_P4, paper.TABLE2_NCS, paper.TABLE_NODES["table2"])


def table3(m: int = 512, n_sets: int = 8) -> ComparisonTable:
    """Table 3: DIF FFT (M=512, 8 sample sets)."""
    return _build(
        "Table 3: Execution times of FFT (seconds)",
        "fft-p4", "fft-ncs",
        paper.TABLE3_P4, paper.TABLE3_NCS, paper.TABLE_NODES["table3"],
        m=m, n_sets=n_sets)

