"""Tests for the benchmark harness itself (report, paper data, figures)."""

import re

import pytest

from repro.bench import paper_data as paper
from repro.bench.report import ComparisonTable, TableRow, render_series, render_table


class TestPaperData:
    def test_improvement_formula(self):
        assert paper.improvement(10.0, 8.0) == pytest.approx(20.0)

    def test_table1_known_improvements(self):
        """Spot-check the derivations against the paper's own printed
        percentages (it prints 18.76%, 25.93%, 20.06%, 28.05%)."""
        assert paper.paper_improvement(
            paper.TABLE1_P4, paper.TABLE1_NCS,
            ("ethernet", 2)) == pytest.approx(18.76, abs=0.05)
        assert paper.paper_improvement(
            paper.TABLE1_P4, paper.TABLE1_NCS,
            ("ethernet", 4)) == pytest.approx(25.93, abs=0.05)
        assert paper.paper_improvement(
            paper.TABLE1_P4, paper.TABLE1_NCS,
            ("nynet", 2)) == pytest.approx(20.06, abs=0.05)
        assert paper.paper_improvement(
            paper.TABLE1_P4, paper.TABLE1_NCS,
            ("nynet", 4)) == pytest.approx(28.05, abs=0.05)

    def test_table2_known_improvements(self):
        """§5.2: 'performance gain ... is around 42% for Ethernet and
        60% on NYNET testbed' at 4 nodes."""
        assert paper.paper_improvement(
            paper.TABLE2_P4, paper.TABLE2_NCS,
            ("ethernet", 4)) == pytest.approx(42.26, abs=0.05)
        assert paper.paper_improvement(
            paper.TABLE2_P4, paper.TABLE2_NCS,
            ("nynet", 4)) == pytest.approx(59.88, abs=0.05)

    def test_table3_known_improvements(self):
        """§5.3.2: 'for 4 nodes performance gain ... is 5.7% on Ethernet
        and 10.66% on NYNET testbed'."""
        assert paper.paper_improvement(
            paper.TABLE3_P4, paper.TABLE3_NCS,
            ("ethernet", 4)) == pytest.approx(5.7, abs=0.1)
        assert paper.paper_improvement(
            paper.TABLE3_P4, paper.TABLE3_NCS,
            ("nynet", 4)) == pytest.approx(10.66, abs=0.05)

    def test_node_counts_match_tables(self):
        assert paper.TABLE_NODES["table1"]["ethernet"] == (1, 2, 4, 8)
        assert paper.TABLE_NODES["table2"]["nynet"] == (2, 4)
        # NYNET rows stop at 4 nodes (dashes in the paper)
        assert ("nynet", 8) not in paper.TABLE1_P4


class TestReport:
    def test_row_improvement(self):
        row = TableRow("ethernet", 2, p4_s=10.0, ncs_s=8.0,
                       paper_p4_s=16.89, paper_ncs_s=13.72)
        assert row.improvement_pct == pytest.approx(20.0)
        assert row.paper_improvement_pct == pytest.approx(18.77, abs=0.05)

    def test_row_without_paper_numbers(self):
        row = TableRow("ethernet", 2, 10.0, 9.0)
        assert row.paper_improvement_pct is None

    def test_render_table_contains_all_rows(self):
        t = ComparisonTable("My Table")
        t.add(TableRow("ethernet", 2, 10.0, 8.0, 16.89, 13.72))
        t.add(TableRow("nynet", 4, 5.0, 4.0))
        out = t.render()
        assert "My Table" in out
        assert "ethernet" in out and "nynet" in out
        assert "20.0%" in out
        # missing paper cells render as dashes
        assert "-" in out.splitlines()[-2]

    def test_render_series(self):
        out = render_series("T", "x", "y", [(1, 2.0), (2, 4.0)])
        assert "T" in out and out.count("\n") >= 3

    def test_render_series_with_labels(self):
        out = render_series("T", "size", "", [(1, 2.0, 3.0)],
                            labels=["a", "b"])
        assert "a" in out and "b" in out
        # a figure's list-valued record labels its columns by index
        assert render_series("T", "", "", [("x", 1.0)],
                             labels=[0]).splitlines()[2] == "  0"


def test_figs_prints_a_figures_data(monkeypatch, capsys):
    """``python -m repro.bench figs NAME``, on a reduced-size Fig 4."""
    from functools import partial

    from repro.bench import figures
    from repro.bench.__main__ import main
    monkeypatch.setattr(figures, "fig4_overlap",
                        partial(figures.fig4_overlap, n=32))
    assert main(["figs", "fig4_overlap"]) == 0
    out = capsys.readouterr().out
    assert "p4_makespan_s" in out and "n1/n1-t0" in out
    with pytest.raises(SystemExit, match="no figure 'fig99'"):
        main(["figs", "fig99"])


def test_figs_rows_line_up_with_their_header(capsys):
    """``figs fig3_datapath``: every row's cells end where its header's
    do, its row keys end in one column, and a blank keeps each cell
    apart from the next — however long a key or a label is."""
    from repro.bench import figures
    from repro.bench.__main__ import main
    keys = [k for k, v in figures.fig3_datapath().items()
            if isinstance(v, dict)]
    assert main(["figs", "fig3_datapath"]) == 0
    block = capsys.readouterr().out.split("\n\n")[0]
    _, _, head, *rows = block.splitlines()
    ends = [m.end() for m in re.finditer(r"\S+", head)]
    assert len(rows) == len(keys) == 3
    key_ends = set()
    for row in rows:
        key = next(k for k in keys if row.lstrip().startswith(k))
        key_end = row.index(key) + len(key)
        key_ends.add(key_end)
        assert row[key_end] == " " and head[:key_end + 1].strip() == ""
        assert [key_end + m.end()
                for m in re.finditer(r"\S+", row[key_end:])] == ends
    assert len(key_ends) == 1
