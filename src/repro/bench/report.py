"""Plain-text rendering of benchmark results (the tables the paper prints)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = ["TableRow", "ComparisonTable", "render_table",
           "render_series", "render_gantt"]


@dataclass
class TableRow:
    """One row of a paper-style comparison table."""

    platform: str
    n_nodes: int
    p4_s: float
    ncs_s: float
    paper_p4_s: Optional[float] = None
    paper_ncs_s: Optional[float] = None

    @property
    def improvement_pct(self) -> float:
        return (self.p4_s - self.ncs_s) / self.p4_s * 100.0

    @property
    def paper_improvement_pct(self) -> Optional[float]:
        if self.paper_p4_s is None or self.paper_ncs_s is None:
            return None
        return (self.paper_p4_s - self.paper_ncs_s) / self.paper_p4_s * 100.0


@dataclass
class ComparisonTable:
    """A measured-vs-paper table for one experiment."""

    title: str
    rows: list[TableRow] = field(default_factory=list)

    def add(self, row: TableRow) -> None:
        self.rows.append(row)

    def render(self) -> str:
        return render_table(self)


def render_table(table: ComparisonTable) -> str:
    """Render rows the way the paper's tables read, with the paper's
    numbers alongside for comparison."""
    header = (f"{'platform':<10}{'nodes':>6}"
              f"{'p4 (s)':>10}{'NCS (s)':>10}{'impr %':>9}"
              f"{'paper p4':>10}{'paper NCS':>11}{'paper %':>9}")
    lines = [table.title, "=" * len(header), header, "-" * len(header)]
    for r in table.rows:
        paper_p4 = f"{r.paper_p4_s:10.2f}" if r.paper_p4_s is not None \
            else f"{'-':>10}"
        paper_ncs = f"{r.paper_ncs_s:11.2f}" if r.paper_ncs_s is not None \
            else f"{'-':>11}"
        pimp = r.paper_improvement_pct
        paper_imp = f"{pimp:8.1f}%" if pimp is not None else f"{'-':>9}"
        lines.append(
            f"{r.platform:<10}{r.n_nodes:>6}"
            f"{r.p4_s:10.2f}{r.ncs_s:10.2f}{r.improvement_pct:8.1f}%"
            f"{paper_p4}{paper_ncs}{paper_imp}")
    lines.append("=" * len(header))
    return "\n".join(lines)


def render_gantt(title: str, rows: dict, width: int = 72,
                 horizon: Optional[float] = None) -> str:
    """ASCII Gantt chart from tracer rows (the Fig 4 / Fig 16 picture).

    ``rows`` maps entity name -> list of ``(start, end, activity, label)``
    tuples (a :meth:`Timeline.gantt_row`).  Activities are drawn as
    ``#`` compute, ``~`` communicate, ``.`` overhead, space idle.
    """
    glyphs = {"compute": "#", "communicate": "~", "overhead": ".",
              "idle": " "}
    if horizon is None:
        horizon = max((iv[1] for r in rows.values() for iv in r),
                      default=1.0)
    if horizon <= 0:
        horizon = 1.0
    name_w = max((len(n) for n in rows), default=4) + 1
    lines = [title,
             f"{'':<{name_w}}0{'':>{width - 10}}{horizon:.3f}s",
             f"{'':<{name_w}}{'-' * width}"]
    for name in sorted(rows):
        cells = [" "] * width
        for start, end, activity, _ in rows[name]:
            a = max(0, min(width - 1, int(start / horizon * width)))
            b = max(a + 1, min(width, int(end / horizon * width) + 1))
            g = glyphs.get(activity, "?")
            for i in range(a, b):
                if cells[i] == " " or g == "#":
                    cells[i] = g
        lines.append(f"{name:<{name_w}}{''.join(cells)}")
    lines.append(f"{'':<{name_w}}{'-' * width}")
    lines.append(f"{'':<{name_w}}# compute   ~ communicate   . overhead")
    return "\n".join(lines)


def render_series(title: str, xlabel: str, ylabel: str,
                  points: Sequence[tuple], labels: Sequence[str] = ()
                  ) -> str:
    """Render figure data as aligned columns (one line per x value):
    each column right-aligned to its widest cell, one space apart."""
    table = [[xlabel, *map(str, labels or [ylabel])]]
    for x, *ys in points:
        table.append([str(x), *(f"{y:.6g}" if isinstance(y, (int, float))
                                else str(y) for y in ys)])
    widths = [max(len(cell) for cell in column)
              for column in zip(*table)]
    lines = [title, "-" * max(len(title), 20)]
    lines += [" ".join(cell.rjust(w) for cell, w in zip(row, widths))
              for row in table]
    return "\n".join(lines)
