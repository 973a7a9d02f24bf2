"""``python -m repro.bench``: reproduce the paper's tables and figures.

Usage::

    python -m repro.bench                 # all three tables
    python -m repro.bench 1 3             # just Tables 1 and 3
    python -m repro.bench figs [NAME ...] # the data behind the figures

How fast the simulator itself runs is measured by ``benchmarks/e2e``.
"""

import argparse
import sys

from .report import render_gantt, render_series
from .tables import table1, table2, table3

_TABLES = {"1": table1, "2": table2, "3": table3}


def _records(data, path=()) -> dict:
    """``path -> {field: value}`` per innermost dict or list of ``data``."""
    out = {}
    for key, value in (data.items() if isinstance(data, dict)
                       else enumerate(data)):
        if isinstance(value, (dict, list)):
            out.update(_records(value, path + (key,)))
        else:
            out.setdefault(path, {})[key] = value
    return out


def _render_figure(name: str, data: dict) -> str:
    """A row per record, a table per set of fields, Fig 4's Gantt rows."""
    gantt, tables = data.pop("ncs_gantt", {}), {}
    for path, fields in _records(data).items():
        title = " ".join([name, *map(str, path[:-1])])
        labels = tuple(fields)
        tables.setdefault((title, labels), []).append(
            (path[-1] if path else "", *fields.values()))
    out = [render_series(title, "", "", rows, labels=labels)
           for (title, labels), rows in tables.items()]
    if gantt:
        out.append(render_gantt(
            f"{name}: NCS application threads", horizon=data["ncs_makespan_s"],
            rows={k: v for k, v in gantt.items() if "sys-" not in k}))
    return "\n\n".join(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["figs"]:
        from . import figures
        for name in argv[1:] or figures.__all__:
            if name not in figures.__all__:
                raise SystemExit(f"no figure {name!r}; choose from "
                                 + ", ".join(figures.__all__))
            print(_render_figure(name, getattr(figures, name)()), end="\n\n")
        return 0
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's Tables 1-3.")
    parser.add_argument("tables", nargs="*", choices=["1", "2", "3", []],
                        help="which tables to print (default: all)")
    args = parser.parse_args(argv)

    for pick in args.tables or ["1", "2", "3"]:
        print(_TABLES[pick]().render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
