"""``python -m repro.bench``: reproduce the paper's tables.

Usage::

    python -m repro.bench                 # all three tables
    python -m repro.bench 1 3             # just Tables 1 and 3

How fast the simulator itself runs is measured by ``benchmarks/e2e``.
"""

import argparse
import sys

from .tables import table1, table2, table3

_TABLES = {"1": table1, "2": table2, "3": table3}


def main(argv: list[str]) -> int:
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
