"""``python -m repro.bench``: reproduce the paper's tables, or run the
wall-clock perf harness.

Usage::

    python -m repro.bench                 # all three tables
    python -m repro.bench 1 3             # just Tables 1 and 3
    python -m repro.bench --perf          # regenerate BENCH_*.json
    python -m repro.bench --perf --check  # ... and fail on >25% regression
    python -m repro.bench --construction  # 1024-host build-memory ladder
    python -m repro.bench --construction --check  # shard-0 RSS-ceiling smoke
"""

import argparse
import sys
from pathlib import Path

from . import construction, perf
from .tables import table1, table2, table3

_TABLES = {"1": table1, "2": table2, "3": table3}


def _run_perf(out_dir: Path, check: bool, tolerance: float) -> int:
    suites = [
        ("kernel hot paths", perf.run_kernel_suite,
         out_dir / perf.KERNEL_BENCH_FILE),
        ("applications", perf.run_app_suite,
         out_dir / perf.APPS_BENCH_FILE),
    ]
    failures: list[str] = []
    for title, run, path in suites:
        results = run(progress=lambda name: print(f"  running {name} ..."))
        print(perf.render_results(results, title))
        print()
        if check and path.exists():
            baseline = perf.load_results(path)
            failures += perf.check_regression(results, baseline,
                                              tolerance=tolerance)
        perf.write_results(results, path)
        print(f"wrote {path}")
    if failures:
        print("\nperf regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if check:
        print(f"\nperf regression check passed "
              f"(tolerance {tolerance:.0%})")
    return 0


def _run_construction(out_dir: Path, check: bool) -> int:
    path = out_dir / construction.CONSTRUCTION_BENCH_FILE
    if check:
        try:
            baseline = construction.load_construction(path)
        except OSError as e:
            print(f"no construction baseline to check against ({e}); "
                  "run --construction without --check first",
                  file=sys.stderr)
            return 2
        print("measuring the full build and shard 0 (traced) ...")
        failures = construction.check_construction(baseline)
        if failures:
            print("\nconstruction check FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"construction check passed (full 1024-host build under "
              f"{construction.FULL_WALL_CEILING_S:g} s and "
              f"{construction.FULL_RSS_CEILING_BYTES / 1e6:.0f} MB, every "
              f"shard below it)")
        return 0
    doc = construction.run_construction_bench(
        progress=lambda what: print(f"  measuring {what} ..."))
    print(construction.render_construction(doc))
    construction.write_construction(doc, path)
    print(f"wrote {path}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables, or time the simulator "
                    "itself (--perf).")
    parser.add_argument("tables", nargs="*", choices=["1", "2", "3", []],
                        help="which tables to print (default: all)")
    parser.add_argument("--perf", action="store_true",
                        help="run the wall-clock perf harness and write "
                             "BENCH_kernel.json / BENCH_apps.json")
    parser.add_argument("--construction", action="store_true",
                        help="measure full vs per-shard construction of "
                             "the 1024-host wan-ring and write "
                             "BENCH_construction.json")
    parser.add_argument("--check", action="store_true",
                        help="with --perf/--construction: compare against "
                             "the committed BENCH file; exit 1 on "
                             "regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="fractional wall-clock growth allowed by "
                             "--perf --check (default 0.25)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for the BENCH files (default: cwd)")
    args = parser.parse_args(argv)

    if args.perf and args.construction:
        parser.error("--perf and --construction are separate harnesses; "
                     "run them one at a time")
    if args.perf:
        return _run_perf(args.out, args.check, args.tolerance)
    if args.construction:
        return _run_construction(args.out, args.check)
    if args.check:
        parser.error("--check only makes sense with --perf or "
                     "--construction")

    for pick in args.tables or ["1", "2", "3"]:
        print(_TABLES[pick]().render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
