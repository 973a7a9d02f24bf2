"""``python -m repro.run`` — run declarative NCS scenarios and fleets.

Usage::

    python -m repro.run scenario.toml [more.toml ...]
    python -m repro.run --seed 7 scenario.toml   # override cluster.seed
    python -m repro.run --shards 4 scenario.toml # sharded parallel kernel
    python -m repro.run --list            # registered components
    python -m repro.run --print-spec s.toml   # canonical TOML, no run

    python -m repro.run --fleet scenarios/ --jobs 4          # run + table
    python -m repro.run --fleet scenarios/ --write           # (re)baseline
    python -m repro.run --fleet scenarios/ --check           # regression?
    python -m repro.run --fleet scenarios/matrix/small_sweep.toml

A scenario file is a TOML (or JSON) document describing one experiment
end to end — cluster topology, NCS service mode, flow/error control,
fault plan, application and telemetry — that loads into a
:class:`repro.config.ScenarioSpec` and runs through
:func:`repro.config.run_scenario`.  Checked-in examples live in the
repository's ``scenarios/`` directory.

``--fleet`` runs a whole directory of scenarios (or a parameter-matrix
TOML, see :mod:`repro.config.fleet`) across a process pool, reduces
every run to a KPI row (:mod:`repro.fleet`), and — with ``--check`` —
diffs the fresh KPIs against the checked-in ``KPIS_<fleet>.json``
baseline, exiting nonzero on regression.

Every component name in a scenario resolves through
:mod:`repro.registry`; ``--list`` shows what is available, including
anything registered by modules imported via ``--import``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from .config import SpecError, dumps_toml, load_scenario, run_scenario
from .core.mps import MessageLost
from .diagnostics import RESILIENCE_COUNTERS, render_report
from .registry import UnknownNameError, all_registries
from .sim import SimulationError

__all__ = ["main"]


def _list_components() -> str:
    lines = []
    for reg_name, reg in all_registries().items():
        lines.append(f"{reg_name}:")
        for name in reg.names():
            help_text = reg.help_for(name)
            lines.append(f"  {name:<20} {help_text}" if help_text
                         else f"  {name}")
    return "\n".join(lines)


def _summarize(result) -> str:
    spec = result.spec
    head = f"scenario {spec.name!r} [{spec.digest()}]: done"
    rows = [f"  {k:<16} {v}" for k, v in result.summary().items()]
    if spec.resilience is not None and result.cluster is not None:
        # every counter, zeros included — the schema must not depend on
        # whether anything actually failed over this run
        metrics = result.cluster.metrics
        for name in RESILIENCE_COUNTERS:
            rows.append(f"  {name:<32} {metrics.total(name):g}")
    rows += [f"  exported         {p}" for p in result.exported]
    return "\n".join([head] + rows)


def _run_fleet_cli(args) -> int:
    from .config.fleet import load_fleet
    from .fleet import (diff_kpis, load_kpi_doc, render_table, run_fleet,
                        write_kpi_doc)
    try:
        fleet = load_fleet(args.fleet)
    except (SpecError, OSError) as e:
        print(f"{args.fleet}: {e}", file=sys.stderr)
        return 2
    kpis_file = args.kpis_file or f"KPIS_{fleet.name}.json"

    def progress(outcome):
        if outcome.ok:
            print(f"  {outcome.run_id}: ok")
        else:
            print(f"  {outcome.run_id}: FAILED — {outcome.error}")

    print(f"fleet {fleet.name!r}: {len(fleet.runs)} run(s), "
          f"jobs={args.jobs}")
    result = run_fleet(fleet, jobs=args.jobs, results_dir=args.results,
                       progress=progress, timeout_s=args.timeout)
    doc = result.kpi_doc()
    print(render_table(result.rows()))
    write_kpi_doc(doc, f"{args.results}/KPIS_{fleet.name}.json")

    if args.write:
        if not result.ok:
            print(f"baseline not written: failed runs would land in "
                  f"{kpis_file}", file=sys.stderr)
            return 1
        write_kpi_doc(doc, kpis_file)
        print(f"baseline written: {kpis_file}")
        return 0
    if args.check:
        try:
            baseline = load_kpi_doc(kpis_file)
        except OSError as e:
            print(f"no baseline to check against ({e}); run with --write "
                  "to create one", file=sys.stderr)
            return 2
        failures = diff_kpis(baseline, doc)
        if failures:
            print(f"KPI regression vs {kpis_file}:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(f"KPIs match {kpis_file}")
        return 0
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run",
        description="Run declarative NCS scenario files and fleets.")
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help="scenario file(s): .toml or .json")
    parser.add_argument("--list", action="store_true",
                        help="list registered components and exit")
    parser.add_argument("--print-spec", action="store_true",
                        help="print each scenario's canonical TOML "
                             "(validated, defaults pruned) without running")
    parser.add_argument("--report", action="store_true",
                        help="print the cluster diagnostics report after "
                             "each run (implied by obs.report = true)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override cluster.seed (stamps the spec digest: "
                             "a reseeded run is a different experiment)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="override runtime.shards: N > 1 partitions the "
                             "simulation across worker kernels (selects the "
                             "'sharded' kernel; results are bit-identical "
                             "to the single kernel)")
    parser.add_argument("--import", dest="imports", action="append",
                        default=[], metavar="MODULE",
                        help="import MODULE first so third-party components "
                             "self-register (repeatable)")
    fleet_group = parser.add_argument_group("fleet mode")
    fleet_group.add_argument("--fleet", metavar="DIR|MATRIX.toml",
                             help="run a scenario directory or a parameter-"
                                  "matrix file as one fleet")
    fleet_group.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="process-pool width (default: 1, inline)")
    fleet_group.add_argument("--results", default="fleet_results",
                             metavar="DIR",
                             help="per-run artifact directory "
                                  "(default: fleet_results)")
    fleet_group.add_argument("--kpis-file", default=None, metavar="PATH",
                             help="KPI baseline path (default: "
                                  "KPIS_<fleet>.json)")
    fleet_group.add_argument("--check", action="store_true",
                             help="diff fresh KPIs against the baseline; "
                                  "exit 1 on regression")
    fleet_group.add_argument("--write", action="store_true",
                             help="write/refresh the KPI baseline (not "
                                  "when a run failed)")
    fleet_group.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-run wall-clock timeout; a run that "
                                  "exceeds it fails instead of stalling "
                                  "the fleet")
    args = parser.parse_args(argv)

    if args.shards is not None and args.shards < 1:
        from .registry import KERNELS
        parser.error(
            f"--shards must be a positive shard count, got {args.shards}; "
            f"use 1 for the single kernel or N > 1 for the sharded kernel "
            f"(registered kernels: {', '.join(KERNELS.names())})")

    for mod in args.imports:
        importlib.import_module(mod)

    if args.list:
        print(_list_components())
        return 0
    if args.fleet:
        if args.scenarios:
            parser.error("--fleet and positional scenario files are "
                         "mutually exclusive")
        if args.seed is not None:
            parser.error("--seed applies to single scenarios; parameterize "
                         "a fleet via a matrix axis on cluster.seed instead")
        if args.shards is not None:
            parser.error("--shards applies to single scenarios; "
                         "parameterize a fleet via a matrix axis on "
                         "runtime.shards instead")
        if args.check and args.write:
            parser.error("--check and --write are mutually exclusive "
                         "(check first, then write if the change is real)")
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        return _run_fleet_cli(args)
    if args.check or args.write:
        parser.error("--check/--write require --fleet")
    if args.timeout is not None:
        parser.error("--timeout requires --fleet")
    if not args.scenarios:
        parser.error("no scenario files given (or use --list / --fleet)")

    status = 0
    for path in args.scenarios:
        try:
            spec = load_scenario(path)
        except (SpecError, OSError) as e:   # the message names the file
            print(e, file=sys.stderr)
            status = 2
            continue
        if args.seed is not None:
            spec = spec.with_cluster(seed=args.seed)
        if args.shards is not None:
            spec = spec.replace(shards=args.shards)
        if args.print_spec:
            print(dumps_toml(spec.to_dict()), end="")
            continue
        try:
            result = run_scenario(spec)
        except (SpecError, UnknownNameError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            status = 2
            continue
        except (SimulationError, MessageLost) as e:     # the run failed
            print(f"{path}: {e}", file=sys.stderr)
            status = max(status, 1)
            continue
        print(_summarize(result))
        if (args.report or spec.obs.report) and result.cluster is not None:
            try:
                print(render_report(result.report(), indent=1))
            except ValueError as e:     # telemetry off: nothing counted
                print(f"{path}: {e}", file=sys.stderr)
                status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
