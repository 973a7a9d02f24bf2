"""Where do a message's calendar events come from?

    python3 benchmarks/event_census.py                # all seven cells
    python3 benchmarks/event_census.py msg_small.eth_nsm --top 12
    PYTHONPATH=<other checkout>/src python3 benchmarks/event_census.py
    python3 benchmarks/event_census.py --quick        # ~1/20 size, smoke

Runs one cell of every leg shape of the ``msg_small``, ``msg_bulk``,
``a2a_wan`` and ``coll_256`` workloads of ``benchmarks/e2e`` (same
cluster, runtime, driver and size; the cell tables are read from its
``workloads.py``) and prints the events put on the calendar per
delivered message, broken down by

* *site* — the first frame outside ``repro/sim/`` on the scheduling
  call's stack, i.e. the model code that asked (for the completion of a
  process, the process's own generator function; for a sleep, the
  innermost generator of its ``yield from`` chain);
* *via* — the kernel primitive it asked through (``Resource.request``,
  ``Store.put``, ``Simulator.process`` = a boot, ``completion``,
  ``sleep`` ...);
* *event* — what was scheduled, by the event's name up to its first
  colon (``req`` a grant, ``put`` an acknowledgement, ``get`` a getter's
  wake-up, ``boot``, ``timeout``, ``sleep`` a process's ``yield
  seconds``, a finished process's label ...);
* *kind* — ``zero`` (same instant), ``timed`` (a positive delay) or
  ``abs`` (``schedule_at``).

It measures from outside: ``KernelCore._schedule`` and ``schedule_at``
are wrapped here for the duration of a cell, nothing in ``src/`` knows
about it, and the wrapped run's statistics are the unwrapped run's.
With ``PYTHONPATH`` unset it measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: one cell of every leg shape: ``workload.leg``
CELLS = ("msg_small.eth_nsm", "msg_small.atm_hsm", "msg_bulk.eth_nsm",
         "msg_bulk.atm_nsm", "msg_bulk.atm_hsm", "a2a_wan.a2a",
         "coll_256.coll")
SEED = 1995


def _site(frame, event, sim_dir: str, pkg_dir: str) -> tuple[str, str]:
    """``(site, via)`` of the scheduling of ``event`` whose caller is
    ``frame``."""
    def where(code) -> str:
        return f"{code.co_filename.removeprefix(pkg_dir)}:{code.co_name}"

    via = "?"
    while frame is not None:
        code = frame.f_code
        if not code.co_filename.startswith(sim_dir):
            return where(code), via
        if code.co_name == "_resume" and via in ("?", "Event.succeed",
                                                 "Event.fail"):
            proc = frame.f_locals["self"]
            gen = proc._gen
            if event is getattr(proc, "_sleep", None):
                # ``yield seconds``: no model frame is on the stack (the
                # generator is suspended), so name the innermost
                # generator of its ``yield from`` chain, which asked
                while getattr(gen, "gi_yieldfrom", None) is not None:
                    gen = gen.gi_yieldfrom
                return where(gen.gi_code), "sleep"
            # a process finishing: charge the body that ran to its end
            return where(gen.gi_code), "completion"
        if code.co_name in ("run", "run_below") \
                and "event" in frame.f_locals:
            # scheduled from a callback with no model frame of its own
            # (a condition firing): name the event the run loop processed
            return f"(callback on {_label(frame.f_locals['event'])})", via
        via = code.co_qualname
        frame = frame.f_back
    return "<toplevel>", via


def _label(event) -> str:
    if type(event).__name__ == "Timeout":
        return "timeout"
    return event.name.split(":", 1)[0] or type(event).__name__


def census(workload: str, leg: str, quick: bool = False) -> dict:
    """Run one cell under the wrapper; returns its tally."""
    for path in ([] if os.environ.get("PYTHONPATH")
                 else [HERE.parent / "src"]) + [HERE / "e2e"]:
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads as wl
    from repro.config import ScenarioRun, ensure_components, loads_scenario
    from repro.obs import counter_total
    from repro.registry import APP_DRIVERS
    from repro.sim import kernel

    ensure_components()
    name, cluster, runtime, driver, params, small = next(
        c for c in wl.SCENARIO_CELLS[workload] if c[0].startswith(leg))
    if quick:
        cluster = {**cluster, **wl.QUICK_CLUSTER.get(workload, {})}
        params = {**params, **small}
    spec = loads_scenario(json.dumps(wl._scenario_doc(
        f"census-{name}", cluster, runtime, driver, params, SEED)), "json")

    sim_dir = str(Path(kernel.__file__).parent) + os.sep
    pkg_dir = str(Path(kernel.__file__).parents[1]) + os.sep
    tally: Counter = Counter()
    core = kernel.KernelCore
    plain_schedule, plain_at = core._schedule, core.schedule_at
    getframe = sys._getframe

    def _schedule(self, event, delay=0.0):
        site, via = _site(getframe(1), event, sim_dir, pkg_dir)
        tally[site, via, _label(event),
              "zero" if delay == 0 else "timed"] += 1
        plain_schedule(self, event, delay)

    def schedule_at(self, event, when):
        site, via = _site(getframe(1), event, sim_dir, pkg_dir)
        tally[site, via, _label(event), "abs"] += 1
        plain_at(self, event, when)

    core._schedule, core.schedule_at = _schedule, schedule_at
    try:
        run = ScenarioRun(spec)
        value = APP_DRIVERS.get(driver)(run)
    finally:
        core._schedule, core.schedule_at = plain_schedule, plain_at
    snapshot = run.cluster.metrics.snapshot()
    return {
        "cell": f"{workload}.{leg}", "tally": tally,
        "msgs": counter_total(snapshot, "mps.data_received"),
        "processed": counter_total(snapshot, "sim.events_processed"),
        "processes": counter_total(snapshot, "sim.processes_started"),
        "makespan_s": value["makespan_s"],
    }


def report(result: dict, top: int) -> str:
    """The cell's table as GitHub-flavoured markdown."""
    tally, msgs = result["tally"], result["msgs"]
    scheduled = sum(tally.values())
    by_kind = Counter()
    for (_site_, _via, _event, kind), n in tally.items():
        by_kind[kind] += n
    lines = [
        f"#### `{result['cell']}` — {msgs} messages, "
        f"{result['processed']} events processed "
        f"({result['processed'] / msgs:.1f} per message), "
        f"{scheduled} scheduled "
        f"(zero {by_kind['zero'] / msgs:.1f} · timed "
        f"{by_kind['timed'] / msgs:.1f} · abs {by_kind['abs'] / msgs:.1f} "
        f"per message), {result['processes']} processes, "
        f"makespan {result['makespan_s']!r} s",
        "",
        "| per msg | kind | event | via | site |",
        "|---:|---|---|---|---|",
    ]
    rows = tally.most_common()
    for (site, via, event, kind), n in rows[:top]:
        lines.append(f"| {n / msgs:.2f} | {kind} | {event} | `{via}` "
                     f"| `{site}` |")
    rest = sum(n for _, n in rows[top:])
    if rest:
        lines.append(f"| {rest / msgs:.2f} | | | | "
                     f"*{len(rows) - top} smaller rows* |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cells", nargs="*", default=CELLS,
                    help=f"workload.leg, default: {' '.join(CELLS)}")
    ap.add_argument("--top", type=int, default=16,
                    help="rows per table (the rest is summed)")
    ap.add_argument("--quick", action="store_true",
                    help="the benchmark's ~1/20-size cells")
    args = ap.parse_args(argv)
    for cell in args.cells:
        workload, leg = cell.split(".", 1)
        print(report(census(workload, leg, args.quick), args.top),
              end="\n\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
