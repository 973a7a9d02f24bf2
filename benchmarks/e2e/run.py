"""End-to-end + per-layer benchmark of the simulator (see README.md).

    python3 benchmarks/e2e/run.py                  # all six workloads
    python3 benchmarks/e2e/run.py --workload msg_small --seed 7 \\
        --seconds 10 --trace 0                     # one driver-style run

Closed loop, one client: every pass over a workload runs in its own
fresh interpreter (a child of this script), one at a time, round-robin
across the selected workloads.  End-to-end numbers come from untraced
passes; ``--trace 1`` adds one pass under cProfile per workload and the
direct-call loops.  Metric names, units and bounds live in the root
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
CHILD_TIMEOUT_S = 170
SHARDED, CONTROL = "a2a_wan_s2", "a2a_wan"
#: the sharded workload is pinned to its control's expected statistics
PINNED_AS = {SHARDED: CONTROL}
#: a ``--seconds`` run makes at least this many rounds however long they
#: take: a median wants more than one pass to be taken over
MIN_TIMED_ROUNDS = 2


# ------------------------------------------------------------------ children
def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if args.child == "direct":
        record = layers.direct_calls(quick=args.quick)
    else:
        import numpy
        record = wl.run_pass(args.workload[0], args.seed, quick=args.quick,
                             profile=args.child == "profiled",
                             prof_path=args.prof)
        record["numpy"] = numpy.__version__
    print(json.dumps(record), flush=True)
    # the record is out; tearing a 660 MB heap down object by object
    # would add seconds that nobody measures
    os._exit(0)


def spawn(mode, workload=None, seed=wl.DEFAULT_SEED, quick=False,
          prof=None) -> dict:
    """Run one child to completion and return the record it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--seed", str(seed)]
    if workload:
        cmd += ["--workload", workload]
    if quick:
        cmd.append("--quick")
    if prof:
        cmd += ["--prof", str(prof)]
    # own session: a sharded pass forks workers, and a timeout must take
    # the whole group down, not orphan them
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload or 'direct calls'} "
                           f"exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# --------------------------------------------------------------- aggregation
def summarize(values) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values}


def _median(passes, pick):
    return statistics.median(pick(p) for p in passes)


def _per_pass(passes, keys, kind="seconds"):
    """Each pass's seconds under ``keys``, summed over its cells."""
    return [sum(c[kind][k] for c in p["cells"] for k in keys)
            for p in passes]


def cell_medians(passes, keys) -> float:
    """The reported value of a timing: per cell, the median over the
    passes of its seconds under ``keys``; summed over the cells.  A
    burst of host noise that hits one cell of one pass drops out, where
    a median of whole passes would keep whichever pass had fewest."""
    return sum(
        statistics.median(sum(p["cells"][i]["seconds"][k] for k in keys)
                          for p in passes)
        for i in range(len(passes[0]["cells"])))


def _differing(a: dict, b: dict) -> set:
    return {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)}


def check(passes, reference, control) -> dict:
    """Operation and simulated-statistic checks over a workload's passes.

    Every pass is held to ``reference`` (the pinned statistics of
    expected.json; without them, the first pass).  The sharded workload
    is also held to its single-kernel control."""
    ops = sum(p["attempted"] for p in passes)
    ops_failed = sum(p["failed"] for p in passes)
    if reference is None:
        reference = passes[0]["stats"]
    drifted, compared = set(), 0
    for p in passes:
        drifted |= _differing(reference, p["stats"])
        compared += len(reference)
    if control:
        drifted |= _differing(control[0]["stats"], passes[0]["stats"])
        compared += len(passes[0]["stats"])
    return {"ops_attempted": ops, "ops_failed": ops_failed,
            "fail_share": ops_failed / ops,
            "sim_drift": len(drifted), "drifted": sorted(drifted),
            "attempted": ops + compared, "failed": ops_failed + len(drifted)}


def end_to_end(passes, bench) -> dict:
    def timing(keys):
        return cell_medians(passes, keys), _per_pass(passes, keys)

    msgs = passes[0]["msgs"]
    wall, walls = timing(["sim.run_s"])
    rss = [p["rss_peak_mb"] for p in passes]
    out = {
        "setup_s": timing(wl.SETUP_PHASES),
        "wall_s": (wall, walls),
        "msgs_per_s": (msgs / wall, [msgs / w for w in walls]),
        "cpu_s": timing(["cpu_s"]),
        "rss_peak_mb": (statistics.median(rss), rss),
    }
    return {m["name"]: {"value": out[m["name"]][0], "unit": m["unit"],
                        "passes": summarize(out[m["name"]][1])}
            for m in bench["end_to_end"]}


def _ratio(a, b):
    return a / b if b else 0.0


def _raw_wall(p):
    return sum(c["raw"]["sim.run_s"] for c in p["cells"])


def _cpu(p):
    return p["coord_cpu_s"] + p["worker_cpu_s"]


def per_layer(passes, profiled, direct, control, checks, bench) -> dict:
    """Every per-layer metric of BENCHMARK.json for one workload.  A
    metric that does not apply to the workload reads 0."""
    first = passes[0]
    out = {phase: cell_medians(passes, [phase]) for phase in wl.PHASES}
    for layer, v in profiled["layers"].items():
        for key in ("self_s", "self_share", "calls"):
            out[f"{layer}.{key}"] = v[key]
    counts = first["counts"]
    out.update(counts)
    wall, msgs, events = out["sim.run_s"], first["msgs"], counts["sim.events"]
    out["sim.events_per_s"] = events / wall
    out["sim.us_per_event"] = wall / events * 1e6
    out["sim.events_per_msg"] = _ratio(events, msgs)
    out["core.mts.switches_per_msg"] = _ratio(
        counts["core.mts.context_switches"], msgs)
    out["protocols.segments_per_msg"] = _ratio(
        counts["protocols.tcp_segments"], msgs)
    out["atm.cells_per_msg"] = _ratio(counts["atm.cells"], msgs)
    out.update(direct)
    # the sharding pair and the tracing overhead are ratios of raw
    # seconds: both sides ran on the same box, turn and turn about
    out["sim.sharded.speedup_x"] = out["sim.sharded.cpu_inflation_x"] = 0.0
    if control:
        out["sim.sharded.speedup_x"] = (
            _median(control, _raw_wall) / _median(passes, _raw_wall))
        out["sim.sharded.cpu_inflation_x"] = (
            _median(passes, _cpu) / _median(control, _cpu))
    out["sim.sharded.coord_cpu_s"] = _median(
        passes, lambda p: p["coord_cpu_s"])
    out["sim.sharded.worker_cpu_s"] = _median(
        passes, lambda p: p["worker_cpu_s"])
    out["sim.sharded.fallbacks"] = first["fallbacks"]
    out["apps.paper_err_pct"] = first["paper_err_pct"]
    out["trace_overhead_x"] = (_raw_wall(profiled)
                               / _median(passes, _raw_wall))
    out["host.speed_x"] = _median(passes, lambda p: p["speed_x"])
    out["host.kernel_s"] = statistics.median(
        _per_pass(passes, wl.PHASES, "kernel"))
    out["fail_share"] = checks["fail_share"]
    out["sim_drift"] = checks["sim_drift"]
    return {m["name"]: {"value": out[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]}


# ------------------------------------------------------------------ printing
def _git_sha() -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_workload(name, res, bench) -> None:
    checks = res["checks"]
    print(f"\n== {name}: {res['passes']} timed pass(es), "
          f"status {res['status']} ==")
    for m in bench["end_to_end"]:
        e = res["end_to_end"].get(m["name"])
        if not e:
            continue
        if res["status"] == "unresolved" and m["unit"] in ("s", "1/s"):
            # shard workers sharing one core measure time-slicing
            print(f"  {m['name']:<14}{'unresolved':>14}")
            continue
        s = e["passes"]
        print(f"  {m['name']:<14}{e['value']:>14.4f} {m['unit']:<6}"
              f"passes: median {s['median']:.4f}  min {s['min']:.4f}  "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}  "
              f"bound {m['bound']:.0%}")
    if not res["builds_outside_run"]:
        print("  setup_s is import + spec load only: this workload's "
              "clusters are built inside the driver calls (wall_s)")
    print(f"  checked outcomes: {checks['ops_attempted']} operations, "
          f"{checks['ops_failed']} failed (fail_share "
          f"{checks['fail_share']:g}); sim_drift {checks['sim_drift']} "
          f"{checks['drifted'] or ''}")
    if res["noisy"]:
        print(f"  noisy passes (load average > cpu_count at start): "
              f"{res['noisy']}")
    if res["per_layer"]:
        print("  per layer (cProfile of the coordinator process; shares "
              "are an attribution, not a timing):")
        for m in bench["per_layer"]:
            print(f"    {m['name']:<34}"
                  f"{res['per_layer'][m['name']]['value']:>16.6g}"
                  f" {m['unit']}")


# ---------------------------------------------------------------------- main
def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=wl.WORKLOADS,
                    help="workload to run (repeatable; default: all six)")
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                    help="cluster / app-data seed (default 1995, the only "
                         "seed expected.json pins)")
    ap.add_argument("--repeats", type=int,
                    help="timed passes per workload (default 5)")
    ap.add_argument("--seconds", type=float,
                    help="instead of --repeats: keep making timed rounds "
                         "for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: timed passes only; 1: per-layer only (one "
                         "timed + one profiled pass + direct calls); "
                         "default: both")
    ap.add_argument("--quick", action="store_true",
                    help="~1/20-size workloads, for the smoke test")
    ap.add_argument("--out", type=Path,
                    help="directory for results.json and <workload>.prof")
    ap.add_argument("--pin", action="store_true",
                    help="write this set's simulated statistics to "
                         "expected.json instead of checking against it")
    ap.add_argument("--child", choices=("timed", "profiled", "direct"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--prof", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeats is not None and args.seconds is not None:
        ap.error("--repeats and --seconds are two ways to say when to stop")
    if args.repeats is not None and args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.pin and (args.quick or args.seed != wl.DEFAULT_SEED):
        ap.error("--pin pins the full-size workloads at the default seed")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}/src/repro: the program to measure is not here",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(args.workload or wl.WORKLOADS)
    timed, traced = args.trace != 1, args.trace != 0
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    cpus = os.cpu_count() or 1
    started, load_start = time.perf_counter(), os.getloadavg()[0]

    def pass_of(mode, name=None, prof=None):
        return spawn(mode, name, args.seed, args.quick, prof)

    passes = {name: [] for name in names}
    rounds = 0
    while True:
        for name in names:
            passes[name].append(pass_of("timed", name))
        rounds += 1
        spent = time.perf_counter() - started
        if not timed:
            break
        if args.seconds is None:
            if rounds >= (args.repeats or 5):
                break
        elif (rounds >= MIN_TIMED_ROUNDS
              and spent + 0.5 * spent / rounds >= args.seconds):
            break

    expected = {}
    if args.seed == wl.DEFAULT_SEED and not args.quick and not args.pin:
        expected = json.loads(EXPECTED.read_text())
    control = {}
    if SHARDED in names:
        control[SHARDED] = passes.get(CONTROL) or [pass_of("timed", CONTROL)]
    direct = pass_of("direct") if traced else None

    results, ok = {}, True
    for name in names:
        ctl = control.get(name, [])
        checks = check(passes[name],
                       expected.get(PINNED_AS.get(name, name)), ctl)
        res = {"status": "ok", "passes": len(passes[name]),
               "checks": checks, "end_to_end": {}, "per_layer": {},
               "noisy": [i for i, p in enumerate(passes[name])
                         if p["load1"] > cpus],
               "builds_outside_run": any(
                   c["seconds"]["net.build_cluster_s"]
                   for c in passes[name][0]["cells"]),
               "observed": passes[name][0]["stats"]}
        if name == SHARDED and cpus < 2:
            res["status"] = "unresolved"
        if timed:
            res["end_to_end"] = end_to_end(passes[name], bench)
        if traced:
            prof = args.out / f"{name}.prof" if args.out else None
            res["per_layer"] = per_layer(
                passes[name], pass_of("profiled", name, prof), direct, ctl,
                checks, bench)
        ok = ok and checks["failed"] == 0
        results[name] = res
        print_workload(name, res, bench)

    first = passes[names[0]][0]
    meta = {"cpu_count": cpus, "load1_start": load_start,
            "load1_end": os.getloadavg()[0],
            "python": platform.python_version(), "numpy": first["numpy"],
            "platform": platform.platform(), "git_sha": _git_sha(),
            "seed": args.seed, "quick": args.quick, "rounds": rounds,
            "elapsed_s": time.perf_counter() - started}
    print(f"\nset of {len(names)} workload(s) x {rounds} round(s) took "
          f"{meta['elapsed_s']:.1f} s on {cpus} cpu(s), load average "
          f"{load_start:.2f} -> {meta['load1_end']:.2f}")
    if args.out:
        (args.out / "results.json").write_text(json.dumps(
            {"meta": meta, "workloads": results}, indent=1) + "\n")
    if args.pin and ok:
        pinned = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        pinned.update({PINNED_AS.get(name, name): results[name]["observed"]
                       for name in names})
        EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                            + "\n")
        print(f"pinned {sorted(pinned)} in {EXPECTED}")

    if len(names) == 1 and args.trace is not None:
        # the driver's contract: one JSON object as the last line
        res = results[names[0]]
        kind = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": ok, "attempted": res["checks"]["attempted"],
            "failed": res["checks"]["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in res[kind].items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
