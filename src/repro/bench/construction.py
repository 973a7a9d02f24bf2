"""Construction bench: O(hosts) builds at WAN scale.

Nothing is provisioned per host pair when a topology is built — virtual
circuits and TCP connections come into being on first use — so
construction cost is linear in the host count, and a shard worker
that materializes only what it owns pays less still.  This bench holds
both to numbers at the scale the sharded kernel targets, the
1024-host ``wan-ring`` (8 sites x 128 hosts), measuring the full
single-kernel build and each shard's partial build at ``shards = 8``:

* ``wall_s`` / ``rss_peak_bytes`` — construction time and the child
  process's resident high-water mark.  Each build runs in a forked
  child so one build's footprint never pollutes the next measurement
  (in-process fallback where ``fork`` is unavailable).
* ``traced_peak_bytes`` — ``tracemalloc`` peak of the Python heap
  during construction, measured for the full build and shard 0: what
  the build itself allocates, without the interpreter and the imported
  program that dominate a small build's RSS.

Results land in ``BENCH_construction.json``.  ``--check`` holds the
committed document *and* a fresh measurement of the full build and
shard 0 to the absolute targets — the full 1024-host build under
:data:`FULL_WALL_CEILING_S` and :data:`FULL_RSS_CEILING_BYTES`, every
shard's build below the full build's.

Run with ``python -m repro.bench --construction [--check]``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "CONSTRUCTION_BENCH_FILE", "FULL_WALL_CEILING_S",
    "FULL_RSS_CEILING_BYTES", "SCENARIO",
    "run_construction_bench", "measure_build", "check_construction",
    "render_construction", "load_construction", "write_construction",
]

CONSTRUCTION_BENCH_FILE = "BENCH_construction.json"

#: acceptance bars for the full 1024-host build (the ROADMAP's targets
#: for O(hosts) construction)
FULL_WALL_CEILING_S = 10.0
FULL_RSS_CEILING_BYTES = 1_000_000_000

#: the committed measurement scenario — scenarios/scale/wan_ring_1024.toml.
#: ``metrics`` is off, as in the scenario: per-link meters blow the
#: registry's 1024-label-set cardinality cap at this scale, and the
#: bench measures the topology, not the telemetry.
SCENARIO = {"topology": "wan-ring", "n_sites": 8, "hosts_per_site": 128,
            "shards": 8, "seed": 1995, "metrics": False}


def _build_once(bp, owned, traced: bool) -> dict:
    import resource
    import tracemalloc

    from ..net.blueprint import materialize
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    cluster = materialize(bp, owned_switches=owned)
    wall = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1] if traced else None
    if traced:
        tracemalloc.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {"wall_s": round(wall, 3), "traced_peak_bytes": peak,
            "rss_peak_bytes": rss, "n_hosts": cluster.n_hosts}


def _child_main(conn, bp, owned, traced: bool) -> None:
    try:
        conn.send(_build_once(bp, owned, traced))
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def measure_build(bp, owned=None, traced: bool = False) -> dict:
    """Build ``materialize(bp, owned)`` in a forked child and report
    ``{wall_s, rss_peak_bytes, traced_peak_bytes, n_hosts}``.

    The fork isolates ``ru_maxrss``: a resident high-water mark never
    comes back down, so successive in-process builds would all report
    the largest one.  Without ``fork`` the build runs in-process and
    the RSS column degrades to that high-water semantics (the traced
    peak stays exact).
    """
    if not hasattr(os, "fork"):
        return _build_once(bp, owned, traced)
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_child_main, args=(child, bp, owned, traced))
    proc.start()
    out = parent.recv()
    proc.join()
    parent.close()
    if "error" in out:
        raise RuntimeError(f"construction child failed: {out['error']}")
    return out


def _blueprint_and_plan(scenario: dict):
    from ..net.blueprint import PlanView, blueprint_wan_ring
    from ..sim.sharded import plan_shards
    bp = blueprint_wan_ring(n_sites=scenario["n_sites"],
                            hosts_per_site=scenario["hosts_per_site"],
                            seed=scenario["seed"],
                            metrics=scenario.get("metrics", True))
    plan = plan_shards(PlanView(bp), scenario["shards"])
    return bp, plan


def _owned(plan, shard: int) -> set:
    return {swn for swn, s in plan.switch_shard.items() if s == shard}


def run_construction_bench(
        scenario: Optional[dict] = None,
        progress: Optional[Callable[[str], None]] = None) -> dict:
    """Measure the full build and every shard's partial build.

    Traced (tracemalloc) peaks are sampled for the full build and
    shard 0 only; the other shards contribute wall and RSS rows (they
    are symmetric in the ring by construction, which the RSS column
    documents rather than assumes).
    """
    from .perf import _suite_meta
    scenario = dict(SCENARIO, **(scenario or {}))
    bp, plan = _blueprint_and_plan(scenario)

    def note(what: str) -> None:
        if progress is not None:
            progress(what)

    note("full build")
    full = measure_build(bp, None, traced=False)
    note("full build (traced)")
    full["traced_peak_bytes"] = measure_build(
        bp, None, traced=True)["traced_peak_bytes"]

    per_shard = []
    for shard in range(plan.n_shards):
        note(f"shard {shard}/{plan.n_shards}")
        row = measure_build(bp, _owned(plan, shard), traced=False)
        if shard == 0:
            note("shard 0 (traced)")
            row["traced_peak_bytes"] = measure_build(
                bp, _owned(plan, shard), traced=True)["traced_peak_bytes"]
        row["shard"] = shard
        row["owned_switches"] = sorted(_owned(plan, shard))
        per_shard.append(row)

    return {
        "schema": 2,
        "meta": _suite_meta(),
        "scenario": scenario,
        "full": full,
        "per_shard": per_shard,
        "targets": {"full_wall_s": FULL_WALL_CEILING_S,
                    "full_rss_bytes": FULL_RSS_CEILING_BYTES},
    }


def write_construction(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_construction(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != 2:
        raise ValueError(f"{path}: unsupported schema {doc.get('schema')!r}")
    return doc


def check_construction(baseline: dict,
                       fresh: Optional[dict] = None) -> list[str]:
    """Hold the committed ladder and a fresh measurement to the targets.

    Both documents must show the full build under the absolute wall and
    RSS ceilings and every measured shard below the full build on wall,
    RSS and (where sampled) traced peak.  ``fresh`` defaults to a new
    measurement of the full build and shard 0 — a second or so now that
    construction is O(hosts); tests inject a pre-made ``{"full": ...,
    "per_shard": [...]}``.
    """
    if fresh is None:
        bp, plan = _blueprint_and_plan(baseline["scenario"])
        fresh = {"full": measure_build(bp, None, traced=True),
                 "per_shard": [dict(measure_build(bp, _owned(plan, 0),
                                                  traced=True), shard=0)]}
    failures: list[str] = []
    for label, doc in (("committed", baseline), ("fresh", fresh)):
        full = doc["full"]
        for key, ceiling in (("wall_s", FULL_WALL_CEILING_S),
                             ("rss_peak_bytes", FULL_RSS_CEILING_BYTES)):
            if full[key] >= ceiling:
                failures.append(
                    f"{label} full build {key} = {full[key]:g} misses the "
                    f"target of under {ceiling:g}")
        for row in doc["per_shard"]:
            for key in ("wall_s", "rss_peak_bytes", "traced_peak_bytes"):
                if (row.get(key) is not None and full.get(key) is not None
                        and row[key] >= full[key]):
                    failures.append(
                        f"{label} shard {row['shard']} {key} = {row[key]:g} "
                        f"is not below the full build's {full[key]:g} — "
                        f"partial construction is no longer proportional")
    return failures


def render_construction(doc: dict) -> str:
    s = doc["scenario"]
    title = (f"blueprint construction — wan-ring "
             f"{s['n_sites']}x{s['hosts_per_site']} "
             f"({s['n_sites'] * s['hosts_per_site']} hosts), "
             f"shards={s['shards']}")
    lines = [title, "-" * len(title)]
    for label, row in [("full build", doc["full"])] + [
            (f"shard {row['shard']}", row) for row in doc["per_shard"]]:
        traced = (f"traced {row['traced_peak_bytes'] / 1e6:>8.1f} MB"
                  if row.get("traced_peak_bytes") is not None else "")
        lines.append(
            f"{label:<12} {row['wall_s']:>8.2f} s   "
            f"rss {row['rss_peak_bytes'] / 1e6:>8.1f} MB   {traced}")
    t = doc["targets"]
    lines.append(
        f"targets: full build < {t['full_wall_s']:g} s and "
        f"< {t['full_rss_bytes'] / 1e6:.0f} MB resident, every shard "
        f"below the full build")
    return "\n".join(lines)
