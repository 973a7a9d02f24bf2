"""Compare two sets of runs of the benchmark, metric by metric.

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

One row per (end-to-end metric, workload): both reported values with the
quartiles of their passes, how far B is from A, the bound
``BENCHMARK.json`` fixes for the metric, and a verdict:

``worse``       B's value is worse than A's by more than the bound
``unresolved``  the run-to-run spread of either set is wider than the
                bound and the two sets' passes overlap, so the values
                cannot carry a verdict; also a workload whose set says
                so itself (``a2a_wan_s2`` below two cores)
``better``      B's value is better than A's by more than both sets'
                interquartile ranges
``same``        anything else

``fail_share`` and ``sim_drift`` are compared exactly: any increase is
``worse``.  Exits non-zero when any row is ``worse``.  A verdict of
``better`` here is not yet a claimed gain: that takes the ten alternating
pairs of the choosing-metrics guide, section 8.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT = ("fail_share", "sim_drift")     # bound 0, read from the checks


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``a`` and ``b`` are one metric's records from two sets: the
    reported ``value`` and the summary of the per-pass totals."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    pa, pb = a["passes"], b["passes"]
    iqr_a, iqr_b = pa["q3"] - pa["q1"], pb["q3"] - pb["q1"]
    spread = max(iqr_a / pa["median"], iqr_b / pb["median"])
    apart = (max(pb["values"]) < min(pa["values"])
             or min(pb["values"]) > max(pa["values"]))
    if spread > bound and not apart:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if sign * (a["value"] - b["value"]) > max(iqr_a, iqr_b):
        return "better"
    return "same"


def rows(a: dict, b: dict, bench: dict):
    """Yield one tuple of printable cells per (workload, metric)."""
    for name in (w["name"] for w in bench["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not (wa and wb):
            continue
        noisy = len(wa["noisy"]) + len(wb["noisy"])
        note = f"{noisy} noisy pass(es)" if noisy else ""
        for m in bench["end_to_end"]:
            ea = wa["end_to_end"].get(m["name"])
            eb = wb["end_to_end"].get(m["name"])
            if not (ea and eb):
                continue
            if "unresolved" in (wa["status"], wb["status"]):
                v = "unresolved"
            else:
                v = verdict(ea, eb, m["better"], m["bound"])
            yield (name, m["name"], m["unit"],
                   *(f"{e['value']:.4f} [{e['passes']['q1']:.4f}, "
                     f"{e['passes']['q3']:.4f}]" for e in (ea, eb)),
                   f"{(eb['value'] - ea['value']) / ea['value']:+.1%}",
                   f"{m['bound']:.0%}", v, note)
        for key in EXACT:
            ca, cb = wa["checks"][key], wb["checks"][key]
            v = "worse" if cb > ca else "better" if cb < ca else "same"
            yield (name, key, "", f"{ca:g}", f"{cb:g}", f"{cb - ca:+g}",
                   "0", v, note)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for label, s in (("A", a), ("B", b)):
        m = s["meta"]
        print(f"{label}: {m['git_sha'][:12]} seed {m['seed']} "
              f"{m['rounds']} round(s) on {m['cpu_count']} cpu(s), load "
              f"{m['load1_start']:.2f} -> {m['load1_end']:.2f}"
              + (" QUICK" if m["quick"] else ""))
    head = ("workload", "metric", "unit", "A value [q1, q3]",
            "B value [q1, q3]", "B vs A", "bound", "verdict", "")
    table = [head, *rows(a, b, bench)]
    widths = [max(len(r[i]) for r in table) for i in range(len(head))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    verdicts = [r[7] for r in table[1:]]
    print(", ".join(f"{verdicts.count(v)} {v}"
                    for v in ("better", "same", "worse", "unresolved")))
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
