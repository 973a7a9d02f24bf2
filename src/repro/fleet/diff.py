"""KPI regression diffing: current fleet results vs a checked-in baseline.

A fresh fleet is held to a committed baseline, KPI by KPI: a handful
of *derived* KPIs get per-key relative tolerance windows (quantiles
interpolate inside histogram buckets, goodput divides by makespan —
both legitimately wiggle a few percent when unrelated code changes
shift a boundary observation across a bucket),
while everything else — message counts, fault counts, digests — is
bit-exact, because the simulation is deterministic and any drift there
is a real behavior change.

Failures are strings naming the run and the offending KPI, ready to
print; an empty list means the fleet is clean.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional

__all__ = ["DEFAULT_TOLERANCES", "diff_kpis", "diff_rows"]

#: relative tolerance per derived KPI; every KPI not listed is exact
DEFAULT_TOLERANCES: dict[str, float] = {
    "makespan_s": 0.10,
    "goodput_bytes_s": 0.10,
    "retransmit_rate": 0.15,
    "p50_delivery_s": 0.15,
    "p99_delivery_s": 0.15,
}


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _check_value(key: str, base: Any, cur: Any,
                 tolerances: Mapping[str, float]) -> Optional[str]:
    """None when within tolerance, else a human-readable complaint."""
    if _is_nan(base) or _is_nan(cur):
        return f"{key}: NaN (baseline={base!r}, current={cur!r})"
    if base is None or cur is None:
        if base is None and cur is None:
            return None
        return f"{key}: baseline={base!r}, current={cur!r}"
    tol = tolerances.get(key)
    if tol is None or isinstance(base, str) or isinstance(cur, str):
        if base != cur:
            note = (" (spec changed; regenerate goldens if intended)"
                    if key in ("digest", "scenario") else "")
            return f"{key}: baseline={base!r}, current={cur!r}{note}"
        return None
    if base == 0:
        # no relative window around zero; a zero baseline must stay zero
        if cur != 0:
            return f"{key}: baseline=0, current={cur!r}"
        return None
    rel = abs(cur - base) / abs(base)
    if rel > tol:
        return (f"{key}: baseline={base!r}, current={cur!r} "
                f"({rel:+.1%} vs ±{tol:.0%} tolerance)")
    return None


def diff_rows(base_row: Mapping[str, Any], cur_row: Mapping[str, Any],
              tolerances: Optional[Mapping[str, float]] = None) -> list:
    """Compare one run's KPI rows; returns per-KPI complaints."""
    tolerances = DEFAULT_TOLERANCES if tolerances is None else tolerances
    problems: list[str] = []
    if "error" in base_row or "error" in cur_row:
        which = "baseline" if "error" in base_row else "current"
        row = base_row if "error" in base_row else cur_row
        return [f"{which} run failed: {row['error']}"]
    for key in sorted(set(base_row) | set(cur_row)):
        if key not in base_row:
            problems.append(f"{key}: not in baseline (new KPI? regenerate "
                            "goldens)")
        elif key not in cur_row:
            problems.append(f"{key}: missing from current run")
        else:
            complaint = _check_value(key, base_row[key], cur_row[key],
                                     tolerances)
            if complaint:
                problems.append(complaint)
    return problems


def diff_kpis(baseline: Mapping[str, Any], current: Mapping[str, Any],
              tolerances: Optional[Mapping[str, float]] = None) -> list:
    """Compare two KPI documents; returns ``"run_id: kpi: ..."`` failure
    strings, empty when the fleet is within tolerance."""
    failures: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        failures.append(f"schema: baseline={baseline.get('schema')!r}, "
                        f"current={current.get('schema')!r} "
                        "(regenerate goldens)")
    base_rows = baseline.get("rows", {})
    cur_rows = current.get("rows", {})
    for run_id in sorted(set(base_rows) | set(cur_rows)):
        if run_id not in base_rows:
            failures.append(f"{run_id}: not in baseline (new run? "
                            "regenerate goldens)")
            continue
        if run_id not in cur_rows:
            failures.append(f"{run_id}: missing from current fleet")
            continue
        failures.extend(f"{run_id}: {p}"
                        for p in diff_rows(base_rows[run_id],
                                           cur_rows[run_id], tolerances))
    return failures
