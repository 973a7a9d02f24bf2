"""KPI regression diffing: current fleet results vs a checked-in baseline.

A fresh fleet is held to a committed baseline KPI by KPI, and every KPI
— counts, digests, makespan, goodput, quantiles — must match exactly:
the simulation is a pure function of (spec, seed), so any drift is a
real behavior change.  NaN never matches, ``None`` matches only
``None``, a failed run fails, and a run or KPI missing on either side
fails.

Failures are strings naming the run and the offending KPI, ready to
print; an empty list means the fleet matches its baseline.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional

__all__ = ["diff_kpis", "diff_rows"]


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _check_value(key: str, base: Any, cur: Any) -> Optional[str]:
    """None when the two values are equal, else a human-readable
    complaint."""
    if _is_nan(base) or _is_nan(cur):
        return f"{key}: NaN (baseline={base!r}, current={cur!r})"
    if base == cur:
        return None
    note = (" (spec changed; regenerate goldens if intended)"
            if key in ("digest", "scenario") else "")
    return f"{key}: baseline={base!r}, current={cur!r}{note}"


def diff_rows(base_row: Mapping[str, Any],
              cur_row: Mapping[str, Any]) -> list:
    """Compare one run's KPI rows; returns per-KPI complaints."""
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
            complaint = _check_value(key, base_row[key], cur_row[key])
            if complaint:
                problems.append(complaint)
    return problems


def diff_kpis(baseline: Mapping[str, Any],
              current: Mapping[str, Any]) -> list:
    """Compare two KPI documents; returns ``"run_id: kpi: ..."`` failure
    strings, empty when the fleet matches its baseline."""
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
                                           cur_rows[run_id]))
    return failures
