"""Exact KPI diffing and its edge cases.

The differ is the gate CI trusts, so its edges matter more than its
happy path: every KPI — counts, digests, makespan, goodput, quantiles —
is bit-exact, so one ulp of drift fails and names the KPI; NaN must
never pass, ``None`` must only match ``None``, a failed run fails, and
a run or KPI missing on either side fails.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import KpiRow
from repro.fleet.diff import diff_kpis, diff_rows


def _doc(rows):
    return {"schema": 1, "fleet": "t", "rows": rows}


ROW = {"scenario": "s", "digest": "abc", "makespan_s": 1.0,
       "messages_sent": 10, "p99_delivery_s": 0.5}


def ulp(x):
    return math.nextafter(x, math.inf)


class TestValueRules:
    def test_identical_rows_pass(self):
        assert diff_rows(ROW, dict(ROW)) == []

    @pytest.mark.parametrize("kpi", [field.name for field in
                                     dataclasses.fields(KpiRow)
                                     if "float" in field.type])
    def test_one_ulp_off_fails_naming_the_kpi(self, kpi):
        base = dict(ROW, **{kpi: 0.25})
        assert diff_rows(base, dict(base, **{kpi: ulp(0.25)})) == [
            f"{kpi}: baseline=0.25, current={ulp(0.25)!r}"]

    def test_outside_tolerance_names_the_kpi(self):
        cur = dict(ROW, makespan_s=1.3)         # +30%
        problems = diff_rows(ROW, cur)
        assert len(problems) == 1
        assert problems[0].startswith("makespan_s:")

    def test_exact_kpis_have_no_window(self):
        cur = dict(ROW, messages_sent=11)       # no tolerance for counts
        problems = diff_rows(ROW, cur)
        assert len(problems) == 1
        assert problems[0].startswith("messages_sent:")

    def test_zero_baseline_requires_zero(self):
        base = dict(ROW, makespan_s=0.0)
        assert diff_rows(base, dict(base)) == []
        problems = diff_rows(base, dict(base, makespan_s=1e-9))
        assert len(problems) == 1
        assert problems[0].startswith("makespan_s:")

    def test_nan_always_fails(self):
        for side in ("base", "cur"):
            base = dict(ROW)
            cur = dict(ROW)
            (base if side == "base" else cur)["makespan_s"] = math.nan
            problems = diff_rows(base, cur)
            assert any("NaN" in p for p in problems)

    def test_none_only_matches_none(self):
        base = dict(ROW, p99_delivery_s=None)
        assert diff_rows(base, dict(base)) == []
        assert diff_rows(base, dict(ROW))       # None vs 0.5 fails
        assert diff_rows(dict(ROW), base)       # 0.5 vs None fails

    def test_digest_drift_points_at_regeneration(self):
        problems = diff_rows(ROW, dict(ROW, digest="def"))
        assert len(problems) == 1
        assert "regenerate" in problems[0]

    def test_missing_kpi_either_direction(self):
        narrow = {k: v for k, v in ROW.items() if k != "p99_delivery_s"}
        assert any("missing from current" in p
                   for p in diff_rows(ROW, narrow))
        assert any("not in baseline" in p
                   for p in diff_rows(narrow, ROW))

    def test_error_rows_fail(self):
        assert diff_rows(ROW, {"error": "boom"}) == \
            ["current run failed: boom"]
        assert diff_rows({"error": "boom"}, ROW) == \
            ["baseline run failed: boom"]

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_any_drift_fails_property(self, base_value, cur_value):
        """Two makespans pass exactly when they are equal; otherwise
        the one complaint names the KPI."""
        problems = diff_rows(dict(ROW, makespan_s=base_value),
                             dict(ROW, makespan_s=cur_value))
        if base_value == cur_value:
            assert problems == []
        else:
            assert len(problems) == 1
            assert problems[0].startswith("makespan_s:")


class TestDocumentRules:
    def test_identical_docs_pass(self):
        doc = _doc({"a": ROW, "b": dict(ROW, scenario="b")})
        assert diff_kpis(doc, _doc(dict(doc["rows"]))) == []

    def test_failures_name_run_and_kpi(self):
        base = _doc({"a": ROW})
        cur = _doc({"a": dict(ROW, makespan_s=1.3)})
        failures = diff_kpis(base, cur)
        assert len(failures) == 1
        assert failures[0].startswith("a: makespan_s:")

    def test_missing_run_either_direction(self):
        both = _doc({"a": ROW, "b": dict(ROW)})
        only_a = _doc({"a": ROW})
        assert any("missing from current" in f
                   for f in diff_kpis(both, only_a))
        assert any("not in baseline" in f
                   for f in diff_kpis(only_a, both))

    def test_schema_mismatch_fails(self):
        base = _doc({"a": ROW})
        cur = dict(_doc({"a": ROW}), schema=2)
        assert any(f.startswith("schema:") for f in diff_kpis(base, cur))

    def test_one_ulp_off_a_quantile_fails_naming_run_and_kpi(self):
        base = _doc({"a": ROW, "b": dict(ROW)})
        cur = _doc({"a": ROW, "b": dict(ROW, p99_delivery_s=ulp(0.5))})
        assert diff_kpis(base, cur) == [
            f"b: p99_delivery_s: baseline=0.5, current={ulp(0.5)!r}"]
