"""The one comparison and the one loader every wall shares."""

import json
import math

import pytest

from .harness import WALLS, assert_same, pin_log, wall


def ulp(x):
    return math.nextafter(x, math.inf)


def document():
    rows = [[0.001 * i, f"n{i % 3}", i] for i in range(50)]
    return {"makespan": 0.125, "totals": {"cells": 7},
            "rx": [list(row) for row in rows], "cpu": pin_log(rows, 6)}


def fails_naming(got, label):
    with pytest.raises(AssertionError) as exc:
        assert_same(got, document(), coarse=("makespan", "totals"),
                    rows=("rx", "cpu"))
    assert str(exc.value).splitlines()[0] == label


def test_an_unchanged_document_passes():
    assert_same(document(), document(), coarse=("makespan",), rows=("rx",))


def test_one_ulp_in_a_coarse_key_names_the_key():
    got = document()
    got["makespan"] = ulp(got["makespan"])
    fails_naming(got, "makespan")


@pytest.mark.parametrize("k", [0, 17, 49])
def test_one_ulp_in_row_k_of_a_log_names_the_row(k):
    got = document()
    got["rx"][k][0] = ulp(got["rx"][k][0])
    fails_naming(got, f"rx row {k}")


def test_one_ulp_in_a_sampled_row_names_the_row():
    got = document()
    got["cpu"]["sample"][3][0] = ulp(got["cpu"]["sample"][3][0])
    fails_naming(got, "cpu sample row 3")


def test_a_reordered_row_names_the_first_it_moved():
    got = document()
    got["rx"][4], got["rx"][5] = got["rx"][5], got["rx"][4]
    fails_naming(got, "rx row 4")


def test_a_change_outside_the_named_keys_still_fails():
    got = document()
    got["cpu"]["sha256"] = "0" * 64
    fails_naming(got, "document")


def test_ignored_keys_are_never_compared():
    got = document()
    got["events"] = 1
    assert_same(got, {**document(), "events": 2}, ignore=("events",))


@pytest.mark.parametrize("name", WALLS)
def test_every_golden_exists_parses_and_names_its_commit(name):
    w = wall(name)
    doc = json.loads(w.path.read_text())
    assert w.name == name and w.commit
    if w.stamped:
        assert doc["commit"] == w.commit
    else:
        assert "commit" not in doc
    # a moved tie is still pinned at the parent, under its own test
    assert all(tie in doc["cells"] for tie in w.ties)
