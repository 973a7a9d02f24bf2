"""The spec reader's wall: every checked-in scenario reads to the form it did.

``spec_forms_parent.json`` holds what commit ``26f6144`` — the last one
with a hand-written ``to_dict`` / ``from_dict`` per spec table —
produced for every ``scenarios/*.toml`` and ``scenarios/scale/*.toml``:
the canonical TOML of the loaded spec (``dumps_toml(load_scenario(p))``)
and its :meth:`~repro.config.ScenarioSpec.digest`, and for every matrix
under ``scenarios/matrix/`` the run id and digest of each expanded cell.
The KPI goldens carry those digests too; this wall pins the canonical
text itself, so a reader that drops, reorders or retypes one default
fails here, naming the file.

Provenance: captured at ``26f6144`` before the one declaration-driven
reader replaced the per-class ones; today's code reproduces it byte for
byte.
"""

from pathlib import Path

from repro.config import dumps_toml, load_scenario
from repro.config.fleet import load_fleet

from .harness import Wall, assert_same

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


def scenario_files() -> list:
    return sorted([*SCENARIOS.glob("*.toml"), *SCENARIOS.glob("scale/*.toml")])


def forms() -> dict:
    out = {}
    for path in scenario_files():
        spec = load_scenario(path)
        out[path.relative_to(SCENARIOS).as_posix()] = {
            "toml": dumps_toml(spec), "digest": spec.digest()}
    return out


def cells() -> dict:
    return {path.name: [[run_id, spec.digest()]
                        for run_id, spec in load_fleet(path).runs]
            for path in sorted(SCENARIOS.glob("matrix/*.toml"))}


WALL = Wall("spec_forms", "26f6144",
            lambda: {"scenarios": forms(), "matrix": cells()},
            dump={"indent": 1})


# -------------------------------------------------------------------- tests
def test_every_scenario_reads_to_its_parent_form():
    parent = WALL.parent()["scenarios"]
    got = forms()
    assert sorted(got) == sorted(parent)
    for name, form in got.items():
        assert_same(form, parent[name], coarse=("digest",), where=name)


def test_every_matrix_cell_keeps_its_run_id_and_digest():
    parent = WALL.parent()["matrix"]
    got = cells()
    assert sorted(got) == sorted(parent)
    for name, rows in got.items():
        assert_same({"cells": rows}, {"cells": parent[name]},
                    rows=("cells",), where=name)
