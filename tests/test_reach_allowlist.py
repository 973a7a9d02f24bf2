"""The reach allowlist: every function of ``src/repro`` that no product
path enters, with the reason it stays.

``python -m tests.reach --check`` runs the product paths and compares;
these tests read only the file and the source, so they cost well under a
second.  The ceiling may only come down (as the event budgets of
``tests/perf_lock/test_event_budget.py`` do): unreached code is deleted
or given a product path, and the next change lowers the ceiling to the
new total.
"""

import textwrap

import pytest

from tests import reach

#: total body lines of the allowlist's functions, at most; the first
#: audit's deletions took the list from 1 179 lines to this
CEILING_LINES = 1004


@pytest.fixture(scope="module")
def listed():
    return reach.read_allowlist()


@pytest.fixture(scope="module")
def source():
    return {name: lines for name, lines, _ in
            reach.functions(reach.SRC / "repro").values()}


def test_every_entry_names_a_function_with_its_length(listed, source):
    stale = {name: (lines, source.get(name))
             for name, (lines, _) in listed.items()
             if source.get(name) != lines}
    assert not stale, (
        f"entries whose function is gone or has another length "
        f"(listed, in the source): {stale}; rerun python -m tests.reach")


def test_every_entry_says_why_it_stays(listed):
    assert not [name for name, (_, reason) in listed.items()
                if reason in ("", reach.NO_REASON)]


def test_the_file_is_sorted_and_has_one_line_per_function():
    rows = [line.split()[0] for line in
            reach.ALLOWLIST.read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    assert rows == sorted(set(rows))


def test_unreached_code_stays_under_the_ceiling(listed):
    total = sum(lines for lines, _ in listed.values())
    assert total <= CEILING_LINES, (
        f"{total} unreached lines on the allowlist, ceiling "
        f"{CEILING_LINES}: delete the new code or give it a product path")


# ------------------------------------------------------------ the checker
MODULE = '''\
    class Box:
        def used(self):
            return 1

        def spare(self):
            def inner():
                return 2
            return inner()

        @property
        def size(self):
            return 3

        @size.setter
        def size(self, value):
            pass


    def helper():
        return 4
'''


@pytest.fixture
def package(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(MODULE))
    return pkg


def _drift(package, listed, *entered):
    defs = reach.functions(package)
    return reach.drift(reach.unreached(defs, {
        key for key, (name, _, _) in defs.items() if name in entered}),
        listed)


def test_the_checker_lists_what_was_not_entered(package):
    defs = reach.functions(package)
    entered = {key for key, (name, _, _) in defs.items()
               if name in ("pkg.mod:Box.used", "pkg.mod:Box.size.setter")}
    # a def inside an unreached one is not listed again
    assert reach.unreached(defs, entered) == {
        "pkg.mod:Box.spare": 3, "pkg.mod:Box.size": 1, "pkg.mod:helper": 1}


def test_check_fails_on_a_new_unreached_function(package):
    listed = {"pkg.mod:Box.spare": (3, "why"), "pkg.mod:Box.size": (1, "why")}
    assert _drift(package, listed, "pkg.mod:Box.used",
                  "pkg.mod:Box.size.setter") == [
        "pkg.mod:helper: unreached and not on the allowlist (1 lines)"]


def test_check_fails_on_an_entry_gone_reached_or_stale(package):
    listed = {"pkg.mod:Box.spare": (5, "why"), "pkg.mod:Box.size": (1, "why"),
              "pkg.mod:helper": (1, "why"), "pkg.mod:gone": (7, "why")}
    assert _drift(package, listed, "pkg.mod:Box.used",
                  "pkg.mod:Box.size.setter", "pkg.mod:helper") == [
        "pkg.mod:Box.spare: 3 lines, the allowlist says 5",
        "pkg.mod:gone: on the allowlist but reached or gone",
        "pkg.mod:helper: on the allowlist but reached or gone"]


def test_a_rewrite_keeps_the_reasons_and_marks_new_entries(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text(reach.render_allowlist({"m:a": 2, "m:b": 3},
                                           {"m:a": (9, "kept")}))
    assert reach.read_allowlist(path) == {"m:a": (2, "kept"),
                                          "m:b": (3, reach.NO_REASON)}
