"""Fleets: run many scenarios as one unit of work.

Two source shapes, one result type:

* a **directory** of scenario files — every ``*.toml``/``*.json``
  directly inside it, in sorted order, with the file stem as run id
  (how the checked-in ``scenarios/`` corpus becomes a regression
  fleet);
* a **matrix file** — a TOML document with a top-level ``[matrix]``
  table that sweeps dotted spec paths over value lists and expands to
  the cross product::

      [matrix]
      name = "small-sweep"
      base = "ring.toml"              # or an inline [matrix.base] table

      [[matrix.axes]]
      path = "cluster.n_hosts"
      values = [4, 8]

      [[matrix.axes]]
      path = "runtime.mode"
      values = ["nsm", "hsm"]

Either way :func:`load_fleet` yields a :class:`FleetSpec`: an ordered
tuple of ``(run_id, ScenarioSpec)`` pairs.  Expansion is pure document
surgery — each cell deep-copies the base document, applies its axis
values, and revalidates through :meth:`ScenarioSpec.from_dict` — so a
matrix cell is bit-for-bit the spec you would have written by hand,
digest and all.  Run ids are derived, not random: sorted file stems
for directories, ``n_hosts=4,mode=hsm,faults=loss`` style labels for
matrix cells, with cells enumerated in declaration order of the axes.
The fleet runner (:mod:`repro.fleet`) leans on that determinism for
stable KPI documents and byte-identical re-runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .io import load_scenario
from .schema import Table, build, settle
from .spec import ScenarioSpec, SpecError, _err

__all__ = ["MatrixAxis", "MatrixSpec", "FleetSpec", "load_fleet"]

_SCENARIO_SUFFIXES = (".toml", ".json")


def _set_path(doc: dict, dotted: str, value: Any) -> None:
    """Set (or, for ``None``, delete) a dotted path in a nested doc."""
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            if value is None:
                return
            nxt = node[key] = {}
        elif not isinstance(nxt, dict):
            raise SpecError(f"matrix axis path {dotted!r}: {key!r} is not "
                            f"a table in the base document")
        node = nxt
    if value is None:
        node.pop(keys[-1], None)
    else:
        node[keys[-1]] = copy.deepcopy(value)


def _scalar_label(value: Any, path: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, str)):
        return str(value)
    raise _err(f"matrix axis {path!r}",
               "table/array values need explicit labels; add a `tags` "
               "array naming each value")


@dataclass(frozen=True)
class MatrixAxis(Table):
    """One swept dimension: a dotted spec path and its values.

    ``tags`` names the values in run ids; required when a value has no
    obvious scalar rendering (tables, arrays, ``None`` for "remove").
    """

    _where = "matrix.axes"

    path: str
    values: tuple = ()
    tags: Optional[tuple] = None

    def __post_init__(self) -> None:
        settle(self)
        if not self.path:
            raise _err("matrix.axes.path", "must be a non-empty dotted path")
        if not self.values:
            raise _err(f"matrix axis {self.path!r}",
                       "values must be a non-empty array")
        if self.tags is not None:
            if len(self.tags) != len(self.values):
                raise _err(f"matrix axis {self.path!r}",
                           f"tags must be an array of {len(self.values)} "
                           f"labels, one per value (got {self.tags!r})")
            object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))

    @property
    def key(self) -> str:
        """The run-id component name: the path's last segment."""
        return self.path.rsplit(".", 1)[-1]

    def label(self, index: int) -> str:
        if self.tags is not None:
            return self.tags[index]
        return _scalar_label(self.values[index], self.path)


@dataclass(frozen=True)
class MatrixSpec(Table):
    """A base scenario document swept over one or more axes."""

    _where = "matrix"

    name: str
    base: dict = field(default_factory=dict)
    axes: tuple[MatrixAxis, ...] = ()

    def __post_init__(self) -> None:
        settle(self)
        if not self.name:
            raise _err("matrix.name", "must be a non-empty string")
        if not self.base:
            raise _err("matrix.base",
                       "must be a scenario document (inline [matrix.base] "
                       "table or resolved from a base file path)")
        if not self.axes:
            raise _err("matrix.axes", "at least one [[matrix.axes]] sweep "
                                      "dimension is required")
        keys = [ax.key for ax in self.axes]
        if len(set(keys)) != len(keys):
            raise _err("matrix.axes", "axis paths must end in distinct "
                       f"component names (got {keys})")

    def expand(self) -> tuple:
        """All cells as ``(run_id, ScenarioSpec)``, declaration order:
        the last axis varies fastest, like nested for-loops."""
        cells: list[tuple[str, ScenarioSpec]] = []
        counts = [len(ax.values) for ax in self.axes]
        indices = [0] * len(self.axes)
        total = 1
        for c in counts:
            total *= c
        for _ in range(total):
            doc = copy.deepcopy(self.base)
            parts = []
            for ax, i in zip(self.axes, indices):
                _set_path(doc, ax.path, ax.values[i])
                parts.append(f"{ax.key}={ax.label(i)}")
            run_id = ",".join(parts)
            doc["name"] = f"{self.name}/{run_id}"
            try:
                spec = ScenarioSpec.from_dict(doc)
            except SpecError as e:
                raise SpecError(f"matrix cell {run_id!r}: {e}") from None
            cells.append((run_id, spec))
            for pos in range(len(indices) - 1, -1, -1):
                indices[pos] += 1
                if indices[pos] < counts[pos]:
                    break
                indices[pos] = 0
        return tuple(cells)

    @classmethod
    def from_dict(cls, raw: Mapping,
                  base_dir: Optional[Path] = None) -> "MatrixSpec":
        """The ``[matrix]`` table; a string ``base`` is a scenario file,
        relative to ``base_dir``."""
        base = raw.get("base") if isinstance(raw, Mapping) else None
        if isinstance(base, str):
            base_path = Path(base)
            if base_dir is not None and not base_path.is_absolute():
                base_path = base_dir / base_path
            raw = {**raw, "base": load_scenario(base_path).to_dict()}
        return build(cls, raw, cls._where)


@dataclass(frozen=True)
class FleetSpec:
    """An ordered, named collection of scenarios to run as one unit."""

    name: str
    runs: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise _err("fleet.name",
                       f"must be a non-empty string (got {self.name!r})")
        runs = tuple(self.runs)
        seen: set[str] = set()
        for entry in runs:
            if (not isinstance(entry, tuple) or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not isinstance(entry[1], ScenarioSpec)):
                raise _err("fleet.runs", "entries must be (run_id, "
                           f"ScenarioSpec) pairs (got {entry!r})")
            if entry[0] in seen:
                raise _err("fleet.runs", f"duplicate run id {entry[0]!r}")
            seen.add(entry[0])
        if not runs:
            raise _err(f"fleet {self.name!r}", "contains no runs")
        object.__setattr__(self, "runs", runs)

    def run_ids(self) -> tuple:
        return tuple(run_id for run_id, _ in self.runs)


def _fleet_from_dir(path: Path) -> FleetSpec:
    files = sorted(p for p in path.iterdir()
                   if p.is_file() and p.suffix.lower() in _SCENARIO_SUFFIXES)
    if not files:
        raise SpecError(f"{path}: no scenario files (*.toml / *.json) found")
    stems = [p.stem for p in files]
    dupes = sorted({s for s in stems if stems.count(s) > 1})
    if dupes:
        raise SpecError(f"{path}: duplicate run id(s) {dupes} — a .toml and "
                        ".json scenario share a stem; remove one")
    runs = tuple((p.stem, load_scenario(p)) for p in files)
    return FleetSpec(name=path.name, runs=runs)


def _fleet_from_matrix(path: Path) -> FleetSpec:
    import tomllib
    try:
        raw = tomllib.loads(path.read_text())
    except tomllib.TOMLDecodeError as e:
        raise SpecError(f"{path}: invalid TOML: {e}") from None
    if "matrix" not in raw:
        raise SpecError(f"{path}: not a matrix file (no top-level [matrix] "
                        "table); pass a scenario directory or a matrix TOML")
    extra = sorted(set(raw) - {"matrix"})
    if extra:
        raise SpecError(f"{path}: unexpected top-level key(s) {extra} "
                        "alongside [matrix]")
    matrix = MatrixSpec.from_dict(raw["matrix"], base_dir=path.parent)
    return FleetSpec(name=matrix.name, runs=matrix.expand())


def load_fleet(path: str | Path) -> FleetSpec:
    """Load a fleet from a scenario directory or a matrix TOML file."""
    path = Path(path)
    if path.is_dir():
        return _fleet_from_dir(path)
    if not path.exists():
        raise SpecError(f"fleet source not found: {path}")
    if path.suffix.lower() != ".toml":
        raise SpecError(f"{path}: a fleet source must be a directory of "
                        "scenarios or a matrix .toml file")
    return _fleet_from_matrix(path)
