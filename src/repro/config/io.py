"""Scenario serialization: TOML (canonical) and JSON (interchange).

Reading uses :mod:`tomllib` from the standard library.  Writing is a
small emitter of the TOML subset the spec layer produces — string /
int / float / bool scalars, scalar arrays, nested tables and arrays of
tables — kept deliberately deterministic: the same spec always emits
byte-identical text, and ``dumps_toml(load(dumps_toml(spec)))`` is a
fixed point.  That stability is load-bearing — the round-trip tests
and :meth:`repro.config.spec.ScenarioSpec.digest` both rely on it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Mapping

from .spec import ScenarioSpec, SpecError

__all__ = ["dumps_toml", "dumps_json", "loads_scenario", "load_scenario",
           "dump_scenario"]

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _fmt_key(key: str) -> str:
    return key if _BARE_KEY.match(key) else json.dumps(key)


def _fmt_scalar(value: Any, path: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr round-trips exactly through tomllib; TOML requires a
        # decimal point or exponent, which repr always provides for
        # non-integral floats; integral floats repr as '1.0' — fine.
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError(f"{path}: non-finite float {value!r} is not "
                            "representable in a scenario file")
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_scalar(v, path) for v in value) + "]"
    raise SpecError(f"{path}: cannot serialize {type(value).__name__} "
                    f"value {value!r} to TOML (use str/int/float/bool, "
                    "arrays, or tables)")


def _is_table_array(value: Any) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) > 0
            and all(isinstance(v, Mapping) for v in value))


def _emit_table(doc: Mapping, header: tuple[str, ...],
                lines: list[str]) -> None:
    scalars = []
    tables = []
    table_arrays = []
    for key, value in doc.items():
        path = ".".join(header + (str(key),))
        if isinstance(value, Mapping):
            tables.append((str(key), value))
        elif _is_table_array(value):
            table_arrays.append((str(key), value))
        elif isinstance(value, (list, tuple)):
            items = ", ".join(_fmt_scalar(v, path) for v in value)
            scalars.append(f"{_fmt_key(str(key))} = [{items}]")
        else:
            scalars.append(f"{_fmt_key(str(key))} = "
                           f"{_fmt_scalar(value, path)}")
    if header and (scalars or not (tables or table_arrays)):
        lines.append(f"[{'.'.join(_fmt_key(k) for k in header)}]")
    lines.extend(scalars)
    if scalars or header:
        lines.append("")
    for key, sub in tables:
        _emit_table(sub, header + (key,), lines)
    for key, entries in table_arrays:
        full = ".".join(_fmt_key(k) for k in header + (key,))
        for entry in entries:
            lines.append(f"[[{full}]]")
            for k, v in entry.items():
                path = ".".join(header + (key, str(k)))
                if isinstance(v, Mapping):
                    raise SpecError(f"{path}: nested tables inside an array "
                                    "of tables are not supported; flatten "
                                    "the event fields")
                lines.append(f"{_fmt_key(str(k))} = {_fmt_scalar(v, path)}")
            lines.append("")


def dumps_toml(spec: ScenarioSpec | Mapping) -> str:
    """Serialize a spec (or an already-canonical document) to TOML."""
    doc = spec.to_dict() if isinstance(spec, ScenarioSpec) else spec
    lines: list[str] = []
    _emit_table(doc, (), lines)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def dumps_json(spec: ScenarioSpec | Mapping) -> str:
    doc = spec.to_dict() if isinstance(spec, ScenarioSpec) else spec
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def loads_scenario(text: str, format: str = "toml") -> ScenarioSpec:
    """Parse scenario text in the named format ("toml" or "json")."""
    if format == "toml":
        import tomllib
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as e:
            raise SpecError(f"invalid TOML: {e}") from None
    elif format == "json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise SpecError(f"invalid JSON: {e}") from None
    else:
        raise SpecError(f"unknown scenario format {format!r}; "
                        "expected 'toml' or 'json'")
    return ScenarioSpec.from_dict(raw)


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load a scenario file; the suffix picks the format."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"scenario file not found: {path}")
    fmt = {".toml": "toml", ".json": "json"}.get(path.suffix.lower())
    if fmt is None:
        raise SpecError(f"{path}: unknown scenario suffix {path.suffix!r} "
                        "(expected .toml or .json)")
    try:
        return loads_scenario(path.read_text(), fmt)
    except SpecError as e:
        raise SpecError(f"{path}: {e}") from None


def dump_scenario(spec: ScenarioSpec, path: str | Path) -> Path:
    """Write a scenario file; the suffix picks the format."""
    path = Path(path)
    if path.suffix.lower() == ".toml":
        path.write_text(dumps_toml(spec))
    elif path.suffix.lower() == ".json":
        path.write_text(dumps_json(spec))
    else:
        raise SpecError(f"{path}: unknown scenario suffix {path.suffix!r} "
                        "(expected .toml or .json)")
    return path
