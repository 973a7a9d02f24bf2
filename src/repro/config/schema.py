"""One reader and one writer for every scenario table.

A table is declared once: by the fields of a dataclass (the spec
tables, :class:`~repro.config.fleet.MatrixAxis` /
:class:`~repro.config.fleet.MatrixSpec`, every registered fault kind)
or by the keyword parameters of a callable (``[app.params]`` against an
app function, ``cluster.options`` against the topology builder,
``flow_kwargs`` / ``error_kwargs`` against the policy constructor,
``[faults.random]`` against :meth:`~repro.faults.FaultPlan.random`).
From that declaration the reader derives the accepted keys, the
required ones, the defaults and the types; the writer derives the
canonical form.  Nothing else states them.

The type rule is the one the app drivers always used: a value must be
an instance of the declared type, an ``int`` stands for a ``float``, a
``bool`` stands for nothing else, and every float (anywhere in a table)
must be finite.  A parameter annotated with any other class
(``params: HostParams``, ``tcp_params: Optional[TcpParams]``) takes
only an instance of it; an unannotated one (a ``None`` default) passes
through unchecked.  What a type cannot state (``> 0``, orderings,
one-of choices) stays in the declaring class's ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import typing
from collections.abc import Mapping, Sequence
from typing import Any, NamedTuple, Union

__all__ = ["SpecError", "SCALARS", "Field", "Table", "declaration", "read",
           "build", "settle", "write"]

MISSING = dataclasses.MISSING
SCALARS = (bool, int, float, str)


class SpecError(ValueError):
    """A scenario spec failed validation; the message names the field."""


def join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


class Field(NamedTuple):
    """One declared key: its type (``None``: unchecked), its default
    (``MISSING``: required), the sub-table it is written in (a root
    field only) and whether it is written even at its default."""

    name: str
    hint: Any = None
    default: Any = MISSING
    table: str = ""
    always: bool = False

    def at(self, path: str) -> str:
        return join(self.table or path, self.name)


class Table:
    """A declared scenario table: typed on construction (the dataclass
    calls :func:`settle` first thing in ``__post_init__``), read by
    :meth:`from_dict` and written by :meth:`to_dict`.  ``_where`` is the
    table's dotted path in a scenario document."""

    _where = ""
    #: write keys sorted by name instead of in declaration order
    _sorted = False

    def to_dict(self) -> dict:
        """Canonical document: fields at their defaults left out."""
        return write(self)

    @classmethod
    def from_dict(cls, raw: Mapping):
        return build(cls, raw, cls._where)


@functools.cache
def declaration(decl) -> tuple:
    """``(fields, open)`` of a dataclass or a callable, resolved once.

    ``open`` is true for a callable taking ``**kwargs``: it accepts
    keys it does not declare."""
    if dataclasses.is_dataclass(decl):
        hints = typing.get_type_hints(decl)
        fields = []
        for f in dataclasses.fields(decl):
            default = (f.default_factory() if f.default is MISSING
                       and f.default_factory is not MISSING else f.default)
            fields.append(Field(f.name, hints[f.name], default,
                                f.metadata.get("table", ""),
                                f.metadata.get("always", False)))
        return tuple(fields), False
    fields, open_ = [], False
    for p in inspect.signature(decl, eval_str=True).parameters.values():
        if p.kind is p.VAR_KEYWORD:
            open_ = True
        if p.kind not in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY):
            continue
        hint = p.annotation
        if hint is p.empty:
            hint = type(p.default) if type(p.default) in SCALARS else None
        fields.append(Field(p.name, hint,
                            MISSING if p.default is p.empty else p.default))
    return tuple(fields), open_


def _fields(decl) -> tuple:
    if isinstance(decl, (list, tuple)):
        return tuple(decl), False
    return declaration(decl)


# ----------------------------------------------------------------- reading
def read(decl, raw: Mapping, path: str, *, partial: bool = False) -> dict:
    """The keys of ``raw`` checked against ``decl`` (a dataclass, a
    callable or a sequence of :class:`Field`), in ``raw``'s order.

    A key ``decl`` does not declare, a required key left out (unless
    ``partial``: the caller supplies it) and a value of another type
    are each a :class:`SpecError` naming the dotted key.  A root field
    with a ``table`` is read from that sub-table (``[runtime]``)."""
    declared = {f.name: f for f in _fields(decl)[0]}
    return {key: (check(value, declared[key].hint, declared[key].at(path))
                  if key in declared else _finite(value, join(path, key)))
            for key, value in _keys(decl, raw, path, partial).items()}


def _keys(decl, raw: Mapping, path: str, partial: bool = False) -> dict:
    """:func:`read` without the type checks."""
    fields, open_ = _fields(decl)
    flat = _flatten(fields, raw, path, open_)
    if not partial:
        for f in fields:
            if f.default is MISSING and f.name not in flat:
                raise SpecError(f"{f.at(path)} is required")
    return flat


def _flatten(fields, raw, path, open_) -> dict:
    """``raw`` with each sub-table's keys lifted to the root."""
    _table(raw, path)
    flat = dict(_known(raw, list(dict.fromkeys(f.table or f.name
                                               for f in fields)),
                       path, open_))
    for table in dict.fromkeys(f.table for f in fields if f.table):
        if table in flat:
            sub = flat.pop(table)
            _table(sub, table)
            flat.update(_known(sub, [f.name for f in fields
                                     if f.table == table], table, open_))
    return flat


def _table(raw, path) -> None:
    if not isinstance(raw, Mapping):
        raise SpecError(f"{path or 'scenario'}: expected a table, got "
                        f"{type(raw).__name__}")


def _known(raw: Mapping, allowed: list, path: str, open_: bool) -> Mapping:
    unknown = [k for k in raw if k not in allowed]
    if unknown and not open_:
        raise SpecError(f"unknown key(s) "
                        f"{', '.join(join(path, k) for k in unknown)}; "
                        f"allowed: {', '.join(allowed)}")
    return raw


@functools.cache
def _shape(hint) -> tuple:
    """What :func:`check` does with ``hint``, worked out once."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        (inner,) = [a for a in args if a is not type(None)]
        return "optional", inner
    if hint in SCALARS:
        return "scalar", hint
    if hint is tuple or origin in (tuple, Sequence):
        return "array", args[0] if args else None
    if hint is dict or origin is dict:
        return ("table", *(args or (str, None)))
    if isinstance(hint, type) and issubclass(hint, Table):
        return "spec", hint
    if isinstance(hint, type) and not issubclass(hint, (Mapping, Sequence)):
        return "instance", hint
    return "any", None


def check(value, hint, path: str):
    """``value`` as ``hint`` declares it, or a :class:`SpecError`.

    Arrays become tuples, tables become dicts (``dict[int, V]`` keys
    parse from TOML's strings) or, for a :class:`Table` hint, the
    declared table.  Scalars are never converted: ``30`` read for a
    float stays ``30``, so the canonical form keeps what was written."""
    shape, kind, *item = _shape(hint)
    if shape == "optional":
        return None if value is None else check(value, kind, path)
    if shape == "scalar":
        if (isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind)):
            raise SpecError(f"{path} must be {kind.__name__}, "
                            f"got {value!r}")
    elif shape == "array":
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{path} must be an array, got {value!r}")
        return tuple(check(v, kind, f"{path}[{i}]")
                     for i, v in enumerate(value))
    elif shape == "table":
        if not isinstance(value, Mapping):
            raise SpecError(f"{path} must be a table, got {value!r}")
        return {_key(k, kind, path): check(v, item[0], join(path, k))
                for k, v in value.items()}
    elif shape == "spec":
        if isinstance(value, kind):
            return value
        if not isinstance(value, Mapping):
            raise SpecError(f"{path} must be a {kind.__name__} or a "
                            f"table, got {value!r}")
        return build(kind, value, path)
    elif shape == "instance" and not isinstance(value, kind):
        raise SpecError(f"{path} must be a {kind.__name__}, got {value!r}")
    return _finite(value, path)


def _finite(value, path: str):
    """``value`` unchanged, once no float in it is NaN or infinite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise SpecError(f"{path} must be a finite number, got {value!r}")
    if isinstance(value, Mapping):
        for k, v in value.items():
            _finite(v, join(path, k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _finite(v, f"{path}[{i}]")
    return value


def _key(key, hint, path: str):
    if hint is str:
        return str(key)
    if hint is not int or type(key) is int:
        return key
    try:
        return int(key)
    except (TypeError, ValueError):
        raise SpecError(f"{path}: keys must be integers (got {key!r})"
                        ) from None


def build(cls, raw: Mapping, path: str):
    """``cls`` from its table ``raw``.  A rule in ``cls.__post_init__``
    that is not a :class:`SpecError` names its field first (``"at:
    fault time must be ..."``); it is raised here under ``path``."""
    # a Table types its own fields on construction (settle)
    values = (_keys if issubclass(cls, Table) else read)(cls, raw, path)
    try:
        return cls(**values)
    except SpecError:
        raise
    except ValueError as e:
        raise SpecError(join(path, e)) from None


def settle(obj: Table) -> None:
    """Type-check a table's own fields in place (``__post_init__``)."""
    for name, hint, path in _settled(type(obj)):
        value = getattr(obj, name)
        checked = check(value, hint, path)
        if checked is not value:
            object.__setattr__(obj, name, checked)


@functools.cache
def _settled(cls) -> tuple:
    return tuple((f.name, f.hint, f.at(cls._where))
                 for f in declaration(cls)[0])


# ----------------------------------------------------------------- writing
def write(obj) -> dict:
    """The canonical document of a declared dataclass: fields in
    declaration order (by name for a ``_sorted`` table), each left out
    when equal to its default unless ``always``, sub-tables of defaults
    only left out, tuples as lists, ``dict[K, V]`` tables sorted by key
    with string keys."""
    doc: dict[str, Any] = {}
    for f in declaration(type(obj))[0]:
        value = getattr(obj, f.name)
        if value == f.default and not f.always:
            continue
        value = _plain(value, f.hint)
        if value == {}:
            continue
        (doc.setdefault(f.table, {}) if f.table else doc)[f.name] = value
    return dict(sorted(doc.items())) if getattr(obj, "_sorted", False) \
        else doc


def _plain(value, hint=None):
    if isinstance(value, Table):
        return write(value)
    if isinstance(value, Mapping):
        if typing.get_origin(hint) is dict:
            return {str(k): _plain(v) for k, v in sorted(value.items())}
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value
