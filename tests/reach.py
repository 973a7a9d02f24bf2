"""Which functions of ``src/repro`` no product path enters.

    python -m tests.reach           # rewrite the allowlist
    python -m tests.reach --check   # fail on any drift

Runs every product path in this one interpreter under ``sys.setprofile``:
``python -m repro.run`` on every ``scenarios/*.toml`` (``--report``,
``--print-spec``) and ``--list``; the three fleets with ``--jobs 1
--check``; ``python -m repro.bench`` and ``figs``; every example; every
``benchmarks/e2e`` workload at quick size and its direct-call loops.
Code that runs only in a forked child (a shard worker) is not seen.

``ALLOWLIST`` has one ``module:qualname lines reason`` line per function
whose body never ran (not again for a def nested in one), sorted;
``lines`` is the body's length.  A rewrite keeps the reasons and marks
new entries ``-``.  ``--check`` fails on an unreached function not on
the list and on an entry that is reached, gone or of another length.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOWLIST = ROOT / "tests" / "reach_allowlist.txt"
NO_REASON = "-"
HEADER = "# written by `python -m tests.reach`: module:qualname lines reason\n"


# ------------------------------------------------------------ the source
def functions(package: Path) -> dict:
    """``(file, first line) -> (name, body lines, inner keys)`` for every
    ``def`` under ``package``.  ``name`` is ``module:qualname`` (plus
    ``.setter`` / ``.deleter`` for a property's); the first line is the
    code object's ``co_firstlineno`` (the first decorator's line for a
    decorated function)."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree, module, (), str(path), out)
    return out


def _walk(node, module, scope, filename, out) -> list:
    """Record the ``def``s directly under ``node``; returns their keys."""
    keys = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            keys += _walk(child, module, scope + (child.name,), filename,
                          out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            key = (filename, first)
            inner = _walk(child, module,
                          scope + (child.name, "<locals>"), filename, out)
            lines = child.end_lineno - child.body[0].lineno + 1
            name = ".".join(scope + (child.name,))
            # a property's setter shares its getter's qualname
            name += "".join(f".{d.attr}" for d in child.decorator_list
                            if isinstance(d, ast.Attribute)
                            and d.attr in ("setter", "deleter"))
            out[key] = (f"{module}:{name}", lines, inner)
            keys.append(key)
        else:
            keys += _walk(child, module, scope, filename, out)
    return keys


def unreached(defs: dict, entered: set) -> dict:
    """``name -> body lines`` of every def not in ``entered``, leaving
    out those nested inside another unreached def."""
    nested = {k for _, _, inner in defs.values() for k in inner}
    out = {}

    def visit(key):
        name, lines, inner = defs[key]
        if key in entered:
            for k in inner:
                visit(k)
        else:
            out[name] = lines
    for key in defs:
        if key not in nested:
            visit(key)
    return out


# ------------------------------------------------------------ the list
def read_allowlist(path: Path = ALLOWLIST) -> dict:
    """``name -> (lines, reason)`` of every entry in the allowlist."""
    out = {}
    for raw in path.read_text().splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        name, lines, reason = (raw.split(None, 2) + [""])[:3]
        out[name] = (int(lines), reason)
    return out


def render_allowlist(found: dict, old: dict) -> str:
    """The allowlist for the unreached ``found``, keeping ``old``'s
    reasons."""
    rows = [f"{name} {lines} {old.get(name, (0, NO_REASON))[1]}"
            for name, lines in sorted(found.items())]
    return HEADER + "".join(row + "\n" for row in rows)


def drift(found: dict, listed: dict) -> list[str]:
    """Every way ``found`` (``name -> lines``) and the allowlist's
    ``listed`` disagree, one line each; empty when they agree."""
    out = []
    for name in sorted(found.keys() | listed.keys()):
        if name not in listed:
            out.append(f"{name}: unreached and not on the allowlist "
                       f"({found[name]} lines)")
        elif name not in found:
            out.append(f"{name}: on the allowlist but reached or gone")
        elif found[name] != listed[name][0]:
            out.append(f"{name}: {found[name]} lines, the allowlist "
                       f"says {listed[name][0]}")
    return out


# ------------------------------------------------------------ the paths
def _product_paths(tmp: Path):
    """``(label, thunk)`` per product path; a thunk returns an exit
    status or ``None``."""
    from repro.bench.__main__ import main as bench
    from repro.run import main as run

    scenarios = sorted(str(p) for p in (ROOT / "scenarios").glob("*.toml"))
    yield "run --list", lambda: run(["--list"])
    for path in scenarios:
        yield f"run {path} --report", lambda p=path: run([p, "--report"])
    yield "run --print-spec", lambda: run(["--print-spec", *scenarios])
    for fleet, kpis in (("scenarios", "scenarios"),
                        ("scenarios/matrix/small_sweep.toml", "small-sweep"),
                        ("scenarios/matrix/collectives.toml", "collectives")):
        yield f"run --fleet {fleet}", lambda f=fleet, k=kpis: run([
            "--fleet", str(ROOT / f), "--jobs", "1", "--check",
            "--results", str(tmp / "fleet_results"),
            "--kpis-file", str(ROOT / f"KPIS_{k}.json")])
    yield "bench", lambda: bench([])
    yield "bench figs", lambda: bench(["figs"])
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield f"example {path.name}", lambda p=path: _run_script(p)

    e2e = str(ROOT / "benchmarks" / "e2e")
    sys.path.insert(0, e2e)
    try:
        import layers
        import workloads
    finally:
        sys.path.remove(e2e)
    for name in workloads.WORKLOADS:
        yield f"e2e {name}", lambda w=name: workloads.run_pass(
            w, workloads.DEFAULT_SEED, quick=True) and None
    yield "e2e direct calls", lambda: layers.direct_calls(quick=True) and None


def _run_script(path: Path) -> None:
    """Run ``path`` as ``python path`` would, with no arguments."""
    argv, sys.argv = sys.argv, [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def entered_code() -> set:
    """``(file, first line)`` of every code object the product paths
    enter.  Their output is swallowed; a failing path raises."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)
        tempfile.tempdir = tmp              # what the examples export
        # on before the first import of repro: import-time calls count
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            for label, thunk in _product_paths(Path(tmp)):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    status = thunk()
                if status:
                    raise RuntimeError(f"{label} exited with {status}:\n"
                                       + sink.getvalue()[-2000:])
                print(f"  {label}: ok", file=sys.stderr)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            tempfile.tempdir = None
            os.chdir(cwd)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno)
            for c in seen}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.reach",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the allowlist instead of "
                         "rewriting it; exit 1 on any difference")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    found = unreached(functions(SRC / "repro"), entered_code())
    listed = read_allowlist() if ALLOWLIST.exists() else {}
    total = sum(found.values())
    if not args.check:
        ALLOWLIST.write_text(render_allowlist(found, listed))
        print(f"{ALLOWLIST.relative_to(ROOT)}: {len(found)} functions, "
              f"{total} lines")
        return 0
    problems = drift(found, listed)
    for line in problems:
        print(line)
    print(f"{len(found)} unreached functions, {total} lines; "
          f"{len(problems)} differ from {ALLOWLIST.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
