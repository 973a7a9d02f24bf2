"""Smoke tests: every example script must run to completion.

Each example is imported and its ``main()`` executed in-process (they
are deterministic simulations, so this is fast and exact).
"""

import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = sorted(
    p for p in (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path, tmp_path, monkeypatch):
    """... and leaves nothing behind in the temporary directory (the
    diagnostics example's ``repro-telemetry-*`` trace exports)."""
    if path.stem == "matmul_cluster":
        pytest.skip("covered by test_matmul_small (full size is slow)")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    mod = load_module(path)
    out = io.StringIO()
    with redirect_stdout(out):
        mod.main()
    assert out.getvalue().strip(), f"{path.stem} printed nothing"
    assert not list(tmp_path.iterdir())


def test_matmul_small():
    """matmul_cluster at a reduced size (same code path)."""
    path = next(p for p in EXAMPLES if p.stem == "matmul_cluster")
    mod = load_module(path)
    out = io.StringIO()
    with redirect_stdout(out):
        mod.main(64)
    text = out.getvalue()
    assert "ethernet" in text and "nynet" in text
    assert "improvement" in text
