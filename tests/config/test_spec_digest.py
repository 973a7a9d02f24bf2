"""The two digests a run computes are plain SHA-256, whichever module
computes them.

``ScenarioSpec.digest`` and ``faults.trace_signature`` take the
interpreter's own SHA-256 (``_sha2`` / ``_sha256``) so that a run never
maps OpenSSL through :mod:`hashlib`.  These tests recompute both with
:mod:`hashlib` and hold them equal, and run the ``hashlib`` fallback in
a fresh interpreter that has neither built-in module.
"""

import hashlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro
from repro import ServiceMode
from repro.config import load_scenario
from repro.config.fleet import load_fleet
from repro.faults import FaultInjector, FaultPlan, LinkOutage, trace_signature

from ..faults.util import add_pingpong, make_runtime

SCENARIOS_DIR = Path(__file__).resolve().parents[2] / "scenarios"
SRC = Path(repro.__file__).resolve().parents[1]


def _specs(path: Path) -> list:
    """Every spec a checked-in file names: one, or a matrix's cells."""
    if "matrix" in tomllib.loads(path.read_text()):
        return [spec for _, spec in load_fleet(path).runs]
    return [load_scenario(path)]


def _hashlib_digest(spec) -> str:
    return hashlib.sha256(spec.canonical_json().encode()).hexdigest()[:12]


@pytest.mark.parametrize(
    "path", sorted(SCENARIOS_DIR.glob("**/*.toml")),
    ids=lambda p: str(p.relative_to(SCENARIOS_DIR).with_suffix("")))
def test_spec_digest_is_hashlib_sha256(path):
    for spec in _specs(path):
        assert spec.digest() == _hashlib_digest(spec)


def test_trace_signature_is_hashlib_sha256():
    cluster, rt = make_runtime(2, ServiceMode.HSM)
    FaultInjector(cluster, FaultPlan(
        (LinkOutage(at=0.0005, duration=0.02, host=1),))).arm()
    add_pingpong(rt, rounds=2)
    rt.run()
    tracer = cluster.tracer
    assert tracer.events and "fault:0" in tracer.timelines
    h = hashlib.sha256()
    for t, entity, kind, payload in tracer.events:
        h.update(repr((t, entity, kind, payload)).encode())
    for name in sorted(tracer.timelines):
        tl = tracer.timelines[name]
        h.update(repr((name, tl.gantt_row(),
                       tl._open_start, tl._open_activity)).encode())
    assert trace_signature(tracer) == h.hexdigest()


FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from repro.config import load_scenario
digest = load_scenario(PATH).digest()
print(digest, "hashlib" in sys.modules)
"""


def test_hashlib_fallback_gives_the_same_digest():
    path = SCENARIOS_DIR / "quickstart.toml"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"PATH = {str(path)!r}\n{FALLBACK}"],
        env=env, capture_output=True, text=True, check=True)
    digest, fell_back = out.stdout.split()
    assert fell_back == "True"
    assert digest == load_scenario(path).digest() \
        == _hashlib_digest(load_scenario(path))
