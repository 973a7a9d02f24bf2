"""What a run imports: numpy only where a number is drawn or an app computes.

Every process that imports :mod:`repro` pays for what it pulls in, in
start-up time and in peak RSS.  A fresh interpreter notes its modules,
runs one probe and lists every top-level package that was loaded from
a file and is neither the standard library's nor :mod:`repro` itself:

* a message-passing run (a 2 x 2 ``wan-ring`` all-to-all: routing,
  circuits, MTS/MPS, telemetry; then a 2-host Ethernet ``pingpong``)
  draws no random number and imports no third-party package at all;
* a paper application cell (``matmul-p4``) computes with numpy, and
  imports nothing else;
* registering every component and loading the table harness leaves
  numpy unimported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PROBE = r"""
import json, sys
before = set(sys.modules)
from repro.config import ensure_components, loads_scenario, run_scenario
ensure_components()
summaries = [run_scenario(loads_scenario(doc)).summary() for doc in DOCS]
# modules loaded from a file: no aliases (``__mp_main__``) and no
# modules an extension makes up at run time (``cython_runtime``)
new = {name.partition(".")[0] for name in set(sys.modules) - before
       if getattr(sys.modules[name], "__file__", None)}
print(json.dumps({
    "summaries": summaries,
    "third_party": sorted(new - set(sys.stdlib_module_names) - {"repro"}),
}))
"""

WAN_RING = '''
name = "footprint"
[cluster]
topology = "wan-ring"
[cluster.options]
n_sites = 2
hosts_per_site = 2
[runtime]
mode = "hsm"
[app]
driver = "alltoall"
[app.params]
rounds = 1
nbytes = 512
'''

PINGPONG = '''
name = "footprint-ethernet"
[cluster]
topology = "ethernet"
n_hosts = 2
[app]
driver = "pingpong"
[app.params]
messages = 3
'''

MATMUL = '''
name = "footprint-matmul"
[app]
driver = "matmul-p4"
[app.params]
platform = "ethernet"
n_nodes = 2
n = 16
'''


def _probe(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _third_party(*docs) -> list:
    doc = _probe(f"DOCS = {list(docs)!r}\n{PROBE}")
    assert all(s["makespan_s"] > 0 for s in doc["summaries"])
    return doc["third_party"]


def test_a_message_passing_run_imports_no_third_party_package():
    assert _third_party(WAN_RING, PINGPONG) == []


def test_a_scenario_run_imports_numpy_and_nothing_else_third_party():
    assert _third_party(MATMUL) == ["numpy"]


def test_registering_components_and_the_table_harness_imports_no_numpy():
    doc = _probe("import json, sys\n"
                 "import repro.bench.tables\n"
                 "from repro.config import ensure_components\n"
                 "ensure_components()\n"
                 "print(json.dumps({'numpy': 'numpy' in sys.modules}))")
    assert doc == {"numpy": False}
