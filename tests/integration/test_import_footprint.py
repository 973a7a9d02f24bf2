"""What a scenario run imports: numpy is the one third-party package.

Every process that imports :mod:`repro` pays for what it pulls in, in
start-up time and in peak RSS.  A fresh interpreter notes its modules,
imports :mod:`repro`, registers every component and runs a small
``wan-ring`` scenario (routing, circuits, MTS/MPS, telemetry); every
top-level package that was loaded from a file and is neither the
standard library's nor :mod:`repro` itself must be numpy.
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
result = run_scenario(loads_scenario('''
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
'''))
# modules loaded from a file: no aliases (``__mp_main__``) and no
# modules an extension makes up at run time (``cython_runtime``)
new = {name.partition(".")[0] for name in set(sys.modules) - before
       if getattr(sys.modules[name], "__file__", None)}
print(json.dumps({
    "summary": result.summary(),
    "third_party": sorted(new - set(sys.stdlib_module_names) - {"repro"}),
}))
"""


def test_a_scenario_run_imports_numpy_and_nothing_else_third_party():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["summary"]["makespan_s"] > 0
    assert doc["third_party"] == ["numpy"]
