"""What a run imports: the stack it builds, and what its spec names.

Every process that imports :mod:`repro` pays for what it pulls in, in
start-up time and in peak RSS.  A fresh interpreter notes its modules,
runs one probe and lists what it loaded:

* a message-passing run (a 2 x 2 ``wan-ring`` all-to-all: routing,
  circuits, MTS/MPS, telemetry; then a 2-host Ethernet ``pingpong``)
  draws no random number and imports no third-party package at all,
  none of the :data:`OPTIONAL` modules and no ``repro`` module outside
  :data:`STACK`;
* a paper application cell (``matmul-p4``) computes with numpy, and
  imports nothing else;
* importing the run's stack, every registry's stock modules and the
  table harness leaves numpy unimported;
* a spec that names an optional component (a fault event,
  ``hsm-failover``, NIC collectives, the sharded kernel, a table
  driver) loads its module on demand, and the run goes through.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "repro": sorted(name for name in sys.modules
                    if name.partition(".")[0] == "repro"),
    "optional": [name for name in OPTIONAL if name in sys.modules],
}))
"""

#: every ``repro`` module the message-passing probe may load; a change
#: may take names out of this set, never put one in (as the ceilings of
#: ``tests/perf_lock/test_event_budget.py`` only come down)
STACK = {"repro", *(f"repro.{name}" for name in """
    apps apps.drivers
    atm atm.aal atm.adapter atm.api atm.cell atm.crc atm.link atm.signaling
    atm.switch
    config config.build config.io config.schema config.spec
    core core.api core.mps core.mps.buffers core.mps.collectives
    core.mps.core core.mps.datapath core.mps.error_control
    core.mps.exceptions core.mps.flow_control core.mps.message core.mps.qos
    core.mps.transports core.mts core.mts.ops core.mts.queues
    core.mts.scheduler core.mts.thread
    ethernet ethernet.frame ethernet.lan
    hosts hosts.cpu hosts.host hosts.oscosts hosts.params
    net net.topology
    obs obs.registry
    p4 p4.api
    protocols protocols.ip protocols.sockets protocols.tcp
    registry
    sim sim.kernel sim.resources sim.rng sim.trace
    """.split())}

#: what a message-passing run never executes, so never imports
OPTIONAL = ("repro.sim.sharded", "multiprocessing", "repro.faults",
            "repro.resilience", "repro.atm.collective",
            "repro.core.mps.filters", "repro.core.mps.group",
            "repro.core.mts.sync", "repro.net.nynet", "repro.apps.common",
            "repro.apps.costs", "repro.config.fleet", "repro.bench.perf")

#: every stock module a registry names, which listing it imports
REGISTERING = ("repro.core.mps.transports", "repro.resilience.failover",
               "repro.net.topology", "repro.net.nynet", "repro.apps.common",
               "repro.core.mps.flow_control", "repro.core.mps.error_control",
               "repro.apps.drivers", "repro.faults.plan",
               "repro.core.mps.collectives", "repro.config.build",
               "repro.sim.sharded")

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
[cluster]
topology = "platform-ethernet"
n_hosts = 3
[app]
driver = "matmul-p4"
[app.params]
n = 16
'''


def _probe(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _run(*docs) -> dict:
    doc = _probe(f"DOCS = {list(docs)!r}\nOPTIONAL = {OPTIONAL!r}\n{PROBE}")
    assert all(s["makespan_s"] > 0 for s in doc["summaries"])
    return doc


def _third_party(*docs) -> list:
    return _run(*docs)["third_party"]


def test_a_message_passing_run_imports_no_third_party_package():
    assert _third_party(WAN_RING, PINGPONG) == []


def test_a_message_passing_run_loads_only_the_stack_it_builds():
    doc = _run(WAN_RING, PINGPONG)
    assert doc["optional"] == []
    assert sorted(set(doc["repro"]) - STACK) == []


def test_a_scenario_run_imports_numpy_and_nothing_else_third_party():
    assert _third_party(MATMUL) == ["numpy"]


def test_registering_components_and_the_table_harness_imports_no_numpy():
    # listing every registry imports every stock component module
    doc = _probe("import json, sys\n"
                 "import repro.bench.tables\n"
                 "from repro.config import ensure_components\n"
                 "from repro.registry import all_registries\n"
                 "ensure_components()\n"
                 "for r in all_registries().values(): r.names()\n"
                 "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
                 "                  'optional': [m for m in OPTIONAL\n"
                 "                               if m in sys.modules]}))"
                 .replace("OPTIONAL", repr(REGISTERING)))
    assert doc == {"numpy": False, "optional": list(REGISTERING)}


ON_DEMAND = r"""
import json, sys
from repro.config import ensure_components, loads_scenario, run_scenario
ensure_components()
seen = [MODULE in sys.modules]
spec = loads_scenario(DOC)
seen.append(MODULE in sys.modules)
summary = run_scenario(spec).summary()
seen.append(MODULE in sys.modules)
print(json.dumps({"seen": seen, "summary": summary}))
"""

#: a spec naming one optional component -> (its module, whether reading
#: the spec resolves it): fault kinds and the kernel are resolved when
#: the spec is read, the rest when the run builds them
NAMED = {
    "fault-event": ("repro.faults", True, PINGPONG + """
[[faults.events]]
kind = "link-outage"
at = 0.5
duration = 0.01
host = 1
"""),
    "hsm-failover": ("repro.resilience", False, PINGPONG.replace(
        'topology = "ethernet"', 'topology = "atm-dual"')
        + '[runtime]\nmode = "hsm-failover"\n'),
    "nic-collectives": ("repro.atm.collective", False, """
name = "footprint-nic"
[cluster]
topology = "atm-lan"
n_hosts = 4
[runtime]
mode = "nsm"
collectives = "nic"
[app]
driver = "collective"
[app.params]
rounds = 1
"""),
    "sharded-kernel": ("repro.sim.sharded", True,
                       WAN_RING.replace('mode = "hsm"',
                                        'mode = "hsm"\nshards = 2')),
    "table-driver": ("repro.apps.common", False, MATMUL),
}


@pytest.mark.parametrize("component", NAMED)
def test_a_spec_naming_an_optional_component_loads_it_on_demand(component):
    module, at_read, spec = NAMED[component]
    doc = _probe(f"MODULE = {module!r}\nDOC = {spec!r}\n{ON_DEMAND}")
    assert doc["seen"] == [False, at_read, True]
    assert doc["summary"]["makespan_s"] > 0
