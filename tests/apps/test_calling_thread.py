"""An application's numerics run on the calling thread.

The paper's NCS keeps at most one thread of a process on the CPU, and so
does a run here: every product of the matrix-multiply apps is
:func:`repro.apps.matmul.product`, numpy's own loop, so no BLAS worker
thread wakes (and then spins, holding a core with no work).  A fresh
interpreter imports numpy, waits for the threads numpy started to go
idle, runs the 14 Table 1 cells at paper size and sums the CPU ticks
(``utime + stime`` of ``/proc/self/task/<tid>/stat``) of every thread
but its own before and after: the difference is 0.  With ``@`` back in
one node block, p4 or NCS, it reads 11-16 ticks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.matmul import make_matrices, product

SRC = Path(repro.__file__).resolve().parents[1]

PROBE = r"""
import json, os, threading, time
import numpy

def others():
    me = threading.get_native_id()
    ticks = threads = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        with open(f"/proc/self/task/{tid}/stat") as f:
            stat = f.read()
        fields = stat[stat.rindex(")") + 2:].split()
        ticks += int(fields[11]) + int(fields[12])
        threads += 1
    return ticks, threads

from repro.bench import paper_data
from repro.bench.tables import cell_spec
from repro.config import run_scenario

# a BLAS pool spins a while after it starts: wait until it sleeps
before, threads = others()
for _ in range(20):
    time.sleep(0.1)
    now, threads = others()
    if now == before:
        break
    before = now
correct = []
for platform, counts in paper_data.TABLE_NODES["table1"].items():
    for n in counts:
        for variant in ("p4", "ncs"):
            spec = cell_spec(f"matmul-{variant}", platform, n, seed=1995,
                             n=128)
            correct.append(bool(run_scenario(spec).value.correct))
print(json.dumps({"threads": threads, "ticks": others()[0] - before,
                  "correct": correct}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc to read thread ticks from")
def test_the_table1_sweep_spends_no_cpu_on_another_thread():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout.splitlines()[-1])
    if probe["threads"] == 0:
        pytest.skip("numpy started no thread besides the main one")
    assert probe["ticks"] == 0
    assert probe["correct"] == [True] * 14


@pytest.mark.parametrize("rows", [128, 64, 32, 16, 8])
def test_the_product_is_a_matrix_product_on_table1_blocks(rows):
    A, B = make_matrices(128, 1995)
    assert np.allclose(product(A[:rows], B), A[:rows] @ B)
