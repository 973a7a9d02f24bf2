"""``python -m repro.run`` reports a failed run and goes on, naming the
file once."""

from pathlib import Path

import pytest

from repro.run import main

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"

#: HSM with neither flow nor error control over a 4-site ring: the trunk
#: queues overflow, bursts are dropped and nobody resends them, so every
#: scheduler is left waiting (a ``direct_signals`` wall cell, as a file)
DEADLOCK = """
name = "a2a-no-error-control"
[cluster]
topology = "wan-ring"
seed = 7
[cluster.options]
n_sites = 4
hosts_per_site = 5
[runtime]
mode = "hsm"
[app]
driver = "alltoall"
[app.params]
rounds = 2
nbytes = 9000
"""


def test_a_failed_run_is_one_line_and_the_next_file_still_runs(
        tmp_path, capsys):
    dead = tmp_path / "dead.toml"
    dead.write_text(DEADLOCK)
    assert main([str(dead), str(SCENARIOS / "quickstart.toml")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(
        f"{dead}: deadlock: schedulers never finished: mts:p0@r0h0, ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "scenario 'quickstart'" in out and "a2a-no-error-control" not in out


LOAD_ERROR = '[cluster]\ntopolgy = "ethernet"\n'
KERNEL_ERROR = '[runtime]\nkernel = "no-such-kernel"\n'
RUN_ERROR = ('[cluster]\ntopology = "ethernet"\nn_hosts = 2\n[app]\n'
             'driver = "pingpong"\n[app.params]\nbogus = 1\n')


@pytest.mark.parametrize("flags, body, problem", [
    ([], LOAD_ERROR, "unknown key(s) cluster.topolgy"),
    (["--print-spec"], LOAD_ERROR, "unknown key(s) cluster.topolgy"),
    ([], KERNEL_ERROR, "runtime.kernel: unknown simulation kernel"),
    (["--print-spec"], KERNEL_ERROR, "runtime.kernel: unknown"),
    ([], RUN_ERROR, "unknown key(s) app.params.bogus"),
], ids=["load", "load-print", "kernel", "kernel-print", "run"])
def test_a_spec_error_names_the_file_once(tmp_path, capsys, flags, body,
                                          problem):
    bad = tmp_path / "bad.toml"
    bad.write_text(f'name = "bad"\n{body}')
    assert main([*flags, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: ") and problem in err
    assert err.count(str(bad)) == 1 and err.count("\n") == 1
