"""``python -m repro.run`` reports a failed run and goes on."""

from pathlib import Path

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
