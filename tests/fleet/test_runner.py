"""Fleet runner behavior: isolation, artifacts, error capture, CLI.

Uses a tiny synthetic fleet (two-message pingpongs) so the pool
machinery, artifact layout, and exit codes are exercised in
milliseconds; the full checked-in corpus is covered by
``test_determinism.py`` / ``test_golden_kpis.py``.
"""

import json
from pathlib import Path

import pytest

from repro import run as run_cli
from repro.config.fleet import load_fleet
from repro.fleet import (load_kpi_doc, render_table, run_fleet,
                         write_kpi_doc)

REPO = Path(__file__).resolve().parents[2]


def _scenario_text(name, messages=2, trace=False):
    text = (f'name = "{name}"\n'
            '[cluster]\nn_hosts = 2\n'
            '[app]\ndriver = "pingpong"\n'
            f'[app.params]\nmessages = {messages}\nnbytes = 64\n')
    if trace:
        text += '[obs]\ntrace = true\n'
    return text


@pytest.fixture
def tiny_fleet_dir(tmp_path):
    d = tmp_path / "tiny"
    d.mkdir()
    (d / "one.toml").write_text(_scenario_text("one"))
    (d / "two.toml").write_text(_scenario_text("two", messages=3,
                                               trace=True))
    return d


class TestRunFleet:
    def test_outcomes_keep_fleet_order(self, tiny_fleet_dir):
        result = run_fleet(load_fleet(tiny_fleet_dir), jobs=1)
        assert [o.run_id for o in result.outcomes] == ["one", "two"]
        assert result.ok

    def test_artifacts_written_per_run(self, tiny_fleet_dir, tmp_path):
        results = tmp_path / "out"
        result = run_fleet(load_fleet(tiny_fleet_dir), jobs=1,
                           results_dir=results)
        metrics = results / "one" / "metrics.json"
        assert metrics.is_file()
        snapshot = json.loads(metrics.read_text())
        assert "mps.data_sent" in snapshot
        # scenario 'two' traces -> it also gets a chrome trace artifact
        assert (results / "two" / "trace.json").is_file()
        assert not (results / "one" / "trace.json").exists()
        assert str(metrics) in result.outcomes[0].artifacts

    def test_failing_run_is_isolated(self, tiny_fleet_dir):
        (tiny_fleet_dir / "bad.toml").write_text(
            'name = "bad"\n[app]\ndriver = "no-such-driver"\n')
        result = run_fleet(load_fleet(tiny_fleet_dir), jobs=1)
        assert not result.ok
        by_id = {o.run_id: o for o in result.outcomes}
        assert not by_id["bad"].ok
        assert "no-such-driver" in by_id["bad"].error
        assert by_id["one"].ok and by_id["two"].ok
        doc = result.kpi_doc()
        assert doc["rows"]["bad"] == {"error": by_id["bad"].error}
        assert "ERROR" in render_table(result.rows())

    def test_jobs_must_be_positive(self, tiny_fleet_dir):
        with pytest.raises(ValueError):
            run_fleet(load_fleet(tiny_fleet_dir), jobs=0)

    def test_progress_callback_sees_every_run(self, tiny_fleet_dir):
        seen = []
        run_fleet(load_fleet(tiny_fleet_dir), jobs=2,
                  progress=lambda o: seen.append(o.run_id))
        assert seen == ["one", "two"]


class TestCli:
    def test_fleet_run_writes_results_and_exits_zero(self, tiny_fleet_dir,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.chdir(tmp_path)
        rc = run_cli.main(["--fleet", str(tiny_fleet_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "one: ok" in out and "two: ok" in out
        assert "makespan_s" in out            # the KPI table header
        assert (tmp_path / "fleet_results" / "KPIS_tiny.json").is_file()

    def test_write_then_check_roundtrip(self, tiny_fleet_dir, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli.main(["--fleet", str(tiny_fleet_dir),
                             "--write"]) == 0
        baseline = tmp_path / "KPIS_tiny.json"
        assert baseline.is_file()
        assert run_cli.main(["--fleet", str(tiny_fleet_dir), "--jobs", "2",
                             "--check"]) == 0
        assert "KPIs match" in capsys.readouterr().out

    def test_check_flags_regression_and_names_kpi(self, tiny_fleet_dir,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli.main(["--fleet", str(tiny_fleet_dir),
                             "--write"]) == 0
        doc = load_kpi_doc(tmp_path / "KPIS_tiny.json")
        doc["rows"]["one"]["makespan_s"] *= 1.3
        write_kpi_doc(doc, tmp_path / "KPIS_tiny.json")
        rc = run_cli.main(["--fleet", str(tiny_fleet_dir), "--check"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "one: makespan_s:" in err

    def test_check_without_baseline_is_an_error(self, tiny_fleet_dir,
                                                tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        rc = run_cli.main(["--fleet", str(tiny_fleet_dir), "--check"])
        assert rc == 2
        assert "--write" in capsys.readouterr().err

    def test_failing_fleet_exits_nonzero(self, tiny_fleet_dir, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tiny_fleet_dir / "bad.toml").write_text(
            'name = "bad"\n[app]\ndriver = "no-such-driver"\n')
        rc = run_cli.main(["--fleet", str(tiny_fleet_dir)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_write_with_a_failed_run_leaves_the_baseline_untouched(
            self, tiny_fleet_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli.main(["--fleet", str(tiny_fleet_dir),
                             "--write"]) == 0
        baseline = tmp_path / "KPIS_tiny.json"
        before = baseline.read_bytes()
        capsys.readouterr()
        (tiny_fleet_dir / "bad.toml").write_text(
            'name = "bad"\n[app]\ndriver = "no-such-driver"\n')
        assert run_cli.main(["--fleet", str(tiny_fleet_dir),
                             "--write"]) == 1
        assert baseline.read_bytes() == before
        assert "baseline not written" in capsys.readouterr().err
        # the results copy still records the failure
        results = load_kpi_doc(tmp_path / "fleet_results" / "KPIS_tiny.json")
        assert "error" in results["rows"]["bad"]

    def test_flag_conflicts_are_parser_errors(self, tiny_fleet_dir):
        cases = (
            ["--fleet", str(tiny_fleet_dir), "x.toml"],
            ["--fleet", str(tiny_fleet_dir), "--seed", "7"],
            ["--fleet", str(tiny_fleet_dir), "--check", "--write"],
            ["--fleet", str(tiny_fleet_dir), "--jobs", "0"],
            ["--check", "x.toml"],
        )
        for argv in cases:
            with pytest.raises(SystemExit) as exc:
                run_cli.main(argv)
            assert exc.value.code == 2

    def test_matrix_fleet_via_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = run_cli.main([
            "--fleet", str(REPO / "scenarios/matrix/small_sweep.toml"),
            "--jobs", "4", "--kpis-file",
            str(REPO / "KPIS_small-sweep.json"), "--check"])
        assert rc == 0
        assert "KPIs match" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fleet supervision: per-run timeouts; a failed run is not run again
# ---------------------------------------------------------------------------

def _register_chaos_drivers():
    """``test-sleepy``, a driver that builds nothing and sleeps far past any
    test timeout.  Registered once per interpreter."""
    from repro.registry import APP_DRIVERS
    if "test-sleepy" in APP_DRIVERS.names():
        return

    @APP_DRIVERS.register("test-sleepy",
                          help="sleeps forever (tests only)")
    def _sleepy(run):
        import time
        time.sleep(run.params.get("sleep_s", 60.0))
        return {}


def _driver_scenario(d, name, driver, **params):
    lines = [f'name = "{name}"', "[app]", f'driver = "{driver}"']
    if params:
        lines.append("[app.params]")
        lines += [f'{k} = {json.dumps(v)}' for k, v in params.items()]
    (d / f"{name}.toml").write_text("\n".join(lines) + "\n")


class TestFleetSupervision:
    def test_single_attempt_rows_stay_byte_identical(self, tmp_path,
                                                     tiny_fleet_dir):
        """A KPI row and a run's metrics.json hold what the run
        simulated and nothing about the runner (no attempt count)."""
        results = tmp_path / "out"
        result = run_fleet(load_fleet(tiny_fleet_dir), jobs=1,
                           results_dir=results)
        assert result.ok
        for o in result.outcomes:
            assert "attempts" not in o.doc_row()
        metrics = json.loads(
            (results / "one" / "metrics.json").read_text())
        assert not any(name.startswith("fleet.") for name in metrics)

    def test_timeout_kills_wedged_run(self, tmp_path):
        _register_chaos_drivers()
        d = tmp_path / "fleet"
        d.mkdir()
        _driver_scenario(d, "wedged", "test-sleepy", sleep_s=30.0)
        import time
        t0 = time.monotonic()
        result = run_fleet(load_fleet(d), jobs=1, timeout_s=0.2)
        assert time.monotonic() - t0 < 10.0
        outcome = result.outcomes[0]
        assert not outcome.ok
        assert "RunTimeout" in outcome.error
        assert "0.2s" in outcome.error

    def test_knob_validation(self, tiny_fleet_dir):
        fleet = load_fleet(tiny_fleet_dir)
        with pytest.raises(ValueError):
            run_fleet(fleet, timeout_s=0)
        # a NaN timeout would never expire
        with pytest.raises(ValueError, match="timeout_s"):
            run_fleet(fleet, timeout_s=float("nan"))

    def test_cli_retry_flags_require_fleet(self):
        for argv in (["--retries", "1", "x.toml"],
                     ["--timeout", "5", "x.toml"]):
            with pytest.raises(SystemExit) as exc:
                run_cli.main(argv)
            assert exc.value.code == 2
