"""Execute a fleet of scenarios across a process pool.

Each run is a pure function of its spec document: the worker rebuilds
the :class:`~repro.config.ScenarioSpec` from canonical JSON, runs it
through :func:`repro.config.run_scenario` (fresh cluster, fresh
metrics registry — process isolation makes cross-run leakage
structurally impossible), reduces the metrics snapshot to a
:class:`~repro.fleet.kpis.KpiRow`, and persists per-run artifacts.
Because workers share nothing and results are collected in submission
order, ``jobs=1`` and ``jobs=N`` produce byte-identical KPI documents
— the determinism tests hold the runner to exactly that.

A failing run (driver exception, spec/build error) never takes the
fleet down: its row becomes an ``{"error": ...}`` marker that renders
in the table, fails a ``--check``, and leaves every other run's KPIs
intact.  A per-run wall-clock ``timeout_s`` (enforced inside the worker
with a SIGALRM deadline) keeps a wedged scenario from stalling its pool
slot forever; it fails that run the same way.  A failed run is not run
again: each is a pure function of its spec, so it would fail again.
"""

from __future__ import annotations

import json
import signal
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from ..config.fleet import FleetSpec
from .kpis import kpi_doc

__all__ = ["RunOutcome", "FleetResult", "RunTimeout", "run_fleet"]


class RunTimeout(Exception):
    """One scenario run exceeded the fleet's per-run deadline."""


@dataclass(frozen=True)
class RunOutcome:
    """One scenario's result: a KPI row or an error marker."""

    run_id: str
    ok: bool
    row: Optional[dict] = None          # KpiRow.to_dict() when ok
    error: Optional[str] = None
    artifacts: tuple = ()

    def doc_row(self) -> dict:
        return dict(self.row) if self.ok else {"error": self.error}


@dataclass
class FleetResult:
    """Every outcome, in the fleet's deterministic run order."""

    fleet: str
    outcomes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def rows(self) -> dict:
        return {o.run_id: o.doc_row() for o in self.outcomes}

    def kpi_doc(self) -> dict:
        return kpi_doc(self.fleet, self.rows())

    def errors(self) -> list:
        return [(o.run_id, o.error) for o in self.outcomes if not o.ok]


def _run_dir_name(run_id: str) -> str:
    """Run ids become directory names; '/' is the only unsafe char."""
    return run_id.replace("/", "_")


class _deadline:
    """A SIGALRM-backed wall-clock deadline around one run.

    Arms only where it can: SIGALRM exists (POSIX) and we are on the
    process's main thread (signal handlers cannot be installed
    elsewhere) — both hold for pool workers and the ``jobs=1`` inline
    path.  Anywhere else the deadline degrades to a no-op rather than
    failing the run.
    """

    def __init__(self, timeout_s: Optional[float]):
        self.timeout_s = timeout_s
        self.armed = False

    def __enter__(self):
        if (self.timeout_s is not None and hasattr(signal, "setitimer")
                and threading.current_thread() is threading.main_thread()):
            def _expire(signum, frame):
                raise RunTimeout(
                    f"run exceeded the {self.timeout_s:g}s per-run "
                    "wall-clock timeout")
            self._prev = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
            self.armed = True
        return self

    def __exit__(self, *exc):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._prev)
        return False


def _execute_one(run_id: str, doc_json: str, artifacts_dir: Optional[str],
                 timeout_s: Optional[float] = None) -> dict:
    """One worker task; module-level so it pickles into pool workers.

    Returns a plain dict (not RunOutcome) to keep the pool protocol to
    stdlib types.  Never raises: any failure is folded into the result.
    """
    try:
        from ..config import ScenarioSpec, ensure_components, run_scenario
        from .kpis import extract_kpis
        ensure_components()
        spec = ScenarioSpec.from_dict(json.loads(doc_json))
        with _deadline(timeout_s):
            result = run_scenario(spec)
        snapshot = (result.cluster.metrics.snapshot()
                    if result.cluster is not None else {})
        row = extract_kpis(spec, snapshot, result.summary())
        artifacts = list(result.exported)
        if artifacts_dir is not None:
            run_dir = Path(artifacts_dir) / _run_dir_name(run_id)
            run_dir.mkdir(parents=True, exist_ok=True)
            metrics_path = run_dir / "metrics.json"
            metrics_path.write_text(
                json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
            artifacts.append(str(metrics_path))
            if spec.obs.trace and result.cluster is not None:
                from ..obs import export_chrome_trace
                trace_path = run_dir / "trace.json"
                export_chrome_trace(result.cluster.tracer, trace_path,
                                    metrics=result.cluster.metrics)
                artifacts.append(str(trace_path))
    except Exception as e:                      # noqa: BLE001 — fleet runs
        # must survive any one scenario failing, whatever the cause
        return {"run_id": run_id, "ok": False,
                "error": f"{type(e).__name__}: {e}",
                "trace": traceback.format_exc()}
    return {"run_id": run_id, "ok": True, "row": row.to_dict(),
            "artifacts": artifacts}


def _to_outcome(raw: dict) -> RunOutcome:
    return RunOutcome(run_id=raw["run_id"], ok=raw["ok"],
                      row=raw.get("row"), error=raw.get("error"),
                      artifacts=tuple(raw.get("artifacts", ())))


def run_fleet(fleet: FleetSpec, jobs: int = 1,
              results_dir: Optional[str | Path] = None,
              progress: Optional[Callable[[RunOutcome], Any]] = None,
              timeout_s: Optional[float] = None) -> FleetResult:
    """Run every scenario in ``fleet``; outcomes keep fleet order.

    ``jobs=1`` runs inline (no pool, easiest to debug); ``jobs>1``
    fans out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
    ``results_dir`` enables per-run artifacts (``<dir>/<run_id>/
    metrics.json`` plus ``trace.json`` for tracing scenarios).
    ``progress`` is called with each :class:`RunOutcome` as it lands,
    in fleet order.  ``timeout_s`` bounds each run's wall clock; a
    run that fails, by running out of it or otherwise, becomes an
    error row and is not run again.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")
    if timeout_s is not None and not timeout_s > 0:  # or NaN
        raise ValueError(f"timeout_s must be positive (got {timeout_s})")
    if results_dir is not None:
        results_dir = str(Path(results_dir))
        Path(results_dir).mkdir(parents=True, exist_ok=True)
    tasks = [(run_id, spec.canonical_json(), results_dir, timeout_s)
             for run_id, spec in fleet.runs]
    result = FleetResult(fleet=fleet.name)
    if jobs == 1 or len(tasks) == 1:
        raws = (_execute_one(*task) for task in tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
        with pool:
            futures = [pool.submit(_execute_one, *task) for task in tasks]
            raws = (f.result() for f in futures)
            raws = list(raws)   # drain inside the pool context
    for raw in raws:
        outcome = _to_outcome(raw)
        result.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return result
