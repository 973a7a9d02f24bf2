"""One harness for the parent-captured walls.

Every golden of simulated output in this repository is a wall (the
``KPIS_*.json`` fleet baselines aside, which ``repro.run --fleet
--check`` compares exactly).  A wall pins what the code of one named
parent commit produced for a set of cells, scripts or scenarios, so
that a change which moves the paper's mechanisms around on the
calendar can show that nothing a model observes moved with them.  Each
wall lives in a module next to this one (the seven perf-lock scenarios
share :mod:`.perf_lock`): its cells or scripts, a :class:`Wall` record,
its tests (which compare with :func:`assert_same`, floats included)
and its frozen oracle if it has one.  Its golden JSON sits beside it
and is never regenerated: a golden that must move is captured at a
named parent.  The layer's test module
(``tests/<layer>/test_<wall>.py``) imports the wall's tests, so pytest
collects them next to the layer they guard.

A tie that moved on purpose is not re-captured: the wall lists its cell
in :attr:`Wall.ties`, the generic comparison skips it
(:meth:`Wall.compared`), and a test named for the tie says what moved
and pins that nothing else did.

Capture what a checkout produces (with ``--full`` the long logs of a
wall that pins them by digest are written whole, to diff two checkouts
row by row)::

    PYTHONPATH=<checkout>/src python -m tests.walls capture WALL --out F
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).parent

#: the seven perf-lock scenarios: walls that share :mod:`.perf_lock`
PERF_LOCK = ("kernel_timeline", "mts_workload", "pingpong_ethernet",
             "ring_atm_hsm", "chaos_loss", "buffer_pipeline", "chrome_trace")

#: every wall, by the name ``python -m tests.walls capture`` takes, and
#: the module that holds it
WALLS = {name: name for name in (
    "cpu_quanta", "event_diet", "hop_arithmetic", "medium_arithmetic",
    "direct_signals", "transport_chain", "jpeg_payloads", "spec_forms",
    "table_cells", "chrome_export")} | dict.fromkeys(PERF_LOCK, "perf_lock")

#: what a change to the calendar is *for*: never compared
ODOMETERS = ("sim.events_processed", "sim.processes_started")


def wall(name: str) -> "Wall":
    """The registered wall ``name`` (a key of :data:`WALLS`): the
    ``WALL`` of the module of its name, else its entry in its module's
    ``WALLS``."""
    module = importlib.import_module(f"{__package__}.{WALLS[name]}")
    return module.WALL if WALLS[name] == name else module.WALLS[name]


@dataclass(frozen=True)
class Wall:
    """A golden and how it was made.

    ``capture()`` returns the document without its commit; a stamped
    wall's golden opens with ``{"commit": ...}``.  ``dump`` is the
    ``json.dumps`` arguments the golden's bytes were written with, so a
    capture of an unchanged model is byte for byte the golden.
    """

    name: str
    commit: str
    capture: Callable[[], dict]
    golden: str = ""
    dump: dict = field(default_factory=dict)
    stamped: bool = True
    capture_full: Optional[Callable[[], dict]] = None
    ties: tuple = ()

    @property
    def path(self) -> Path:
        return HERE / (self.golden or f"{self.name}_parent.json")

    def parent(self) -> dict:
        """The golden, parsed afresh (a test may take it apart)."""
        return json.loads(self.path.read_text())

    def compared(self, names) -> list:
        """``names`` without the wall's moved ties."""
        return [name for name in names if name not in self.ties]

    def document(self, full: bool = False) -> dict:
        doc = (self.capture_full if full else self.capture)()
        return {"commit": self.commit, **doc} if self.stamped else doc

    def dumps(self, doc: dict) -> str:
        return json.dumps(doc, **self.dump) + "\n"


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def pin_log(rows: list, every: int) -> dict:
    """A long log as its length, a digest of every row and ``every``
    evenly spaced rows in the clear, which say roughly where a
    difference starts."""
    return {"rows": len(rows), "sha256": digest(rows),
            "sample": rows[::max(1, len(rows) // every)]}


def strip_odometers(snapshot: dict) -> dict:
    """Pop :data:`ODOMETERS` off a metrics snapshot; returns them."""
    return {key: snapshot.pop(key) for key in ODOMETERS}


def behavior_snapshot(metrics) -> dict:
    """A registry's snapshot of what the model did: without the
    :data:`ODOMETERS`, and without the sharded kernel's ``kernel.*``
    stamps (shard count, lookahead, plan loads, fallbacks), which say
    which kernel ran and how it partitioned."""
    snapshot = metrics.snapshot()
    strip_odometers(snapshot)
    return {name: series for name, series in snapshot.items()
            if not name.startswith("kernel.")}


def assert_same(got: dict, want: dict, coarse=(), rows=(), ignore=(),
                where: str = "") -> None:
    """``got == want`` as JSON documents, floats exact (both sides go
    through JSON, so a tuple equals its list).

    The keys in ``coarse`` are compared first (a failure there explains
    the rest), then each log in ``rows`` row by row (a log pinned by
    :func:`pin_log` by its sample), so the message names the key or
    the first row that differs.  Keys in ``ignore`` are never compared.
    """
    prefix = f"{where}: " if where else ""
    got, want = ({k: v for k, v in json.loads(json.dumps(doc)).items()
                  if k not in ignore} for doc in (got, want))
    for key in coarse:
        assert got.get(key) == want.get(key), f"{prefix}{key}"
    for key in rows:
        mine, theirs, label = got.get(key), want.get(key), key
        if isinstance(theirs, dict) and isinstance(mine, dict):
            mine, theirs = mine.get("sample"), theirs["sample"]
            label = f"{key} sample"
        for i, (a, b) in enumerate(zip(mine or (), theirs)):
            assert a == b, f"{prefix}{label} row {i}"
    assert got == want, f"{prefix}document"


# ---------------------------------------------------------------------- taps
def burst_row(now, who, burst, channel) -> list:
    return [now, who, channel.name, burst.vc.vc_id, burst.msg_id,
            burst.n_cells, burst.corrupted]


def tap_bursts(sim, endpoint, who, log: list) -> None:
    """Log every ``receive_burst`` at an ATM adapter or switch as
    :func:`burst_row`, before it runs."""
    plain = endpoint.receive_burst

    def receive_burst(burst, channel):
        log.append(burst_row(sim.now, who, burst, channel))
        plain(burst, channel)
    endpoint.receive_burst = receive_burst


def tap_frames(sim, nic, log: list) -> None:
    """Log every frame an Ethernet NIC receives as ``[now, address,
    src, seq, payload_bytes]``, before it is handled."""
    plain = nic._receive

    def _receive(frame):
        log.append([sim.now, nic.address, frame.src, frame.seq,
                    frame.payload_bytes])
        plain(frame)
    nic._receive = _receive


def tap_slices(scheduler, log: list) -> None:
    """Log every slice an MTS scheduler runs as ``[instant, thread]``."""
    plain = scheduler._run_slice

    def _run_slice(thread):
        log.append([scheduler.sim.now, thread.name])
        return plain(thread)
    scheduler._run_slice = _run_slice
