"""The host CPU model against the per-quantum loop it replaced.

``Host.cpu_busy`` used to cut every long COMPUTE into one
request/timeout/release round per quantum; now a compute holds the CPU on
one timer and is cut short only when somebody asks.  Everything a model
can observe must be where it was: ``cpu_quanta_parent.json`` holds what
the per-quantum loop (commit ``cce7575``) produced for the seeded
contention scripts below — every grant and completion instant, the host
timeline under a tracer, event counts — and the tests compare floats
with ``==``.

Re-capture (only ever at that commit, with this file copied next to it)::

    PYTHONPATH=<parent>/src python tests/hosts/test_cpu_quanta.py OUT.json

One thing is deliberately not captured: a contender whose wake-up was put
on the calendar *before* the quantum it lands on began and that asks for
the CPU at exactly that quantum's end.  The loop served it at that very
boundary or the next one depending on calendar sequence numbers; the rule
now is that asking at the instant of a boundary is asking too late for it
(``test_tie_rule``).  The scripts' exact-boundary arrivals are all put on
the calendar from inside the quantum, where both agree.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.hosts import Host
from repro.sim import Activity, Event, Simulator, Tracer

PARENT = Path(__file__).with_name("cpu_quanta_parent.json")

RANDOM_SEEDS = (11, 12, 13, 14, 15, 16)
TIE_SEEDS = (21, 22, 23, 24)
TRACED_SEEDS = (11, 21)


def boundaries(start, seconds, quantum, n):
    """The first ``n`` quantum boundaries of a compute granted at ``start``."""
    out, t, left = [], start, seconds
    while left > 0 and len(out) < n:
        step = min(quantum, left)
        t += step
        left -= step
        out.append(t)
    return out


# ------------------------------------------------------------------ scripts
def random_script(seed):
    """1-3 computing processes, bursts of short and long OVERHEAD /
    COMMUNICATE work arriving at random, freeze/unfreeze windows."""
    rng = random.Random(seed)
    q = rng.choice((1e-3, 1e-3, 5e-4, 2.5e-3))
    computes = []
    for i in range(rng.randint(1, 3)):
        jobs = [(rng.uniform(0.5, 40.0) * q, rng.uniform(0.0, 2.0) * q)
                for _ in range(rng.randint(1, 3))]
        computes.append({"start": 0.0 if i == 0 else rng.uniform(0, 5 * q),
                         "jobs": jobs})
    horizon = 60 * q
    bursts = []
    for _ in range(rng.randint(5, 40)):
        dur = (rng.uniform(5e-6, 0.8 * q) if rng.random() < 0.8
               else rng.uniform(q, 3 * q))
        bursts.append({"at": rng.uniform(0, horizon), "dur": dur,
                       "activity": rng.choice(("overhead", "communicate"))})
    freezes = [{"at": rng.uniform(0, horizon), "len": rng.uniform(0.1, 6) * q}
               for _ in range(rng.randint(0, 2))]
    return {"quantum": q, "computes": computes, "bursts": bursts,
            "freezes": freezes, "ties": []}


def tie_script(seed):
    """One computing process running jobs back to back on an otherwise
    idle CPU; into each job one contender — a CPU burst or a freeze —
    lands at exactly the job's k-th quantum boundary, from a wake-up
    scheduled ``lead`` of a quantum into the quantum before it."""
    rng = random.Random(seed)
    q = rng.choice((1e-3, 5e-4))
    jobs, ties = [], []
    for _ in range(rng.randint(3, 6)):
        n_quanta = rng.uniform(6.0, 40.0)
        jobs.append((n_quanta * q, rng.uniform(3.0, 4.0) * q))
        ties.append({"k": rng.randint(1, int(n_quanta) - 2),
                     "lead": rng.uniform(0.05, 0.95),
                     "kind": rng.choice(("cpu", "cpu", "freeze")),
                     "dur": rng.uniform(5e-6, 2.5 * q)})
    return {"quantum": q, "computes": [{"start": 0.0, "jobs": jobs}],
            "bursts": [], "freezes": [], "ties": ties}


def run_script(script, traced=False):
    """Play a script on one host.  Returns per-consumer grant instants
    (single-slice consumers; a compute's own grants are an implementation
    detail), per-consumer completion instants, and — traced — the host
    timeline."""
    sim = Simulator()
    tracer = Tracer(sim, enabled=traced)
    host = Host(sim, "h0", tracer=tracer)
    host.compute_quantum = q = script["quantum"]
    grants, done = {}, {}

    # the two ways onto the CPU: a free one is taken on the spot
    # (``try_acquire``), a busy one is queued for (``request``)
    plain_request = host.cpu_res.request
    plain_try_acquire = host.cpu_res.try_acquire

    def logged_request():
        ev = plain_request()
        who = sim.active_process.name
        if not who.startswith("compute"):
            ev.callbacks.append(
                lambda _e: grants.setdefault(who, []).append(sim.now))
        return ev

    def logged_try_acquire():
        got = plain_try_acquire()
        who = sim.active_process.name
        if got and not who.startswith("compute"):
            grants.setdefault(who, []).append(sim.now)
        return got

    host.cpu_res.request = logged_request
    host.cpu_res.try_acquire = logged_try_acquire
    job_started = [Event(sim) for _ in script["ties"]]

    def computer(name, spec):
        yield sim.timeout(spec["start"])
        for j, (seconds, gap) in enumerate(spec["jobs"]):
            if script["ties"]:
                job_started[j].succeed(seconds)
            yield from host.cpu_busy(seconds, Activity.COMPUTE, name)
            done.setdefault(name, []).append(sim.now)
            yield sim.timeout(gap)

    def burst(name, spec):
        yield sim.timeout(spec["at"])
        yield from host.cpu_busy(spec["dur"], Activity(spec["activity"]), name)
        done.setdefault(name, []).append(sim.now)

    def tie(name, spec, started):
        seconds = yield started
        edge = boundaries(sim.now, seconds, q, spec["k"])
        inside = edge[-2] if spec["k"] > 1 else sim.now
        yield sim.timeout(inside + spec["lead"] * q - sim.now)
        assert inside < sim.now < edge[-1]
        at_boundary = Event(sim)
        at_boundary._value = None
        sim.schedule_at(at_boundary, edge[-1])
        yield at_boundary
        if spec["kind"] == "freeze":
            host.freeze()
            yield sim.timeout(spec["dur"])
            host.unfreeze()
        else:
            yield from host.cpu_busy(spec["dur"], Activity.OVERHEAD, name)
        done.setdefault(name, []).append(sim.now)

    for i, spec in enumerate(script["computes"]):
        sim.process(computer(f"compute{i}", spec), name=f"compute{i}")
    for i, spec in enumerate(script["bursts"]):
        sim.process(burst(f"burst{i}", spec), name=f"burst{i}")
    for i, spec in enumerate(script["ties"]):
        sim.process(tie(f"tie{i}", spec, job_started[i]), name=f"tie{i}")
    for spec in script["freezes"]:
        sim.call_in(spec["at"], host.freeze)
        sim.call_in(spec["at"] + spec["len"], host.unfreeze)
    sim.run()
    out = {"grants": grants, "done": done, "end": sim.now}
    if traced:
        out["intervals"] = [list(row)
                            for row in tracer.timeline("h0").gantt_row()]
    return out


def run_long_compute(seconds, contended):
    """One long compute from t=0; ``contended``, a 2 kHz stream of 50 us
    OVERHEAD charges preempts it at every single quantum boundary."""
    sim = Simulator()
    host = Host(sim, "h0")
    end = []

    def computer():
        yield from host.cpu_busy(seconds)
        end.append(sim.now)

    def contender():
        while not end:
            yield sim.timeout(0.5e-3)
            yield from host.cpu_busy(50e-6, Activity.OVERHEAD)

    sim.process(computer())
    if contended:
        sim.process(contender())
    sim.run()
    return {"end": end[0],
            "events": int(sim.metrics.value("sim.events_processed"))}


def capture():
    return {
        "commit": "cce7575",
        "random": {str(s): run_script(random_script(s)) for s in RANDOM_SEEDS},
        "tie": {str(s): run_script(tie_script(s)) for s in TIE_SEEDS},
        "traced": {str(s): run_script(
            (random_script if s in RANDOM_SEEDS else tie_script)(s),
            traced=True) for s in TRACED_SEEDS},
        "uncontended_10s": run_long_compute(10.0, contended=False),
        "contended_1s": run_long_compute(1.0, contended=True),
    }


# -------------------------------------------------------------------- tests
def parent():
    return json.loads(PARENT.read_text())


class TestAgainstThePerQuantumLoop:
    def test_random_contention_scripts(self):
        for seed, want in parent()["random"].items():
            assert run_script(random_script(int(seed))) == want, seed

    def test_exact_boundary_arrivals(self):
        for seed, want in parent()["tie"].items():
            assert run_script(tie_script(int(seed))) == want, seed

    def test_scripts_exercise_what_they_claim(self):
        """Guards the generator, not the host: the scripts do preempt and
        freeze, and every exact-boundary burst was served exactly one
        quantum after the boundary it arrived at."""
        doc = parent()
        assert any(s["freezes"] for s in map(random_script, RANDOM_SEEDS))
        assert sum(len(r["grants"]) for r in doc["random"].values()) > 100
        served = 0
        for seed in TIE_SEEDS:
            script = tie_script(seed)
            got = doc["tie"][str(seed)]
            start = 0.0
            for j, (seconds, gap) in enumerate(script["computes"][0]["jobs"]):
                spec = script["ties"][j]
                if spec["kind"] == "cpu":
                    edge = boundaries(start, seconds, script["quantum"],
                                      spec["k"] + 1)
                    assert got["grants"][f"tie{j}"] == [edge[-1]]
                    served += 1
                start = got["done"]["compute0"][j] + gap
        assert served >= 6

    def test_timeline_keeps_one_interval_per_quantum(self):
        for seed, want in parent()["traced"].items():
            seed = int(seed)
            script = (random_script if seed in RANDOM_SEEDS
                      else tie_script)(seed)
            got = run_script(script, traced=True)
            assert got["intervals"] == want["intervals"], seed
            assert got == want, seed
            # traced or not, the model does the same thing
            plain = run_script(script)
            assert {k: got[k] for k in plain} == plain


class TestCost:
    def test_uncontended_compute_is_a_handful_of_events(self):
        want = parent()["uncontended_10s"]
        got = run_long_compute(10.0, contended=False)
        assert want["events"] > 20_000
        assert got["events"] < 64
        assert got["end"] == want["end"]

    def test_preempted_at_every_boundary_costs_no_more_events(self):
        want = parent()["contended_1s"]
        got = run_long_compute(1.0, contended=True)
        assert got["end"] == want["end"]
        assert got["events"] <= want["events"]


class TestFreeze:
    def test_freeze_mid_hold_stalls_at_the_next_boundary(self):
        sim = Simulator()
        host = Host(sim, "h0")
        q = host.compute_quantum
        edge = boundaries(0.0, 10 * q, q, 10)
        seen = {}

        def computer():
            yield from host.cpu_busy(10 * q)
            seen["end"] = sim.now

        def probe():
            seen["holder"] = host.cpu_res.in_use
            seen["frozen"] = host.frozen

        sim.process(computer())
        sim.call_in(3.5 * q, host.freeze)
        sim.call_in(5.0 * q, probe)
        sim.call_in(7.25 * q, host.unfreeze)
        sim.run(until=3.6 * q)
        # the timer that was set past boundary 4 has been pulled in to it
        assert sim.peek() == edge[3]
        sim.run()
        assert seen["holder"] == 0 and seen["frozen"]
        # stalled at boundary 4 with six quanta owed, resumed at 7.25 q
        left = 10 * q
        for _ in range(4):
            left -= min(q, left)
        assert seen["end"] == boundaries(7.25 * q, left, q, 7)[-1]

    def test_freeze_and_thaw_inside_one_quantum_change_nothing(self):
        def end(freeze):
            sim = Simulator()
            host = Host(sim, "h0")
            out = []

            def computer():
                yield from host.cpu_busy(0.0205)
                out.append(sim.now)

            sim.process(computer())
            if freeze:
                sim.call_in(0.0101, host.freeze)
                sim.call_in(0.0102, host.unfreeze)
            sim.run()
            return out[0]

        assert end(freeze=True) == end(freeze=False)


class TestSupersededTimer:
    def test_old_timer_resumes_nobody_and_is_invisible(self):
        sim = Simulator()
        host = Host(sim, "h0")
        q = host.compute_quantum
        log = []

        def computer():
            yield from host.cpu_busy(100 * q)
            log.append(("compute-done", sim.now))

        def contender():
            yield sim.timeout(20.5 * q)
            yield from host.cpu_busy(0.1 * q, Activity.OVERHEAD)
            log.append(("burst-done", sim.now))

        proc = sim.process(computer(), name="computer")
        sim.process(contender())
        sim.run(until=20.4 * q)
        # undisturbed so far: timers 1, 2, 4, 8, 16 quanta long
        far = boundaries(0.0, 100 * q, q, 31)[-1]
        assert sim.peek() == 20.5 * q
        assert sorted(t for t, _, _ in sim._heap) == [20.5 * q, far]
        sim.run(until=20.6 * q)
        # cut to boundary 21; the timer at boundary 31 is dead
        cut = boundaries(0.0, 100 * q, q, 21)[-1]
        assert sim.peek() == cut
        sim.run(until=29 * q)
        assert log == [("burst-done", cut + 0.1 * q)]
        # back on the CPU since then, the compute sleeps on fresh timers
        # (1, 2, 4 quanta; the 8-quanta one is pending): nothing live is
        # due at the dead timer's instant, and the calendar agrees
        assert proc.is_alive
        assert sim.peek() == boundaries(cut + 0.1 * q, 79 * q, q, 15)[-1] > far
        before = sim.metrics.value("sim.events_processed")
        sim.run(until=far + 0.5 * q)
        assert sim.metrics.value("sim.events_processed") == before
        assert sim.now == far + 0.5 * q
        sim.run()
        assert log[-1][0] == "compute-done"
        assert sim.now == log[-1][1]


def test_tie_rule():
    """Asking for the CPU at the very instant of a quantum boundary is
    asking too late for that boundary — whether or not a timer of the
    hold happens to fire there, and whichever of the two the calendar
    runs first."""
    for k in (1, 2, 3, 4, 7, 8):  # 1, 3, 7: the hold's own timers
        sim = Simulator()
        host = Host(sim, "h0")
        q = host.compute_quantum
        edge = boundaries(0.0, 12 * q, q, 12)
        granted = []

        def computer():
            yield from host.cpu_busy(12 * q)

        def contender():
            # on the calendar since t=0: ahead of anything the hold
            # schedules later
            yield sim.at(edge[k - 1])
            req = host.cpu_res.request()
            yield req
            granted.append(sim.now)
            host.cpu_res.release()

        sim.process(contender())
        sim.process(computer())
        sim.run()
        assert granted == [edge[k]], k


class TestComputeQuantumIsValidated:
    def test_rejects_what_would_hang(self):
        host = Host(Simulator(), "h7")
        for bad in (0, 0.0, -1e-3, float("nan"), float("inf"), "1ms"):
            with pytest.raises(ValueError, match="h7.*compute_quantum"):
                host.compute_quantum = bad
        assert host.compute_quantum == 1e-3

    def test_accepts_none_and_positive(self):
        host = Host(Simulator(), "h0")
        host.compute_quantum = None
        assert host.compute_quantum is None
        host.compute_quantum = 2.5e-3
        assert host.compute_quantum == 2.5e-3


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(
        json.dumps(capture(), sort_keys=True, separators=(",", ":")) + "\n")
