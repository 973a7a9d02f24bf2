"""The host CPU model's wall: every grant where the per-quantum loop
put it.

``Host.cpu_busy`` used to cut every long COMPUTE into one
request/timeout/release round per quantum; now a compute holds the CPU on
one timer and is cut short only when somebody asks.  Everything a model
can observe must be where it was: ``cpu_quanta_parent.json`` holds what
the per-quantum loop (commit ``cce7575``) produced for the seeded
contention scripts below — every grant and completion instant, the host
timeline under a tracer, event counts.

Provenance: the golden is frozen.  It cannot be re-captured at
``cce7575`` any more: :func:`run_script` taps ``Resource.try_acquire``,
which that commit lacks.  Today's code does not reproduce it either,
on purpose: the event counts are what the change cut.

One thing is deliberately not captured: a contender whose wake-up was put
on the calendar *before* the quantum it lands on began and that asks for
the CPU at exactly that quantum's end.  The loop served it at that very
boundary or the next one depending on calendar sequence numbers; the rule
now is that asking at the instant of a boundary is asking too late for it
(``tests/hosts/test_cpu_quanta.py::test_tie_rule``).  The scripts'
exact-boundary arrivals are all put on the calendar from inside the
quantum, where both agree.
"""

import random

from repro.hosts import Host
from repro.sim import Activity, Event, Simulator, Tracer

from .harness import Wall, assert_same

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


WALL = Wall("cpu_quanta", "cce7575", lambda: {
    "random": {str(s): run_script(random_script(s)) for s in RANDOM_SEEDS},
    "tie": {str(s): run_script(tie_script(s)) for s in TIE_SEEDS},
    "traced": {str(s): run_script(
        (random_script if s in RANDOM_SEEDS else tie_script)(s),
        traced=True) for s in TRACED_SEEDS},
    "uncontended_10s": run_long_compute(10.0, contended=False),
    "contended_1s": run_long_compute(1.0, contended=True)},
    dump={"sort_keys": True, "separators": (",", ":")})


# -------------------------------------------------------------------- tests
class TestAgainstThePerQuantumLoop:
    def test_random_contention_scripts(self):
        for seed, want in WALL.parent()["random"].items():
            assert_same(run_script(random_script(int(seed))), want,
                        where=seed)

    def test_exact_boundary_arrivals(self):
        for seed, want in WALL.parent()["tie"].items():
            assert_same(run_script(tie_script(int(seed))), want,
                        where=seed)

    def test_scripts_exercise_what_they_claim(self):
        """Guards the generator, not the host: the scripts do preempt and
        freeze, and every exact-boundary burst was served exactly one
        quantum after the boundary it arrived at."""
        doc = WALL.parent()
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
        for seed, want in WALL.parent()["traced"].items():
            seed = int(seed)
            script = (random_script if seed in RANDOM_SEEDS
                      else tie_script)(seed)
            got = run_script(script, traced=True)
            assert_same(got, want, rows=("intervals",), where=seed)
            # traced or not, the model does the same thing
            plain = run_script(script)
            assert {k: got[k] for k in plain} == plain


class TestCost:
    def test_uncontended_compute_is_a_handful_of_events(self):
        want = WALL.parent()["uncontended_10s"]
        got = run_long_compute(10.0, contended=False)
        assert want["events"] > 20_000
        assert got["events"] < 64
        assert got["end"] == want["end"]

    def test_preempted_at_every_boundary_costs_no_more_events(self):
        want = WALL.parent()["contended_1s"]
        got = run_long_compute(1.0, contended=True)
        assert got["end"] == want["end"]
        assert got["events"] <= want["events"]
