"""Registered app drivers: the `[app]` table of a scenario file.

A driver is a callable ``driver(run) -> value`` where ``run`` is a
:class:`repro.config.ScenarioRun`.  Every driver runs on the spec-built
cluster: it asks ``run`` for the runtime (``run.runtime``: faults
armed, barriers registered) or, for a p4 program, the cluster
(``run.cluster``), and reads ``[app.params]`` against what it takes, so
a key it does not know is rejected.

The paper's three applications (``matmul``/``jpeg``/``fft`` in their
p4 and NCS variants) take that runtime plus their problem-size
parameters (:func:`_table_app`); the node count and compute costs come
off the cluster, so a Tables 1-3 cell is a ``[cluster]`` table on
``platform-ethernet`` or ``platform-nynet``
(:func:`repro.bench.tables.cell_spec`).  The micro-benchmark bodies
(``pingpong``, ``ring``, ``stream``, ...) create NCS threads on the
runtime themselves; they are byte-for-byte the hand-wired loops the
perf-lock goldens were captured from, which is what the
spec-equivalence tests in ``tests/config`` assert.
"""

from __future__ import annotations

from functools import partial

from ..config.schema import SCALARS, Field, SpecError, declaration, read
from ..config.spec import ScenarioSpec
from ..p4 import P4Runtime
from ..registry import APP_DRIVERS

__all__ = []  # everything is reached through the APP_DRIVERS registry


def _params(run, **defaults) -> dict:
    """``[app.params]`` over ``defaults``, each value of its default's
    type (:func:`_read_params`)."""
    return _read_params(run, [Field(key, type(default), default)
                              for key, default in defaults.items()])


def _app_params(run, fn) -> dict:
    """``[app.params]`` against the keywords of ``fn`` that take a
    plain value (``n``, ``seed``, ...); a keyword without a default is
    required.  The rest of its parameters (the runtime, ``image``)
    take Python objects, which a scenario cannot spell."""
    return _read_params(run, [f for f in declaration(fn)[0]
                              if f.hint in SCALARS])


def _read_params(run, fields) -> dict:
    """``[app.params]`` read against ``fields`` by the scenario reader
    (:func:`repro.config.schema.read`), defaults filled in and an int
    given for a float made a float.  A key the driver does not read, a
    required key left out and a value of another type are each a
    :class:`SpecError` naming the driver and ``app.params.<key>``, not
    a silently ignored setting or a traceback from inside the driver."""
    try:
        given = read(fields, run.params, "app.params")
    except SpecError as e:
        raise SpecError(f"app driver {run.spec.app.driver!r}: {e}") from None
    return {f.name: f.hint(given.get(f.name, f.default)) for f in fields}


def _two_hosts(run):
    """The runtime of a driver that talks from host 0 to host 1."""
    n = run.runtime.cluster.n_hosts
    if n < 2:
        raise SpecError(f"app driver {run.spec.app.driver!r} needs "
                        f"cluster.n_hosts >= 2, not {n}")
    return run.runtime


#: what a p4 program cannot honour: it runs single-threaded p4
#: processes, not the spec's NCS runtime
P4_REFUSES = ("mode", "flow", "flow_kwargs", "error", "error_kwargs",
              "collectives", "barriers", "faults", "resilience")


def _p4(run):
    """A p4 procgroup on the spec-built cluster.  Each :data:`P4_REFUSES`
    field set away from the bare spec's value is a :class:`SpecError`
    naming it, never a setting silently ignored."""
    spec, bare = run.spec, ScenarioSpec(run.spec.name)
    for key in P4_REFUSES:
        value = getattr(spec, key)
        if value == getattr(bare, key):
            continue
        if hasattr(value, "to_dict"):           # [faults], [resilience]
            value = value.to_dict()
        else:
            key = f"runtime.{key}"
        raise SpecError(
            f"app driver {spec.app.driver!r} runs single-threaded p4 "
            f"processes and cannot honour {key} = {value!r}; drop it "
            "from the scenario")
    return P4Runtime(run.cluster)


def _table_app(driver: str, run):
    """Run the Tables 1-3 app ``driver`` names (``run_<app>_<variant>``)
    on the spec-built runtime, its params read against the app's
    keywords.  A node count the app cannot split its problem over is a
    :class:`SpecError` naming ``cluster.n_hosts`` and the params the
    split depends on."""
    from .. import apps         # each ``run_*`` is imported when it runs
    from .common import ShapeError
    app, variant = driver.split("-")
    fn = getattr(apps, f"run_{app}_{variant}")
    params = _app_params(run, fn)
    rt = _p4(run) if variant == "p4" else run.runtime
    try:
        return fn(rt, **params)
    except ShapeError as e:
        named = "".join(f", app.params.{key} = {params[key]!r}"
                        for key in e.params)
        raise SpecError(
            f"app driver {driver!r} cannot run on cluster.n_hosts = "
            f"{rt.cluster.n_hosts}{named}: {e}") from None


for _driver, _help in (
        ("matmul-p4", "Fig 13 matrix multiply, single-threaded p4 processes"),
        ("matmul-ncs", "Fig 14 matrix multiply, multithreaded NCS"),
        ("jpeg-p4", "Fig 15 JPEG pipeline, single-threaded p4 processes"),
        ("jpeg-ncs", "Figs 16-18 JPEG pipeline, multithreaded NCS"),
        ("fft-p4", "Fig 19 distributed FFT, single-threaded p4 processes"),
        ("fft-ncs", "Figs 20-21 distributed FFT, multithreaded NCS")):
    APP_DRIVERS.register(_driver, partial(_table_app, _driver), help=_help)


@APP_DRIVERS.register(
    "pingpong",
    help="Two-host request/reply over the full MPS datapath")
def _pingpong(run):
    """The perf-lock ``pingpong_ethernet`` body, parameterized."""
    p = _params(run, messages=30, nbytes=2048, data_tag=1, reply_tag=2)
    messages, nbytes = p["messages"], p["nbytes"]
    data_tag, reply_tag = p["data_tag"], p["reply_tag"]
    rt = _two_hosts(run)
    replies = []

    def pong(ctx):
        for _ in range(messages):
            m = yield ctx.recv(tag=data_tag)
            yield ctx.send(m.from_thread, m.from_process,
                           ("pong", m.data[1]), nbytes, tag=reply_tag)

    def ping(ctx, peer):
        for i in range(messages):
            yield ctx.send(peer, 1, ("ping", i), nbytes, tag=data_tag)
            r = yield ctx.recv(tag=reply_tag)
            replies.append(r.data[1])

    peer = rt.t_create(1, pong, name="pong")
    rt.t_create(0, ping, (peer,), name="ping")
    makespan = rt.run()
    return {"makespan_s": makespan, "messages": messages,
            "replies": replies}


@APP_DRIVERS.register(
    "ring",
    help="All-hosts ring exchange + barrier (the chaos-suite workload)")
def _ring(run):
    """The perf-lock ``ring_atm_hsm``/``chaos_loss`` body, parameterized.

    Uses every host in the spec-built cluster.  The closing barrier can
    be declared in the scenario (``[runtime.barriers] 0 = n_hosts``);
    when it isn't, the driver registers it for all hosts itself, so a
    matrix sweep over ``cluster.n_hosts`` needs no per-cell barrier
    table."""
    p = _params(run, rounds=2, nbytes=4096, tag_base=10, barrier=0)
    rounds, nbytes = p["rounds"], p["nbytes"]
    tag_base, barrier_id = p["tag_base"], p["barrier"]
    rt = run.runtime
    n = run.cluster.n_hosts
    if barrier_id not in rt.nodes[0].mps.barrier_parties:
        rt.register_barrier(barrier_id, n)
    received = {pid: [] for pid in range(n)}

    def body(ctx, pid):
        nxt, prev = (pid + 1) % n, (pid - 1) % n
        for r in range(rounds):
            yield ctx.send(-1, nxt, (pid, r), nbytes, tag=r + tag_base)
            msg = yield ctx.recv(from_process=prev, tag=r + tag_base)
            received[pid].append(msg.data)
        yield ctx.barrier(barrier_id)

    for pid in range(n):
        rt.t_create(pid, body, (pid,), name=f"ring{pid}")
    makespan = rt.run()
    return {"makespan_s": makespan, "rounds": rounds,
            "received": {str(k): v for k, v in received.items()}}


@APP_DRIVERS.register(
    "alltoall",
    help="Every host exchanges with every peer each round (parallel load)")
def _alltoall(run):
    """Dense all-to-all rounds: every pid sends to every peer, then
    receives the ``n - 1`` messages addressed to it, then the round
    advances.  Unlike ``ring`` (a single token circulating), every host
    has independent work in flight at all times — the workload the
    sharded kernel's scaling benchmark needs, since a sequential token
    ring leaves all but one shard idle.

    Returns per-pid *counts* rather than message lists so the result
    merges cleanly across shards (a pid's count stays 0 where it does not
    run, and the owner's count wins under the numeric-max merge rule)."""
    p = _params(run, rounds=2, nbytes=1024, tag_base=100, barrier=0)
    rounds, nbytes = p["rounds"], p["nbytes"]
    tag_base, barrier_id = p["tag_base"], p["barrier"]
    rt = run.runtime
    n = run.cluster.n_hosts
    if barrier_id not in rt.nodes[0].mps.barrier_parties:
        rt.register_barrier(barrier_id, n)
    received = {pid: 0 for pid in range(n)}

    def body(ctx, pid):
        for r in range(rounds):
            for peer in range(n):
                if peer != pid:
                    yield ctx.send(-1, peer, (pid, r), nbytes,
                                   tag=r + tag_base)
            for _ in range(n - 1):
                yield ctx.recv(tag=r + tag_base)
                received[pid] += 1
        yield ctx.barrier(barrier_id)

    for pid in range(n):
        rt.t_create(pid, body, (pid,), name=f"a2a{pid}")
    makespan = rt.run()
    return {"makespan_s": makespan, "rounds": rounds,
            "received": {str(k): v for k, v in received.items()}}


@APP_DRIVERS.register(
    "collective",
    help="Barrier + broadcast + reduce rounds (the collectives workload)")
def _collective(run):
    """One thread per host runs ``rounds`` of barrier -> bcast ->
    reduce over every host, exercising whichever strategy the scenario
    selected (``runtime.collectives = "host"`` or ``"nic"``).

    Round ``r``: all threads hit the barrier, host 0 broadcasts
    ``("payload", r)`` to everyone (tag ``tag_base + r``), then all
    hosts reduce their ``pid + 1`` contributions back to host 0 with
    ``+`` — commutative, so host arrival-order and NIC sorted-order
    folds agree and the correctness flags are strategy-independent."""
    from ..core.mps import group
    p = _params(run, rounds=2, nbytes=1024, tag_base=20, barrier=0)
    rounds, nbytes = p["rounds"], p["nbytes"]
    tag_base, barrier_id = p["tag_base"], p["barrier"]
    rt = run.runtime
    n = run.cluster.n_hosts
    if barrier_id not in rt.nodes[0].mps.barrier_parties:
        rt.register_barrier(barrier_id, n)
    expected_sum = n * (n + 1) // 2
    got = {pid: [] for pid in range(1, n)}
    sums: list = []

    def body(ctx, pid):
        # ``members`` is bound after every t_create, before rt.run()
        root = members[0]
        for r in range(rounds):
            yield ctx.barrier(barrier_id)
            if pid == 0:
                yield from group.bcast(ctx, members, ("payload", r),
                                       nbytes, tag=tag_base + r)
            else:
                msg = yield ctx.recv(from_process=0, tag=tag_base + r)
                got[pid].append(msg.data)
            total = yield from group.reduce(ctx, root, members,
                                            pid + 1, 64, lambda a, b: a + b)
            if pid == 0:
                sums.append(total)

    members = tuple((rt.t_create(pid, body, (pid,), name=f"coll{pid}"), pid)
                    for pid in range(n))
    makespan = rt.run()
    bcast_ok = all(got[pid] == [("payload", r) for r in range(rounds)]
                   for pid in range(1, n))
    reduce_ok = sums == [expected_sum] * rounds
    return {"makespan_s": makespan, "rounds": rounds, "n_hosts": n,
            "bcast_ok": bcast_ok, "reduce_ok": reduce_ok,
            "collectives": run.spec.collectives}


@APP_DRIVERS.register(
    "matmul-resilient",
    help="Matmul with failure detection and work reassignment")
def _matmul_resilient(run):
    """Coordinator/worker matmul that survives worker death: requires a
    [resilience] table; mode/faults/topology come from the spec (use
    ``hsm-failover`` on ``atm-dual`` for the degradation scenarios)."""
    from .resilient import run_resilient_matmul
    return run_resilient_matmul(run.runtime,
                                **_app_params(run, run_resilient_matmul))


@APP_DRIVERS.register(
    "stream",
    help="One-way producer/consumer stream (the Fig 5 QoS workload)")
def _stream(run):
    """Host 0 streams ``frames`` messages of ``nbytes`` to host 1, which
    takes ``consumer_sleep`` seconds per frame — the mismatch that flow
    control (``runtime.flow``) exists to absorb."""
    p = _params(run, frames=30, nbytes=32 * 1024, consumer_sleep=0.0, tag=7)
    frames, nbytes = p["frames"], p["nbytes"]
    consumer_sleep, tag = p["consumer_sleep"], p["tag"]
    rt = _two_hosts(run)
    latencies = []

    def consumer(ctx):
        for _ in range(frames):
            m = yield ctx.recv(tag=tag)
            latencies.append(rt.cluster.sim.now - m.data[1])
            if consumer_sleep:
                yield ctx.sleep(consumer_sleep)

    def producer(ctx, peer):
        for i in range(frames):
            yield ctx.send(peer, 1, (i, rt.cluster.sim.now), nbytes, tag=tag)

    peer = rt.t_create(1, consumer, name="consumer")
    rt.t_create(0, producer, (peer,), name="producer")
    makespan = rt.run()
    return {"makespan_s": makespan, "frames": frames,
            "mean_latency_s": sum(latencies) / len(latencies),
            "max_latency_s": max(latencies)}
