"""Validation errors must be actionable: name the field, list the fix."""

import pytest

from repro.config import (
    AppSpec, ClusterSpec, FaultSpec, ObsSpec, ResilienceSpec, ScenarioSpec,
    SpecError, build_cluster, build_fault_plan, build_runtime,
    loads_scenario, run_scenario,
)
from repro.registry import UnknownNameError


def err(fn, *args, **kw):
    with pytest.raises((SpecError, UnknownNameError, ValueError)) as exc:
        fn(*args, **kw)
    return str(exc.value)


# --------------------------------------------------------------- field errors
def test_unknown_top_level_key_names_allowed():
    msg = err(ScenarioSpec.from_dict, {"name": "x", "clutser": {}})
    assert "clutser" in msg and "cluster" in msg


def test_unknown_runtime_key():
    msg = err(ScenarioSpec.from_dict,
              {"name": "x", "runtime": {"mdoe": "hsm"}})
    assert "mdoe" in msg and "mode" in msg


def test_bad_n_hosts_message():
    msg = err(ClusterSpec, topology="ethernet", n_hosts=0)
    assert "cluster.n_hosts" in msg and "positive" in msg


def test_flow_kwargs_without_flow():
    msg = err(ScenarioSpec, name="x", flow_kwargs={"window_bytes": 1})
    assert "runtime.flow_kwargs" in msg and "runtime.flow" in msg


def test_barrier_parties_must_be_positive():
    msg = err(ScenarioSpec, name="x", barriers={0: 0})
    assert "barriers" in msg and "parties" in msg


def test_barrier_ids_coerce_from_toml_strings():
    spec = ScenarioSpec.from_dict(
        {"name": "x", "runtime": {"barriers": {"0": 3}}})
    assert spec.barriers == {0: 3}


def test_obs_export_requires_trace():
    msg = err(ObsSpec, chrome_trace="out.json")
    assert "obs.chrome_trace" in msg and "obs.trace" in msg.replace(
        "trace = true", "obs.trace")


def test_faults_events_and_random_exclusive():
    msg = err(FaultSpec,
              events=({"kind": "link-outage", "at": 0.0},),
              random={"seed": 1})
    assert "faults" in msg


def test_random_faults_require_seed():
    msg = err(FaultSpec, random={"n_hosts": 2})
    assert "seed" in msg


def test_fault_event_requires_kind():
    msg = err(FaultSpec, events=({"at": 0.0},))
    assert "kind" in msg


def test_unknown_fault_kind_lists_registered():
    msg = err(FaultSpec, events=({"kind": "gremlin", "at": 0.0},))
    assert "gremlin" in msg and "link-outage" in msg


def test_unknown_fault_field_lists_fields():
    msg = err(FaultSpec, events=(
        {"kind": "link-outage", "at": 0.0, "hots": 1},))
    assert "hots" in msg and "host" in msg


def test_bad_toml_syntax_wrapped():
    msg = err(loads_scenario, "name = [unclosed", format="toml")
    assert "TOML" in msg or "toml" in msg


# ------------------------------------------------------------ registry errors
def test_unknown_topology_lists_alternatives():
    msg = err(build_cluster, ClusterSpec(topology="tokenring"))
    assert "tokenring" in msg and "ethernet" in msg and "atm-lan" in msg


def test_unknown_driver_lists_alternatives():
    spec = ScenarioSpec(name="x", app=AppSpec(driver="quicksort"))
    msg = err(run_scenario, spec)
    assert "quicksort" in msg and "pingpong" in msg


def test_unknown_mode_lists_transports():
    spec = ScenarioSpec(
        name="x", cluster=ClusterSpec(topology="ethernet", n_hosts=2),
        mode="warp")
    msg = err(build_runtime, spec)
    assert "warp" in msg and "hsm" in msg and "nsm" in msg


def test_unknown_flow_policy_lists_alternatives():
    spec = ScenarioSpec(
        name="x", cluster=ClusterSpec(topology="ethernet", n_hosts=2),
        flow="rationing")
    msg = err(build_runtime, spec)
    assert "rationing" in msg and "window" in msg and "rate" in msg


def test_scenario_without_app_cannot_run():
    msg = err(run_scenario, ScenarioSpec(name="appless"))
    assert "appless" in msg and "app" in msg


# ------------------------------------------------------------- app parameters
@pytest.mark.parametrize("driver,accepted", [
    ("pingpong", "messages"), ("ring", "rounds"), ("alltoall", "rounds"),
    ("collective", "rounds"), ("stream", "frames"),
    ("matmul-resilient", "units")])
def test_unknown_app_param_names_driver_key_and_accepted(driver, accepted):
    spec = ScenarioSpec(
        name="x", cluster=ClusterSpec(topology="ethernet", n_hosts=2),
        app=AppSpec(driver=driver, params={"rounds_": 3}))
    with pytest.raises(SpecError) as exc:
        run_scenario(spec)
    msg = str(exc.value)
    assert repr(driver) in msg and "rounds_" in msg and accepted in msg


TABLE_DRIVERS = ("matmul-p4", "matmul-ncs", "jpeg-p4", "jpeg-ncs", "fft-p4",
                 "fft-ncs")


@pytest.mark.parametrize("params,key", [
    ({"n_nodes": 2}, "app.params.n_nodes"),
    ({"platform": "ethernet"}, "app.params.platform"),
    ({"bogus": 1}, "app.params.bogus"),
    ({"cluster": 3}, "app.params.cluster"),
    ({"p4_params": "x"}, "app.params.p4_params"),
    ({"image": [[0]]}, "app.params.image"),
    ({"trace": True}, "app.params.trace"),
    ({"seed": 7.5}, "app.params.seed must be int, got 7.5")],
    ids=str)
@pytest.mark.parametrize("driver", TABLE_DRIVERS)
def test_a_table_driver_names_the_param_it_cannot_take(driver, params, key):
    """The paper's table drivers used to pass [app.params] straight to
    the app: an unknown or ill-typed key was a TypeError or an
    AttributeError from inside it.  The node count and platform are
    the cluster's now (``cluster.n_hosts``, ``cluster.topology``), and
    tracing is ``obs.trace``: each is an unknown param."""
    msg = err(run_scenario, ScenarioSpec(
        name="x", app=AppSpec(driver=driver, params=params)))
    assert key in msg and repr(driver) in msg


P4_DRIVERS = ("matmul-p4", "jpeg-p4", "fft-p4")
#: (the key a refusal names, the spec fields that set it): a p4 program
#: runs single-threaded p4 processes, not the spec's NCS runtime
UNHONOURED = (
    ("faults", {"faults": FaultSpec(events=(
        {"kind": "host-crash", "at": 0.01, "duration": 0.01, "host": 1},))}),
    ("resilience", {"resilience": ResilienceSpec()}),
    ("runtime.collectives", {"collectives": "nic"}),
    ("runtime.barriers", {"barriers": {0: 2}}),
    ("runtime.mode", {"mode": "hsm"}),
    ("runtime.flow", {"flow": "window"}),
    ("runtime.error", {"error": "ack"}),
)


@pytest.mark.parametrize("driver", P4_DRIVERS)
def test_a_table_driver_refuses_what_it_cannot_honour(driver):
    """A ``matmul-p4`` cell with HSM and NIC collectives used to run on
    p4 and report ``correct``; ``runtime.flow`` was a bare ValueError
    (a traceback from ``python -m repro.run``).  Each is a SpecError
    naming its key."""
    for key, fields in UNHONOURED:
        spec = ScenarioSpec(name="x", app=AppSpec(driver), **fields)
        with pytest.raises(SpecError) as exc:
            run_scenario(spec)
        msg = str(exc.value)
        assert f"cannot honour {key} = " in msg and repr(driver) in msg


#: small problems, so each driver runs in well under a second
SMALL = {"matmul": {"n": 16}, "jpeg": {}, "fft": {"m": 16, "n_sets": 1}}


@pytest.mark.parametrize("driver", TABLE_DRIVERS)
def test_a_table_driver_runs_on_the_spec_built_cluster(driver):
    """A table driver used to build its own platform cluster and refuse
    a ``[cluster]`` table; an ``-ncs`` one also refused
    ``runtime.collectives``, ``runtime.barriers`` and (but for
    ``matmul-ncs``) ``runtime.flow`` and ``runtime.error``.  Now the
    app reads its node count and costs off the spec-built cluster, and
    an ``-ncs`` app runs on the spec-built runtime."""
    app, variant = driver.split("-")
    runtime = ({} if variant == "p4" else dict(
        mode="nsm", flow="window", error="ack", collectives="nic",
        barriers={0: 3}))
    result = run_scenario(ScenarioSpec(
        name="x", cluster=ClusterSpec(topology="atm-lan", n_hosts=3, seed=7),
        app=AppSpec(driver, SMALL[app]), **runtime))
    value = result.value
    assert value.correct
    assert (value.platform, value.n_nodes) == ("SUN-IPX", 2)
    assert result.cluster.n_hosts == 3
    if variant == "ncs":
        rt = result.runtime
        assert (rt.mode.value, rt.collectives) == ("nsm", "nic")
        assert rt.nodes[0].mps.barrier_parties == {0: 3}
    else:
        assert result.runtime is None


@pytest.mark.parametrize("topology", ["ethernet", "atm-lan"])
@pytest.mark.parametrize("driver", ["pingpong", "stream"])
def test_a_two_host_driver_on_one_host_names_n_hosts(driver, topology):
    """It used to end in a bare IndexError from ``t_create(1, ...)``."""
    spec = ScenarioSpec(
        name="x", cluster=ClusterSpec(topology=topology, n_hosts=1),
        app=AppSpec(driver=driver))
    with pytest.raises(SpecError, match=r"cluster.n_hosts >= 2, not 1"):
        run_scenario(spec)


def test_a_failed_run_carries_the_run_it_failed_in():
    """What a driver raises is re-raised as it was, with the run it
    failed in attached for a post-mortem of the cluster it built."""
    spec = ScenarioSpec(
        name="x", cluster=ClusterSpec(topology="atm-lan", n_hosts=1),
        app=AppSpec(driver="pingpong"))
    with pytest.raises(SpecError) as exc:
        run_scenario(spec)
    run = exc.value.scenario_run
    assert run.spec is spec and run.cluster.n_hosts == 1


#: the payload key the 1024-host scenario once used: alltoall reads nbytes
A2A_TYPO = """
name = "a2a-typo"
[cluster]
topology = "wan-ring"
[cluster.options]
n_sites = 4
hosts_per_site = 1
[runtime]
mode = "hsm"
[app]
driver = "alltoall"
[app.params]
payload_bytes = 64
"""


@pytest.mark.parametrize("shards", [1, 2])
def test_unknown_app_param_is_rejected_on_both_kernels(shards, tmp_path,
                                                       capsys):
    from repro.run import main
    path = tmp_path / "a2a_typo.toml"
    path.write_text(A2A_TYPO)
    spec = loads_scenario(A2A_TYPO, format="toml").replace(shards=shards)
    with pytest.raises(SpecError, match="payload_bytes"):
        run_scenario(spec)
    assert main(["--shards", str(shards), str(path)]) == 2
    err = capsys.readouterr().err
    assert "'alltoall'" in err and "payload_bytes" in err and "nbytes" in err


# ----------------------------------------------- NcsNode transport dispatch
def test_ncsnode_none_mode_raises_clear_error():
    from repro.core.api import NcsRuntime
    from repro.net import build_ethernet_cluster

    with pytest.raises(ValueError) as exc:
        NcsRuntime(build_ethernet_cluster(2), mode=None)
    msg = str(exc.value)
    assert "p4" in msg and "nsm" in msg and "hsm" in msg


def test_ncsnode_unknown_mode_string_raises_with_alternatives():
    from repro.core.api import NcsRuntime
    from repro.net import build_ethernet_cluster

    with pytest.raises(ValueError) as exc:
        NcsRuntime(build_ethernet_cluster(2), mode="quantum")
    msg = str(exc.value)
    assert "quantum" in msg and "hsm" in msg and "nsm" in msg and "p4" in msg


# ----------------------------------------------------- non-finite topology floats
# NaN passes a ``<= 0`` / ``< 0`` check: a NaN rate or delay used to hang
# the kernel (Ethernet) or end in a bare assertion deep inside it (ATM),
# and an infinite rate made zero-length frames.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _model(name):
    from repro.atm.adapter import Sba200Adapter
    from repro.atm.link import LinkSpec
    from repro.atm.switch import AtmSwitch
    from repro.ethernet import EthernetLan
    from repro.sim import Simulator
    return {
        "EthernetLan.bandwidth_bps":
            lambda v: EthernetLan(Simulator(), bandwidth_bps=v),
        "EthernetLan.prop_delay_s":
            lambda v: EthernetLan(Simulator(), prop_delay_s=v),
        "AtmSwitch.switching_latency_s":
            lambda v: AtmSwitch(Simulator(), "sw", switching_latency_s=v),
        "LinkSpec.bandwidth_bps": lambda v: LinkSpec("l", v),
        "LinkSpec.prop_delay_s": lambda v: LinkSpec("l", 1e6, v),
        "Sba200Adapter.i960_per_cell_s":
            lambda v: Sba200Adapter(Simulator(), "h", i960_per_cell_s=v),
        "Sba200Adapter.dma_bandwidth_bps":
            lambda v: Sba200Adapter(Simulator(), "h", dma_bandwidth_bps=v),
    }[name]


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("param", [
    "EthernetLan.bandwidth_bps", "EthernetLan.prop_delay_s",
    "AtmSwitch.switching_latency_s", "LinkSpec.bandwidth_bps",
    "LinkSpec.prop_delay_s", "Sba200Adapter.i960_per_cell_s",
    "Sba200Adapter.dma_bandwidth_bps"])
def test_models_reject_non_finite_parameters(param, value):
    with pytest.raises(ValueError) as exc:
        _model(param)(value)
    msg = str(exc.value)
    assert param.split(".")[1] in msg and repr(value) in msg


@pytest.mark.parametrize("topology,key", [
    ("ethernet", "bandwidth_bps"), ("atm-dual", "bandwidth_bps"),
    ("atm-lan", "switch_latency_s")])
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_non_finite_cluster_option_is_a_spec_error(topology, key, value):
    with pytest.raises(SpecError) as exc:
        ClusterSpec(topology=topology, n_hosts=2, options={key: value})
    assert f"cluster.options.{key}" in str(exc.value)
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize("key", ["tcp_params", "params"])
@pytest.mark.parametrize("topology,n_hosts,options", [
    ("ethernet", 2, {}), ("atm-lan", 2, {}),
    ("nynet", None, {"sites": [{"name": "a", "n_hosts": 2}]}),
    ("nynet-testbed", None, {})],
    ids=["ethernet", "atm-lan", "nynet", "nynet-testbed"])
def test_an_option_of_another_class_is_a_spec_error(topology, n_hosts,
                                                    options, key):
    """``tcp_params = 5`` once built and died in the first TCP send, and
    ``params = 5`` deep inside the build: an option annotated with a
    class takes only an instance of it.  ``nynet-testbed`` forwarded
    its options unread, so it built with ``tcp_params = 5``."""
    cluster = ClusterSpec(topology=topology, n_hosts=n_hosts,
                          options={**options, key: 5})
    with pytest.raises(SpecError, match=rf"^cluster\.options\.{key} must "
                       r"be a (TcpParams|HostParams), got 5$"):
        build_cluster(cluster)


@pytest.mark.parametrize("topology", ["platform-ethernet", "platform-nynet"])
def test_a_platform_checks_its_options(topology):
    """Both platforms forwarded their options unread, so ``tcp_params =
    5`` built; their host model is the platform's, not an option."""
    def build(**options):
        build_cluster(ClusterSpec(topology=topology, n_hosts=2,
                                  options=options))
    with pytest.raises(SpecError, match=r"^cluster\.options\.tcp_params "
                       r"must be a TcpParams, got 5$"):
        build(tcp_params=5)
    with pytest.raises(SpecError, match=r"^unknown key\(s\) "
                       r"cluster\.options\.params; allowed: "):
        build(params=5)


# ------------------------------------------------------- ill-typed table values
# Every row was accepted, or failed without naming its key, before the
# tables shared one reader: ``true`` counted as 1, NaN and infinity
# passed every ``> 0`` check, and a fault table failed deep inside the
# fault model.  Each must be a SpecError naming the dotted key.
NAN, INF = float("nan"), float("inf")
EVENT = {"kind": "host-crash", "at": 0.01, "duration": 0.01, "host": 1}
BASE_TABLES = {
    "cluster": {"topology": "ethernet", "n_hosts": 2},
    "runtime": {"error": "ack"},
    "resilience": {"suspect_after_s": 3.0, "dead_after_s": 5.0},
}


def _doc(table, key, value):
    """A runnable document with ``table.key = value`` and nothing else
    out of the ordinary."""
    doc = {"name": "x", **{k: dict(v) for k, v in BASE_TABLES.items()}}
    if table == "faults.events[0]":
        doc["faults"] = {"events": [{**EVENT, key: value}]}
    elif table == "faults.random":
        doc["faults"] = {"random": {"seed": 1, "n_hosts": 2, key: value}}
    elif table == "cluster.options":
        doc["cluster"] = {"topology": "wan-ring", "options": {key: value}}
    elif table == "runtime.supervision":
        doc["runtime"]["supervision"] = {key: value}
    elif table == "runtime.error_kwargs":
        doc["runtime"]["error_kwargs"] = {key: value}
    else:
        doc[table][key] = value
    return doc


def _read_and_build(doc):
    spec = ScenarioSpec.from_dict(doc)
    build_fault_plan(spec)
    build_runtime(spec)


@pytest.mark.parametrize("table,key,value,named", [
    ("cluster", "n_hosts", True, "cluster.n_hosts"),
    ("cluster", "seed", True, "cluster.seed"),
    ("runtime", "shards", True, "runtime.shards"),
    ("runtime", "barriers", {"0": True}, "runtime.barriers.0"),
    # a removed key is an unknown one, and the error lists the allowed
    ("runtime", "shard_hints", {"sw": 0},
     "unknown key(s) runtime.shard_hints; allowed: mode"),
    ("resilience", "heartbeat_interval_s", True,
     "resilience.heartbeat_interval_s"),
    ("resilience", "failure_threshold", True, "resilience.failure_threshold"),
    ("resilience", "reset_timeout_s", NAN, "resilience.reset_timeout_s"),
    ("resilience", "dead_after_s", INF, "resilience.dead_after_s"),
    ("runtime.supervision", "barrier_deadline_s", 60.0,
     "unknown key(s) runtime.supervision; allowed: mode"),
    ("faults.events[0]", "at", True, "faults.events[0].at"),
    ("faults.events[0]", "host", True, "faults.events[0].host"),
    ("faults.events[0]", "at", "0.1", "faults.events[0].at"),
    ("faults.events[0]", "at", -1, "faults.events[0].at"),
    ("faults.random", "seed", True, "faults.random.seed"),
    ("faults.random", "n_events", 2.5, "faults.random.n_events"),
    ("faults.random", "t_max", NAN, "faults.random.t_max"),
    ("faults.random", "t_max", INF, "faults.random.t_max"),
    ("faults.random", "t_max", -1.0, "faults.random.t_max"),
    ("faults.random", "n_events", -2, "faults.random.n_events"),
    ("faults.random", "kinds", ["link", "no-such-kind"],
     "faults.random.kinds"),
    ("cluster.options", "n_sites", True, "cluster.options.n_sites"),
    ("runtime.error_kwargs", "timeout_s", True,
     "runtime.error_kwargs.timeout_s"),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_an_ill_typed_value_is_a_spec_error_naming_its_key(table, key, value,
                                                           named):
    with pytest.raises(SpecError) as exc:
        _read_and_build(_doc(table, key, value))
    assert named in str(exc.value)


@pytest.mark.parametrize("table,key,value", [
    ("resilience", "heartbeat_interval_s", 1),
    ("faults.events[0]", "at", 0),
    ("faults.random", "t_max", 1),
    ("runtime.error_kwargs", "timeout_s", 1),
])
def test_an_integer_stands_for_a_float(table, key, value):
    _read_and_build(_doc(table, key, value))


# Each error policy takes exactly its constructor's knobs: the estimator's
# belong to ``adaptive`` alone, and its gains are RFC 6298's constants.
@pytest.mark.parametrize("error,key", [
    ("ack", "min_rto_s"),
    ("adaptive", "alpha"),
])
def test_an_error_kwarg_the_policy_does_not_take_is_a_spec_error(error, key):
    doc = _doc("runtime.error_kwargs", key, 0.01)
    doc["runtime"]["error"] = error
    with pytest.raises(SpecError) as exc:
        _read_and_build(doc)
    assert f"runtime.error_kwargs.{key}" in str(exc.value)


# ---------------------------------------------------------- removed surface
# The shard-recovery ladder, the worker-fault kinds and the fleet's
# retries are gone; a spec or command line that still names one is
# refused, never silently ignored.
@pytest.mark.parametrize("doc,named", [
    ({"runtime": {"shards": 2, "supervision": {}}},
     "unknown key(s) runtime.supervision"),
    ({"runtime": {"supervision": {"policy": "raise"}}},
     "unknown key(s) runtime.supervision"),
    ({"faults": {"events": [{"kind": "worker-crash", "shard": 1,
                             "window": 2}]}},
     "unknown fault kind 'worker-crash'"),
    ({"faults": {"events": [{"kind": "worker-stall", "shard": 0,
                             "window": 1, "stall_s": 1.0}]}},
     "unknown fault kind 'worker-stall'"),
], ids=["supervision-empty", "supervision-policy", "worker-crash",
        "worker-stall"])
def test_a_removed_table_or_fault_kind_is_refused(doc, named, tmp_path,
                                                  capsys):
    from repro.config import dumps_json
    from repro.run import main
    path = tmp_path / "removed.json"
    path.write_text(dumps_json({
        "name": "removed", "cluster": {"topology": "ethernet", "n_hosts": 2},
        "app": {"driver": "pingpong"}, **doc}))
    assert main([str(path)]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith(f"{path}: ")
    assert named in err_lines[0]


@pytest.mark.parametrize("event,named", [
    ({"kind": "no-such-kind", "at": 0.1},
     "faults.events[0].kind: unknown fault kind 'no-such-kind'"),
    ({"kind": ["link-outage"], "at": 0.1}, "faults.events[0].kind: "),
    ({"kind": "link-outage", "at": 0.1, "hots": 1},
     "unknown key(s) faults.events[0].hots"),
    ({"kind": "link-outage", "at": -1.0}, "faults.events[0].at: "),
], ids=["unknown-kind", "unhashable-kind", "unknown-field", "bad-field"])
def test_a_fault_event_is_checked_when_the_spec_is_read(event, named,
                                                        tmp_path, capsys):
    """``--print-spec`` printed a spec with ``kind = "no-such-kind"``
    and exited 0; a fleet loaded it and failed the run with an
    UnknownNameError that named no key."""
    from repro.config import dumps_json
    from repro.run import main
    with pytest.raises(SpecError) as exc:
        FaultSpec(events=(event,))
    assert str(exc.value).startswith(named)
    path = tmp_path / "faulty.json"
    path.write_text(dumps_json({
        "name": "faulty", "cluster": {"topology": "ethernet", "n_hosts": 2},
        "app": {"driver": "pingpong"}, "faults": {"events": [event]}}))
    assert main(["--print-spec", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--barrier-deadline", "5"), ("--recovery-policy", "raise"),
    ("--retries", "1"), ("--backoff", "0.5")])
def test_a_removed_flag_is_refused(flag, value, capsys):
    from repro.run import main
    with pytest.raises(SystemExit) as exc:
        main([flag, value, "s.toml"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
