"""Registry semantics: registration, lookup, duplicates, good errors."""

import sys

import pytest

from repro.registry import (
    APP_DRIVERS, DuplicateNameError, Registry, TOPOLOGIES, TRANSPORTS,
    UnknownNameError, all_registries,
)


def test_register_decorator_and_get():
    reg = Registry("widgets")

    @reg.register("alpha", help="first")
    def alpha():
        return "a"

    assert reg.get("alpha") is alpha
    assert reg.names() == ["alpha"]
    assert reg.help_for("alpha") == "first"


def test_register_direct_object():
    reg = Registry("widgets")
    obj = object()
    assert reg.register("thing", obj) is obj
    assert reg.get("thing") is obj


def test_unknown_name_lists_alternatives():
    reg = Registry("widgets")
    reg.register("alpha", object())
    reg.register("beta", object())
    with pytest.raises(UnknownNameError) as exc:
        reg.get("gamma")
    msg = str(exc.value)
    assert "gamma" in msg and "alpha" in msg and "beta" in msg
    assert "widgets" in msg


def test_unknown_name_is_both_value_and_key_error():
    reg = Registry("widgets")
    with pytest.raises(ValueError):
        reg.get("nope")
    with pytest.raises(KeyError):
        reg.get("nope")
    # the message must not be repr-quoted like a bare KeyError
    try:
        reg.get("nope")
    except UnknownNameError as e:
        assert not str(e).startswith("'")


def test_duplicate_registration_fails():
    reg = Registry("widgets")
    reg.register("alpha", object())
    with pytest.raises(DuplicateNameError) as exc:
        reg.register("alpha", object())
    assert "alpha" in str(exc.value)


def test_unregister_allows_replacement():
    reg = Registry("widgets")
    reg.register("alpha", 1)
    reg.unregister("alpha")
    reg.register("alpha", 2)
    assert reg.get("alpha") == 2


def test_stock_components_are_registered():
    from repro.config import ensure_components
    ensure_components()
    assert set(TRANSPORTS.names()) >= {"p4", "nsm", "hsm"}
    assert set(TOPOLOGIES.names()) >= {
        "ethernet", "atm-lan", "atm-dual", "nynet", "nynet-testbed",
        "wan-ring", "platform-ethernet", "platform-nynet"}
    assert set(APP_DRIVERS.names()) >= {
        "matmul-p4", "matmul-ncs", "jpeg-p4", "jpeg-ncs",
        "fft-p4", "fft-ncs", "pingpong", "ring", "alltoall", "stream"}
    from repro.registry import KERNELS
    assert set(KERNELS.names()) >= {"single", "sharded"}
    regs = all_registries()
    assert list(regs) == ["transports", "topologies", "flow-controls",
                          "error-controls", "app-drivers", "fault-kinds",
                          "collectives", "kernels"]


def test_third_party_transport_plugs_in():
    """A transport registered at runtime resolves by its string name."""
    from repro.config import ClusterSpec, ScenarioSpec, build_runtime
    from repro.core.mps.transports import SocketTransport

    @TRANSPORTS.register("test-nsm-clone", help="test-only")
    def _build(runtime, pid):
        return SocketTransport(runtime.cluster, pid)

    try:
        spec = ScenarioSpec(
            name="third-party",
            cluster=ClusterSpec(topology="ethernet", n_hosts=2),
            mode="test-nsm-clone")
        cluster, rt = build_runtime(spec)
        assert rt.nodes[0].transport.name == "socket"
    finally:
        TRANSPORTS.unregister("test-nsm-clone")


def test_stock_modules_are_imported_in_order_on_the_first_miss(
        tmp_path, monkeypatch):
    """A lookup imports stock modules until the name is there; listing
    imports the rest."""
    files = {
        "widgets_reg": 'from repro.registry import Registry\n'
                       'REG = Registry("widget", "widgets_a", "widgets_b")\n',
        "widgets_a": 'from widgets_reg import REG\nREG.register("a", 1)\n',
        "widgets_b": 'from widgets_reg import REG\nREG.register("b", 2)\n',
    }
    for name, text in files.items():
        (tmp_path / f"{name}.py").write_text(text)
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.syspath_prepend(str(tmp_path))
    from widgets_reg import REG
    assert "widgets_a" not in sys.modules
    assert REG.get("a") == 1 and "a" in REG
    assert "widgets_b" not in sys.modules
    assert REG.names() == ["a", "b"] and REG.get("b") == 2
    with pytest.raises(UnknownNameError, match="'a', 'b'"):
        REG.get("c")


def test_a_stock_module_that_fails_to_import_fails_every_lookup(
        tmp_path, monkeypatch):
    """A failed import stays on the list: the next lookup raises the
    same error, not an unknown name."""
    files = {
        "gadgets_reg": 'from repro.registry import Registry\n'
                       'REG = Registry("gadget", "gadgets_a", "gadgets_b")\n',
        "gadgets_a": 'from gadgets_reg import REG\nREG.register("a", 1)\n',
        "gadgets_b": 'raise ImportError("gadgets_b is broken")\n',
    }
    for name, text in files.items():
        (tmp_path / f"{name}.py").write_text(text)
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.syspath_prepend(str(tmp_path))
    from gadgets_reg import REG
    for _ in range(2):
        with pytest.raises(ImportError, match="gadgets_b is broken"):
            REG.get("b")
    (tmp_path / "gadgets_b.py").write_text(
        'from gadgets_reg import REG\nREG.register("b", 2)\n')
    monkeypatch.delitem(sys.modules, "gadgets_b", raising=False)
    assert REG.get("b") == 2 and REG.names() == ["a", "b"]
