"""FleetSpec loading: scenario directories and matrix expansion."""

import pytest

from repro.config import ScenarioSpec, SpecError
from repro.config.fleet import FleetSpec, MatrixAxis, MatrixSpec, load_fleet

BASE = {
    "name": "base",
    "cluster": {"topology": "ethernet", "n_hosts": 2},
    "app": {"driver": "pingpong", "params": {"messages": 2, "nbytes": 64}},
}


class TestMatrixExpansion:
    def test_cross_product_in_declaration_order(self):
        m = MatrixSpec(name="m", base=BASE, axes=(
            MatrixAxis("cluster.n_hosts", (2, 3)),
            MatrixAxis("runtime.mode", ("nsm", "hsm")),
        ))
        runs = m.expand()
        assert [rid for rid, _ in runs] == [
            "n_hosts=2,mode=nsm", "n_hosts=2,mode=hsm",
            "n_hosts=3,mode=nsm", "n_hosts=3,mode=hsm"]
        for rid, spec in runs:
            assert spec.name == f"m/{rid}"

    def test_cells_are_real_specs_with_distinct_digests(self):
        m = MatrixSpec(name="m", base=BASE, axes=(
            MatrixAxis("cluster.seed", (1, 2, 3)),))
        runs = m.expand()
        digests = {spec.digest() for _, spec in runs}
        assert len(digests) == 3
        for _, spec in runs:
            assert isinstance(spec, ScenarioSpec)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_base_document_is_not_mutated(self):
        base = {k: (dict(v) if isinstance(v, dict) else v)
                for k, v in BASE.items()}
        m = MatrixSpec(name="m", base=base, axes=(
            MatrixAxis("cluster.n_hosts", (2, 3)),))
        m.expand()
        assert base["cluster"]["n_hosts"] == 2

    def test_table_values_need_tags(self):
        with pytest.raises(SpecError, match="tags"):
            MatrixSpec(name="m", base=BASE, axes=(
                MatrixAxis("faults", ({"random": {"seed": 1}},)),)).expand()

    def test_tagged_table_axis_and_empty_clear(self):
        m = MatrixSpec(name="m", base=BASE, axes=(
            MatrixAxis("faults",
                       ({}, {"random": {"seed": 9, "n_hosts": 2}}),
                       tags=("clean", "loss")),))
        runs = dict(m.expand())
        assert set(runs) == {"faults=clean", "faults=loss"}
        assert runs["faults=clean"].faults is None or \
            not runs["faults=clean"].faults.to_dict()
        assert runs["faults=loss"].faults.random["seed"] == 9

    def test_invalid_cell_names_the_cell(self):
        m = MatrixSpec(name="m", base=BASE, axes=(
            MatrixAxis("cluster.n_hosts", (0,)),))
        with pytest.raises(SpecError, match="n_hosts=0"):
            m.expand()

    def test_tag_count_mismatch(self):
        with pytest.raises(SpecError, match="tags"):
            MatrixAxis("x", (1, 2), tags=("only-one",))

    def test_duplicate_axis_keys_rejected(self):
        with pytest.raises(SpecError, match="distinct"):
            MatrixSpec(name="m", base=BASE, axes=(
                MatrixAxis("cluster.seed", (1,)),
                MatrixAxis("faults.random.seed", (2,))))


class TestLoadFleet:
    def test_directory_fleet_sorted_by_stem(self, tmp_path):
        for name in ("bravo", "alpha"):
            (tmp_path / f"{name}.toml").write_text(
                f'name = "{name}"\n[app]\ndriver = "pingpong"\n'
                '[app.params]\nmessages = 1\n')
        fleet = load_fleet(tmp_path)
        assert fleet.name == tmp_path.name
        assert fleet.run_ids() == ("alpha", "bravo")

    def test_directory_is_not_recursive(self, tmp_path):
        (tmp_path / "a.toml").write_text(
            'name = "a"\n[app]\ndriver = "pingpong"\n')
        sub = tmp_path / "matrix"
        sub.mkdir()
        (sub / "nested.toml").write_text("not even valid")
        assert load_fleet(tmp_path).run_ids() == ("a",)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="no scenario files"):
            load_fleet(tmp_path)

    def test_duplicate_stems_rejected(self, tmp_path):
        (tmp_path / "a.toml").write_text(
            'name = "a"\n[app]\ndriver = "pingpong"\n')
        (tmp_path / "a.json").write_text('{"name": "a"}')
        with pytest.raises(SpecError, match="duplicate"):
            load_fleet(tmp_path)

    def test_matrix_file_with_base_path(self, tmp_path):
        (tmp_path / "base.toml").write_text(
            'name = "b"\n[cluster]\nn_hosts = 2\n'
            '[app]\ndriver = "pingpong"\n')
        (tmp_path / "sweep.toml").write_text(
            '[matrix]\nname = "sweep"\nbase = "base.toml"\n'
            '[[matrix.axes]]\npath = "cluster.n_hosts"\nvalues = [2, 4]\n')
        fleet = load_fleet(tmp_path / "sweep.toml")
        assert fleet.name == "sweep"
        assert fleet.run_ids() == ("n_hosts=2", "n_hosts=4")

    def test_non_matrix_file_rejected(self, tmp_path):
        p = tmp_path / "plain.toml"
        p.write_text('name = "x"\n[app]\ndriver = "pingpong"\n')
        with pytest.raises(SpecError, match="matrix"):
            load_fleet(p)

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            load_fleet(tmp_path / "nope")

    def test_checked_in_matrix_loads(self):
        fleet = load_fleet("scenarios/matrix/small_sweep.toml")
        assert fleet.name == "small-sweep"
        # 2 sizes x 2 modes x 2 fault cells x 2 kernels (shards axis)
        assert len(fleet.runs) == 16
        kernels = {spec.kernel for _, spec in fleet.runs}
        assert kernels == {"single", "sharded"}

    def test_fleet_spec_rejects_duplicate_run_ids(self):
        spec = ScenarioSpec.from_dict(BASE)
        with pytest.raises(SpecError, match="duplicate"):
            FleetSpec(name="f", runs=(("a", spec), ("a", spec)))
