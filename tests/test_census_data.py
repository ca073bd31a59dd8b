"""Tests for schema, table loading, marginals, and dataset validation."""

import builtins
import errno
from pathlib import Path

import numpy as np
import pytest

from synthpop import (
    Attribute,
    AttributeSchema,
    ContingencyTable,
    DataError,
    RegionDataset,
    SamplingPlan,
    load_contingency_table,
    load_rules,
    load_run_config,
    load_schema,
    marginalize,
    validate_dataset,
)

from conftest import cell


def write_table_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


class TestAttribute:
    def test_index_and_group_lookup(self):
        age = Attribute("age", ("ch", "ad"), groups={"ch": "young", "ad": "grown"})
        assert age.size == 2
        assert age.index_of("ad") == 1
        assert age.group_of("ch") == "young"
        assert Attribute("sex", ("m", "f")).group_of("m") is None

    def test_unknown_category_raises(self):
        age = Attribute("age", ("ch", "ad"))
        with pytest.raises(DataError):
            age.index_of("el")

    def test_duplicate_categories_rejected(self):
        with pytest.raises(DataError):
            Attribute("age", ("ch", "ch"))

    def test_groups_must_reference_declared_categories(self):
        with pytest.raises(DataError):
            Attribute("age", ("ch", "ad"), groups={"el": "old"})


class TestAttributeSchema:
    def test_lookup_and_membership(self, schema_small):
        assert "age" in schema_small
        assert schema_small["sex"].categories == ("m", "f")
        assert schema_small.names == ("sex", "age", "marital")

    def test_missing_attribute_raises(self, schema_small):
        with pytest.raises(DataError):
            schema_small["income"]

    def test_duplicate_names_rejected(self):
        sex = Attribute("sex", ("m", "f"))
        with pytest.raises(DataError):
            AttributeSchema((sex, sex))


class TestLoadSchema:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text(
            "attributes:\n"
            "- name: sex\n"
            "  categories: [m, f]\n"
            "- name: age\n"
            "  categories: [young, old]\n"
            "  groups: {young: ch, old: el}\n"
        )
        schema = load_schema(path)
        assert schema.names == ("sex", "age")
        assert schema["age"].group_of("old") == "el"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_schema(tmp_path / "absent.yaml")

    @pytest.mark.parametrize(
        "entries, detail",
        [
            ("- name: sex\n  categories: [m, f, m]\n", "attribute 'sex' has duplicate categories"),
            (
                "- name: age\n  categories: [young, old]\n  groups: {elder: el}\n",
                "attribute 'age' groups undeclared categories: ['elder']",
            ),
            (
                "- name: sex\n  categories: [m, f]\n- name: sex\n  categories: [x]\n",
                "schema names attribute 'sex' twice",
            ),
            ("- name: null\n  categories: [m, f]\n", "attribute name must be a string, got None"),
        ],
        ids=["duplicate-category", "undeclared-group", "duplicate-attribute", "name-null"],
    )
    def test_an_attribute_fault_names_the_file(self, tmp_path, entries, detail):
        path = tmp_path / "schema.yaml"
        path.write_text("attributes:\n" + entries)
        with pytest.raises(DataError) as exc:
            load_schema(path)
        assert str(exc.value) == f"schema file {path}: {detail}"


class TestLoadContingencyTable:
    def test_totals_sum_over_rows(self, tmp_path, schema_small):
        path = tmp_path / "sex_age.csv"
        write_table_csv(
            path,
            ["sex", "age", "count"],
            [["m", "a0_17", 2], ["m", "a18_64", 3], ["f", "a0_17", 5]],
        )
        table = load_contingency_table(path, schema_small)
        assert table.name == "sex_age"
        assert table.total == 10
        assert cell(table, "f", "a0_17") == 5
        # cells absent from the file stay zero
        assert cell(table, "f", "a65p") == 0

    def test_repeated_cells_accumulate(self, tmp_path, schema_small):
        path = tmp_path / "sex.csv"
        write_table_csv(path, ["sex", "count"], [["m", 2], ["m", 3]])
        table = load_contingency_table(path, schema_small)
        assert cell(table, "m") == 5

    def test_unknown_category_raises(self, tmp_path, schema_small):
        path = tmp_path / "sex_age.csv"
        write_table_csv(path, ["sex", "age", "count"], [["m", "XX", 4]])
        with pytest.raises(DataError, match="unknown category"):
            load_contingency_table(path, schema_small)

    def test_header_only_raises(self, tmp_path, schema_small):
        path = tmp_path / "sex_age.csv"
        write_table_csv(path, ["sex", "age", "count"], [])
        with pytest.raises(DataError, match="no positive cell"):
            load_contingency_table(path, schema_small)

    def test_negative_count_raises(self, tmp_path, schema_small):
        path = tmp_path / "sex.csv"
        write_table_csv(path, ["sex", "count"], [["m", -1]])
        with pytest.raises(DataError):
            load_contingency_table(path, schema_small)

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf"])
    def test_non_finite_count_raises(self, tmp_path, schema_small, count):
        path = tmp_path / "sex.csv"
        write_table_csv(path, ["sex", "count"], [["f", 3], ["m", count]])
        with pytest.raises(DataError, match=rf"sex\.csv, line 3: non-finite count {count}"):
            load_contingency_table(path, schema_small)

    def test_missing_file_names_the_path(self, tmp_path, schema_small):
        with pytest.raises(DataError, match="absent"):
            load_contingency_table(tmp_path / "absent.csv", schema_small)

    @pytest.mark.parametrize(
        "bad_row, detail",
        [
            ("f,a0_17,many", "count 'many' is not a number"),
            ("q,a0_17,4", "unknown category 'q' for attribute 'sex'"),
        ],
        ids=["count", "category"],
    )
    def test_a_row_fault_names_the_file_line_past_a_blank_line(
        self, tmp_path, schema_small, bad_row, detail
    ):
        path = tmp_path / "sex_age.csv"
        path.write_text(f"sex,age,count\nm,a0_17,2\n\nm,a18_64,3\n{bad_row}\n")
        with pytest.raises(DataError) as exc:
            load_contingency_table(path, schema_small)
        assert str(exc.value) == f"table file {path}, line 5: {detail}"

    def test_an_unknown_header_attribute_names_the_file_and_line(self, tmp_path, schema_small):
        path = tmp_path / "sex_age.csv"
        write_table_csv(path, ["gender", "age", "count"], [["m", "a0_17", 2]])
        with pytest.raises(DataError) as exc:
            load_contingency_table(path, schema_small)
        assert str(exc.value) == (
            f"table file {path}, line 1: schema has no attribute named 'gender'"
        )

    def test_header_naming_an_axis_twice_raises(self, tmp_path, schema_small):
        path = tmp_path / "age_marital.csv"
        write_table_csv(
            path, ["age", "marital", "marital", "count"], [["a0_17", "single", "single", 3]]
        )
        with pytest.raises(DataError, match=r"\.csv, line 1: header names axis 'marital' twice"):
            load_contingency_table(path, schema_small)

    def test_byte_order_mark_is_ignored(self, tmp_path, schema_small):
        header = ["age", "marital", "count"]
        rows = [["a0_17", "single", 30], ["a65p", "married", 10]]
        plain, marked = tmp_path / "plain" / "age_marital.csv", tmp_path / "age_marital.csv"
        plain.parent.mkdir()
        write_table_csv(plain, header, rows)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        table = load_contingency_table(marked, schema_small)
        expected = load_contingency_table(plain, schema_small)
        assert table.axes == expected.axes and table.name == expected.name
        assert np.array_equal(table.counts, expected.counts)


class TestContingencyTable:
    def test_shape_checked_against_axes(self, schema_small):
        with pytest.raises(DataError):
            ContingencyTable(
                "bad", (schema_small["sex"],), np.array([[1.0, 2.0], [3.0, 4.0]])
            )

    @pytest.mark.parametrize("count", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, schema_small, count):
        with pytest.raises(DataError, match="non-finite"):
            ContingencyTable("sex", (schema_small["sex"],), np.array([3.0, count]))

    def test_an_axis_named_twice_rejected(self, schema_small):
        sex = schema_small["sex"]
        with pytest.raises(DataError, match="table 'sex_sex' names axis 'sex' twice"):
            ContingencyTable("sex_sex", (sex, sex), np.ones((2, 2)))

    def test_counts_are_read_only(self, schema_small):
        table = ContingencyTable("sex", (schema_small["sex"],), np.array([3.0, 7.0]))
        with pytest.raises(ValueError):
            table.counts[0] = 0.0


class TestMarginalize:
    def test_hand_sums(self, schema_small):
        table = ContingencyTable(
            "sex_age",
            (schema_small["sex"], schema_small["age"]),
            np.array([[2.0, 3.0, 0.0], [5.0, 0.0, 0.0]]),
        )
        assert np.array_equal(marginalize(table, "sex"), [5.0, 5.0])
        assert np.array_equal(marginalize(table, "age"), [7.0, 3.0, 0.0])

    def test_single_axis_identity(self, schema_small):
        table = ContingencyTable("sex", (schema_small["sex"],), np.array([3.0, 7.0]))
        assert np.array_equal(marginalize(table, "sex"), [3.0, 7.0])

    def test_unknown_axis_raises(self, schema_small):
        table = ContingencyTable("sex", (schema_small["sex"],), np.array([3.0, 7.0]))
        with pytest.raises(DataError):
            marginalize(table, "age")


class TestAttributeWeights:
    """A table's marginal, normalised, is what a sampling plan draws from."""

    @staticmethod
    def weights(schema, table):
        plan = SamplingPlan.from_tables(schema, table.axis_names, (table,))
        return np.diff(plan.redraw_tables[1][0], prepend=0.0)

    def test_normalization(self, schema_small):
        table = ContingencyTable("age", (schema_small["age"],), np.array([2.0, 3.0, 5.0]))
        assert np.allclose(self.weights(schema_small, table), [0.2, 0.3, 0.5], atol=1e-12)

    def test_symmetry(self, schema_small):
        table = ContingencyTable("sex", (schema_small["sex"],), np.array([4.0, 4.0]))
        assert np.allclose(self.weights(schema_small, table), [0.5, 0.5], atol=1e-12)

    def test_all_zero_raises(self, schema_small):
        with pytest.raises(DataError, match="no positive cell"):
            ContingencyTable("age", (schema_small["age"],), np.array([0.0, 0.0, 0.0]))


class TestValidateDataset:
    def test_consistent_tables_pass(self, dataset_small):
        report = validate_dataset(dataset_small, tolerance=0.01)
        assert not report.flagged
        assert all(line.startswith("ok") for line in report.lines())

    def test_total_discrepancy_is_flagged(self, schema_small):
        t100 = ContingencyTable(
            "by_sex", (schema_small["sex"],), np.array([50.0, 50.0])
        )
        t98 = ContingencyTable(
            "by_sex_again", (schema_small["sex"],), np.array([49.0, 49.0])
        )
        dataset = RegionDataset("r", schema_small, (t100, t98), target_persons=100)
        report = validate_dataset(dataset, tolerance=0.01)
        pair = [i for i in report.issues if i.kind == "marginal-totals"]
        assert len(pair) == 1
        assert pair[0].flagged
        assert pair[0].discrepancy == pytest.approx(0.02, abs=1e-9)

    def test_target_count_mismatch_flagged(self, schema_small):
        table = ContingencyTable("by_sex", (schema_small["sex"],), np.array([50.0, 50.0]))
        dataset = RegionDataset("r", schema_small, (table,), target_persons=90)
        report = validate_dataset(dataset, tolerance=0.01)
        target_issues = [i for i in report.issues if i.kind == "target-count"]
        assert len(target_issues) == 1
        assert target_issues[0].flagged

    def test_equal_totals_with_different_marginals_are_flagged(self, schema_small):
        # Five persons move from m to f: both totals stay 100.
        t1 = ContingencyTable("a", (schema_small["sex"],), np.array([50.0, 50.0]))
        t2 = ContingencyTable(
            "b",
            (schema_small["sex"], schema_small["age"]),
            np.array([[15.0, 20.0, 10.0], [20.0, 25.0, 10.0]]),
        )
        dataset = RegionDataset("r", schema_small, (t1, t2), target_persons=100)
        report = validate_dataset(dataset, tolerance=0.01)
        (pair,) = [i for i in report.issues if i.kind == "marginal-totals"]
        assert pair.attribute == "sex" and pair.tables == ("a", "b")
        assert pair.flagged
        assert pair.discrepancy == pytest.approx(0.10, abs=1e-9)
        assert pair.message == "persons/sex: tables 'a' and 'b' marginals 10.00% apart"

    def test_within_tolerance_not_flagged(self, schema_small):
        t1 = ContingencyTable("a", (schema_small["sex"],), np.array([50.0, 50.0]))
        t2 = ContingencyTable("b", (schema_small["sex"],), np.array([50.0, 49.5]))
        dataset = RegionDataset("r", schema_small, (t1, t2), target_persons=100)
        report = validate_dataset(dataset, tolerance=0.01)
        pair = [i for i in report.issues if i.kind == "marginal-totals"]
        assert pair and not pair[0].flagged


class TestRegionDataset:
    def test_duplicate_table_names_rejected(self, schema_small):
        table = ContingencyTable("t", (schema_small["sex"],), np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            RegionDataset("r", schema_small, (table, table), target_persons=3)

    def test_household_tables_need_a_target(self, schema_small):
        persons = ContingencyTable("p", (schema_small["sex"],), np.array([1.0, 2.0]))
        homes = ContingencyTable("h", (schema_small["sex"],), np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            RegionDataset(
                "r", schema_small, (persons,), (homes,), target_persons=3
            )

    def test_stage_lookup(self, dataset_small):
        assert dataset_small.table("sex_age").name == "sex_age"
        assert len(dataset_small.stage_tables("persons")) == 2
        with pytest.raises(DataError):
            dataset_small.table("missing")


# Every loader of an input text file, by the kind its errors name.
_LOADERS = {
    "schema": ("schema.yaml", lambda path, schema: load_schema(path)),
    "rules": ("person_rules.yaml", load_rules),
    "config": ("config.yaml", lambda path, schema: load_run_config(path)),
    "table": ("tables/sex_age.csv", load_contingency_table),
}
_YAML_KINDS = ("schema", "rules", "config")


def _comparable(loaded):
    """A loader's result in a form ``==`` compares whole."""
    if isinstance(loaded, ContingencyTable):
        return loaded.name, loaded.axis_names, loaded.counts.tolist()
    return loaded


class TestReaders:
    """Each input kind is read through ``read_yaml`` or ``read_csv``, so
    every kind fails the same way and names itself and its path."""

    @pytest.fixture
    def inputs(self, config_tree):
        root = config_tree.parent.resolve()
        return root, load_schema(root / "schema.yaml")

    def load(self, inputs, kind, path=None):
        root, schema = inputs
        name, loader = _LOADERS[kind]
        return _comparable(loader(path or root / name, schema))

    @pytest.mark.parametrize("kind", _LOADERS)
    def test_a_missing_file_is_named(self, inputs, kind):
        path = inputs[0] / "absent" / Path(_LOADERS[kind][0]).name
        with pytest.raises(DataError) as exc:
            self.load(inputs, kind, path)
        assert str(exc.value) == f"cannot read {kind} file {path}: No such file or directory"

    @pytest.mark.parametrize("kind", _LOADERS)
    def test_a_directory_is_named(self, inputs, kind):
        path = inputs[0] / "folder"
        path.mkdir()
        with pytest.raises(DataError) as exc:
            self.load(inputs, kind, path)
        assert str(exc.value) == f"cannot read {kind} file {path}: Is a directory"

    @pytest.mark.parametrize("kind", _LOADERS)
    def test_a_file_open_refuses_is_named(self, inputs, kind, monkeypatch):
        path = inputs[0] / _LOADERS[kind][0]
        real_open = builtins.open

        def refusing_open(file, *args, **kwargs):
            if Path(file) == path:
                raise PermissionError(errno.EACCES, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refusing_open)
        with pytest.raises(DataError) as exc:
            self.load(inputs, kind)
        assert str(exc.value) == f"cannot read {kind} file {path}: Permission denied"

    @pytest.mark.parametrize("kind", _LOADERS)
    def test_a_byte_that_is_not_utf_8_is_named(self, inputs, kind):
        path = inputs[0] / _LOADERS[kind][0]
        # The first "a" becomes Latin-1's "\u00e1", one byte UTF-8 cannot decode.
        path.write_bytes(path.read_bytes().replace(b"a", "\u00e1".encode("latin-1"), 1))
        with pytest.raises(DataError) as exc:
            self.load(inputs, kind)
        assert str(exc.value) == (
            f"{kind} file {path} is not UTF-8 text: cannot decode byte 0xe1"
        )

    @pytest.mark.parametrize("kind", _YAML_KINDS)
    def test_invalid_yaml_is_named(self, inputs, kind):
        path = inputs[0] / _LOADERS[kind][0]
        path.write_text("key: [unclosed\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            self.load(inputs, kind)
        assert str(exc.value).startswith(f"{kind} file {path} is not valid YAML: ")

    @pytest.mark.parametrize("kind", _LOADERS)
    def test_a_byte_order_mark_loads_as_the_plain_file(self, inputs, kind):
        path = inputs[0] / _LOADERS[kind][0]
        plain = self.load(inputs, kind)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert self.load(inputs, kind) == plain
