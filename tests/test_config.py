"""Tests for run-configuration loading, overrides and dataset assembly."""

import pytest
import yaml

from synthpop import (
    DataError,
    load_dataset,
    load_run_config,
    load_stage_rules,
)
from synthpop.census_data import HOUSEHOLDS, PERSONS, YAML_LOADER

from conftest import FIXTURE_DIR

SHIPPED_YAML = sorted(
    [*FIXTURE_DIR.glob("*.yaml"), *(FIXTURE_DIR.parent / ".github").rglob("*.yml")]
)


class TestYamlLoader:
    def test_libyaml_is_used_where_pyyaml_has_it(self):
        assert YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("path", SHIPPED_YAML, ids=lambda path: path.name)
    def test_reads_what_the_pure_python_loader_reads(self, path):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


class TestLoadRunConfig:
    def test_round_trip_fields(self, config_tree):
        config = load_run_config(config_tree)
        assert config.region == "test-region"
        assert config.seed == 7
        assert config.validation_tolerance == 0.01
        assert config.strict_validation is True
        assert config.config_path == config_tree.resolve()
        assert config.schema_path.name == "schema.yaml"
        assert config.output_dir == (config_tree.parent / "out").resolve()

    def test_person_stage(self, config_tree):
        stage = load_run_config(config_tree).persons
        assert stage.stage == "persons"
        assert stage.target_count == 100
        assert [p.name for p in stage.table_paths] == ["sex_age.csv", "age_marital.csv"]
        assert stage.rules_path.name == "person_rules.yaml"
        assert [o.name for o in stage.objectives] == ["sex_fit", "age_fit", "marital_fit"]
        assert stage.objectives[0].metric == "trapezoid"
        assert stage.evolution.population_size == 10
        assert stage.evolution.generations == 3
        assert stage.evolution.offspring == 20
        assert stage.evolution.seed == 7

    def test_household_stage(self, config_tree):
        stage = load_run_config(config_tree).households
        assert stage is not None
        assert stage.target_count == 10
        assert stage.rules_path is None
        assert stage.evolution.seed == 7

    def test_households_are_optional(self, config_tree):
        text = config_tree.read_text()
        config_tree.write_text(text[: text.index("households:")])
        config = load_run_config(config_tree)
        assert config.households is None
        dataset = load_dataset(config)
        assert dataset.household_tables == ()

    def test_seed_override_reaches_both_stages(self, config_tree):
        config = load_run_config(config_tree, seed=99)
        assert config.seed == 99
        assert config.persons.evolution.seed == 99
        assert config.households.evolution.seed == 99

    def test_generation_and_population_overrides(self, config_tree):
        config = load_run_config(config_tree, generations=5, population_size=20)
        for stage in (config.persons, config.households):
            assert stage.evolution.generations == 5
            assert stage.evolution.population_size == 20
        # untouched evolution settings survive the override
        assert config.persons.evolution.offspring == 20

    def test_output_override(self, config_tree, tmp_path):
        target = tmp_path / "elsewhere"
        config = load_run_config(config_tree, output_dir=target)
        assert config.output_dir == target.resolve()

    def test_missing_table_file_is_named(self, config_tree):
        missing = config_tree.parent / "tables" / "sex_age.csv"
        missing.unlink()
        with pytest.raises(DataError, match="sex_age.csv"):
            load_run_config(config_tree)

    def test_missing_schema_is_named(self, config_tree):
        (config_tree.parent / "schema.yaml").unlink()
        with pytest.raises(DataError, match="schema.yaml"):
            load_run_config(config_tree)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_run_config(tmp_path / "nope.yaml")

    def test_invalid_yaml_rejected(self, config_tree):
        config_tree.write_text("region: [unclosed\n")
        with pytest.raises(DataError, match="not valid YAML"):
            load_run_config(config_tree)

    def test_unknown_top_level_key_rejected(self, config_tree):
        config_tree.write_text(config_tree.read_text() + "surprise: 1\n")
        with pytest.raises(DataError, match="unknown keys.*surprise"):
            load_run_config(config_tree)

    def test_unknown_stage_key_rejected(self, config_tree):
        text = config_tree.read_text().replace(
            "persons:\n  target_count: 100",
            "persons:\n  name_count: 1\n  target_count: 100",
        )
        config_tree.write_text(text)
        with pytest.raises(DataError, match="unknown keys.*name_count"):
            load_run_config(config_tree)

    def test_unknown_evolution_key_rejected(self, config_tree):
        text = config_tree.read_text().replace(
            "{population_size: 10, generations: 3, offspring_size: 20}",
            "{population_size: 10, elitism: true}",
        )
        config_tree.write_text(text)
        with pytest.raises(DataError, match="unknown evolution keys.*elitism"):
            load_run_config(config_tree)

    @pytest.mark.parametrize("key", ["archive_capacity", "max_retries", "seed"])
    def test_non_settable_evolution_keys_rejected(self, config_tree, key):
        text = config_tree.read_text().replace(
            "offspring_size: 20}", f"offspring_size: 20, {key}: 50}}"
        )
        config_tree.write_text(text)
        with pytest.raises(DataError, match=f"unknown evolution keys \\['{key}'\\]"):
            load_run_config(config_tree)

    def test_sampling_key_is_unknown(self, config_tree):
        text = config_tree.read_text().replace(
            "offspring_size: 20}", "offspring_size: 20, sampling: joint}"
        )
        config_tree.write_text(text)
        with pytest.raises(DataError, match="unknown evolution keys \\['sampling'\\]"):
            load_run_config(config_tree)

    def test_evolution_range_error_names_the_stage(self, config_tree):
        text = config_tree.read_text().replace(
            "offspring_size: 20}", "offspring_size: 20, resample_slots: 0}"
        )
        config_tree.write_text(text)
        with pytest.raises(DataError, match="stage 'persons': resample_slots must be"):
            load_run_config(config_tree)

    def test_unknown_metric_rejected(self, config_tree):
        text = config_tree.read_text().replace(
            "{name: sex_fit, table: sex_age, attribute: sex}",
            "{name: sex_fit, table: sex_age, attribute: sex, metric: chi2}",
        )
        config_tree.write_text(text)
        with pytest.raises(DataError, match="metric"):
            load_run_config(config_tree)

    @pytest.mark.parametrize(
        "table", ["sex_age", "no_such_table"], ids=["other-stage", "unknown"]
    )
    def test_objective_table_outside_the_stage_rejected(self, config_tree, table):
        config_tree.write_text(
            config_tree.read_text().replace(
                "{name: size_fit, table: size_comp,", f"{{name: size_fit, table: {table},"
            )
        )
        message = (
            f"stage 'households' objective 'size_fit': table '{table}' "
            "is not one of this stage's tables \\['size_comp'\\]"
        )
        with pytest.raises(DataError, match=message):
            load_run_config(config_tree)

    def test_duplicate_objective_name_rejected(self, config_tree):
        config_tree.write_text(
            config_tree.read_text().replace("{name: comp_fit,", "{name: size_fit,")
        )
        with pytest.raises(
            DataError, match="stage 'households': objective name 'size_fit' is used twice"
        ):
            load_run_config(config_tree)

    def test_bad_target_count_rejected(self, config_tree):
        config_tree.write_text(
            config_tree.read_text().replace("target_count: 100", "target_count: 0")
        )
        with pytest.raises(DataError, match="target_count"):
            load_run_config(config_tree)

    def test_missing_objectives_rejected(self, config_tree):
        text = config_tree.read_text().replace(
            """  objectives:
    - {name: size_fit, table: size_comp, attribute: hsize}
    - {name: comp_fit, table: size_comp, attribute: composition}
""",
            "",
        )
        config_tree.write_text(text)
        with pytest.raises(DataError, match="missing required key 'objectives'"):
            load_run_config(config_tree)

    def test_negative_selection_weight_rejected(self, config_tree):
        # An objective's weight is its selection weight.
        config_tree.write_text(
            config_tree.read_text().replace(
                "attribute: sex}", "attribute: sex, weight: -1}"
            )
        )
        with pytest.raises(DataError, match="sex_fit.*negative weight"):
            load_run_config(config_tree)

    def test_non_numeric_weight_rejected(self, config_tree):
        config_tree.write_text(
            config_tree.read_text().replace("attribute: sex}", "attribute: sex, weight: high}")
        )
        with pytest.raises(DataError, match="weight must be a number, got 'high'"):
            load_run_config(config_tree)

    def test_all_zero_objective_weights_rejected(self, config_tree):
        text = config_tree.read_text()
        for name in ("size_fit", "comp_fit"):
            text = text.replace(f"{{name: {name},", f"{{name: {name}, weight: 0,")
        config_tree.write_text(text)
        with pytest.raises(DataError, match="stage 'households'.*positive weight"):
            load_run_config(config_tree)

    def test_zero_weight_on_some_objectives_is_allowed(self, config_tree):
        config_tree.write_text(
            config_tree.read_text().replace("{name: sex_fit,", "{name: sex_fit, weight: 0,")
        )
        weights = [o.weight for o in load_run_config(config_tree).persons.objectives]
        assert weights == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "line", ["workers: 1\n", "selection_weights: {}\n", "selection_weights: {sex_fit: 2}\n"]
    )
    def test_removed_top_level_keys_rejected(self, config_tree, line):
        config_tree.write_text(config_tree.read_text() + line)
        key = line.split(":")[0]
        with pytest.raises(DataError, match=f"unknown keys \\['{key}'\\]"):
            load_run_config(config_tree)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed: 7", "seed: abc", "seed must be an integer, got 'abc'"),
            ("seed: 7", "seed: true", "seed must be an integer, got True"),
            (
                "validation_tolerance: 0.01",
                "validation_tolerance: lots",
                "validation_tolerance must be a number, got 'lots'",
            ),
            (
                "strict_validation: true",
                'strict_validation: "false"',
                "strict_validation must be a boolean, got 'false'",
            ),
            (
                "population_size: 10, generations: 3",
                'population_size: "100", generations: 3',
                "stage 'persons': population_size must be an integer, got '100'",
            ),
            (
                "generations: 3",
                "generations: 1.5",
                "stage 'persons': generations must be an integer, got 1.5",
            ),
            (
                "offspring_size: 20}",
                "offspring_size: 20, mutation_probability: high}",
                "stage 'persons': mutation_probability must be a number, got 'high'",
            ),
            (
                "target_count: 100",
                "target_count: true",
                "stage 'persons': target_count must be an integer, got True",
            ),
            (
                "validation_tolerance: 0.01",
                "validation_tolerance: .nan",
                "validation_tolerance must be a finite number, got nan",
            ),
            (
                "attribute: sex}",
                "attribute: sex, weight: .nan}",
                "weight must be a finite number, got nan",
            ),
        ],
        ids=[
            "seed",
            "seed-bool",
            "validation_tolerance",
            "strict_validation",
            "population_size-str",
            "generations-float",
            "mutation_probability-str",
            "target_count-bool",
            "validation_tolerance-nan",
            "weight-nan",
        ],
    )
    def test_mistyped_scalar_is_named(self, config_tree, old, new, message):
        config_tree.write_text(config_tree.read_text().replace(old, new))
        with pytest.raises(DataError, match=message):
            load_run_config(config_tree)

    def test_negative_tolerance_rejected(self, config_tree):
        config_tree.write_text(
            config_tree.read_text().replace(
                "validation_tolerance: 0.01", "validation_tolerance: -0.5"
            )
        )
        with pytest.raises(DataError, match="tolerance"):
            load_run_config(config_tree)


class TestLoadDataset:
    def test_tables_named_by_file_stem(self, config_tree):
        dataset = load_dataset(load_run_config(config_tree))
        assert [t.name for t in dataset.person_tables] == ["sex_age", "age_marital"]
        assert [t.name for t in dataset.household_tables] == ["size_comp"]
        assert dataset.target_persons == 100
        assert dataset.target_households == 10

    def test_schema_comes_along(self, config_tree):
        dataset = load_dataset(load_run_config(config_tree))
        assert dataset.schema.names == ("sex", "age", "marital", "hsize", "composition")
        assert dataset.schema["age"].group_of("a0_17") == "ch"

    def test_objective_attribute_must_be_an_axis_of_its_table(self, config_tree):
        config_tree.write_text(
            config_tree.read_text().replace(
                "{name: sex_fit, table: sex_age, attribute: sex}",
                "{name: sex_fit, table: sex_age, attribute: marital}",
            )
        )
        config = load_run_config(config_tree)
        message = (
            "stage 'persons' objective 'sex_fit': attribute 'marital' "
            "is not an axis of table 'sex_age'"
        )
        with pytest.raises(DataError, match=message):
            load_dataset(config)


class TestLoadStageRules:
    def test_rules_per_stage(self, config_tree):
        config = load_run_config(config_tree)
        dataset = load_dataset(config)
        rules = load_stage_rules(config, dataset.schema)
        assert [r.name for r in rules[PERSONS]] == ["no-child-marriage"]
        assert rules[HOUSEHOLDS] == ()

    def test_rule_categories_checked_against_schema(self, config_tree):
        rules_path = config_tree.parent / "person_rules.yaml"
        rules_path.write_text(rules_path.read_text().replace("a0_17", "a0_99"))
        config = load_run_config(config_tree)
        dataset = load_dataset(config)
        with pytest.raises(DataError, match="a0_99"):
            load_stage_rules(config, dataset.schema)
