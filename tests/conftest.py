"""Shared fixtures, a small three-attribute world with consistent tables,
and the test-side helpers that read rosters, tables and rules by label."""

from pathlib import Path

import numpy as np
import pytest

from synthpop import (
    Attribute,
    AttributeSchema,
    ContingencyTable,
    RegionDataset,
    SamplingPlan,
    ValidationRule,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def violated_by(rule: ValidationRule, assignments: dict[str, str]) -> bool:
    """Whether an entity, given as category labels by attribute name, falls
    inside every clause of ``rule``: a per-entity oracle written apart from
    the vectorised ``CompiledRules`` it checks."""
    return all(
        assignments.get(attribute) in categories for attribute, categories in rule.clauses
    )


def labels(candidate, index: int) -> dict[str, str]:
    """Category labels of one roster row, by attribute name."""
    return {
        attribute.name: attribute.categories[int(code)]
        for attribute, code in zip(candidate.attributes, candidate.codes[index])
    }


def cell(table: ContingencyTable, *codes: str) -> float:
    """Count of one table cell, addressed by one category code per axis."""
    return float(table.counts[tuple(a.index_of(c) for a, c in zip(table.axes, codes))])


def weighted_plan(pairs) -> SamplingPlan:
    """Independent sampling plan drawing each attribute from its weight
    vector, built through ``SamplingPlan.from_tables`` from one single-axis
    table per attribute."""
    attributes = tuple(attribute for attribute, _ in pairs)
    tables = [ContingencyTable(a.name, (a,), np.asarray(w, dtype=np.float64)) for a, w in pairs]
    return SamplingPlan.from_tables(
        AttributeSchema(attributes), [a.name for a in attributes], tables
    )


@pytest.fixture
def schema_small() -> AttributeSchema:
    sex = Attribute("sex", ("m", "f"))
    age = Attribute(
        "age",
        ("a0_17", "a18_64", "a65p"),
        groups={"a0_17": "ch", "a18_64": "ad", "a65p": "el"},
    )
    marital = Attribute("marital", ("single", "married"))
    return AttributeSchema((sex, age, marital))


@pytest.fixture
def dataset_small(schema_small: AttributeSchema) -> RegionDataset:
    """100 persons tabulated two ways; the shared age marginal agrees."""
    sex_age = ContingencyTable(
        "sex_age",
        (schema_small["sex"], schema_small["age"]),
        np.array([[15.0, 30.0, 8.0], [15.0, 22.0, 10.0]]),
    )
    age_marital = ContingencyTable(
        "age_marital",
        (schema_small["age"], schema_small["marital"]),
        np.array([[30.0, 0.0], [22.0, 30.0], [8.0, 10.0]]),
    )
    return RegionDataset(
        region="unit-region",
        schema=schema_small,
        person_tables=(sex_age, age_marital),
        target_persons=100,
    )


@pytest.fixture
def rule_no_child_marriage() -> ValidationRule:
    return ValidationRule(
        name="no-child-marriage",
        clauses=(("age", frozenset({"a0_17"})), ("marital", frozenset({"married"}))),
        message="children cannot be married",
    )


_SCHEMA_YAML = """\
attributes:
  - name: sex
    categories: [m, f]
  - name: age
    categories: [a0_17, a18_64, a65p]
    groups: {a0_17: ch, a18_64: ad, a65p: el}
  - name: marital
    categories: [single, married]
  - name: hsize
    categories: [s1, s2]
  - name: composition
    categories: ["1A", "1A 1C", "2A"]
"""

_RULES_YAML = """\
rules:
  - name: no-child-marriage
    message: children cannot be married
    when:
      age: [a0_17]
      marital: [married]
"""

_SEX_AGE_CSV = """\
sex,age,count
m,a0_17,15
m,a18_64,30
m,a65p,8
f,a0_17,15
f,a18_64,22
f,a65p,10
"""

_AGE_MARITAL_CSV = """\
age,marital,count
a0_17,single,30
a18_64,single,22
a18_64,married,30
a65p,single,8
a65p,married,10
"""

_SIZE_COMP_CSV = """\
hsize,composition,count
s1,1A,4
s2,1A 1C,3
s2,2A,3
"""

_CONFIG_YAML = """\
region: test-region
schema: schema.yaml
output_dir: out
seed: 7
validation_tolerance: 0.01
strict_validation: true
persons:
  target_count: 100
  tables: [tables/sex_age.csv, tables/age_marital.csv]
  rules: person_rules.yaml
  objectives:
    - {name: sex_fit, table: sex_age, attribute: sex}
    - {name: age_fit, table: sex_age, attribute: age}
    - {name: marital_fit, table: age_marital, attribute: marital}
  evolution: {population_size: 10, generations: 3, offspring_size: 20}
households:
  target_count: 10
  tables: [tables/size_comp.csv]
  objectives:
    - {name: size_fit, table: size_comp, attribute: hsize}
    - {name: comp_fit, table: size_comp, attribute: composition}
  evolution: {population_size: 10, generations: 2}
"""


@pytest.fixture
def config_tree(tmp_path: Path) -> Path:
    """A complete, consistent run configuration on disk; returns its path."""
    (tmp_path / "tables").mkdir()
    (tmp_path / "schema.yaml").write_text(_SCHEMA_YAML)
    (tmp_path / "person_rules.yaml").write_text(_RULES_YAML)
    (tmp_path / "tables" / "sex_age.csv").write_text(_SEX_AGE_CSV)
    (tmp_path / "tables" / "age_marital.csv").write_text(_AGE_MARITAL_CSV)
    (tmp_path / "tables" / "size_comp.csv").write_text(_SIZE_COMP_CSV)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(_CONFIG_YAML)
    return config_path
