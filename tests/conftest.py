"""Shared fixtures, a small three-attribute world with consistent tables,
a record of every roster offered to the archive, the test-side helpers
that read rosters, tables and rules by label, the per-child variation
operators that ``nsga2.breed`` must reproduce, the recount that carried
counts must equal, and the conditioned draw that
``SamplingPlan.sample_codes`` must reproduce."""

import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from synthpop import (
    Attribute,
    AttributeSchema,
    CandidatePopulation,
    ContingencyTable,
    EvolutionConfig,
    RegionDataset,
    SamplingPlan,
    ValidationRule,
    breed,
)
from synthpop import nsga2
from synthpop.population_model import CompiledRules, CountLayout, _draw, _joint_cells, code_dtype

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def violated_by(rule: ValidationRule, assignments: dict[str, str]) -> bool:
    """Whether an entity, given as category labels by attribute name, falls
    inside every clause of ``rule``: a per-entity oracle written apart from
    the vectorised ``CompiledRules`` it checks."""
    return all(
        assignments.get(attribute) in categories for attribute, categories in rule.clauses
    )


def row_ok(rules: CompiledRules, codes: np.ndarray, row: int) -> bool:
    """Whether one roster row breaks none of ``rules``, checked row by row
    on the rules' clauses, apart from the vectorised ``violation_mask``."""
    assignments = {
        attribute.name: attribute.categories[int(code)]
        for attribute, code in zip(rules.attributes, codes[row])
    }
    return not any(violated_by(rule, assignments) for rule in rules.rules)


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
    """Sampling plan drawing each attribute from its weight vector, built
    through ``SamplingPlan.from_tables`` from one single-axis table per
    attribute, in attribute order: each table is one unconditioned group,
    so the joint walk draws the attributes independently."""
    attributes = tuple(attribute for attribute, _ in pairs)
    tables = [ContingencyTable(a.name, (a,), np.asarray(w, dtype=np.float64)) for a, w in pairs]
    return SamplingPlan.from_tables(
        AttributeSchema(attributes), [a.name for a in attributes], tables
    )


def reference_sample_codes(
    plan: SamplingPlan, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` rows drawn through ``plan``'s joint groups as the plan drew
    them before it sorted draws by their conditioning row: a conditioned
    group gathers each draw's cumulative weight row into a (count, n_new)
    array and counts the entries at or below the draw's uniform."""
    codes = np.empty((count, len(plan.attributes)), dtype=code_dtype(plan.attributes))
    for group in plan._joint_groups:
        if group.given_columns:
            rows = np.ravel_multi_index(
                tuple(codes[:, c] for c in group.given_columns), group.given_dims
            )
            row_cdfs = group.cdf_rows[rows]
            uniforms = rng.random(count)
            flat = (row_cdfs <= uniforms[:, None]).sum(axis=1)
            flat = np.minimum(flat, row_cdfs.shape[1] - 1)
        else:
            flat = _draw(group.cdf_rows[0], rng.random(count))
        new_dims = tuple(plan.attributes[c].size for c in group.new_columns)
        parts = np.unravel_index(flat, new_dims)
        for col, part in zip(group.new_columns, parts):
            codes[:, col] = part
    return codes


# The per-child operators, one call per tournament, pair or child, as the
# generation loop ran them before ``breed`` made a generation in one pass.
# ``reference_breed`` composes them; ``breed`` must equal it child by child
# and draw for draw.


def binary_tournament(
    rank: np.ndarray, crowding: np.ndarray, rng: np.random.Generator
) -> int:
    """Pick two contestants uniformly and return the winner's index: lower
    rank wins, then higher crowding distance, then a fair coin."""
    if len(rank) == 0:
        raise ValueError("tournament needs a non-empty population")
    i, j = (int(x) for x in rng.integers(0, len(rank), size=2))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i if int(rng.integers(0, 2)) == 0 else j


def two_point_crossover(
    first: CandidatePopulation,
    second: CandidatePopulation,
    rng: np.random.Generator,
) -> tuple[CandidatePopulation, CandidatePopulation]:
    """Exchange the roster slice between two random cut points.

    Cuts satisfy 0 <= c1 <= c2 <= length; equal cuts yield copies of the
    parents, and cuts (0, length) yield the parents swapped.
    """
    if len(first) != len(second):
        raise ValueError("parents must have equal roster length")
    if first.attribute_names != second.attribute_names:
        raise ValueError("parents must share the same attribute layout")
    cut_a, cut_b = sorted(int(c) for c in rng.integers(0, len(first) + 1, size=2))
    child_a = first.codes.copy()
    child_b = second.codes.copy()
    child_a[cut_a:cut_b] = second.codes[cut_a:cut_b]
    child_b[cut_a:cut_b] = first.codes[cut_a:cut_b]
    return (
        CandidatePopulation(first.attributes, child_a),
        CandidatePopulation(second.attributes, child_b),
    )


def swap_mutation(
    candidate: CandidatePopulation,
    probability: float,
    rng: np.random.Generator,
    rules: CompiledRules | None = None,
) -> CandidatePopulation:
    """With the given probability, swap one attribute value between two
    random roster slots.

    The child is built from its codes alone, so its counts are a recount,
    independent of how ``breed`` derives them. The candidate itself is
    returned when the two values are equal, so the swap would change
    nothing, and when the swap would violate one of ``rules`` (compiled for
    the candidate's layout) and is reverted.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("mutation probability must lie in [0, 1]")
    if rng.random() >= probability:
        return candidate
    i, j = (int(x) for x in rng.integers(0, len(candidate), size=2))
    col = int(rng.integers(0, candidate.codes.shape[1]))
    if candidate.codes[i, col] == candidate.codes[j, col]:
        return candidate
    codes = candidate.codes.copy()
    codes[i, col], codes[j, col] = codes[j, col], codes[i, col]
    if rules is not None and not (row_ok(rules, codes, i) and row_ok(rules, codes, j)):
        return candidate
    return CandidatePopulation(candidate.attributes, codes)


def resample_mutation(
    candidate: CandidatePopulation,
    probability: float,
    plan: SamplingPlan,
    rng: np.random.Generator,
    rules: CompiledRules | None = None,
    slots: int = 1,
) -> CandidatePopulation:
    """With the given probability, redraw the attribute value of ``slots``
    random (slot, attribute) cells from the plan's marginal weights.

    Unlike the swap this shifts marginal frequencies, so it injects the
    fresh variation that recombination alone cannot reach once the
    population converges. Attributes are hit in proportion to their
    category count, since wide value spaces need more redraw traffic to
    drift. Roster slots whose redraws leave them violating one of
    ``rules`` revert to their previous values; the others stand. The
    child is built from its codes alone, so its counts are a recount. The
    candidate must share the plan's attribute layout.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("mutation probability must lie in [0, 1]")
    if slots < 1:
        raise ValueError("slots must be at least 1")
    if candidate.attributes != plan.attributes:
        raise ValueError("candidate and sampling plan attribute layouts differ")
    if rng.random() >= probability:
        return candidate
    column_p, cdfs = plan.redraw_tables
    codes = candidate.codes.copy()
    rows = rng.integers(0, len(candidate), size=slots)
    cols = rng.choice(codes.shape[1], size=slots, p=column_p)
    uniforms = rng.random(slots)
    for col, cdf in enumerate(cdfs):
        hits = cols == col
        if not hits.any():
            continue
        drawn = np.minimum(
            np.searchsorted(cdf, uniforms[hits], side="right"), len(cdf) - 1
        )
        codes[rows[hits], col] = drawn
    touched = np.unique(rows)
    old = candidate.codes[touched]
    if rules is not None:
        violating = touched[rules.violation_mask(codes[touched])]
        if violating.size:
            codes[violating] = candidate.codes[violating]
    # Only the touched rows can differ from the input.
    new = codes[touched]
    if np.array_equal(new, old):
        return candidate
    return CandidatePopulation(candidate.attributes, codes)


def reference_breed(
    population: Sequence[CandidatePopulation],
    rank: np.ndarray,
    crowding: np.ndarray,
    config: EvolutionConfig,
    plan: SamplingPlan,
    rules: CompiledRules | None,
    rngs: tuple[np.random.Generator, np.random.Generator, np.random.Generator],
) -> list[CandidatePopulation]:
    """One generation's offspring, made by the operators above in turn."""
    select_rng, cross_rng, mutate_rng = rngs
    offspring: list[CandidatePopulation] = []
    for _ in range(config.offspring // 2):
        parent_a = population[binary_tournament(rank, crowding, select_rng)]
        parent_b = population[binary_tournament(rank, crowding, select_rng)]
        if cross_rng.random() < config.crossover_probability:
            child_a, child_b = two_point_crossover(parent_a, parent_b, cross_rng)
        else:
            child_a, child_b = parent_a, parent_b
        for child in (child_a, child_b):
            child = swap_mutation(child, config.mutation_probability, mutate_rng, rules)
            if config.resample_probability > 0:
                child = resample_mutation(
                    child,
                    config.resample_probability,
                    plan,
                    mutate_rng,
                    rules,
                    slots=config.resample_slots,
                )
            offspring.append(child)
    return offspring


def reference_crowding(front: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Crowding distance of each member within one front, one objective at
    a time: what ``nsga2.crowding_distance`` must equal float for float.

    Boundary members of every objective get infinity; interior members sum
    normalised neighbour gaps. Objectives with zero range contribute
    nothing, so a front of identical vectors has zero interior distance.
    """
    matrix = np.asarray(front, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("need a non-empty front")
    n, m = matrix.shape
    distance = np.zeros(n, dtype=np.float64)
    for j in range(m):
        order = np.argsort(matrix[:, j], kind="stable")
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        span = matrix[order[-1], j] - matrix[order[0], j]
        if span <= 0 or n < 3:
            continue
        gaps = (matrix[order[2:], j] - matrix[order[:-2], j]) / span
        distance[order[1:-1]] += gaps
    return distance


def streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Selection, crossover and mutation streams for one ``breed`` call."""
    return tuple(np.random.default_rng([seed, op]) for op in range(3))


def marginal_layout(attributes: Sequence[Attribute]) -> CountLayout:
    """Each column's categories, counted in column order."""
    return CountLayout(attributes, [(col,) for col in range(len(attributes))])


@st.composite
def mixed_layouts(draw, attributes: Sequence[Attribute]) -> CountLayout:
    """A layout over ``attributes`` mixing one-column projections with
    projections of two or three columns, repeats included."""
    columns = st.sampled_from(range(len(attributes)))
    projections = draw(st.lists(
        st.lists(columns, min_size=1, max_size=min(3, len(attributes)), unique=True),
        min_size=1, max_size=5,
    ))
    return CountLayout(attributes, projections)


def recount(codes: np.ndarray, layout: CountLayout) -> np.ndarray:
    """The counts of ``codes`` in ``layout``, one ``bincount`` of each
    projection's joint cells at a time: what tallied and carried counts
    must equal."""
    blocks = []
    for projection in layout.projections:
        dims = [layout.attributes[col].size for col in projection]
        cells = _joint_cells(codes, projection, dims)
        blocks.append(np.bincount(cells, minlength=math.prod(dims)))
    return np.concatenate(blocks)


def recounts(population: Sequence[CandidatePopulation], layout: CountLayout) -> np.ndarray:
    """Each roster's :func:`recount`, one row each."""
    return np.stack([recount(roster.codes, layout) for roster in population])


def breed_tied(population, config, plan, rules, rngs):
    """The children of ``breed`` with every member tied on rank and
    crowding, so each tournament picks one of its two contestants by a
    coin, and each member's marginal counts recounted."""
    n, layout = len(population), marginal_layout(plan.attributes)
    counts = recounts(population, layout)
    return breed(
        population, counts, np.ones(n), np.zeros(n), config, plan, rules, layout, rngs
    )[0]


@pytest.fixture
def offered_rosters(monkeypatch) -> list[CandidatePopulation]:
    """Every roster that ``evolve`` offers its archive, in offer order; the
    archive itself holds only those at its lowest weighted sum."""
    offered: list[CandidatePopulation] = []

    class Recorded(nsga2.ParetoArchive):
        def update(self, candidates, objectives):
            offered.extend(candidates)
            super().update(candidates, objectives)

    monkeypatch.setattr(nsga2, "ParetoArchive", Recorded)
    return offered


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

