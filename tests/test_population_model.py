"""Tests for validation rules, sampling plans, and candidate rosters."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthpop import (
    Attribute,
    AttributeSchema,
    CandidatePopulation,
    ContingencyTable,
    DataError,
    EvolutionConfig,
    EvolutionError,
    ParetoArchive,
    SamplingPlan,
    ValidationRule,
    export_persons,
    generate_candidate,
    load_archive,
    load_persons,
    load_rules,
    save_archive,
)
from synthpop.config import load_dataset, load_run_config, load_stage_rules
from synthpop.population_model import (
    _SHIFTED_TALLY_ROWS,
    MAX_RULE_CELLS,
    CompiledRules,
    _draw,
    _guide_table,
    _guided_draw,
    _joint_cells,
    code_dtype,
    count_offsets,
    tally,
)

from conftest import (
    FIXTURE_DIR,
    breed_tied,
    labels,
    reference_sample_codes,
    row_ok,
    streams,
    violated_by,
    weighted_plan,
)


def make_plan(schema):
    return weighted_plan(
        [
            (schema["sex"], np.array([0.5, 0.5])),
            (schema["age"], np.array([0.3, 0.52, 0.18])),
            (schema["marital"], np.array([0.6, 0.4])),
        ]
    )


@st.composite
def table_layouts(draw):
    """A schema of two or three small attributes and two or three tables
    over subsets of them, in any axis order, that together list every
    attribute; cells are small counts, zero in many places."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    attributes = tuple(
        Attribute(f"x{i}", tuple(f"c{j}" for j in range(size)))
        for i, size in enumerate(sizes)
    )
    indices = st.integers(0, len(attributes) - 1)
    axes = [
        draw(st.lists(indices, min_size=1, max_size=len(attributes), unique=True))
        for _ in range(draw(st.integers(2, 3)))
    ]
    listed = {i for table in axes for i in table}
    axes[-1] += [i for i in range(len(attributes)) if i not in listed]
    tables = []
    for t, table in enumerate(axes):
        shape = tuple(sizes[i] for i in table)
        size = int(np.prod(shape))
        cells = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        counts = np.array(cells, dtype=np.float64).reshape(shape)
        if not counts.any():
            counts.flat[draw(st.integers(0, counts.size - 1))] = 1
        tables.append(ContingencyTable(f"t{t}", tuple(attributes[i] for i in table), counts))
    return AttributeSchema(attributes), tables


class TestValidationRule:
    def test_child_marriage_is_violated(self, rule_no_child_marriage):
        person = {"sex": "m", "age": "a0_17", "marital": "married"}
        assert violated_by(rule_no_child_marriage, person)

    def test_adult_marriage_is_fine(self, rule_no_child_marriage):
        person = {"sex": "m", "age": "a18_64", "marital": "married"}
        assert not violated_by(rule_no_child_marriage, person)

    def test_empty_rule_list_is_vacuous(self, schema_small):
        attributes = tuple(schema_small.attributes)
        child_married = np.array([[0, 0, 1]], dtype=np.int16)
        compiled = CompiledRules([], attributes)
        assert not compiled.violation_mask(child_married).any()
        assert row_ok(compiled, child_married, 0)

    def test_rule_needs_clauses(self):
        with pytest.raises(DataError):
            ValidationRule(name="empty", clauses=())

    def test_clause_needs_categories(self):
        with pytest.raises(DataError):
            ValidationRule(name="thin", clauses=(("age", frozenset()),))


class TestLoadRules:
    def test_round_trip(self, tmp_path, schema_small):
        path = tmp_path / "rules.yaml"
        path.write_text(
            "rules:\n"
            "- name: no-child-marriage\n"
            "  message: children cannot be married\n"
            "  when:\n"
            "    age: [a0_17]\n"
            "    marital: [married]\n"
        )
        rules = load_rules(path, schema_small)
        assert len(rules) == 1
        assert violated_by(rules[0], {"age": "a0_17", "marital": "married"})
        assert not violated_by(rules[0], {"age": "a65p", "marital": "married"})

    def test_unknown_category_rejected(self, tmp_path, schema_small):
        path = tmp_path / "rules.yaml"
        path.write_text("rules:\n- name: bad\n  when:\n    age: [toddler]\n")
        with pytest.raises(DataError):
            load_rules(path, schema_small)

    def test_unknown_attribute_rejected(self, tmp_path, schema_small):
        path = tmp_path / "rules.yaml"
        path.write_text("rules:\n- name: bad\n  when:\n    income: [low]\n")
        with pytest.raises(DataError):
            load_rules(path, schema_small)

    @pytest.mark.parametrize(
        "clause, detail",
        [
            ("marital: [no_such_status]", "unknown category 'no_such_status'"),
            ("income: [low]", "no attribute named 'income'"),
        ],
        ids=["category", "attribute"],
    )
    def test_error_names_the_file_and_rule(self, tmp_path, schema_small, clause, detail):
        path = tmp_path / "rules.yaml"
        path.write_text(f"rules:\n- name: bad-rule\n  when:\n    {clause}\n")
        with pytest.raises(DataError) as exc:
            load_rules(path, schema_small)
        assert str(exc.value).startswith(f"rules file {path}: rule 'bad-rule': ")
        assert detail in str(exc.value)


    def test_an_oversized_rule_names_the_file_and_rule(self, tmp_path):
        # 4,097**2 joint cells is one row of 4,097 past 2**24.
        wide = [Attribute(f"w{i}", tuple(f"c{k}" for k in range(4097))) for i in range(2)]
        path = tmp_path / "rules.yaml"
        path.write_text(
            "rules:\n- name: huge\n  when:\n    w0: [c0]\n    w1: [c1]\n", encoding="utf-8"
        )
        with pytest.raises(DataError) as exc:
            load_rules(path, AttributeSchema(tuple(wide)))
        assert str(exc.value) == (
            f"rules file {path}: rule 'huge': attributes w0, w1 have 16,785,409 joint "
            "cells; a rule's attributes may have at most 16,777,216 (2**24)"
        )


class TestCompiledRules:
    def test_mask_matches_per_person_check(self, schema_small, rule_no_child_marriage):
        rng = np.random.default_rng(11)
        attributes = tuple(schema_small.attributes)
        codes = np.column_stack(
            [rng.integers(0, a.size, size=200) for a in attributes]
        ).astype(np.int16)
        candidate = CandidatePopulation(attributes, codes)
        compiled = CompiledRules([rule_no_child_marriage], attributes)
        mask = compiled.violation_mask(candidate.codes)
        for index in range(len(candidate)):
            expected = violated_by(rule_no_child_marriage, labels(candidate, index))
            assert mask[index] == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mask_and_row_check_match_per_person_check(self, data):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        attributes = tuple(
            Attribute(f"x{i}", tuple(f"c{k}" for k in range(n)))
            for i, n in enumerate(sizes)
        )
        rules = []
        for r in range(data.draw(st.integers(1, 4))):
            columns = data.draw(
                st.lists(
                    st.sampled_from(range(len(sizes))),
                    min_size=1,
                    max_size=len(sizes),
                    unique=True,
                )
            )
            clauses = tuple(
                (
                    attributes[c].name,
                    frozenset(
                        data.draw(
                            st.sets(st.sampled_from(attributes[c].categories), min_size=1)
                        )
                    ),
                )
                for c in columns
            )
            rules.append(ValidationRule(name=f"r{r}", clauses=clauses))
        rows = data.draw(st.integers(1, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        codes = np.column_stack(
            [rng.integers(0, a.size, size=rows) for a in attributes]
        ).astype(np.int16)
        candidate = CandidatePopulation(attributes, codes)
        compiled = CompiledRules(rules, attributes)
        mask = compiled.violation_mask(candidate.codes)
        for index in range(len(candidate)):
            assignments = labels(candidate, index)
            expected = any(violated_by(rule, assignments) for rule in rules)
            assert mask[index] == expected
            assert row_ok(compiled, candidate.codes, index) == (not expected)

    def test_rule_must_use_roster_attributes(self, schema_small):
        rule = ValidationRule(name="odd", clauses=(("income", frozenset({"low"})),))
        with pytest.raises(DataError):
            CompiledRules([rule], tuple(schema_small.attributes))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mask_matches_the_per_rule_oracle_on_every_cell(self, data):
        # Rules drawn from a few attribute sets, so several share one set,
        # each listing its clauses in its own order; a set of one attribute
        # makes single-clause rules.
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        attributes = tuple(
            Attribute(f"x{i}", tuple(f"c{k}" for k in range(n)))
            for i, n in enumerate(sizes)
        )
        column_sets = data.draw(st.lists(
            st.lists(st.sampled_from(range(len(sizes))), min_size=1, max_size=3, unique=True),
            min_size=1, max_size=3,
        ))
        rules = []
        for r in range(data.draw(st.integers(1, 8))):
            columns = data.draw(st.permutations(data.draw(st.sampled_from(column_sets))))
            clauses = tuple(
                (
                    attributes[c].name,
                    frozenset(data.draw(
                        st.sets(st.sampled_from(attributes[c].categories), min_size=1)
                    )),
                )
                for c in columns
            )
            rules.append(ValidationRule(name=f"r{r}", clauses=clauses))
        compiled = CompiledRules(rules, attributes)
        codes = np.array(list(itertools.product(*(range(n) for n in sizes))), dtype=np.uint8)
        mask = compiled.violation_mask(codes)
        candidate = CandidatePopulation(attributes, codes)
        for index in range(len(codes)):
            assignments = labels(candidate, index)
            assert mask[index] == any(violated_by(rule, assignments) for rule in rules)
        # One table per distinct attribute set.
        distinct = {frozenset(name for name, _ in rule.clauses) for rule in rules}
        assert len(compiled._tables) == len(distinct)

    def test_clauses_on_one_attribute_all_apply(self, schema_small):
        rule = ValidationRule(
            name="twice",
            clauses=(
                ("age", frozenset({"a0_17", "a18_64"})),
                ("age", frozenset({"a18_64", "a65p"})),
            ),
        )
        attributes = tuple(schema_small.attributes)
        codes = np.array([[0, age, 0] for age in range(3)], dtype=np.uint8)
        assert CompiledRules([rule], attributes).violation_mask(codes).tolist() == [
            False, True, False
        ]

    @pytest.mark.parametrize(
        "stage, names, dims",
        [("persons", ["age", "marital"], (11, 4)),
         ("households", ["size", "composition"], (6, 16))],
    )
    def test_shipped_rules_compile_to_one_table_per_stage(self, stage, names, dims):
        config = load_run_config(FIXTURE_DIR / "config.yaml")
        dataset = load_dataset(config)
        attributes = tuple(dataset.schema[n] for n in dataset.stage_attributes(stage))
        compiled = CompiledRules(load_stage_rules(config, dataset.schema)[stage], attributes)
        assert [([attributes[c].name for c in cols], table_dims)
                for cols, table_dims, _ in compiled._tables] == [(names, dims)]

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(256, 4096), min_size=2, max_size=3),
        extra=st.integers(0, 3),
    )
    def test_an_oversized_rule_raises_before_its_table_is_allocated(self, sizes, extra):
        # The last attribute takes the joint cells past 2**24.
        sizes = [*sizes, max(2, MAX_RULE_CELLS // math.prod(sizes) + 1 + extra)]
        attributes = tuple(
            Attribute(f"x{i}", tuple(f"c{k}" for k in range(n))) for i, n in enumerate(sizes)
        )
        small = ValidationRule(name="small", clauses=(("x0", frozenset({"c0"})),))
        huge = ValidationRule(
            name="huge", clauses=tuple((a.name, frozenset({"c1"})) for a in attributes)
        )
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            with pytest.raises(DataError, match=r"^rule 'huge': attributes x0, x1"):
                CompiledRules([small, huge], attributes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Its table would hold at least 2**24 one-byte flags.
        assert peak - start < 2**20


@st.composite
def guided_draws(draw):
    """Cumulative rows with runs of zero weight, rows with no weight at all
    and last entries below 1, and uniforms at bucket edges, at cumulative
    entries and next to them, and in between."""
    width = draw(st.integers(1, 40))
    weight = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 7.0, 1e3, 1e-9])
    cdf_rows = []
    for _ in range(draw(st.integers(1, 4))):
        weights = np.array(draw(st.lists(weight, min_size=width, max_size=width)))
        if weights.any():
            scale = draw(st.sampled_from([1.0, 1.0 - 2**-53, 0.999, 0.5]))
            weights = weights / weights.sum() * scale
        cdf_rows.append(np.cumsum(weights))
    cdf_rows = np.array(cdf_rows)
    buckets = _guide_table(cdf_rows).shape[1] - 1
    edges = np.array(draw(st.lists(st.integers(0, buckets - 1), max_size=20))) / buckets
    entries = cdf_rows.ravel()
    near = np.concatenate([entries, np.nextafter(entries, 0), np.nextafter(entries, 2)])
    spread = np.array(draw(st.lists(st.floats(0, 1, exclude_max=True), max_size=20)))
    uniforms = np.concatenate([edges, near, spread, [0.0, 1.0 - 2**-53]])
    uniforms = uniforms[(uniforms >= 0) & (uniforms < 1)]
    rows = np.array(draw(st.lists(
        st.integers(0, len(cdf_rows) - 1), min_size=len(uniforms), max_size=len(uniforms)
    )), dtype=np.intp)
    return cdf_rows, rows, uniforms


class TestGuidedDraw:
    @settings(max_examples=200, deadline=None)
    @given(case=guided_draws())
    def test_equals_the_clamped_search_of_each_row(self, case):
        cdf_rows, rows, uniforms = case
        guide = _guide_table(cdf_rows)
        width = cdf_rows.shape[1]
        buckets = guide.shape[1] - 1
        assert buckets >= 16 * width and buckets & (buckets - 1) == 0
        assert guide.dtype == np.min_scalar_type(width - 1)
        want = np.array([_draw(cdf_rows[r], u) for r, u in zip(rows, uniforms)], dtype=np.intp)
        assert np.array_equal(_guided_draw(cdf_rows, guide, rows, uniforms), want)
        first = np.array([_draw(cdf_rows[0], u) for u in uniforms], dtype=np.intp)
        zeros = np.zeros(len(uniforms), dtype=np.intp)
        assert np.array_equal(_guided_draw(cdf_rows[:1], guide[:1], zeros, uniforms), first)


class TestJointCells:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    def test_equals_ravel_multi_index(self, data, rows, seed):
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16]))
        widest = np.iinfo(dtype).max + 1
        sizes = data.draw(st.lists(st.integers(1, min(widest, 3000)), min_size=1, max_size=5))
        codes = np.random.default_rng(seed).integers(0, sizes, (rows, len(sizes))).astype(dtype)
        # Any subset of the columns in any order, the empty one included.
        columns = data.draw(st.lists(
            st.sampled_from(range(len(sizes))), unique=True, max_size=len(sizes)
        ))
        dims = [sizes[c] for c in columns]
        cells = _joint_cells(codes, columns, dims)
        assert cells.dtype == np.intp
        if columns:
            want = np.ravel_multi_index(tuple(codes[:, c] for c in columns), dims)
        else:
            want = np.zeros(rows, dtype=np.intp)
        assert np.array_equal(cells, want)


class TestSamplingPlanIndependent:
    def test_degenerate_weights_always_hit_one_category(self, schema_small):
        plan = weighted_plan(
            [
                (schema_small["sex"], np.array([0.0, 1.0])),
                (schema_small["age"], np.array([0.0, 0.0, 1.0])),
            ]
        )
        rng = np.random.default_rng(3)
        codes = plan.sample_codes(50, rng)
        assert np.all(codes[:, 0] == 1)
        assert np.all(codes[:, 1] == 2)

    def test_same_stream_same_draws(self, schema_small):
        plan = make_plan(schema_small)
        first = plan.sample_codes(40, np.random.default_rng(7))
        second = plan.sample_codes(40, np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_frequencies_track_weights(self, schema_small):
        plan = weighted_plan([(schema_small["sex"], np.array([0.2, 0.8]))])
        rng = np.random.default_rng(19)
        codes = plan.sample_codes(10_000, rng)
        share = float(np.mean(codes[:, 0] == 0))
        sigma = np.sqrt(0.2 * 0.8 / 10_000)
        assert abs(share - 0.2) <= 3 * sigma

    def test_weights_round_trip(self, schema_small):
        plan = make_plan(schema_small)
        column_p, cdfs = plan.redraw_tables
        # Resampling hits a column in proportion to its category count.
        assert np.allclose(column_p, [2 / 7, 3 / 7, 2 / 7], atol=1e-12)
        assert np.allclose(np.diff(cdfs[1], prepend=0.0), [0.3, 0.52, 0.18], atol=1e-12)

    def test_sample_person_decodes_labels(self, schema_small):
        plan = make_plan(schema_small)
        codes = plan.sample_codes(1, np.random.default_rng(0))
        person = labels(CandidatePopulation(plan.attributes, codes), 0)
        assert set(person) == {"sex", "age", "marital"}
        assert person["sex"] in ("m", "f")


class TestSamplingPlanJoint:
    def test_joint_mode_preserves_table_structure(self, dataset_small):
        schema = dataset_small.schema
        plan = SamplingPlan.from_tables(
            schema, ("sex", "age", "marital"), dataset_small.person_tables
        )
        rng = np.random.default_rng(23)
        codes = plan.sample_codes(40_000, rng)
        # children are never married in age_marital, so the joint draw
        # must never produce that pair
        child = codes[:, 1] == 0
        married = codes[:, 2] == 1
        assert not np.any(child & married)
        # the age x marital interaction matches the table's conditional:
        # P(married | a65p) = 10/18
        elders = codes[codes[:, 1] == 2]
        share = float(np.mean(elders[:, 2] == 1))
        expected = 10.0 / 18.0
        sigma = np.sqrt(expected * (1 - expected) / len(elders))
        assert abs(share - expected) <= 4 * sigma

    @settings(max_examples=100, deadline=None)
    @given(layout=table_layouts(), seed=st.integers(0, 2**32 - 1))
    def test_draws_fall_in_positive_cells(self, layout, seed):
        schema, tables = layout
        plan = SamplingPlan.from_tables(schema, schema.names, tables)
        codes = plan.sample_codes(200, np.random.default_rng(seed))
        column = {name: i for i, name in enumerate(schema.names)}
        assigned: set[str] = set()
        # Each table that assigns an attribute no earlier table did is one
        # group of the walk: its draws land in its positive cells wherever
        # the row's values of the earlier attributes have a positive total.
        for table in tables:
            new = [i for i, name in enumerate(table.axis_names) if name not in assigned]
            if not new:
                continue
            cells = tuple(codes[:, column[name]] for name in table.axis_names)
            given = table.counts.sum(axis=tuple(new), keepdims=True)
            conditioned = np.broadcast_to(given, table.counts.shape)[cells] > 0
            assert (table.counts[cells][conditioned] > 0).all()
            assigned.update(table.axis_names)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        layout=table_layouts(),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_equal_the_gather_and_compare_draw(self, data, layout, count, seed):
        # Any order of any subset of the attributes: groups with and without
        # given columns, and tables with off-stage axes.
        schema, tables = layout
        order = data.draw(st.permutations(schema.names))
        names = order[: data.draw(st.integers(1, len(order)))]
        plan = SamplingPlan.from_tables(schema, names, tables)
        got = plan.sample_codes(count, np.random.default_rng(seed))
        want = reference_sample_codes(plan, count, np.random.default_rng(seed))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_a_wide_conditioned_draw_holds_no_gathered_weight_rows(self):
        # The second table adds 16 categories conditioned on the first's 4.
        given = Attribute("g", tuple(f"g{i}" for i in range(4)))
        wide = Attribute("w", tuple(f"w{i}" for i in range(16)))
        tables = [
            ContingencyTable("t0", (given,), np.arange(1.0, 5.0)),
            ContingencyTable(
                "t1", (given, wide), np.random.default_rng(3).integers(0, 5, (4, 16)) * 1.0
            ),
        ]
        plan = SamplingPlan.from_tables(AttributeSchema((given, wide)), ("g", "w"), tables)
        rules = CompiledRules((), plan.attributes)
        count = 50_000
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            generate_candidate(plan, count, rules, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Less than one gathered row of 16 float64 weights per draw.
        assert peak - start < 16 * 8 * count

    def test_redraw_tables_use_first_table_marginal(self, dataset_small):
        plan = SamplingPlan.from_tables(
            dataset_small.schema, ("sex", "age", "marital"), dataset_small.person_tables
        )
        age_cdf = plan.redraw_tables[1][1]
        assert np.allclose(np.diff(age_cdf, prepend=0.0), [0.30, 0.52, 0.18], atol=1e-12)

    def test_uncovered_attribute_raises(self, dataset_small):
        with pytest.raises(DataError):
            SamplingPlan.from_tables(
                dataset_small.schema,
                ("sex", "age", "income"),
                dataset_small.person_tables,
            )


class TestCandidatePopulation:
    def test_codes_are_read_only(self, schema_small):
        attributes = tuple(schema_small.attributes)
        candidate = CandidatePopulation(
            attributes, np.zeros((4, 3), dtype=np.int16)
        )
        with pytest.raises(ValueError):
            candidate.codes[0, 0] = 1

    def test_shape_must_match_attributes(self, schema_small):
        with pytest.raises(DataError):
            CandidatePopulation(
                tuple(schema_small.attributes), np.zeros((4, 2), dtype=np.int16)
            )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), length=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_unbuilt_rosters_read_and_build_their_recipe(self, data, length, seed):
        attributes = tuple(Attribute(f"x{i}", ("a", "b", "c")[: 2 + i % 2]) for i in range(3))
        rng = np.random.default_rng(seed)
        parents = [
            np.column_stack([rng.integers(0, a.size, length) for a in attributes])
            for _ in range(2)
        ]
        first, second = (CandidatePopulation(attributes, codes.copy()) for codes in parents)
        cuts = st.lists(st.integers(0, length), min_size=2, max_size=2)
        cut_a, cut_b = sorted(data.draw(cuts))
        cut = slice(cut_a, cut_b)
        patches = [(cut, second.codes[cut])]
        expected = parents[0].copy()
        expected[cut_a:cut_b] = parents[1][cut_a:cut_b]
        for _ in range(data.draw(st.integers(0, 3))):
            rows = np.array(data.draw(st.lists(
                st.integers(0, length - 1), min_size=1, max_size=length, unique=True
            )))
            values = np.column_stack([rng.integers(0, a.size, len(rows)) for a in attributes])
            patches.append((rows, values))
            expected[rows] = values
        roster = first.patched(patches, first.category_counts)
        assert roster._recipe is not None and len(roster) == length
        assert np.array_equal(roster.codes, expected)
        assert roster._recipe is None and not roster.codes.flags.writeable
        assert np.array_equal(roster.column("x1"), expected[:, 1])
        assert np.array_equal(first.codes, parents[0])
        assert np.array_equal(second.codes, parents[1])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), length=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_index_patches_over_a_slice_patch_read_every_row_as_built(
        self, data, length, seed
    ):
        attributes = tuple(Attribute(f"x{i}", ("a", "b", "c", "d")) for i in range(2))
        rng = np.random.default_rng(seed)
        base, donor = (
            CandidatePopulation(attributes, rng.integers(0, 4, (length, 2)).astype(np.uint8))
            for _ in range(2)
        )
        cut_a, cut_b = sorted(data.draw(st.lists(st.integers(0, length), min_size=2, max_size=2)))
        cut = slice(cut_a, cut_b)
        patches = [(cut, donor.codes[cut])]
        expected = base.codes.copy()
        expected[cut] = donor.codes[cut]
        # Index patches whose rows straddle the slice's edges and its inside.
        near = st.integers(max(0, cut_a - 2), min(length - 1, cut_b + 1))
        for _ in range(data.draw(st.integers(1, 4))):
            rows = np.array(data.draw(st.lists(near, min_size=1, max_size=length, unique=True)))
            values = rng.integers(0, 4, (len(rows), 2)).astype(np.uint8)
            patches.append((rows, values))
            expected[rows] = values
        roster = base.patched(patches, base.category_counts)
        # The slice patch holds a view of the donor's codes, not a copy.
        assert roster._recipe.patches[0][1].base is donor.codes
        assert roster._recipe is not None
        roster.build()
        assert roster._recipe is None
        assert np.array_equal(roster.codes, expected)


class TestCategoryCounts:
    def test_each_column_counted_in_order(self, schema_small):
        attributes = tuple(schema_small.attributes)
        codes = np.array([[0, 2, 1], [1, 2, 0], [1, 0, 1]], dtype=np.uint8)
        counts = CandidatePopulation(attributes, codes).category_counts
        assert counts.dtype == np.int64
        assert counts.tolist() == [1, 2, 1, 0, 2, 1, 2]
        with pytest.raises(ValueError):
            counts[0] = 5

    def test_out_of_range_code_rejected(self, schema_small):
        attributes = tuple(schema_small.attributes)
        codes = np.array([[0, 3, 0]], dtype=np.uint8)
        with pytest.raises(DataError, match="'age' holds code 3"):
            CandidatePopulation(attributes, codes).category_counts

    @pytest.mark.parametrize("offset", [-1, 0, 1, 500])
    def test_tally_agrees_on_both_sides_of_its_threshold(self, schema_small, offset):
        attributes = tuple(schema_small.attributes)
        rng = np.random.default_rng(8)
        rows = _SHIFTED_TALLY_ROWS + offset
        codes = np.column_stack([rng.integers(0, a.size, size=rows) for a in attributes])
        candidate = CandidatePopulation(attributes, codes.astype(np.uint8))
        offsets = count_offsets(attributes)
        assert offsets.tolist() == [0, 2, 5, 7]
        assert np.array_equal(tally(candidate.codes, offsets), candidate.category_counts)
        assert np.array_equal(tally(candidate.codes[:0], offsets), np.zeros(7))


class TestCodeDtype:
    @pytest.mark.parametrize(
        "widest, dtype", [(3, np.uint8), (256, np.uint8), (257, np.uint16)]
    )
    def test_rosters_come_out_in_the_layout_dtype(self, tmp_path, widest, dtype):
        attributes = (
            Attribute("sex", ("m", "f")),
            Attribute("code", tuple(f"c{i}" for i in range(widest))),
        )
        assert code_dtype(attributes) == dtype
        plan = weighted_plan([(a, np.ones(a.size)) for a in attributes])
        rules = CompiledRules([], attributes)
        rng = np.random.default_rng(3)
        first, second = (generate_candidate(plan, 50, rules, rng) for _ in range(2))
        config = EvolutionConfig(
            population_size=2, offspring_size=8, crossover_probability=0.5,
            mutation_probability=1.0, resample_probability=1.0, resample_slots=10,
        )
        children = breed_tied([first, second], config, plan, rules, streams(3))
        schema = AttributeSchema(attributes)
        export_persons(tmp_path / "persons.csv", first)
        loaded = load_persons(tmp_path / "persons.csv", schema)
        archive = ParetoArchive(2, [1.0, 1.0])
        archive.update([first, second], np.array([[0.0, 1.0], [1.0, 0.0]]))
        save_archive(tmp_path / "archive.npz", archive, ("a", "b"))
        members, _, _ = load_archive(tmp_path / "archive.npz", schema)
        for roster in (first, second, *children, loaded, *members):
            assert roster.codes.dtype == dtype


class TestObservedFrequencies:
    def test_counts(self, schema_small):
        attributes = tuple(schema_small.attributes)
        codes = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=np.int16)
        candidate = CandidatePopulation(attributes, codes)
        assert np.array_equal(np.bincount(candidate.column("sex"), minlength=2), [2, 1])

    def test_total_is_roster_length(self, schema_small):
        rng = np.random.default_rng(5)
        attributes = tuple(schema_small.attributes)
        codes = np.column_stack(
            [rng.integers(0, a.size, size=64) for a in attributes]
        ).astype(np.int16)
        candidate = CandidatePopulation(attributes, codes)
        for attribute in attributes:
            counts = np.bincount(candidate.column(attribute.name), minlength=attribute.size)
            assert len(counts) == attribute.size
            assert counts.sum() == 64

    def test_degenerate_column(self, schema_small):
        attributes = tuple(schema_small.attributes)
        codes = np.ones((10, 3), dtype=np.int16)
        candidate = CandidatePopulation(attributes, codes)
        assert np.array_equal(np.bincount(candidate.column("age"), minlength=3), [0, 10, 0])


class TestGenerateCandidate:
    def test_permissive_rules_give_full_roster(self, schema_small):
        plan = make_plan(schema_small)
        rules = CompiledRules([], plan.attributes)
        candidate = generate_candidate(plan, 100, rules, np.random.default_rng(1))
        assert len(candidate) == 100

    def test_rules_hold_in_output(self, schema_small, rule_no_child_marriage):
        plan = make_plan(schema_small)
        compiled = CompiledRules([rule_no_child_marriage], plan.attributes)
        candidate = generate_candidate(plan, 500, compiled, np.random.default_rng(2))
        assert not compiled.violation_mask(candidate.codes).any()

    def test_contradictory_rules_exhaust_retries(self, schema_small):
        plan = make_plan(schema_small)
        forbid_everyone = ValidationRule(
            name="nobody", clauses=(("sex", frozenset({"m", "f"})),)
        )
        rules = CompiledRules([forbid_everyone], plan.attributes)
        # README documents 100 draws per roster slot.
        with pytest.raises(EvolutionError, match="exhausted 100 retries"):
            generate_candidate(plan, 10, rules, np.random.default_rng(3))

    def test_zero_size_rejected(self, schema_small):
        plan = make_plan(schema_small)
        with pytest.raises(DataError):
            generate_candidate(
                plan, 0, CompiledRules([], plan.attributes), np.random.default_rng(4)
            )

    def test_same_seed_same_candidate(self, schema_small, rule_no_child_marriage):
        plan = make_plan(schema_small)
        rules = CompiledRules([rule_no_child_marriage], plan.attributes)
        first = generate_candidate(plan, 80, rules, np.random.default_rng(9))
        second = generate_candidate(plan, 80, rules, np.random.default_rng(9))
        assert np.array_equal(first.codes, second.codes)
