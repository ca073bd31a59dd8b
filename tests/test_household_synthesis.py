"""Tests for composition parsing, the household stage's search and allocation."""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synthpop import (
    Attribute,
    AttributeSchema,
    CandidatePopulation,
    ContingencyTable,
    DataError,
    EvolutionConfig,
    ObjectiveSpec,
    RegionDataset,
    allocate,
    evolve,
    parse_composition,
)
from synthpop.census_data import HOUSEHOLDS
from synthpop.household_synthesis import AGE_CLASS_BY_GROUP

_CLASS_CODE = {"C": 0, "A": 1, "E": 2}


def make_persons(schema, letters):
    """Single-attribute person roster with one slot per age-class letter."""
    codes = np.array([[_CLASS_CODE[c]] for c in letters], dtype=np.int16)
    return CandidatePopulation((schema["age"],), codes)


def member_lists(result):
    ids, bounds = result.member_ids.tolist(), result.bounds.tolist()
    return [ids[start:stop] for start, stop in zip(bounds, bounds[1:])]


def reference_allocate(persons, households, schema):
    """The person-by-person greedy that allocate's cumulative counts
    replace, kept as the reference: households in roster order each take
    the first free persons of every class they need, class by class in
    letter order. Returns member lists, complete flags and the sorted
    unallocated ids."""
    age = schema["age"]
    class_of_bin = [AGE_CLASS_BY_GROUP[age.group_of(code)] for code in age.categories]
    pools = {letter: deque() for letter in AGE_CLASS_BY_GROUP.values()}
    for index, code in enumerate(persons.column("age")):
        pools[class_of_bin[int(code)]].append(index)
    composition = households.attributes[households.column_index("composition")]
    members, complete = [], []
    for code in households.column("composition"):
        requirements = parse_composition(composition.categories[int(code)])
        taken = []
        for letter in sorted(requirements):
            pool = pools[letter]
            grab = min(requirements[letter], len(pool))
            taken.extend(pool.popleft() for _ in range(grab))
        members.append(taken)
        complete.append(len(taken) == sum(requirements.values()))
    unallocated = sorted(i for pool in pools.values() for i in pool)
    return members, complete, unallocated


def make_households(categories, codes):
    comp = Attribute(name="composition", categories=tuple(categories))
    matrix = np.array([[c] for c in codes], dtype=np.int16)
    return CandidatePopulation((comp,), matrix)


@pytest.fixture
def household_dataset(schema_small, dataset_small):
    hsize = Attribute(name="hsize", categories=("s1", "s2"))
    comp = Attribute(name="composition", categories=("1A", "1A 1C", "2A"))
    schema = AttributeSchema(tuple(schema_small.attributes) + (hsize, comp))
    table = ContingencyTable(
        "size_comp", (hsize, comp), np.array([[4.0, 0.0, 0.0], [0.0, 3.0, 3.0]])
    )
    return RegionDataset(
        "hh-region",
        schema,
        dataset_small.person_tables,
        (table,),
        target_persons=100,
        target_households=10,
    )


def household_specs():
    return [
        ObjectiveSpec(name="size_fit", table="size_comp", attribute="hsize"),
        ObjectiveSpec(name="comp_fit", table="size_comp", attribute="composition"),
    ]


class TestParseComposition:
    def test_two_class_code(self):
        assert parse_composition("2A 3C") == {"A": 2, "C": 3}

    def test_single_elder(self):
        assert parse_composition("1E") == {"E": 1}

    def test_repeated_letters_accumulate(self):
        assert parse_composition("1A 2A") == {"A": 3}

    def test_unknown_letter_rejected(self):
        with pytest.raises(DataError, match="unknown age class"):
            parse_composition("2Q")

    def test_empty_code_rejected(self):
        with pytest.raises(DataError, match="empty"):
            parse_composition("   ")

    def test_malformed_token_rejected(self):
        with pytest.raises(DataError, match="malformed"):
            parse_composition("A2")

    def test_zero_count_rejected(self):
        with pytest.raises(DataError, match="requires nobody"):
            parse_composition("0A")


class TestClassifyPerson:
    """How allocate sorts persons into age classes through the schema."""

    def test_child_adult_elder(self, schema_small):
        persons = make_persons(schema_small, "EAC")
        households = make_households(("1C", "1A", "1E"), [0, 1, 2])
        result = allocate(persons, households, schema_small)
        assert member_lists(result) == [[2], [1], [0]]

    def test_missing_assignment_rejected(self, schema_small):
        persons = CandidatePopulation((schema_small["sex"],), np.zeros((2, 1), dtype=np.int16))
        households = make_households(("1A",), [0])
        with pytest.raises(DataError, match="no attribute 'age'"):
            allocate(persons, households, schema_small)

    def test_ungrouped_bin_rejected(self):
        age = Attribute(name="age", categories=("young", "old"))
        persons = CandidatePopulation((age,), np.zeros((2, 1), dtype=np.int16))
        households = make_households(("1A",), [0])
        with pytest.raises(DataError, match="'young' lacks a child/adult/elder grouping"):
            allocate(persons, households, AttributeSchema((age,)))

    def test_unmapped_group_label_rejected(self):
        odd = Attribute(name="age", categories=("a0",), groups={"a0": "xx"})
        schema = AttributeSchema((odd,))
        persons = CandidatePopulation((odd,), np.zeros((2, 1), dtype=np.int16))
        households = make_households(("1A",), [0])
        with pytest.raises(DataError, match="'a0' lacks a child/adult/elder grouping"):
            allocate(persons, households, schema)


# Compositions for the random rosters: repeated letters, and households
# large enough to drain a small pool.
_COMPOSITIONS = ("1A", "1A 1C", "2A", "2A 3C", "1E", "1A 1E", "3A", "1A 1A", "1C 2E 1C", "4A 4C 2E")


@st.composite
def random_rosters(draw):
    """Person age letters, composition categories and household codes. The
    persons come from a random subset of the classes, so the classes left
    out have zero supply."""
    classes = sorted(draw(st.sets(st.sampled_from("CAE"), min_size=1)))
    letters = draw(st.lists(st.sampled_from(classes), min_size=1, max_size=60))
    categories = draw(st.lists(st.sampled_from(_COMPOSITIONS), min_size=1, unique=True))
    codes = draw(st.lists(st.integers(0, len(categories) - 1), min_size=1, max_size=30))
    return letters, tuple(categories), codes


class TestAllocate:
    def test_exact_fill_completes(self, schema_small):
        persons = make_persons(schema_small, "AACCC")
        households = make_households(("2A 3C",), [0])
        result = allocate(persons, households, schema_small)
        assert result.complete.tolist() == [True]
        assert member_lists(result) == [[0, 1, 2, 3, 4]]
        assert result.unallocated.tolist() == []
        assert result.complete_rate == 1.0

    def test_short_pool_leaves_partial(self, schema_small):
        persons = make_persons(schema_small, "A")
        households = make_households(("2A",), [0])
        result = allocate(persons, households, schema_small)
        assert result.complete.tolist() == [False]
        assert member_lists(result) == [[0]]
        assert result.complete_rate == 0.0

    def test_households_served_in_roster_order(self, schema_small):
        # One adult and one child. The first household takes the adult and
        # completes; the second needs an adult plus a child but only the
        # child is left, so it ends up partial.
        persons = make_persons(schema_small, "AC")
        households = make_households(("1A", "1A 1C"), [0, 1])
        result = allocate(persons, households, schema_small)
        assert member_lists(result) == [[0], [1]]
        assert result.complete.tolist() == [True, False]
        assert result.unallocated.tolist() == []

    def test_members_come_class_by_class_in_letter_order(self, schema_small):
        persons = make_persons(schema_small, "ECACA")
        households = make_households(("1E 2C 2A",), [0])
        result = allocate(persons, households, schema_small)
        assert member_lists(result) == [[2, 4, 1, 3, 0]]

    def test_classes_never_borrow(self, schema_small):
        persons = make_persons(schema_small, "EEE")
        households = make_households(("2A",), [0])
        result = allocate(persons, households, schema_small)
        assert member_lists(result) == [[]]
        assert result.unallocated.tolist() == [0, 1, 2]

    def test_composition_comes_from_the_roster_code(self, schema_small):
        # Code 1 is "2A", so the one adult leaves the household short.
        persons = make_persons(schema_small, "A")
        households = make_households(("1A", "2A"), [1])
        result = allocate(persons, households, schema_small)
        assert member_lists(result) == [[0]]
        assert result.complete.tolist() == [False]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rosters=random_rosters())
    def test_matches_the_person_by_person_greedy(self, schema_small, rosters):
        letters, categories, codes = rosters
        persons = make_persons(schema_small, letters)
        households = make_households(categories, codes)
        result = allocate(persons, households, schema_small)
        members, complete, unallocated = reference_allocate(persons, households, schema_small)
        assert member_lists(result) == members
        assert result.complete.tolist() == complete
        assert result.unallocated.tolist() == unallocated

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rosters=random_rosters())
    def test_bounds_split_the_flat_ids(self, schema_small, rosters):
        # The bounds run from 0 to the end of the flat ids without going
        # back, one household apart, and the flat ids with the unallocated
        # remainder give every person id exactly once.
        letters, categories, codes = rosters
        persons = make_persons(schema_small, letters)
        result = allocate(persons, make_households(categories, codes), schema_small)
        bounds = result.bounds.tolist()
        assert len(bounds) == len(codes) + 1 == len(result.complete) + 1
        assert bounds[0] == 0 and bounds[-1] == len(result.member_ids)
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        everyone = result.member_ids.tolist() + result.unallocated.tolist()
        assert sorted(everyone) == list(range(len(letters)))

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        letters=st.lists(st.sampled_from("CAE"), min_size=1, max_size=80),
        categories=st.lists(
            st.sampled_from(("1A", "1A 1C", "2A", "2A 3C", "1E", "1A 1E", "3A")),
            min_size=1,
            unique=True,
        ),
        n_households=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_allocation_partitions_the_roster(
        self, schema_small, letters, categories, n_households, seed
    ):
        # Any person mix, composition mix and roster sizes: allocated
        # members and the unallocated remainder cover every person once.
        rng = np.random.default_rng(seed)
        persons = make_persons(schema_small, letters)
        households = make_households(
            tuple(categories), list(rng.integers(0, len(categories), size=n_households))
        )
        result = allocate(persons, households, schema_small)
        allocated = [m for members in member_lists(result) for m in members]
        assert len(set(allocated)) == len(allocated)
        assert sorted(allocated + result.unallocated.tolist()) == list(range(len(letters)))

    def test_complete_means_requirements_met_exactly(self, schema_small):
        rng = np.random.default_rng(37)
        categories = ("1A", "1A 1C", "2A 3C", "1E")
        persons = make_persons(
            schema_small, ["CAE"[i] for i in rng.integers(0, 3, size=40)]
        )
        households = make_households(
            categories, list(rng.integers(0, len(categories), size=15))
        )
        result = allocate(persons, households, schema_small)
        for code, members, complete in zip(
            households.codes[:, 0], member_lists(result), result.complete
        ):
            requirements = parse_composition(categories[code])
            got = {}
            for member in members:
                letter = {0: "C", 1: "A", 2: "E"}[int(persons.codes[member, 0])]
                got[letter] = got.get(letter, 0) + 1
            if complete:
                assert got == requirements
            else:
                assert all(
                    got.get(k, 0) <= v for k, v in requirements.items()
                )
                assert sum(got.values()) < sum(requirements.values())

    def test_exact_supply_leaves_nobody_out(self, schema_small):
        categories = ("1A 1C", "2A", "1E")
        households = make_households(categories, [0, 1, 2, 0])
        # Demand: two of "1A 1C" (2A 2C), one "2A", one "1E".
        persons = make_persons(schema_small, "AAAACCE")
        result = allocate(persons, households, schema_small)
        assert result.unallocated.tolist() == []
        assert result.complete.all()
        assert sum(len(m) for m in member_lists(result)) == 7

    def test_repeat_runs_are_identical(self, schema_small):
        rng = np.random.default_rng(41)
        persons = make_persons(
            schema_small, ["CAE"[i] for i in rng.integers(0, 3, size=30)]
        )
        households = make_households(("1A", "2A 3C"), [0, 1, 0, 1])
        first = allocate(persons, households, schema_small)
        second = allocate(persons, households, schema_small)
        assert member_lists(first) == member_lists(second)
        assert np.array_equal(first.complete, second.complete)
        assert np.array_equal(first.unallocated, second.unallocated)

    def test_empty_rosters_rejected(self, schema_small):
        households = make_households(("1A",), [0])
        persons = make_persons(schema_small, "A")
        empty = CandidatePopulation(
            (schema_small["age"],), np.empty((0, 1), dtype=np.int16)
        )
        with pytest.raises(DataError):
            allocate(empty, households, schema_small)

    def test_bad_composition_category_rejected(self, schema_small):
        persons = make_persons(schema_small, "A")
        households = make_households(("9Z",), [0])
        with pytest.raises(DataError):
            allocate(persons, households, schema_small)

    def test_ungrouped_age_bins_rejected(self, schema_small):
        # An age attribute whose bins carry no groups, here the marital
        # categories, cannot sort persons into age classes.
        age = Attribute(name="age", categories=schema_small["marital"].categories)
        schema = AttributeSchema((schema_small["sex"], age, schema_small["marital"]))
        persons = CandidatePopulation((age,), np.zeros((2, 1), dtype=np.int16))
        households = make_households(("1A",), [0])
        with pytest.raises(DataError, match="grouping"):
            allocate(persons, households, schema)


class TestGenerateHouseholds:
    """``evolve`` over the household stage, as the CLI runs it."""

    def test_requires_household_tables(self, dataset_small):
        specs = [ObjectiveSpec(name="x", table="sex_age", attribute="sex")]
        with pytest.raises(DataError, match="'sex_age', which is not a households table"):
            evolve(
                dataset_small, HOUSEHOLDS, specs,
                EvolutionConfig(population_size=10, generations=1),
            )

    def test_person_objectives_rejected(self, household_dataset):
        specs = [ObjectiveSpec(name="x", table="sex_age", attribute="sex")]
        with pytest.raises(DataError, match="'sex_age', which is not a households table"):
            evolve(
                household_dataset,
                HOUSEHOLDS,
                specs,
                EvolutionConfig(population_size=10, generations=1),
            )

    def test_evolves_household_rosters(self, household_dataset, offered_rosters):
        config = EvolutionConfig(population_size=10, generations=3, seed=7)
        archive, history = evolve(household_dataset, HOUSEHOLDS, household_specs(), config)
        assert len(archive) >= 1
        assert len(history.best) == 4
        # Every roster offered to the archive, the held ones among them.
        assert len(offered_rosters) >= len(archive)
        for candidate in offered_rosters:
            assert len(candidate) == 10
            assert candidate.attribute_names == ("hsize", "composition")
        assert np.all(archive.objective_matrix() >= 0)

    def test_same_seed_reproduces(self, household_dataset):
        config = EvolutionConfig(population_size=10, generations=4, seed=11)
        first, _ = evolve(household_dataset, HOUSEHOLDS, household_specs(), config)
        second, _ = evolve(household_dataset, HOUSEHOLDS, household_specs(), config)
        assert np.array_equal(first.objective_matrix(), second.objective_matrix())

    def test_joint_sampling_draws_observed_cells_only(self, household_dataset, offered_rosters):
        config = EvolutionConfig(population_size=10, generations=0, seed=3)
        archive, _ = evolve(household_dataset, HOUSEHOLDS, household_specs(), config)
        observed_pairs = {(0, 0), (1, 1), (1, 2)}
        assert len(offered_rosters) >= len(archive)
        for candidate in offered_rosters:
            pairs = {tuple(row) for row in candidate.codes.tolist()}
            assert pairs <= observed_pairs
