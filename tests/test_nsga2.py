"""Tests for the multi-objective engine: sorting, breeding, archive, loop.

The per-child operators live in conftest as the reference that ``breed``
must reproduce; their own tests pin that reference down by hand.
"""

import math
import tracemalloc
import weakref
from dataclasses import replace

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
    ObjectiveEvaluator,
    ObjectiveSpec,
    ParetoArchive,
    RegionDataset,
    ValidationRule,
    breed,
    crowding_distance,
    environmental_selection,
    evolve,
    fast_nondominated_sort,
    generate_candidate,
    load_archive,
    save_archive,
    select_best,
)
from synthpop import nsga2
from synthpop.census_data import PERSONS
from synthpop.config import load_dataset, load_run_config, load_stage_rules
from synthpop.nsga2 import rank_population, substream
from synthpop.population_model import CompiledRules, CountLayout

from conftest import (
    FIXTURE_DIR,
    binary_tournament,
    breed_tied,
    marginal_layout,
    mixed_layouts,
    recount,
    recounts,
    reference_breed,
    reference_crowding,
    resample_mutation,
    streams,
    swap_mutation,
    two_point_crossover,
    weighted_plan,
)

TOL = 1e-9


def dominates(a, b):
    """Pairwise-dominance oracle: a is no worse everywhere, better somewhere."""
    return bool(np.all(a <= b) and np.any(a < b))


def brute_force_fronts(vectors):
    """Reference partition: peel non-dominated layers by pairwise checks."""
    remaining = list(range(len(vectors)))
    fronts = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(dominates(vectors[j], vectors[i]) for j in remaining if j != i)
        ]
        fronts.append(layer)
        remaining = [i for i in remaining if i not in layer]
    return fronts


def make_candidate(schema, rng, size=20):
    attributes = tuple(schema.attributes)
    codes = np.column_stack(
        [rng.integers(0, a.size, size=size) for a in attributes]
    ).astype(np.int16)
    return CandidatePopulation(attributes, codes)


class FixedCuts:
    """Stand-in rng for two_point_crossover with chosen cut points."""

    def __init__(self, cut_a, cut_b):
        self.cuts = np.array([cut_a, cut_b])

    def integers(self, low, high, size):
        assert size == 2
        return self.cuts


class FixedPick:
    """Stand-in rng for binary_tournament: fixed contestants, fixed coin."""

    def __init__(self, i, j, coin=0):
        self.pair = np.array([i, j])
        self.coin = coin

    def integers(self, low, high, size=None):
        if size == 2:
            return self.pair
        return self.coin


class Scripted:
    """Stand-in rng that returns the given draws in turn, whatever is asked."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size=None):
        return self.draws.pop(0)

    def integers(self, low, high, size=None):
        return self.draws.pop(0)


class TestDominates:
    """Dominance as the sort applies it: a dominated vector falls to a
    later front, and vectors that do not dominate each other share one."""

    def test_strict_improvement(self):
        assert fast_nondominated_sort(np.array([[1.0, 2.0], [2.0, 3.0]])) == [[0], [1]]

    def test_equal_vectors_do_not_dominate(self):
        assert fast_nondominated_sort(np.array([[1.0, 2.0], [1.0, 2.0]])) == [[0, 1]]

    def test_incomparable_pair(self):
        assert fast_nondominated_sort(np.array([[1.0, 3.0], [2.0, 2.0]])) == [[0, 1]]
        assert fast_nondominated_sort(np.array([[2.0, 2.0], [1.0, 3.0]])) == [[0, 1]]

    def test_partial_improvement_dominates(self):
        assert fast_nondominated_sort(np.array([[1.0, 3.0], [1.0, 2.0]])) == [[1], [0]]


class TestFastNondominatedSort:
    def test_layered_square(self):
        vectors = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        fronts = fast_nondominated_sort(vectors)
        assert fronts == [[0], [1, 2], [3]]

    def test_mutually_incomparable_set(self):
        vectors = np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]])
        assert fast_nondominated_sort(vectors) == [[0, 1, 2, 3]]

    def test_single_point(self):
        assert fast_nondominated_sort(np.array([[3.0, 1.0]])) == [[0]]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            d = int(rng.integers(2, 4))
            vectors = rng.integers(0, 6, size=(n, d)).astype(np.float64)
            fast = fast_nondominated_sort(vectors)
            slow = brute_force_fronts(vectors)
            assert [sorted(f) for f in fast] == [sorted(f) for f in slow]

    def test_fronts_partition_the_input(self):
        rng = np.random.default_rng(53)
        vectors = rng.uniform(0, 1, size=(40, 3))
        fronts = fast_nondominated_sort(vectors)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(40))


class TestCrowdingDistance:
    def test_hand_front(self):
        front = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        distances = crowding_distance(front)
        assert np.isinf(distances[0]) and np.isinf(distances[2])
        assert distances[1] == pytest.approx(2.0, abs=TOL)

    def test_two_points_are_both_boundary(self):
        distances = crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.isinf(distances).all()

    def test_identical_points_have_zero_interior_distance(self):
        distances = crowding_distance(np.array([[1.0, 1.0]] * 3))
        assert np.isfinite(distances).sum() >= 1
        assert all(d == 0.0 for d in distances if np.isfinite(d))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=1, max_size=12
            )
        )
    )
    def test_matches_the_per_objective_formula(self, rows):
        # Few values: ties and zero spans are common, and n = 1, 2 occur.
        front = np.array(rows, dtype=np.float64) / 7
        assert np.array_equal(crowding_distance(front), reference_crowding(front))

    def test_interior_formula_on_random_fronts(self):
        rng = np.random.default_rng(59)
        values = np.sort(rng.uniform(0, 10, size=8))
        front = np.column_stack([values, -values])
        distances = crowding_distance(front)
        span = values[-1] - values[0]
        for k in range(1, 7):
            expected = 2 * (values[k + 1] - values[k - 1]) / span
            assert distances[k] == pytest.approx(expected, abs=1e-9)


class TestBinaryTournament:
    def test_lower_rank_wins(self):
        rank, crowding = np.array([1, 2]), np.array([0.0, 9.0])
        assert binary_tournament(rank, crowding, FixedPick(0, 1)) == 0
        assert binary_tournament(rank, crowding, FixedPick(1, 0)) == 0

    def test_crowding_breaks_rank_ties(self):
        rank, crowding = np.array([1, 1]), np.array([5.0, 2.0])
        assert binary_tournament(rank, crowding, FixedPick(0, 1)) == 0
        assert binary_tournament(rank, crowding, FixedPick(1, 0)) == 0

    def test_full_tie_falls_to_the_coin(self):
        rank, crowding = np.array([1, 1]), np.array([1.0, 1.0])
        assert binary_tournament(rank, crowding, FixedPick(0, 1, coin=0)) == 0
        assert binary_tournament(rank, crowding, FixedPick(0, 1, coin=1)) == 1

    def test_same_stream_same_winner(self):
        rank, crowding = np.array([1, 1, 2, 3]), np.array([1.0, 1.0, 2.0, 3.0])
        first = binary_tournament(rank, crowding, np.random.default_rng(123))
        second = binary_tournament(rank, crowding, np.random.default_rng(123))
        assert first == second

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            binary_tournament(np.array([], dtype=int), np.array([]), np.random.default_rng(0))


class TestRankPopulation:
    def test_ranks_and_crowding_in_row_order(self):
        objectives = np.array([[2.0, 2.0], [1.0, 3.0], [3.0, 3.0], [3.0, 1.0], [2.0, 2.0]])
        rank, crowding = rank_population(objectives)
        assert rank.tolist() == [1, 1, 2, 1, 1]
        front = [0, 1, 3, 4]
        assert np.array_equal(crowding[front], crowding_distance(objectives[front]))
        assert np.isinf(crowding[2])


class TestTwoPointCrossover:
    def test_fixed_cuts_exchange_middle_slice(self, schema_small):
        attributes = tuple(schema_small.attributes)
        first = CandidatePopulation(
            attributes, np.tile(np.arange(5, dtype=np.int16) % 2, (3, 1)).T
        )
        second = CandidatePopulation(
            attributes, np.ones((5, 3), dtype=np.int16)
        )
        child_a, child_b = two_point_crossover(first, second, FixedCuts(1, 3))
        assert np.array_equal(child_a.codes[:1], first.codes[:1])
        assert np.array_equal(child_a.codes[1:3], second.codes[1:3])
        assert np.array_equal(child_a.codes[3:], first.codes[3:])
        assert np.array_equal(child_b.codes[1:3], first.codes[1:3])

    def test_full_span_cuts_swap_parents(self, schema_small):
        rng = np.random.default_rng(3)
        first = make_candidate(schema_small, rng)
        second = make_candidate(schema_small, rng)
        child_a, child_b = two_point_crossover(first, second, FixedCuts(0, len(first)))
        assert np.array_equal(child_a.codes, second.codes)
        assert np.array_equal(child_b.codes, first.codes)

    def test_equal_cuts_copy_parents(self, schema_small):
        rng = np.random.default_rng(4)
        first = make_candidate(schema_small, rng)
        second = make_candidate(schema_small, rng)
        child_a, child_b = two_point_crossover(first, second, FixedCuts(2, 2))
        assert np.array_equal(child_a.codes, first.codes)
        assert np.array_equal(child_b.codes, second.codes)

    def test_children_mix_rows_from_both_parents(self, schema_small):
        rng = np.random.default_rng(5)
        first = make_candidate(schema_small, rng, size=30)
        second = make_candidate(schema_small, rng, size=30)
        for _ in range(25):
            child_a, child_b = two_point_crossover(first, second, rng)
            for row in range(30):
                a_row = child_a.codes[row]
                assert np.array_equal(a_row, first.codes[row]) or np.array_equal(
                    a_row, second.codes[row]
                )
                b_row = child_b.codes[row]
                assert np.array_equal(b_row, first.codes[row]) or np.array_equal(
                    b_row, second.codes[row]
                )

    def test_length_mismatch_rejected(self, schema_small):
        rng = np.random.default_rng(6)
        first = make_candidate(schema_small, rng, size=10)
        second = make_candidate(schema_small, rng, size=12)
        with pytest.raises(ValueError):
            two_point_crossover(first, second, rng)


class TestSwapMutation:
    def test_probability_zero_is_identity(self, schema_small):
        rng = np.random.default_rng(7)
        candidate = make_candidate(schema_small, rng)
        assert swap_mutation(candidate, 0.0, rng) is candidate

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        roster=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        with_rule=st.booleans(),
    )
    def test_marginals_preserved(self, sizes, roster, seed, with_rule):
        # Any category mix, roster size and seed, through generations that
        # only swap; with a rule, skipped swaps must conserve the counts too.
        attributes = tuple(
            Attribute(f"x{i}", tuple(f"c{k}" for k in range(n)))
            for i, n in enumerate(sizes)
        )
        rng = np.random.default_rng(seed)
        mix = [rng.dirichlet(np.full(n, 0.5)) for n in sizes]
        codes = np.column_stack(
            [rng.choice(n, size=roster, p=p) for n, p in zip(sizes, mix)]
        ).astype(np.int16)
        candidate = CandidatePopulation(attributes, codes)
        rule = ValidationRule("no-c0", (("x0", frozenset({"c0"})),))
        rules = CompiledRules([rule] if with_rule else [], attributes)
        plan = weighted_plan([(a, np.ones(a.size)) for a in attributes])
        config = EvolutionConfig(
            population_size=2, offspring_size=4, crossover_probability=0.0,
            mutation_probability=1.0,
        )
        rngs = streams(seed)
        population = [candidate]
        for _ in range(15):
            population = breed_tied(population, config, plan, rules, rngs)
        for mutated in population:
            for col, n in enumerate(sizes):
                before = np.bincount(candidate.codes[:, col], minlength=n)
                assert np.array_equal(np.bincount(mutated.codes[:, col], minlength=n), before)

    def test_rule_violating_swap_reverts(self, schema_small, rule_no_child_marriage):
        attributes = tuple(schema_small.attributes)
        # slot 0: child single; slot 1: adult married. Swapping ages would
        # marry the child, so the mutation must return the input unchanged.
        codes = np.array([[0, 0, 0], [0, 1, 1]], dtype=np.int16)
        candidate = CandidatePopulation(attributes, codes)

        class ForcedSwap:
            def random(self):
                return 0.0

            def integers(self, low, high, size=None):
                if size == 2:
                    return np.array([0, 1])
                return 1  # the age column

        compiled = CompiledRules([rule_no_child_marriage], attributes)
        mutated = swap_mutation(candidate, 1.0, ForcedSwap(), compiled)
        assert mutated is candidate


    def test_equal_values_return_the_input(self, schema_small):
        attributes = tuple(schema_small.attributes)
        # A constant marital column: any swap there changes nothing.
        codes = np.column_stack([np.arange(6) % 2, np.arange(6) % 3, np.zeros(6)])
        candidate = CandidatePopulation(attributes, codes.astype(np.int16))
        for pair, col in (((0, 3), 2), ((4, 4), 1)):

            class ForcedSwap:
                def random(self):
                    return 0.0

                def integers(self, low, high, size=None):
                    return np.array(pair) if size == 2 else col

            assert swap_mutation(candidate, 1.0, ForcedSwap()) is candidate

    def test_a_skipped_swap_draws_what_an_applied_one_does(self, schema_small):
        attributes = tuple(schema_small.attributes)
        candidate = CandidatePopulation(attributes, np.zeros((8, 3), dtype=np.int16))
        rng = np.random.default_rng(21)
        twin = np.random.default_rng(21)
        assert swap_mutation(candidate, 1.0, rng) is candidate
        twin.random()
        twin.integers(0, 8, size=2)
        twin.integers(0, 3)
        assert rng.random() == twin.random()


class TestResampleMutation:
    def make_plan(self, schema):
        return weighted_plan(
            [
                (schema["sex"], np.array([0.5, 0.5])),
                (schema["age"], np.array([0.4, 0.4, 0.2])),
                (schema["marital"], np.array([0.7, 0.3])),
            ]
        )

    def test_probability_zero_is_identity(self, schema_small):
        rng = np.random.default_rng(9)
        candidate = make_candidate(schema_small, rng)
        plan = self.make_plan(schema_small)
        assert resample_mutation(candidate, 0.0, plan, rng) is candidate

    def test_touches_at_most_slots_rows(self, schema_small):
        rng = np.random.default_rng(10)
        candidate = make_candidate(schema_small, rng, size=60)
        plan = self.make_plan(schema_small)
        mutated = resample_mutation(candidate, 1.0, plan, rng, slots=5)
        changed = np.any(mutated.codes != candidate.codes, axis=1)
        assert changed.sum() <= 5

    def test_rules_hold_after_mutation(self, schema_small, rule_no_child_marriage):
        rng = np.random.default_rng(11)
        plan = self.make_plan(schema_small)
        compiled = CompiledRules([rule_no_child_marriage], plan.attributes)
        population = [generate_candidate(plan, 80, compiled, rng)]
        config = EvolutionConfig(
            population_size=2, offspring_size=4, crossover_probability=0.0,
            mutation_probability=1.0, resample_probability=1.0, resample_slots=8,
        )
        rngs = streams(11)
        for _ in range(25):
            population = breed_tied(population, config, plan, compiled, rngs)
            for child in population:
                assert not compiled.violation_mask(child.codes).any()

    def test_candidate_layout_must_match_plan(self, schema_small):
        rng = np.random.default_rng(13)
        candidate = make_candidate(schema_small, rng)
        reordered = weighted_plan(
            [
                (schema_small["marital"], np.array([0.7, 0.3])),
                (schema_small["age"], np.array([0.4, 0.4, 0.2])),
                (schema_small["sex"], np.array([0.5, 0.5])),
            ]
        )
        with pytest.raises(ValueError, match="layouts differ"):
            resample_mutation(candidate, 1.0, reordered, rng)

    def test_same_stream_same_result(self, schema_small):
        candidate = make_candidate(schema_small, np.random.default_rng(12), size=40)
        plan = self.make_plan(schema_small)
        first = resample_mutation(
            candidate, 1.0, plan, np.random.default_rng(99), slots=6
        )
        second = resample_mutation(
            candidate, 1.0, plan, np.random.default_rng(99), slots=6
        )
        assert np.array_equal(first.codes, second.codes)


def labelled(sizes):
    """Attributes x0, x1, ... with categories c0, c1, ... of the given sizes."""
    return tuple(
        Attribute(f"x{i}", tuple(f"c{k}" for k in range(n))) for i, n in enumerate(sizes)
    )


def c0_pair_rule(attributes):
    """No row may start and end on c0 (with one column: hold c0). Plans
    redraw c0 and swaps move it, so both break the rule."""
    ends = (attributes[0], attributes[-1])
    clauses = tuple(dict.fromkeys((a.name, frozenset({"c0"})) for a in ends))
    return ValidationRule("no-c0-pair", clauses)


def valid_codes(sizes, roster, rng):
    """Random codes that keep :func:`c0_pair_rule`."""
    codes = np.column_stack([rng.integers(0, n, size=roster) for n in sizes])
    bad = (codes[:, 0] == 0) & (codes[:, -1] == 0)
    codes[bad, 0] = rng.integers(1, sizes[0], size=int(bad.sum()))
    return codes


PROBABILITY = st.sampled_from((0.0, 0.3, 1.0))


class TestCarriedCounts:
    """``breed`` derives each child's counts from its parent's; through any
    chain of generations they equal a fresh count, in any layout."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        sizes=st.lists(st.integers(2, 6), min_size=1, max_size=4),
        # Short rosters, rosters across the first prefix-count block edges,
        # and long rosters whose slices span many whole blocks.
        roster=st.one_of(
            st.integers(1, 40), st.integers(500, 1600), st.integers(6000, 9000)
        ),
        seed=st.integers(0, 2**32 - 1),
        generations=st.lists(
            st.tuples(PROBABILITY, PROBABILITY, PROBABILITY, st.integers(1, 12)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_counts_after_any_operator_sequence(self, data, sizes, roster, seed, generations):
        attributes = labelled(sizes)
        layout = data.draw(mixed_layouts(attributes))
        rules = CompiledRules([c0_pair_rule(attributes)], attributes)
        plan = weighted_plan([(a, np.ones(a.size)) for a in attributes])
        rng = np.random.default_rng(seed)
        population = [
            CandidatePopulation(attributes, valid_codes(sizes, roster, rng)) for _ in range(2)
        ]
        counts = recounts(population, layout)
        for generation, (cross, swap, resample, slots) in enumerate(generations):
            config = EvolutionConfig(
                population_size=2, offspring_size=4, crossover_probability=cross,
                mutation_probability=swap, resample_probability=resample,
                resample_slots=slots,
            )
            rngs = streams(seed + generation)
            population, counts = breed(
                population, counts, np.ones(2), np.zeros(2), config, plan, rules, layout, rngs
            )
            assert counts.dtype == np.int64
            assert counts.shape == (4, layout.size)
            for child, carried in zip(population, counts):
                assert np.array_equal(carried, recount(child.codes, layout))
                assert not rules.violation_mask(child.codes).any()


class TestBreed:
    """One pass over a generation equals the per-child operators in turn."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        sizes=st.lists(st.integers(2, 5), min_size=1, max_size=4),
        roster=st.integers(1, 40),
        members=st.integers(1, 5),
        pairs=st.integers(1, 6),
        probabilities=st.tuples(PROBABILITY, PROBABILITY, PROBABILITY),
        # Up to 60 slots on at most 40 rows, so rows and cells repeat.
        slots=st.integers(1, 60),
        with_rule=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_child_operators(
        self, data, sizes, roster, members, pairs, probabilities, slots, with_rule, seed
    ):
        attributes = labelled(sizes)
        layout = data.draw(mixed_layouts(attributes))
        rng = np.random.default_rng(seed)
        plan = weighted_plan([(a, rng.dirichlet(np.ones(a.size))) for a in attributes])
        rules = CompiledRules([c0_pair_rule(attributes)] if with_rule else [], attributes)
        population = [
            CandidatePopulation(attributes, valid_codes(sizes, roster, rng).astype(np.uint8))
            for _ in range(members)
        ]
        # Few distinct ranks and crowdings, so tournaments often tie fully.
        rank = rng.integers(1, 3, size=members)
        crowding = rng.choice([0.0, 1.0, np.inf], size=members)
        cross, swap, resample = probabilities
        config = EvolutionConfig(
            population_size=2, offspring_size=2 * pairs, crossover_probability=cross,
            mutation_probability=swap, resample_probability=resample, resample_slots=slots,
        )
        ours, theirs = streams(seed), streams(seed)
        children, counts = breed(
            population, recounts(population, layout), rank, crowding, config, plan, rules,
            layout, ours,
        )
        expected = reference_breed(
            population, rank, crowding, config, plan, rules if with_rule else None, theirs
        )
        assert len(children) == len(expected) == len(counts) == 2 * pairs
        for child, carried, reference in zip(children, counts, expected):
            assert child.codes.dtype == reference.codes.dtype
            assert np.array_equal(child.codes, reference.codes)
            assert np.array_equal(carried, recount(reference.codes, layout))
            # A child that nothing changed is its parent, in both.
            assert (child is reference) == any(reference is p for p in population)
        # Every stream made the same draws.
        for a, b in zip(ours, theirs):
            assert a.random() == b.random()

    @settings(max_examples=100, deadline=None)
    @given(
        probabilities=st.tuples(PROBABILITY, PROBABILITY, PROBABILITY),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_child_is_a_member_or_one_recipe_over_one(self, probabilities, seed):
        sizes = (3, 4, 2)
        attributes = labelled(sizes)
        rng = np.random.default_rng(seed)
        plan = weighted_plan([(a, rng.dirichlet(np.ones(a.size))) for a in attributes])
        rules = CompiledRules([c0_pair_rule(attributes)], attributes)
        population = [
            CandidatePopulation(attributes, valid_codes(sizes, 20, rng).astype(np.uint8))
            for _ in range(4)
        ]
        cross, swap, resample = probabilities
        config = EvolutionConfig(
            population_size=4, offspring_size=12, crossover_probability=cross,
            mutation_probability=swap, resample_probability=resample, resample_slots=3,
        )
        layout = marginal_layout(attributes)
        children, _ = breed(
            population, recounts(population, layout), np.ones(4), np.zeros(4), config, plan,
            rules, layout, streams(seed),
        )
        for child in children:
            if any(child is p for p in population):
                continue
            base, patches = child._recipe
            assert any(base is p for p in population) and base._recipe is None
            # The crossover slice, the mutation patch, or the slice then the patch.
            kinds = [isinstance(rows, slice) for rows, _ in patches]
            assert kinds in ([True], [False], [True, False])

    def test_uncrossed_child_swapped_then_resampled(self):
        # Without crossover a swapped child is a roster over its parent and
        # the swap alone; a resample of 40 cells over 12 rows then reads
        # its old values through that swap.
        sizes = (3, 4, 2)
        attributes = labelled(sizes)
        rng = np.random.default_rng(5)
        plan = weighted_plan([(a, rng.dirichlet(np.ones(a.size))) for a in attributes])
        rules = CompiledRules([c0_pair_rule(attributes)], attributes)
        population = [
            CandidatePopulation(attributes, valid_codes(sizes, 12, rng).astype(np.uint8))
            for _ in range(3)
        ]
        config = EvolutionConfig(
            population_size=2, offspring_size=8, crossover_probability=0.0,
            mutation_probability=1.0, resample_probability=1.0, resample_slots=40,
        )
        rank, crowding = np.ones(3), np.zeros(3)
        layout = CountLayout(attributes, [(0,), (1,), (2,), (0, 1, 2), (2, 0)])
        children, counts = breed(
            population, recounts(population, layout), rank, crowding, config, plan, rules,
            layout, streams(11),
        )
        select_rng, _, mutate_rng = streams(11)
        both = 0
        for child, carried in zip(children, counts):
            parent = population[binary_tournament(rank, crowding, select_rng)]
            swapped = swap_mutation(parent, 1.0, mutate_rng, rules)
            reference = resample_mutation(swapped, 1.0, plan, mutate_rng, rules, slots=40)
            assert np.array_equal(child.codes, reference.codes)
            assert np.array_equal(carried, recount(reference.codes, layout))
            both += swapped is not parent and reference is not swapped
        assert both

    def test_a_broken_redraw_of_a_swapped_row_reverts_to_its_swapped_value(self):
        # Child 0 swaps column x0 of rows 0 and 1, then redraws row 0's x0 to
        # c0, which the rule forbids with x1 = c0; row 0 keeps its swapped
        # value, not its crossed one. Child 1 draws no mutation.
        attributes = labelled((3, 2))
        plan = weighted_plan([(a, np.ones(a.size)) for a in attributes])
        rules = CompiledRules([c0_pair_rule(attributes)], attributes)
        parent = CandidatePopulation(attributes, np.array([[1, 0], [2, 1]], dtype=np.uint8))
        config = EvolutionConfig(
            population_size=2, crossover_probability=0.0, mutation_probability=0.5,
            resample_probability=0.5, resample_slots=1,
        )
        select_rng, cross_rng, _ = streams(3)
        # Swap draw, swap rows and column; resample draw, row, column
        # uniform (x0's chance is 3/5) and value uniform (c0 below 1/3).
        mutate_rng = Scripted(
            0.0, np.array([0, 1]), 0, 0.0, np.array([0]), np.array([0.1]), np.array([0.1]),
            0.9, 0.9,
        )
        layout = marginal_layout(attributes)
        parent_counts = recounts([parent], layout)
        children, counts = breed(
            [parent], parent_counts, np.ones(1), np.zeros(1), config, plan, rules, layout,
            (select_rng, cross_rng, mutate_rng),
        )
        assert children[0].codes.tolist() == [[2, 0], [1, 1]]
        assert np.array_equal(counts, parent_counts.repeat(2, axis=0))
        assert children[1] is parent
        assert mutate_rng.draws == []

    def test_a_generation_makes_one_rule_check_per_mutation(self):
        calls = []

        class Counted(CompiledRules):
            def violation_mask(self, codes):
                calls.append(len(codes))
                return super().violation_mask(codes)

        sizes = (3, 4, 2)
        attributes = labelled(sizes)
        rng = np.random.default_rng(8)
        plan = weighted_plan([(a, rng.dirichlet(np.ones(a.size))) for a in attributes])
        rules = Counted([c0_pair_rule(attributes)], attributes)
        population = [
            CandidatePopulation(attributes, valid_codes(sizes, 30, rng).astype(np.uint8))
            for _ in range(4)
        ]
        config = EvolutionConfig(
            population_size=4, offspring_size=16, mutation_probability=1.0,
            resample_probability=1.0, resample_slots=5,
        )
        layout = marginal_layout(attributes)
        breed(
            population, recounts(population, layout), np.ones(4), np.zeros(4), config, plan,
            rules, layout, streams(8),
        )
        # Both rows of each of the 16 swaps, then every touched row.
        assert len(calls) == 2 and calls[0] == 32 and calls[1] >= 16


class TestEnvironmentalSelection:
    def select(self, ranks, crowdings, target):
        rank = np.array(ranks)
        crowding = np.array(crowdings, dtype=np.float64)
        return environmental_selection(rank, crowding, target).tolist()

    def test_whole_front_fits_exactly(self):
        assert self.select([1, 1, 1], [np.inf, 1.0, np.inf], 3) == [0, 1, 2]

    def test_truncation_prefers_crowded_boundary(self):
        ranks = [1, 1, 1, 2, 2, 2]
        crowdings = [np.inf, 2.0, np.inf, np.inf, 1.0, 0.5]
        assert self.select(ranks, crowdings, 4) == [0, 1, 2, 3]
        assert self.select(ranks, crowdings, 5) == [0, 1, 2, 3, 4]

    def test_whole_fronts_keep_input_order(self):
        # Front 1 (indices 1 and 3) fits whole and stays in input order even
        # though 3 is less crowded; front 2 is cut by descending crowding.
        assert self.select([2, 1, 2, 1], [1.0, 0.5, 3.0, np.inf], 3) == [1, 3, 2]

    def test_stable_order_on_ties(self):
        assert self.select([1, 1, 1, 1], [1.0, 1.0, 1.0, 1.0], 2) == [0, 1]
        assert self.select([1, 2, 2, 2], [np.inf, 1.0, 2.0, 2.0], 3) == [0, 2, 3]

    def test_oversized_target_rejected(self):
        with pytest.raises(ValueError):
            self.select([1], [np.inf], 5)


def archive_after(capacity, batches, weights=None):
    """An archive given each batch of objective vectors in one update,
    with a one-row roster per vector; returns it and the offered pairs."""
    attributes = (Attribute("x", ("a", "b")),)
    width = len(batches[0][0])
    archive = ParetoArchive(capacity, np.ones(width) if weights is None else weights)
    offered = []
    for batch in batches:
        rosters = [
            CandidatePopulation(attributes, np.array([[(len(offered) + k) % 2]], dtype=np.int16))
            for k in range(len(batch))
        ]
        vectors = np.array(batch, dtype=float).reshape(len(batch), width)
        archive.update(rosters, vectors)
        offered += zip(rosters, vectors)
    return archive, offered


class TestParetoArchive:
    def test_dominated_insert_is_rejected(self):
        archive, offered = archive_after(10, [[[1, 1]], [[2, 2], [1, 3]]])
        assert archive.objective_matrix().tolist() == [[1.0, 1.0]]
        assert dict(archive.held) == {0: offered[0][0]}

    def test_duplicate_objectives_rejected(self):
        archive, offered = archive_after(10, [[[1, 2]], [[1, 2], [1, 2]]])
        assert dict(archive.held) == {0: offered[0][0]}
        # Within one batch, the first of the identical rows is kept.
        archive, offered = archive_after(10, [[[2, 1], [2, 1]]])
        assert dict(archive.held) == {0: offered[0][0]}

    def test_dominator_evicts_only_what_it_dominates(self):
        # (1, 2) dominates (2, 2) but is incomparable with (3, 1).
        archive, offered = archive_after(10, [[[2, 2], [3, 1]], [[1, 2]]])
        assert archive.objective_matrix().tolist() == [[3.0, 1.0], [1.0, 2.0]]
        # Both vectors stay, but only the lower sum's roster is held.
        assert dict(archive.held) == {1: offered[2][0]}

    def test_dominator_sweeps_the_whole_archive(self):
        archive, _ = archive_after(10, [[[2, 2], [3, 1]], [[1, 1]]])
        assert archive.objective_matrix().tolist() == [[1.0, 1.0]]

    def test_capacity_prune_keeps_extremes(self):
        # (4, 2) has the lowest sum; the extremes have infinite crowding.
        front = [[k, (8 - k) ** 2 / 8] for k in range(9)]
        archive, _ = archive_after(3, [front])
        assert archive.objective_matrix().tolist() == [[0, 8], [4, 2], [8, 0]]
        # At capacity 2 crowding alone would keep both extremes; the lowest
        # sum takes one place, the earlier extreme the other.
        archive, _ = archive_after(2, [front])
        assert archive.objective_matrix().tolist() == [[0, 8], [4, 2]]

    def test_weights_choose_the_kept_row(self):
        front = [[0, 8], [3, 3], [8, 0], [1, 6], [6, 1]]
        archive, _ = archive_after(1, [front], weights=[1.0, 0.0])
        assert archive.objective_matrix().tolist() == [[0, 8]]
        archive, _ = archive_after(1, [front], weights=[1.0, 1.0])
        assert archive.objective_matrix().tolist() == [[3, 3]]

    def test_every_roster_tied_at_the_lowest_sum_is_held(self):
        # (1, 2, 5) and (2, 1, 4) tie at 3. (1, 2, 4) then dominates (1, 2, 5)
        # at the same sum, so the earliest member at the lowest sum becomes
        # the old member (2, 1, 4): its roster must have been held all along.
        archive, offered = archive_after(
            10, [[[1, 2, 5], [2, 1, 4]], [[1, 2, 4]]], weights=[1.0, 1.0, 0.0]
        )
        assert archive.objective_matrix().tolist() == [[2, 1, 4], [1, 2, 4]]
        assert dict(archive.held) == {0: offered[1][0], 1: offered[2][0]}
        assert archive.selected == 0
        assert archive.best is offered[1][0]

    def test_rosters_above_the_lowest_sum_are_freed(self):
        attributes = (Attribute("x", ("a", "b")),)
        archive = ParetoArchive(10, [1.0, 1.0])
        rosters = [
            CandidatePopulation(attributes, np.array([[k % 2]], dtype=np.uint8)) for k in range(4)
        ]
        refs = [weakref.ref(roster) for roster in rosters]
        archive.update(rosters[:3], np.array([[1.0, 3.0], [2.0, 1.0], [3.0, 0.5]]))
        assert len(archive) == 3
        del rosters[:3]
        # Sums 4, 3 and 3.5: only the roster at 3 outlives the update.
        assert [ref() is None for ref in refs[:3]] == [True, False, True]
        # A lower sum frees the roster that was held.
        archive.update(rosters, np.array([[0.5, 2.0]]))
        del rosters
        assert archive.objective_matrix().tolist() == [[2.0, 1.0], [3.0, 0.5], [0.5, 2.0]]
        assert [ref() is None for ref in refs] == [True, True, True, False]
        assert archive.best is refs[3]()
        assert archive.selected == 2

    def test_negative_weights_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            ParetoArchive(3, [1.0, -1.0])

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        data=st.integers(1, 3).flatmap(
            lambda m: st.tuples(
                st.lists(st.integers(0, 3), min_size=m, max_size=m),
                st.lists(
                    st.lists(
                        st.lists(st.integers(0, 5), min_size=m, max_size=m),
                        min_size=1,
                        max_size=8,
                    ),
                    min_size=1,
                    max_size=6,
                ),
            )
        ),
    )
    def test_invariants_after_any_inserts(self, capacity, data):
        weights, batches = data
        attributes = (Attribute("x", ("a", "b")),)
        archive = ParetoArchive(capacity, weights)
        offered = []
        for batch in batches:
            rosters = [
                CandidatePopulation(attributes, np.array([[k % 2]], dtype=np.int16))
                for k in range(len(batch))
            ]
            vectors = np.array(batch, dtype=float)
            archive.update(rosters, vectors)
            offered += zip(rosters, vectors)
            vector_of = {id(roster): vector for roster, vector in offered}
            matrix = archive.objective_matrix()
            assert not matrix.flags.writeable
            assert 1 <= len(archive) == len(matrix) <= capacity
            # The held rosters are exactly the members at the lowest sum,
            # however many weights are zero, and through evictions and
            # truncation row k stays held member k's vector.
            sums = matrix @ np.asarray(weights, dtype=float)
            lowest = np.flatnonzero(sums == sums.min()).tolist()
            assert list(archive.held) == lowest
            for k, roster in archive.held.items():
                assert np.array_equal(matrix[k], vector_of[id(roster)])
            # ``selected`` is the earliest of them and ``best`` its roster.
            assert archive.selected == lowest[0]
            assert archive.best is archive.held[lowest[0]]
            assert np.array_equal(vector_of[id(archive.best)], matrix[archive.selected])
            for i, a in enumerate(matrix):
                for j, b in enumerate(matrix):
                    if i != j:
                        assert not dominates(a, b)
                        assert not np.array_equal(a, b)
            # The lowest weighted sum offered so far is always a member's.
            sums = [float(np.dot(vector, weights)) for _, vector in offered]
            assert min(float(np.dot(row, weights)) for row in matrix) == min(sums)


class TestEvolutionConfig:
    def test_defaults_are_canonical(self):
        config = EvolutionConfig()
        assert config.offspring == config.population_size

    def test_odd_population_rejected(self):
        with pytest.raises(DataError):
            EvolutionConfig(population_size=21)

    def test_bad_probability_rejected(self):
        with pytest.raises(DataError):
            EvolutionConfig(crossover_probability=1.5)

    def test_offspring_override(self):
        config = EvolutionConfig(population_size=10, offspring_size=40)
        assert config.offspring == 40


class TestSubstream:
    def test_same_keys_same_stream(self):
        a = substream(42, 1, 3, 0).random(5)
        b = substream(42, 1, 3, 0).random(5)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = substream(42, 1, 3, 0).random(5)
        b = substream(42, 1, 3, 1).random(5)
        assert not np.array_equal(a, b)

    def test_negative_keys_are_accepted(self):
        stream = substream(-1, 2)
        assert 0.0 <= stream.random() < 1.0


class TestEvolve:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Every objective matrix the evaluator returns, in call order."""
        calls = []
        score = ObjectiveEvaluator.__call__

        def recording(evaluator, candidates):
            calls.append(score(evaluator, candidates))
            return calls[-1]

        monkeypatch.setattr(ObjectiveEvaluator, "__call__", recording)
        return calls

    def specs(self):
        return [
            ObjectiveSpec(name="sex_fit", table="sex_age", attribute="sex"),
            ObjectiveSpec(name="age_fit", table="sex_age", attribute="age"),
            ObjectiveSpec(name="marital_fit", table="age_marital", attribute="marital"),
        ]

    def test_rules_compile_once_per_stage(
        self, dataset_small, rule_no_child_marriage, monkeypatch
    ):
        compiles = []
        original = CompiledRules.__init__

        def counting(self, *args, **kwargs):
            compiles.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CompiledRules, "__init__", counting)
        counts = []
        for generations, offspring in ((1, 2), (6, 12)):
            compiles.clear()
            config = EvolutionConfig(
                population_size=4,
                generations=generations,
                offspring_size=offspring,
                mutation_probability=1.0,
                resample_probability=1.0,
                resample_slots=3,
                seed=8,
            )
            evolve(dataset_small, PERSONS, self.specs(), config, [rule_no_child_marriage])
            counts.append(len(compiles))
        # One compilation per evolve call, however long the run.
        assert counts == [1, 1]

    def test_zero_generations_archives_initial_front(self, dataset_small):
        config = EvolutionConfig(population_size=10, generations=0, seed=5)
        archive, history = evolve(dataset_small, PERSONS, self.specs(), config)
        assert len(history.best) == 1
        assert len(archive) >= 1
        matrix = archive.objective_matrix()
        for row in matrix:
            assert not any(
                dominates(other, row) for other in matrix if other is not row
            )

    def test_same_seed_reproduces_everything(
        self, dataset_small, rule_no_child_marriage, offered_rosters
    ):
        config = EvolutionConfig(
            population_size=10, generations=6, seed=9, resample_probability=0.5
        )
        first_archive, first_history = evolve(
            dataset_small, PERSONS, self.specs(), config, [rule_no_child_marriage]
        )
        first_offered = offered_rosters[:]
        offered_rosters.clear()
        second_archive, second_history = evolve(
            dataset_small, PERSONS, self.specs(), config, [rule_no_child_marriage]
        )
        assert np.array_equal(
            first_archive.objective_matrix(), second_archive.objective_matrix()
        )
        assert list(first_archive.held) == list(second_archive.held)
        # Every roster offered to the archive, in order, not only the held.
        assert len(first_offered) >= len(first_archive)
        for a, b in zip(first_offered, offered_rosters, strict=True):
            assert np.array_equal(a.codes, b.codes)
        for b1, b2 in zip(first_history.best, second_history.best, strict=True):
            assert np.array_equal(b1, b2)
            assert np.array_equal(first_history.normalize(b1), second_history.normalize(b2))

    def test_progress_called_once_per_generation(self, dataset_small):
        seen = []
        config = EvolutionConfig(population_size=10, generations=4, seed=3)
        evolve(
            dataset_small,
            PERSONS,
            self.specs(),
            config,
            progress=lambda stage, gen, best, secs: seen.append((stage, gen)),
        )
        assert seen == [("persons", g) for g in range(5)]

    @pytest.mark.parametrize("generations", [0, 1, 5])
    def test_progress_reports_each_generation_of_the_history(self, dataset_small, generations):
        seen = []
        config = EvolutionConfig(population_size=6, generations=generations, seed=2)
        _, history = evolve(
            dataset_small, PERSONS, self.specs(), config,
            progress=lambda stage, gen, best, secs: seen.append((gen, best, secs)),
        )
        assert [len(history.best), len(history.mean), len(history.seconds)] == [generations + 1] * 3
        assert [gen for gen, _, _ in seen] == list(range(generations + 1))
        for (_, best, secs), recorded, seconds in zip(seen, history.best, history.seconds):
            assert best is recorded
            assert secs == seconds

    def test_archive_best_is_monotone(self, dataset_small, rule_no_child_marriage):
        config = EvolutionConfig(
            population_size=20,
            generations=50,
            seed=21,
            resample_probability=1.0,
            resample_slots=10,
        )
        _, history = evolve(
            dataset_small, PERSONS, self.specs(), config, [rule_no_child_marriage]
        )
        trace = np.vstack([history.normalize(best) for best in history.best])
        assert np.all(np.diff(trace, axis=0) <= TOL)

    @pytest.mark.parametrize(
        ("seed", "weights"), [(1, (1.0, 1.0, 1.0)), (9, (1.0, 1.0, 1.0)), (4, (2.0, 1.0, 0.5))]
    )
    def test_export_has_the_lowest_weighted_sum_evaluated(
        self, dataset_small, rule_no_child_marriage, evaluated, seed, weights
    ):
        specs = [replace(spec, weight=w) for spec, w in zip(self.specs(), weights)]
        config = EvolutionConfig(
            population_size=4, generations=10, seed=seed,
            resample_probability=0.5, resample_slots=4,
        )
        archive, _ = evolve(dataset_small, PERSONS, specs, config, [rule_no_child_marriage])
        assert len(archive) <= config.population_size
        matrix = archive.objective_matrix()
        chosen = select_best(matrix, weights)
        assert chosen == archive.selected
        assert np.dot(matrix[chosen], weights) == np.vstack(evaluated).dot(weights).min()

    def test_history_best_is_the_running_minimum(self, dataset_small, evaluated):
        # Five objectives and an archive of two: the archive cannot hold
        # every objective's best, but the history still reports them.
        specs = [
            *self.specs(),
            ObjectiveSpec(name="sex_age_cells", table="sex_age", metric="l1"),
            ObjectiveSpec(name="age_marital_cells", table="age_marital"),
        ]
        config = EvolutionConfig(
            population_size=2, generations=12, seed=6,
            resample_probability=1.0, resample_slots=3,
        )
        _, history = evolve(dataset_small, PERSONS, specs, config)
        running = np.minimum.accumulate([rows.min(axis=0) for rows in evaluated])
        assert len(history.best) == len(running) == 13
        for recorded, best in zip(history.best, running):
            assert np.array_equal(recorded, best)

    def test_rules_hold_across_the_run(
        self, dataset_small, rule_no_child_marriage, offered_rosters
    ):
        config = EvolutionConfig(
            population_size=10,
            generations=8,
            seed=17,
            resample_probability=1.0,
            resample_slots=4,
        )
        archive, _ = evolve(
            dataset_small, PERSONS, self.specs(), config, [rule_no_child_marriage]
        )
        compiled = CompiledRules([rule_no_child_marriage], archive.best.attributes)
        # Every roster the archive was offered, so every member it ever had.
        offered = {id(roster) for roster in offered_rosters}
        assert len(offered) >= len(archive)
        assert all(id(roster) in offered for roster in archive.held.values())
        for candidate in offered_rosters:
            assert not compiled.violation_mask(candidate.codes).any()

    def test_peak_memory_holds_no_offspring_copies(self, dataset_small):
        # 200 offspring of a 20,000-row roster a generation. Built copies of
        # them would take about 200 rosters; the archive, which holds at
        # most a population, and two generations' populations fit in far
        # fewer.
        dataset = RegionDataset(
            "r", dataset_small.schema, dataset_small.person_tables, target_persons=20_000
        )
        config = EvolutionConfig(
            population_size=4, generations=3, offspring_size=200,
            resample_probability=1.0, resample_slots=5, seed=4,
        )
        roster_bytes = 20_000 * 3  # one byte per code
        # A first run makes the lazy imports, which are not the run's memory.
        warm_up = EvolutionConfig(population_size=4, generations=1)
        evolve(dataset_small, PERSONS, self.specs(), warm_up)
        def after_sampling(stage, generation, best, seconds):
            # Drawing the initial rosters has its own transient peak, which
            # is not the loop's.
            if generation == 0:
                tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            archive, _ = evolve(
                dataset, PERSONS, self.specs(), config, progress=after_sampling
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert archive.best.codes.nbytes == roster_bytes
        assert peak < (3 * config.population_size + 4) * roster_bytes

    def test_the_fixture_persons_stage_holds_about_one_roster(self):
        # The fixture's persons settings, cut to five generations: the
        # 100-member archive is full by then.
        config = load_run_config(FIXTURE_DIR / "config.yaml", generations=5)
        dataset = load_dataset(config)
        stage = config.persons
        archive, _ = evolve(
            dataset, PERSONS, stage.objectives, stage.evolution,
            load_stage_rules(config, dataset.schema)[PERSONS],
        )
        # Every roster the archive references, through its containers.
        found, stack = {}, [vars(archive)]
        while stack:
            item = stack.pop()
            if isinstance(item, CandidatePopulation):
                found[id(item)] = item
            elif isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, (list, tuple)):
                stack.extend(item)
        assert len(archive) == stage.evolution.population_size
        assert 1 <= len(found) <= 2
        assert id(archive.best) in found

    def test_no_recipe_outlives_its_generation(
        self, dataset_small, rule_no_child_marriage, monkeypatch
    ):
        archives, bred = [], []

        class Recorded(ParetoArchive):
            def __init__(self, *args):
                super().__init__(*args)
                archives.append(self)

        def recording(population, *args):
            # The population a generation breeds from has left the previous
            # one: all built, as is every roster the archive holds.
            for roster in (*population, *archives[0].held.values()):
                assert roster._recipe is None
            # A roster bred two generations ago lives on only if it is still
            # in the population or the archive.
            if len(bred) >= 2:
                kept = {id(r) for r in (*population, *archives[0].held.values())}
                for ref in bred[-2]:
                    assert ref() is None or id(ref()) in kept
            children, counts = breed(population, *args)
            bred.append([weakref.ref(r) for r in (*population, *children)])
            return children, counts

        monkeypatch.setattr(nsga2, "ParetoArchive", Recorded)
        monkeypatch.setattr(nsga2, "breed", recording)
        config = EvolutionConfig(
            population_size=6, generations=6, offspring_size=12, seed=2,
            mutation_probability=0.5, resample_probability=1.0, resample_slots=4,
        )
        archive, _ = evolve(
            dataset_small, PERSONS, self.specs(), config, [rule_no_child_marriage]
        )
        assert len(bred) == 6
        kept = {id(r) for r in archive.held.values()}
        for refs in bred:
            assert all(ref() is None or id(ref()) in kept for ref in refs)
        assert all(roster._recipe is None for roster in archive.held.values())

    @pytest.mark.parametrize("cells", [False, True])
    def test_only_survivors_and_held_rosters_are_built(
        self, dataset_small, rule_no_child_marriage, monkeypatch, cells
    ):
        # With or without full-cell objectives, every child built in a
        # generation survives it or is held by the archive after it.
        archives, pools, kept, built = [], [], [], []
        updating = []

        class Recorded(ParetoArchive):
            def __init__(self, *args):
                super().__init__(*args)
                archives.append(self)

            def update(self, *args):
                # The archive truncates with environmental selection too.
                updating.append(True)
                super().update(*args)
                updating.pop()

        def recording_breed(population, *args):
            children, counts = breed(population, *args)
            pools.append([*population, *children])
            return children, counts

        def recording_selection(rank, crowding, size):
            survivors = environmental_selection(rank, crowding, size)
            if updating:
                return survivors
            kept.append([
                *(pools[-1][i] for i in survivors.tolist()), *archives[0].held.values()
            ])
            return survivors

        build = CandidatePopulation.build

        def recording_build(roster):
            if roster._recipe is not None:
                built.append((len(pools), roster))
            build(roster)

        monkeypatch.setattr(nsga2, "ParetoArchive", Recorded)
        monkeypatch.setattr(nsga2, "breed", recording_breed)
        monkeypatch.setattr(nsga2, "environmental_selection", recording_selection)
        monkeypatch.setattr(CandidatePopulation, "build", recording_build)
        specs = self.specs()
        if cells:
            specs += [
                ObjectiveSpec(name="sex_age_cells", table="sex_age"),
                ObjectiveSpec(name="age_marital_cells", table="age_marital", metric="l1"),
            ]
        config = EvolutionConfig(
            population_size=4, generations=5, offspring_size=24, seed=3,
            mutation_probability=0.5, resample_probability=1.0, resample_slots=4,
        )
        evolve(dataset_small, PERSONS, specs, config, [rule_no_child_marriage])
        assert len(pools) == len(kept) == 5
        assert built
        for generation, roster in built:
            assert any(roster is k for k in kept[generation - 1])

    def test_no_specs_rejected(self, dataset_small):
        with pytest.raises(DataError):
            evolve(dataset_small, PERSONS, [], EvolutionConfig(population_size=10, generations=1))

    @pytest.mark.parametrize("sizes", [(2**13,) * 5, (2**13,) * 4 + (2**11,)])
    def test_layout_of_2_63_joint_cells_evolves_saves_and_loads(self, tmp_path, sizes):
        # 2**65 and 2**63 joint cells: no roster row is ever stored as its
        # joint cell index, so the layout's cell count is never bounded.
        assert math.prod(sizes) >= 2**63
        attributes = tuple(
            Attribute(f"a{i}", tuple(f"c{j}" for j in range(size)))
            for i, size in enumerate(sizes)
        )
        tables = tuple(
            ContingencyTable(f"t{i}", (a,), np.ones(a.size)) for i, a in enumerate(attributes)
        )
        schema = AttributeSchema(attributes)
        dataset = RegionDataset("r", schema, tables, target_persons=10)
        specs = [ObjectiveSpec(name="fit", table="t0", attribute="a0")]
        generations = []
        archive, history = evolve(
            dataset, PERSONS, specs, EvolutionConfig(population_size=4, generations=1),
            progress=lambda *args: generations.append(args),
        )
        assert len(generations) == 2
        selected = select_best(archive.objective_matrix(), [1.0])
        assert selected == archive.selected
        path = tmp_path / "archive.npz"
        save_archive(path, archive, history.names)
        objectives, loaded_selected, roster, names = load_archive(path, schema)
        assert names == ["fit"] and loaded_selected == selected
        assert np.array_equal(objectives, archive.objective_matrix())
        assert roster.attribute_names == tuple(a.name for a in attributes)
        assert roster.codes.dtype == np.uint16
        assert np.array_equal(roster.codes, archive.best.codes)

    def test_mixed_stage_specs_rejected(self, schema_small, dataset_small):
        homes = ContingencyTable(
            "household_size", (schema_small["sex"],), np.array([2.0, 1.0])
        )
        dataset = RegionDataset(
            "r",
            schema_small,
            dataset_small.person_tables,
            (homes,),
            target_persons=100,
            target_households=3,
        )
        specs = [
            ObjectiveSpec(name="a", table="sex_age", attribute="sex"),
            ObjectiveSpec(name="b", table="household_size", attribute="sex"),
        ]
        # The off-stage table shares the persons' sex axis, so only the
        # stage check can reject it.
        with pytest.raises(DataError, match="'household_size', which is not a persons table"):
            evolve(dataset, PERSONS, specs, EvolutionConfig(population_size=10, generations=1))
