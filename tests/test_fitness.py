"""Tests for objective metrics, normalization, and the evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthpop import (
    CandidatePopulation,
    DataError,
    ObjectiveEvaluator,
    ObjectiveSpec,
    l1_objective,
    normalize_objectives,
    rmse,
    trapezoid_area,
)
from synthpop.census_data import marginalize

from conftest import cell

TOL = 1e-9


def l1_oracle(actual, observed):
    """The scalar L1 formula, as it stood before the metrics went row-wise."""
    actual = np.asarray(actual, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    return float(np.abs(actual - observed).sum())


def trapezoid_oracle(actual, observed):
    """The scalar trapezoid formula, as it stood before the metrics went
    row-wise."""
    diff = np.abs(np.asarray(actual, dtype=np.float64) - np.asarray(observed, dtype=np.float64))
    if len(diff) == 1:
        return float(diff[0])
    return float(((diff[1:] + diff[:-1]) / 2.0).sum())


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestL1Objective:
    def test_hand_value(self):
        assert l1_objective(np.array([10.0, 20, 30]), np.array([12.0, 18, 30])) == pytest.approx(4.0, abs=TOL)

    def test_identity(self):
        assert l1_objective(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(0.0, abs=TOL)

    def test_total_shift(self):
        assert l1_objective(np.array([0.0, 0.0]), np.array([5.0, 5.0])) == pytest.approx(10.0, abs=TOL)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l1_objective(np.array([1.0, 2.0]), np.array([1.0]))


class TestTrapezoidArea:
    def test_hand_value(self):
        # differences (4, 0, 4): two unit-width trapezoids of area 2 each
        assert trapezoid_area(np.array([4.0, 2, 0]), np.array([0.0, 2, 4])) == pytest.approx(4.0, abs=TOL)

    def test_identity(self):
        assert trapezoid_area(np.array([1.0, 2, 3]), np.array([1.0, 2, 3])) == pytest.approx(0.0, abs=TOL)

    def test_single_category_falls_back_to_difference(self):
        assert trapezoid_area(np.array([5.0]), np.array([2.0])) == pytest.approx(3.0, abs=TOL)

    def test_never_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            a = rng.uniform(0, 100, size=m)
            b = rng.uniform(0, 100, size=m)
            assert trapezoid_area(a, b) >= 0.0

    @given(
        st.lists(
            st.floats(0, 1e9, allow_nan=False, allow_infinity=False), min_size=2, max_size=40
        )
    )
    def test_bit_identical_to_numpy_trapezoid(self, values):
        diff = np.array(values)
        assert trapezoid_area(diff, np.zeros_like(diff)) == float(np.trapezoid(diff))


class TestBatchedRows:
    """A metric over a matrix of counts gives, row for row, the bits of the
    scalar formula over each row."""

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
    )
    def test_rows_match_the_scalar_formulas(self, rows, seed, scale):
        rng = np.random.default_rng(seed)
        for metric, oracle, widths in (
            (l1_objective, l1_oracle, range(1, 200)),
            (trapezoid_area, trapezoid_oracle, range(1, 60)),
        ):
            for width in widths:
                target = rng.uniform(0, 1000, size=width) * scale
                # A block of a wider count matrix, as the evaluator slices it.
                counts = rng.integers(0, 70_000, size=(rows, width + 3))
                block = counts[:, 2:2 + width]
                batched = metric(target, block)
                expected = [oracle(target, row) for row in block]
                assert bits(batched) == bits(expected), (metric.__name__, width)
                assert bits(metric(target, block[0])) == bits(expected[0])


class TestRmse:
    def test_hand_value(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(np.sqrt(2.0), abs=TOL)

    def test_identity(self):
        assert rmse(np.array([7.0, 7.0]), np.array([7.0, 7.0])) == pytest.approx(0.0, abs=TOL)

    def test_constant_shift(self):
        assert rmse(np.array([0.0, 0, 0]), np.array([2.0, 2, 2])) == pytest.approx(2.0, abs=TOL)


class TestNormalizeObjectives:
    def test_hand_min_max(self):
        vectors = np.array([[2.0], [4.0], [6.0]])
        assert np.allclose(normalize_objectives(vectors), [[0.0], [0.5], [1.0]], atol=TOL)

    def test_constant_column_maps_to_zero(self):
        vectors = np.array([[3.0, 1.0], [3.0, 2.0]])
        normalized = normalize_objectives(vectors)
        assert np.allclose(normalized[:, 0], 0.0, atol=TOL)
        assert np.allclose(normalized[:, 1], [0.0, 1.0], atol=TOL)

    def test_single_vector_is_all_zero(self):
        assert np.allclose(normalize_objectives(np.array([[5.0, 9.0]])), 0.0, atol=TOL)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        vectors = rng.uniform(-50, 50, size=(40, 4))
        normalized = normalize_objectives(vectors)
        assert normalized.min() >= -TOL
        assert normalized.max() <= 1.0 + TOL


class TestObjectiveSpec:
    def test_unknown_metric_rejected(self):
        with pytest.raises(DataError):
            ObjectiveSpec(name="x", table="t", attribute="age", metric="cosine")

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            ObjectiveSpec(name="x", table="t", attribute="age", weight=-1.0)


def score(evaluator, candidates):
    """The evaluator's objective matrix for ``candidates``, from a fresh
    tally of each roster in its layout."""
    return evaluator(np.stack([evaluator.layout.tally(c.codes) for c in candidates]))


class TestObjectiveEvaluator:
    def perfect_candidate(self, dataset):
        """A roster whose marginals equal the tables exactly."""
        schema = dataset.schema
        attributes = tuple(schema[n] for n in ("sex", "age", "marital"))
        rows = []
        age_marital = dataset.table("age_marital")
        sex_age = dataset.table("sex_age")
        # fill jointly so that both tables are reproduced: iterate the
        # sex x age cells, then hand out marital within each age column
        marital_left = {
            a: [int(cell(age_marital, a, m)) for m in ("single", "married")]
            for a in schema["age"].categories
        }
        for s in ("m", "f"):
            for a in schema["age"].categories:
                for _ in range(int(cell(sex_age, s, a))):
                    m_idx = 0 if marital_left[a][0] > 0 else 1
                    marital_left[a][m_idx] -= 1
                    rows.append(
                        [
                            schema["sex"].index_of(s),
                            schema["age"].index_of(a),
                            m_idx,
                        ]
                    )
        return CandidatePopulation(attributes, np.array(rows, dtype=np.int16))

    def test_perfect_candidate_scores_zero(self, dataset_small):
        candidate = self.perfect_candidate(dataset_small)
        specs = [
            ObjectiveSpec(name="sex_fit", table="sex_age", attribute="sex"),
            ObjectiveSpec(name="age_fit", table="sex_age", attribute="age"),
        ]
        values = score(ObjectiveEvaluator(
            dataset_small, specs, len(candidate), candidate.attributes
        ), [candidate])[0]
        assert np.allclose(values, 0.0, atol=TOL)

    def test_l1_spec_composes_with_oracle(self, dataset_small):
        schema = dataset_small.schema
        attributes = tuple(schema.attributes)
        # 100 persons: sexes 32 m / 68 f, table says 53 m / 47 f -> L1 = 42
        codes = np.zeros((100, 3), dtype=np.int16)
        codes[32:, 0] = 1
        candidate = CandidatePopulation(attributes, codes)
        spec = ObjectiveSpec(name="sex_l1", table="sex_age", attribute="sex", metric="l1")
        value = score(ObjectiveEvaluator(
            dataset_small, [spec], len(candidate), candidate.attributes
        ), [candidate])[0, 0]
        expected = l1_objective(
            np.array([32.0, 68.0]), np.array([53.0, 47.0])
        )
        assert value == pytest.approx(expected, abs=TOL)

    def test_duplicate_specs_agree(self, dataset_small):
        candidate = self.perfect_candidate(dataset_small)
        spec = ObjectiveSpec(name="age_fit", table="sex_age", attribute="age")
        twin = ObjectiveSpec(name="age_fit_again", table="sex_age", attribute="age")
        values = score(ObjectiveEvaluator(
            dataset_small, [spec, twin], len(candidate), candidate.attributes
        ), [candidate])[0]
        assert values[0] == pytest.approx(values[1], abs=TOL)

    def test_full_cell_objective(self, dataset_small):
        candidate = self.perfect_candidate(dataset_small)
        spec = ObjectiveSpec(name="cells", table="age_marital", attribute=None, metric="l1")
        values = score(ObjectiveEvaluator(
            dataset_small, [spec], len(candidate), candidate.attributes
        ), [candidate])[0]
        assert values[0] == pytest.approx(0.0, abs=TOL)

    def test_target_scales_with_roster_size(self, dataset_small):
        # a 50-person roster is compared against the table rescaled to 50
        schema = dataset_small.schema
        attributes = tuple(schema.attributes)
        codes = np.zeros((50, 3), dtype=np.int16)
        codes[:25, 0] = 1
        candidate = CandidatePopulation(attributes, codes)
        spec = ObjectiveSpec(name="sex_l1", table="sex_age", attribute="sex", metric="l1")
        value = score(ObjectiveEvaluator(
            dataset_small, [spec], len(candidate), candidate.attributes
        ), [candidate])[0, 0]
        expected = l1_objective(np.array([25.0, 25.0]), np.array([26.5, 23.5]))
        assert value == pytest.approx(expected, abs=TOL)

    def test_unknown_table_rejected(self, dataset_small):
        spec = ObjectiveSpec(name="x", table="missing", attribute="sex")
        attributes = tuple(dataset_small.schema.attributes)
        with pytest.raises(DataError):
            ObjectiveEvaluator(dataset_small, [spec], 100, attributes)

    def test_one_call_scores_every_roster_as_the_scalar_formulas_do(self, dataset_small):
        schema = dataset_small.schema
        attributes = tuple(schema.attributes)
        rng = np.random.default_rng(17)
        candidates = [
            CandidatePopulation(
                attributes,
                np.column_stack([rng.integers(0, a.size, size=37) for a in attributes]),
            )
            for _ in range(9)
        ]
        specs = [
            ObjectiveSpec(name="sex_l1", table="sex_age", attribute="sex", metric="l1"),
            ObjectiveSpec(name="age_fit", table="sex_age", attribute="age"),
            ObjectiveSpec(name="marital_fit", table="age_marital", attribute="marital"),
            ObjectiveSpec(name="cells", table="age_marital", attribute=None),
            ObjectiveSpec(name="sex_age_cells", table="sex_age", metric="l1"),
            ObjectiveSpec(name="age_again", table="age_marital", attribute="age", metric="l1"),
        ]
        evaluator = ObjectiveEvaluator(dataset_small, specs, 37, attributes)
        # The counts matrix the evaluator scores: one tally of each roster.
        counts = np.stack([evaluator.layout.tally(c.codes) for c in candidates])
        matrix = evaluator(counts)
        assert matrix.shape == (9, 6)
        for candidate, row, carried in zip(candidates, matrix, counts):
            expected = []
            for spec in specs:
                table = dataset_small.table(spec.table)
                oracle = l1_oracle if spec.metric == "l1" else trapezoid_oracle
                if spec.attribute is None:
                    flat = np.ravel_multi_index(
                        tuple(candidate.column(a.name) for a in table.axes),
                        table.counts.shape,
                    )
                    observed = np.bincount(flat, minlength=table.counts.size)
                    target = table.counts.ravel() * (37 / table.total)
                    projection = tuple(candidate.column_index(a.name) for a in table.axes)
                else:
                    size = schema[spec.attribute].size
                    observed = np.bincount(candidate.column(spec.attribute), minlength=size)
                    target = marginalize(table, spec.attribute) * (37 / table.total)
                    projection = (candidate.column_index(spec.attribute),)
                # The oracle reads the roster's row of the counts matrix.
                block = carried[evaluator.layout.blocks[projection]]
                assert np.array_equal(block, observed)
                expected.append(oracle(target, block))
            assert bits(row) == bits(expected)

    def test_specs_on_one_projection_share_a_block(self, dataset_small):
        attributes = tuple(dataset_small.schema.attributes)
        specs = [
            ObjectiveSpec(name="age_fit", table="sex_age", attribute="age"),
            ObjectiveSpec(name="age_l1", table="age_marital", attribute="age", metric="l1"),
            ObjectiveSpec(name="cells", table="age_marital"),
            ObjectiveSpec(name="cells_l1", table="age_marital", metric="l1"),
        ]
        layout = ObjectiveEvaluator(dataset_small, specs, 100, attributes).layout
        assert layout.projections == ((1,), (1, 2))
        assert layout.size == 3 + 6

    def test_repeated_evaluation_is_pure(self, dataset_small):
        candidate = self.perfect_candidate(dataset_small)
        evaluator = ObjectiveEvaluator(
            dataset_small,
            [ObjectiveSpec(name="age_fit", table="sex_age", attribute="age")],
            len(candidate),
            candidate.attributes,
        )
        first = score(evaluator, [candidate])
        second = score(evaluator, [candidate])
        assert np.array_equal(first, second)
