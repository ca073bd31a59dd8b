"""Acceptance checks for the shipped fixture region.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL (detail)`` line; run pytest with ``-s`` to see
the lines for passing tests too. The heavyweight fixture pipeline runs
once per session and is shared by the criteria that inspect its outputs.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from synthpop import (
    Attribute,
    AttributeSchema,
    CandidatePopulation,
    EvolutionConfig,
    allocate,
    crowding_distance,
    evolve,
    fast_nondominated_sort,
    file_checksum,
    l1_objective,
    load_dataset,
    load_run_config,
    load_rules,
    load_schema,
    load_stage_rules,
    parse_composition,
    rmse,
    trapezoid_area,
)
from synthpop.census_data import PERSONS
from synthpop.cli import main
from synthpop.population_model import CompiledRules

from conftest import breed_tied, streams, violated_by, weighted_plan

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_CONFIG = FIXTURE_DIR / "config.yaml"

TOL = 1e-9


def verdict(number: int, passed: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


@pytest.fixture(scope="session")
def fixture_run(tmp_path_factory) -> Path:
    """One full pipeline run on the shipped fixture, shared by criteria 4-8."""
    out = tmp_path_factory.mktemp("acceptance_run")
    code = main(["run", "-c", str(FIXTURE_CONFIG), "--out-dir", str(out), "--quiet"])
    assert code == 0, "fixture pipeline run failed"
    return out


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def best_traces(convergence_path: Path) -> dict[str, list[float]]:
    """Per-objective best-so-far series, in generation order."""
    traces: dict[str, list[float]] = {}
    rows = read_rows(convergence_path)
    assert rows[0] == ["generation", "objective", "best", "mean"]
    for generation, objective, best, _ in rows[1:]:
        traces.setdefault(objective, []).append(float(best))
    return traces


def brute_force_fronts(vectors: list[tuple]) -> list[list[int]]:
    """Plain pairwise-dominance front peeling, no vectorisation."""
    n = len(vectors)
    dominates_pair = [
        [
            a is not b
            and all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b))
            for b in vectors
        ]
        for a in vectors
    ]
    remaining = set(range(n))
    fronts = []
    while remaining:
        layer = sorted(
            i
            for i in remaining
            if not any(dominates_pair[j][i] for j in remaining if j != i)
        )
        fronts.append(layer)
        remaining -= set(layer)
    return fronts


class TestCriterion1:
    def test_sorting_matches_brute_force(self):
        rng = np.random.default_rng(1234)
        started = time.perf_counter()
        mismatches = 0
        for _ in range(200):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(2, 5))
            matrix = rng.integers(0, 6, size=(n, d)).astype(np.float64)
            fast = [sorted(front) for front in fast_nondominated_sort(matrix)]
            slow = brute_force_fronts([tuple(row) for row in matrix.tolist()])
            if fast != slow:
                mismatches += 1
        elapsed = time.perf_counter() - started
        ok = mismatches == 0 and elapsed < 5.0
        detail = f"200 instances, {mismatches} mismatches, {elapsed:.2f}s"
        assert verdict(1, ok, detail), detail


class TestCriterion2:
    def test_hand_oracle_kernels(self):
        checks = [
            ("l1 basic", l1_objective(np.array([10, 20, 30]), np.array([12, 18, 30])), 4.0),
            ("l1 disjoint", l1_objective(np.array([0, 0]), np.array([5, 5])), 10.0),
            (
                "trapezoid crossing",
                trapezoid_area(np.array([4, 2, 0]), np.array([0, 2, 4])),
                4.0,
            ),
            ("trapezoid single", trapezoid_area(np.array([5.0]), np.array([2.0])), 3.0),
            ("rmse sqrt2", rmse(np.array([1, 2]), np.array([1, 4])), math.sqrt(2.0)),
            ("rmse uniform", rmse(np.array([0, 0, 0]), np.array([2, 2, 2])), 2.0),
        ]
        failures = [
            label for label, got, want in checks if abs(got - want) > TOL
        ]

        distances = crowding_distance(np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]))
        if not (
            math.isinf(distances[0])
            and math.isinf(distances[2])
            and abs(distances[1] - 2.0) <= TOL
        ):
            failures.append("crowding three-point front")

        spec = parse_composition("2A 3C")
        if dict(spec.requirements) != {"A": 2, "C": 3} or spec.size != 5:
            failures.append("parse_composition 2A 3C")

        ok = not failures
        detail = "8 kernel examples exact to 1e-9" if ok else f"failed: {failures}"
        assert verdict(2, ok, detail), detail


class TestCriterion3:
    def test_swap_conservation_and_allocation_partition(self):
        schema = load_schema(FIXTURE_DIR / "schema.yaml")
        attributes = tuple(schema.attributes)
        rng = np.random.default_rng(2026)
        codes = np.column_stack(
            [rng.integers(0, a.size, size=500) for a in attributes]
        ).astype(np.int16)
        candidate = CandidatePopulation(attributes, codes)
        initial = {
            a.name: np.bincount(candidate.column(a.name), minlength=a.size)
            for a in attributes
        }
        # A thousand generations of one child that only swaps.
        plan = weighted_plan([(a, np.ones(a.size)) for a in attributes])
        rules = CompiledRules([], attributes)
        swap_only = EvolutionConfig(
            population_size=2, offspring_size=2, crossover_probability=0.0,
            mutation_probability=1.0,
        )
        rngs = streams(2026)
        deviations = 0
        current = candidate
        for _ in range(1000):
            current = breed_tied([current], swap_only, plan, rules, rngs)[0]
            for a in attributes:
                after = np.bincount(current.column(a.name), minlength=a.size)
                if not np.array_equal(after, initial[a.name]):
                    deviations += 1

        age = Attribute(
            "age",
            ("child", "adult", "elder"),
            groups={"child": "ch", "adult": "ad", "elder": "el"},
        )
        comp = Attribute(
            "composition", ("1A", "2A", "1A 1C", "2A 3C", "1E", "1A 1E")
        )
        small_schema = AttributeSchema((age,))
        partition_failures = 0
        for _ in range(100):
            n_persons = int(rng.integers(30, 81))
            persons = CandidatePopulation(
                (age,), rng.integers(0, 3, size=(n_persons, 1)).astype(np.int16)
            )
            n_households = int(rng.integers(5, 26))
            households = CandidatePopulation(
                (comp,), rng.integers(0, comp.size, size=(n_households, 1)).astype(np.int16)
            )
            result = allocate(persons, households, small_schema)
            allocated = [m for members in result.members for m in members.tolist()]
            if len(set(allocated)) != len(allocated):
                partition_failures += 1
            elif sorted(allocated + result.unallocated.tolist()) != list(range(n_persons)):
                partition_failures += 1

        ok = deviations == 0 and partition_failures == 0
        detail = (
            f"1000 swaps: {deviations} marginal deviations; "
            f"100 allocations: {partition_failures} partition failures"
        )
        assert verdict(3, ok, detail), detail


class TestCriterion4:
    def test_archive_best_descends_on_the_fixture(self, fixture_run):
        problems = []
        ratios = {}
        for stage in ("persons", "households"):
            traces = best_traces(fixture_run / f"convergence_{stage}.csv")
            for objective, series in traces.items():
                drops = np.diff(np.asarray(series))
                if np.any(drops > 0):
                    problems.append(f"{stage}:{objective} increases")
            start = sum(series[0] for series in traces.values())
            end = sum(series[-1] for series in traces.values())
            ratios[stage] = end / start
        if ratios["persons"] > 0.20:
            problems.append(f"persons final/initial {ratios['persons']:.3f} > 0.20")
        ok = not problems
        detail = (
            f"all traces non-increasing; final/initial error "
            f"persons {ratios['persons']:.3f}, households {ratios['households']:.3f}"
            if ok
            else "; ".join(problems)
        )
        assert verdict(4, ok, detail), detail


class TestCriterion5:
    def test_exports_satisfy_every_rule(self, fixture_run):
        schema = load_schema(FIXTURE_DIR / "schema.yaml")
        violations = 0
        checked = 0
        for csv_name, rules_name in (
            ("persons.csv", "person_rules.yaml"),
            ("households.csv", "household_rules.yaml"),
        ):
            rules = load_rules(FIXTURE_DIR / rules_name, schema)
            rows = read_rows(fixture_run / csv_name)
            header = rows[0]
            for row in rows[1:]:
                assignments = dict(zip(header[1:], row[1:]))
                checked += 1
                violations += sum(
                    1 for rule in rules if violated_by(rule, assignments)
                )
        ok = violations == 0
        detail = f"{checked} exported rows, {violations} rule violations"
        assert verdict(5, ok, detail), detail


class TestCriterion6:
    def test_rerun_is_byte_identical(self, fixture_run, tmp_path_factory):
        rerun = tmp_path_factory.mktemp("acceptance_rerun")
        code = main(["run", "-c", str(FIXTURE_CONFIG), "--out-dir", str(rerun), "--quiet"])
        assert code == 0
        differing = [
            name
            for name in ("persons.csv", "households.csv", "manifest.json")
            if (fixture_run / name).read_bytes() != (rerun / name).read_bytes()
        ]
        ok = not differing
        detail = (
            "persons, households and manifest byte-identical across two runs"
            if ok
            else f"differs: {differing}"
        )
        assert verdict(6, ok, detail), detail


class TestCriterion7:
    def test_runtime_envelope(self, fixture_run):
        config = load_run_config(FIXTURE_CONFIG, generations=1)
        dataset = load_dataset(config)
        rules = load_stage_rules(config, dataset.schema)
        _, history = evolve(
            dataset,
            PERSONS,
            config.persons.objectives,
            config.persons.evolution,
            rules[PERSONS],
        )
        generation_seconds = history.seconds[1]

        timings = {row[0]: float(row[1]) for row in read_rows(fixture_run / "timings.csv")[1:]}
        total = timings["total"]
        ok = generation_seconds <= 7.0 and total <= 720.0
        detail = (
            f"one generation {generation_seconds:.2f}s (limit 7s), "
            f"full fixture {total:.1f}s (limit 720s)"
        )
        assert verdict(7, ok, detail), detail


class TestCriterion8:
    def test_run_emits_complete_outputs(self, fixture_run):
        problems = []

        persons_rows = read_rows(fixture_run / "persons.csv")
        if len(persons_rows) != 7001:
            problems.append(f"persons rows {len(persons_rows) - 1} != 7000")

        household_rows = read_rows(fixture_run / "households.csv")
        if len(household_rows) != 3004:
            problems.append(f"household rows {len(household_rows) - 1} != 3003")
        complete = [int(row[-1]) for row in household_rows[1:]]
        complete_rate = sum(complete) / len(complete)
        if complete_rate < 0.90:
            problems.append(f"complete rate {complete_rate:.3f} < 0.90")

        for stage, objectives in (("persons", 5), ("households", 3)):
            convergence = read_rows(fixture_run / f"convergence_{stage}.csv")
            if len(convergence) != 1 + 101 * objectives:
                problems.append(f"convergence_{stage} rows {len(convergence)}")
            pareto = read_rows(fixture_run / f"pareto_{stage}.csv")
            selected = sum(int(row[-1]) for row in pareto[1:])
            if selected != 1:
                problems.append(f"pareto_{stage} selects {selected} members")

        manifest = json.loads((fixture_run / "manifest.json").read_text())
        if manifest.get("seed") != 42:
            problems.append("manifest seed missing or wrong")
        for key in ("region", "inputs", "stages", "outputs"):
            if key not in manifest:
                problems.append(f"manifest lacks {key}")
        for stage, entry in manifest["stages"].items():
            for objective in entry["objectives"]:
                if not isinstance(objective.get("weight"), (int, float)):
                    problems.append(f"manifest {stage} objective lacks its weight")
        recorded = manifest["inputs"]["config"]["sha256"]
        if recorded != file_checksum(FIXTURE_CONFIG):
            problems.append("manifest config checksum stale")
        for table, entry in manifest["inputs"]["tables"].items():
            path = FIXTURE_DIR / "tables" / entry["file"]
            if not path.is_file() or file_checksum(path) != entry["sha256"]:
                problems.append(f"manifest table checksum stale: {table}")
        evolution = manifest["stages"]["persons"]["evolution"]
        if evolution.get("population_size") != 100 or evolution.get("generations") != 100:
            problems.append("manifest does not pin the evolution settings")

        ok = not problems
        detail = (
            f"7000 persons, 3003 households, complete rate {complete_rate:.1%}, "
            "one selected member per stage, manifest pins inputs and settings"
            if ok
            else "; ".join(problems)
        )
        assert verdict(8, ok, detail), detail
