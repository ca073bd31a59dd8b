"""NSGA-II evolutionary core: dominance, sorting, operators and the loop.

The engine minimises every objective. A population is a list of rosters
plus one objective matrix, row for row; ranking returns rank and crowding
vectors over those rows, and tournament and environmental selection return
row indices, as in Deb et al. (2002). Every variation operator hands its
child the category counts it derives from the parent's, touching only the
rows it changed, so the loop scores each generation's offspring with one
evaluator call and no roster is recounted. Determinism is strict: every
random draw goes through a named substream of the master seed, so a run's
outputs are byte-identical for a given config and seed.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .census_data import HOUSEHOLDS, PERSONS, RegionDataset
from .errors import DataError
from .fitness import ObjectiveEvaluator, ObjectiveSpec
from .population_model import (
    SAMPLING_MODES,
    CandidatePopulation,
    CompiledRules,
    SamplingPlan,
    ValidationRule,
    count_offsets,
    generate_candidate,
    tally,
)

_STAGE_IDS = {PERSONS: 0, HOUSEHOLDS: 1}
_MASK64 = (1 << 64) - 1

# Operation slots inside a generation's seed path.
_OP_INIT = 0
_OP_SELECT = 1
_OP_CROSSOVER = 2
_OP_MUTATE = 3


def substream(*keys: int) -> np.random.Generator:
    """Independent deterministic RNG for one position in the seed tree."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([k & _MASK64 for k in keys]))
    )


@dataclass(frozen=True)
class EvolutionConfig:
    """Parameters of one evolutionary stage.

    Every field but ``seed`` is a stage's ``evolution`` config key, typed
    by its annotation. The Pareto archive holds up to ten times the
    population size.
    """

    population_size: int = 100
    generations: int = 500
    crossover_probability: float = 0.9
    mutation_probability: float = 0.2
    seed: int = 0
    offspring_size: int | None = None
    resample_probability: float = 0.0
    resample_slots: int = 1
    sampling: str = "independent"

    def __post_init__(self) -> None:
        if self.population_size < 2 or self.population_size % 2:
            raise DataError("population size must be an even number of at least 2")
        if self.generations < 0:
            raise DataError("generation count must be non-negative")
        for label, p in (
            ("crossover", self.crossover_probability),
            ("mutation", self.mutation_probability),
            ("resample", self.resample_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise DataError(f"{label} probability must lie in [0, 1]")
        if self.resample_slots < 1:
            raise DataError("resample_slots must be at least 1")
        if self.offspring_size is not None and (
            self.offspring_size < 2 or self.offspring_size % 2
        ):
            raise DataError("offspring size must be an even number of at least 2")
        if self.sampling not in SAMPLING_MODES:
            raise DataError(
                f"sampling must be one of {list(SAMPLING_MODES)}, got {self.sampling!r}"
            )

    @property
    def capacity(self) -> int:
        return 10 * self.population_size

    @property
    def offspring(self) -> int:
        """Offspring per generation; defaults to the population size."""
        return self.offspring_size or self.population_size


def fast_nondominated_sort(vectors: Sequence[np.ndarray] | np.ndarray) -> list[list[int]]:
    """Partition objective vectors into fronts of mutually non-dominated
    indices, best front first. Duplicate vectors share a front."""
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("need a non-empty sequence of objective vectors")
    n = len(matrix)
    less_eq = (matrix[:, None, :] <= matrix[None, :, :]).all(axis=2)
    less = (matrix[:, None, :] < matrix[None, :, :]).any(axis=2)
    dominated_by = less_eq & less  # [i, j]: i dominates j
    counts = dominated_by.sum(axis=0).astype(np.int64)
    fronts: list[list[int]] = []
    assigned = np.zeros(n, dtype=bool)
    while not assigned.all():
        current = (counts == 0) & ~assigned
        idx = np.flatnonzero(current)
        fronts.append([int(i) for i in idx])
        assigned[current] = True
        counts -= dominated_by[current].sum(axis=0)
        counts[assigned] = -1
    return fronts


def crowding_distance(front: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Crowding distance of each member within one front.

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


def rank_population(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front rank (1 is best) and crowding distance of every row of an
    objective matrix, as two vectors in row order."""
    matrix = np.asarray(objectives, dtype=np.float64)
    rank = np.zeros(len(matrix), dtype=np.int64)
    crowding = np.zeros(len(matrix), dtype=np.float64)
    for front_rank, front in enumerate(fast_nondominated_sort(matrix), start=1):
        rank[front] = front_rank
        crowding[front] = crowding_distance(matrix[front])
    return rank, crowding


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
    parents, and cuts (0, length) yield the parents swapped. Each child's
    category counts are its parent's, shifted by the tallies of the
    exchanged slice, or of its complement when that is shorter.
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
    # What child_a gains over first, and child_b loses against second.
    offsets = count_offsets(first.attributes)
    if 2 * (cut_b - cut_a) <= len(first):
        gain = (tally(second.codes[cut_a:cut_b], offsets)
                - tally(first.codes[cut_a:cut_b], offsets))
    else:
        kept_a = tally(np.concatenate((first.codes[:cut_a], first.codes[cut_b:])), offsets)
        kept_b = tally(np.concatenate((second.codes[:cut_a], second.codes[cut_b:])), offsets)
        gain = (second.category_counts - kept_b) - (first.category_counts - kept_a)
    return (
        CandidatePopulation(first.attributes, child_a, first.category_counts + gain),
        CandidatePopulation(second.attributes, child_b, second.category_counts - gain),
    )


def swap_mutation(
    candidate: CandidatePopulation,
    probability: float,
    rng: np.random.Generator,
    rules: CompiledRules | None = None,
) -> CandidatePopulation:
    """With the given probability, swap one attribute value between two
    random roster slots.

    Swapping conserves every attribute's frequency vector, so the child
    shares the candidate's category counts. The candidate itself is
    returned when the two values are equal, so the swap would change
    nothing, and when the swap would violate one of ``rules`` (compiled
    for the candidate's layout) and is reverted.
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
    if rules is not None and not (rules.row_ok(codes, i) and rules.row_ok(codes, j)):
        return candidate
    return CandidatePopulation(candidate.attributes, codes, candidate.category_counts)


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
    child's category counts are the candidate's, less the tally of the
    touched slots' old values plus that of their final ones. The
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
    offsets = count_offsets(candidate.attributes)
    counts = candidate.category_counts - tally(old, offsets) + tally(new, offsets)
    return CandidatePopulation(candidate.attributes, codes, counts)


def environmental_selection(
    rank: np.ndarray, crowding: np.ndarray, target_size: int
) -> np.ndarray:
    """Elitist truncation, as survivor indices: whole fronts in rank order,
    each in input order, while they fit; then the next front's members by
    descending crowding distance (stable on ties)."""
    if target_size > len(rank):
        raise ValueError("target size exceeds the combined population")
    survivors: list[np.ndarray] = []
    room = target_size
    for front_rank in np.unique(rank):
        front = np.flatnonzero(rank == front_rank)
        if len(front) > room:
            front = front[np.argsort(-crowding[front], kind="stable")[:room]]
        survivors.append(front)
        room -= len(front)
        if room == 0:
            break
    return np.concatenate(survivors)


class ParetoArchive:
    """Non-dominated candidates accumulated across all generations.

    Candidates keep insertion order, and row k of the objective matrix is
    candidate k's vector. Inserting a candidate that is dominated by, or
    objective-identical to, a member is a no-op; inserting a dominator
    evicts everything it dominates. Over capacity, the most crowded member
    is dropped first, which preserves the per-objective extremes.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise DataError("archive capacity must be positive")
        self.capacity = capacity
        self._candidates: list[CandidatePopulation] = []
        self._objectives = np.empty((0, 0), dtype=np.float64)

    def __len__(self) -> int:
        return len(self._candidates)

    @property
    def candidates(self) -> tuple[CandidatePopulation, ...]:
        return tuple(self._candidates)

    def objective_matrix(self) -> np.ndarray:
        """Members' objective vectors, one row each; a read-only view."""
        if not self._candidates:
            raise DataError("archive is empty")
        view = self._objectives.view()
        view.setflags(write=False)
        return view

    def best_values(self) -> np.ndarray:
        """Per-objective minimum across members; never worsens over a run."""
        return self.objective_matrix().min(axis=0)

    def insert(self, candidate: CandidatePopulation, objectives: np.ndarray) -> bool:
        objectives = np.asarray(objectives, dtype=np.float64)
        if self._candidates:
            matrix = self._objectives
            if matrix.shape[1] != objectives.shape[0]:
                raise ValueError("objective vector length does not match archive")
            le = (matrix <= objectives).all(axis=1)
            lt = (matrix < objectives).any(axis=1)
            if np.any(le & lt) or np.any((matrix == objectives).all(axis=1)):
                return False
            ge = (matrix >= objectives).all(axis=1)
            gt = (matrix > objectives).any(axis=1)
            evicted = ge & gt
            if evicted.any():
                self._candidates = [
                    c for c, gone in zip(self._candidates, evicted) if not gone
                ]
                matrix = matrix[~evicted]
            self._objectives = np.vstack([matrix, objectives])
        else:
            self._objectives = np.vstack([objectives])
        self._candidates.append(candidate)
        while len(self._candidates) > self.capacity:
            drop = int(np.argmin(crowding_distance(self._objectives)))
            del self._candidates[drop]
            self._objectives = np.delete(self._objectives, drop, axis=0)
        return True

    def update(
        self, entries: Iterable[tuple[CandidatePopulation, np.ndarray]]
    ) -> int:
        """Offer each (candidate, objectives) pair in turn; returns how many
        were inserted."""
        return sum(self.insert(candidate, objectives) for candidate, objectives in entries)


@dataclass(frozen=True)
class GenerationRecord:
    """Objective statistics snapshotted after one generation.

    ``seconds`` is the wall-clock cost of producing this generation alone
    (for generation 0, of sampling and evaluating the initial population).
    """

    generation: int
    best: np.ndarray
    mean: np.ndarray
    best_normalized: np.ndarray
    mean_normalized: np.ndarray
    seconds: float


@dataclass
class GenerationHistory:
    """Per-generation traces with a fixed normalisation baseline.

    Normalised values divide raw values by the initial population's mean
    for each objective, so every trace starts near 1 and the descent is
    comparable across objectives of different scale.
    """

    names: tuple[str, ...]
    baseline: np.ndarray
    records: list[GenerationRecord] = field(default_factory=list)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        out = np.zeros_like(values)
        np.divide(values, self.baseline, out=out, where=self.baseline > 0)
        return out

    def record(
        self, generation: int, best: np.ndarray, mean: np.ndarray, seconds: float
    ) -> GenerationRecord:
        entry = GenerationRecord(
            generation=generation,
            best=np.asarray(best, dtype=np.float64),
            mean=np.asarray(mean, dtype=np.float64),
            best_normalized=self.normalize(best),
            mean_normalized=self.normalize(mean),
            seconds=float(seconds),
        )
        self.records.append(entry)
        return entry


ProgressCallback = Callable[[str, int, np.ndarray, float], None]


def _stage_attributes(dataset: RegionDataset, stage: str) -> tuple[str, ...]:
    """Roster attributes for a stage: the union of its tables' axes, in
    schema order."""
    present: set[str] = set()
    for table in dataset.stage_tables(stage):
        present.update(table.axis_names)
    return tuple(n for n in dataset.schema.names if n in present)


def evolve(
    dataset: RegionDataset,
    stage: str,
    specs: Sequence[ObjectiveSpec],
    config: EvolutionConfig,
    rules: Sequence[ValidationRule] = (),
    *,
    progress: ProgressCallback | None = None,
) -> tuple[ParetoArchive, GenerationHistory]:
    """Run the full NSGA-II loop for one ``stage`` (``persons`` or
    ``households``) against that stage's tables.

    Every objective must reference one of ``dataset.stage_tables(stage)``;
    one that references another stage's table, or any table when the
    stage has none, is a :class:`DataError` naming the table. Returns the
    Pareto archive of non-dominated rosters and the per-generation
    history. Deterministic for a given config seed.
    """
    if not specs:
        raise DataError("need at least one objective")
    stage_tables = {table.name for table in dataset.stage_tables(stage)}
    for spec in specs:
        if spec.table not in stage_tables:
            raise DataError(f"objective {spec.name!r} references table {spec.table!r}, "
                            f"which is not a {stage} table")
    target = dataset.stage_target(stage)
    attributes = _stage_attributes(dataset, stage)
    plan = SamplingPlan.from_tables(
        dataset.schema,
        attributes,
        dataset.stage_tables(stage),
        mode=config.sampling,
    )
    evaluator = ObjectiveEvaluator(dataset, specs, target, plan.attributes)
    # Compiled once for the stage; this also fails fast on misconfigured rules.
    compiled = CompiledRules(rules, plan.attributes)
    stage_id = _STAGE_IDS[stage]
    seed = config.seed

    started = time.perf_counter()
    population = [
        generate_candidate(plan, target, compiled, substream(seed, stage_id, 0, _OP_INIT, i))
        for i in range(config.population_size)
    ]
    objectives = evaluator(population)
    rank, crowding = rank_population(objectives)
    archive = ParetoArchive(config.capacity)
    archive.update((population[i], objectives[i]) for i in np.flatnonzero(rank == 1))
    history = GenerationHistory(
        names=evaluator.names, baseline=objectives.mean(axis=0)
    )
    entry = history.record(
        0, archive.best_values(), objectives.mean(axis=0), time.perf_counter() - started
    )
    if progress is not None:
        progress(stage, 0, entry.best, entry.seconds)

    for generation in range(1, config.generations + 1):
        started = time.perf_counter()
        select_rng = substream(seed, stage_id, generation, _OP_SELECT)
        cross_rng = substream(seed, stage_id, generation, _OP_CROSSOVER)
        mutate_rng = substream(seed, stage_id, generation, _OP_MUTATE)

        offspring: list[CandidatePopulation] = []
        for _ in range(config.offspring // 2):
            parent_a = population[binary_tournament(rank, crowding, select_rng)]
            parent_b = population[binary_tournament(rank, crowding, select_rng)]
            if cross_rng.random() < config.crossover_probability:
                child_a, child_b = two_point_crossover(parent_a, parent_b, cross_rng)
            else:
                child_a, child_b = parent_a, parent_b
            for child in (child_a, child_b):
                child = swap_mutation(
                    child, config.mutation_probability, mutate_rng, compiled
                )
                if config.resample_probability > 0:
                    child = resample_mutation(
                        child,
                        config.resample_probability,
                        plan,
                        mutate_rng,
                        compiled,
                        slots=config.resample_slots,
                    )
                offspring.append(child)

        # Survivors keep the rank and crowding of the combined ranking,
        # which the next generation's tournaments compare.
        population += offspring
        objectives = np.vstack([objectives, evaluator(offspring)])
        rank, crowding = rank_population(objectives)
        archive.update((population[i], objectives[i]) for i in np.flatnonzero(rank == 1))
        survivors = environmental_selection(rank, crowding, config.population_size)
        population = [population[i] for i in survivors]
        objectives, rank, crowding = objectives[survivors], rank[survivors], crowding[survivors]
        entry = history.record(
            generation,
            archive.best_values(),
            objectives.mean(axis=0),
            time.perf_counter() - started,
        )
        if progress is not None:
            progress(stage, generation, entry.best, entry.seconds)

    return archive, history
