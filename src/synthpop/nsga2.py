"""NSGA-II evolutionary core: dominance, sorting, breeding and the loop.

The engine minimises every objective. A population is a list of rosters
plus one objective matrix, row for row; ranking returns rank and crowding
vectors over those rows, and tournament and environmental selection return
row indices, as in Deb et al. (2002). :func:`breed` makes a generation's
offspring in one pass: it makes every random draw first, per child and in
the order that one operator call per child would, then applies crossover,
swap and resample mutation to the whole generation with one rule check per
operator. Each child carries the category counts derived from its parent's,
touching only the rows that changed, so the loop scores each generation's
offspring with one evaluator call and no roster is recounted. Determinism
is strict: every random draw goes through a named substream of the master
seed, so a run's outputs are byte-identical for a given config and seed.
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
    CandidatePopulation,
    CompiledRules,
    SamplingPlan,
    ValidationRule,
    _draw,
    cell_count,
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
    # One (n, n) comparison per objective: reducing (n, n, m) arrays over
    # their short last axis costs several times more.
    less_eq = np.ones((n, n), dtype=bool)
    less = np.zeros((n, n), dtype=bool)
    for column in matrix.T:
        less_eq &= np.less_equal.outer(column, column)
        less |= np.less.outer(column, column)
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
    normalised neighbour gaps, objective by objective. Objectives with zero
    range contribute nothing, so a front of identical vectors has zero
    interior distance.
    """
    matrix = np.asarray(front, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("need a non-empty front")
    n, m = matrix.shape
    order = np.argsort(matrix, axis=0, kind="stable")
    distance = np.zeros(n, dtype=np.float64)
    if n >= 3:
        objective = np.arange(m)
        ranked = matrix[order, objective]
        span = ranked[-1] - ranked[0]
        gaps = np.zeros((n, m), dtype=np.float64)
        gaps[order[1:-1], objective] = np.divide(
            ranked[2:] - ranked[:-2], span, out=np.zeros((n - 2, m)), where=span > 0
        )
        # Summed in objective order, as one objective at a time would.
        for j in range(m):
            distance += gaps[:, j]
    distance[order[0]] = np.inf
    distance[order[-1]] = np.inf
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


def _tournaments(
    rank: np.ndarray, crowding: np.ndarray, count: int, rng: np.random.Generator
) -> list[int]:
    """Winners of ``count`` binary tournaments, in order. Each draws two
    contestants uniformly: lower rank wins, then higher crowding distance,
    and only a full tie draws a fair coin."""
    ranks, crowdings = rank.tolist(), crowding.tolist()
    winners = []
    for _ in range(count):
        i, j = rng.integers(0, len(ranks), size=2).tolist()
        if ranks[i] != ranks[j]:
            winners.append(i if ranks[i] < ranks[j] else j)
        elif crowdings[i] != crowdings[j]:
            winners.append(i if crowdings[i] > crowdings[j] else j)
        else:
            winners.append(i if int(rng.integers(0, 2)) == 0 else j)
    return winners


def _cross(
    first: CandidatePopulation, second: CandidatePopulation, cut_a: int, cut_b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Codes and counts of the two children that exchange the parents'
    rows ``cut_a:cut_b``. The codes are fresh, writable arrays. Each
    child's counts are its parent's, shifted by the tallies of the
    exchanged slice, or of its complement when that is shorter."""
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
    return child_a, child_b, first.category_counts + gain, second.category_counts - gain


def breed(
    population: Sequence[CandidatePopulation],
    rank: np.ndarray,
    crowding: np.ndarray,
    config: EvolutionConfig,
    plan: SamplingPlan,
    rules: CompiledRules,
    rngs: tuple[np.random.Generator, np.random.Generator, np.random.Generator],
) -> list[CandidatePopulation]:
    """One generation's ``config.offspring`` children of ``population``.

    ``rngs`` are the selection, crossover and mutation streams. Pairs of
    parents come from binary tournaments on ``rank`` and ``crowding``. A
    pair recombines by two-point crossover with the crossover probability,
    or else passes on copies. Each child, in order, then gets at most one
    swap and one resample mutation:

    - The swap exchanges one attribute's values between two random roster
      slots. It is skipped when the values are equal or when either slot
      would then break one of ``rules``. It keeps the category counts.
    - The resample redraws ``config.resample_slots`` random (slot,
      attribute) cells from the plan's marginal weights. Attributes are
      hit in proportion to their category count, and a cell drawn twice
      keeps its last draw. Slots that then break a rule revert to their
      values after the swap. It injects the fresh variation that
      recombination alone cannot reach once the population converges.

    Each stream makes its draws per child, in the order and call shapes
    that one operator call per child would, so this equals applying the
    operators child by child. The draws need no roster data, so they come
    first and the operators are applied to the whole generation at once:
    one rule check per operator and one tally of the resampled rows. A
    child that neither crossover nor mutation changed is its parent.
    """
    select_rng, cross_rng, mutate_rng = rngs
    length, width = population[0].codes.shape
    children = config.offspring
    winners = _tournaments(rank, crowding, children, select_rng)
    parents = [population[w] for w in winners]
    # A child's codes are writable exactly when they are its own array.
    codes: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for first, second in zip(parents[::2], parents[1::2]):
        if cross_rng.random() < config.crossover_probability:
            cut_a, cut_b = sorted(cross_rng.integers(0, length + 1, size=2).tolist())
            child_a, child_b, counts_a, counts_b = _cross(first, second, cut_a, cut_b)
            codes += (child_a, child_b)
            counts += (counts_a, counts_b)
        else:
            codes += (first.codes, second.codes)
            counts += (first.category_counts, second.category_counts)

    swaps: list[tuple[int, int, int, int]] = []
    redrawn: list[int] = []
    draws: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    slots = config.resample_slots
    for child in range(children):
        if mutate_rng.random() < config.mutation_probability:
            i, j = mutate_rng.integers(0, length, size=2).tolist()
            swaps.append((child, i, j, int(mutate_rng.integers(0, width))))
        if (config.resample_probability > 0
                and mutate_rng.random() < config.resample_probability):
            redrawn.append(child)
            # Row, column-choice and value uniforms, as Generator.choice
            # draws its uniforms between the other two.
            draws.append((
                mutate_rng.integers(0, length, size=slots),
                mutate_rng.random(slots),
                mutate_rng.random(slots),
            ))

    swaps = [s for s in swaps if codes[s[0]][s[1], s[3]] != codes[s[0]][s[2], s[3]]]
    if swaps:
        # Both slots of every swap, swapped, then checked in one call.
        pairs = np.stack([codes[child][[i, j]] for child, i, j, _ in swaps])
        each, cols = np.arange(len(swaps)), np.array([col for *_, col in swaps])
        pairs[each, :, cols] = pairs[each, ::-1, cols]
        broken = rules.violation_mask(pairs.reshape(-1, width)).reshape(-1, 2).any(axis=1)
        for (child, i, j, _), pair, skip in zip(swaps, pairs, broken.tolist()):
            if not skip:
                _own(codes, child)[[i, j]] = pair

    if redrawn:
        _resample(codes, counts, redrawn, draws, plan, rules)

    return [
        CandidatePopulation(plan.attributes, child_codes, child_counts)
        if child_codes.flags.writeable else parent
        for child_codes, child_counts, parent in zip(codes, counts, parents)
    ]


def _own(codes: list[np.ndarray], child: int) -> np.ndarray:
    """A child's codes to write to: copied first while they are still its
    parent's read-only array."""
    if not codes[child].flags.writeable:
        codes[child] = codes[child].copy()
    return codes[child]


def _resample(
    codes: list[np.ndarray],
    counts: list[np.ndarray],
    redrawn: list[int],
    draws: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: SamplingPlan,
    rules: CompiledRules,
) -> None:
    """Apply the resample draws of the ``redrawn`` children to their codes
    and counts, in place; see :func:`breed`."""
    length, width = codes[0].shape
    column_p, cdfs = plan.redraw_tables
    column_cdf = column_p.cumsum()
    column_cdf /= column_cdf[-1]
    # One row of draws per redrawn child, flattened in draw order.
    rows, column_u, value_u = (np.stack(part) for part in zip(*draws))
    keys = (rows + length * np.arange(len(redrawn))[:, None]).ravel()
    columns = np.searchsorted(column_cdf, column_u.ravel(), side="right")
    value_u = value_u.ravel()
    # The touched (child, slot) rows once each, child-major, and where each
    # draw lands among them: sorting and masking repeats costs far less
    # than np.unique.
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    at = np.empty(len(keys), dtype=np.intp)
    at[order] = np.cumsum(first) - 1
    owner, slot = np.divmod(ordered[first], length)
    bounds = np.searchsorted(owner, np.arange(len(redrawn) + 1)).tolist()
    blocks = list(zip(redrawn, bounds[:-1], bounds[1:]))
    old = np.concatenate([codes[child].take(slot[a:b], axis=0) for child, a, b in blocks])
    new = old.copy()
    # In draw order, so a cell drawn twice keeps its last draw.
    for col, cdf in enumerate(cdfs):
        hits = columns == col
        new[at[hits], col] = _draw(cdf, value_u[hits])
    broken = rules.violation_mask(new)
    new[broken] = old[broken]
    # Each changed cell counts its new code up and its old one down, in
    # its child's block: one bincount for the whole generation.
    cells = np.flatnonzero(new != old)
    row, col = np.divmod(cells, width)
    offsets = count_offsets(plan.attributes)
    size = int(offsets[-1])
    base = owner[row] * size + offsets[col]
    up, down = base + new.ravel()[cells], base + old.ravel()[cells] + len(redrawn) * size
    tallies = np.bincount(np.concatenate((up, down)), minlength=2 * len(redrawn) * size)
    delta = np.subtract(*tallies.reshape(2, len(redrawn), size))
    for k in np.unique(owner[row]).tolist():
        child, a, b = blocks[k]
        _own(codes, child)[slot[a:b]] = new[a:b]
        counts[child] = counts[child] + delta[k]


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
            # One compare per objective over the members' column of it. A
            # member no worse anywhere dominates or equals the offer.
            columns = matrix.T
            le = columns[0] <= objectives[0]
            for column, value in zip(columns[1:], objectives[1:]):
                le &= column <= value
            if le.any():
                return False
            # No member equals the offer, so one no better anywhere is
            # worse somewhere: the offer dominates it.
            evicted = columns[0] >= objectives[0]
            for column, value in zip(columns[1:], objectives[1:]):
                evicted &= column >= value
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
    stage has none, is a :class:`DataError` naming the table; so is a
    stage whose attributes have 2**63 joint cells or more (see
    :func:`~synthpop.population_model.cell_count`). Returns the
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
    attributes = dataset.stage_attributes(stage)
    # Archive bundles store each roster row as its joint cell index.
    cell_count([dataset.schema[name] for name in attributes])
    plan = SamplingPlan.from_tables(dataset.schema, attributes, dataset.stage_tables(stage))
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
        rngs = tuple(
            substream(seed, stage_id, generation, op)
            for op in (_OP_SELECT, _OP_CROSSOVER, _OP_MUTATE)
        )
        # No name holds the last generation's offspring, so the ones that
        # did not survive are freed before these are bred.
        population += breed(population, rank, crowding, config, plan, compiled, rngs)
        # Survivors keep the rank and crowding of the combined ranking,
        # which the next generation's tournaments compare.
        objectives = np.vstack([objectives, evaluator(population[len(objectives):])])
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
