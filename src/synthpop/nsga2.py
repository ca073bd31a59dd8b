"""NSGA-II evolutionary core: dominance, sorting, breeding and the loop.

The engine minimises every objective. A population is a list of rosters
plus one objective matrix, row for row; ranking returns rank and crowding
vectors over those rows, and tournament and environmental selection return
row indices, as in Deb et al. (2002). :func:`breed` makes a generation's
offspring in three steps: crossover draws each pair's cuts and tallies the
pair's count change, one mutation pass over the rows it touches, read from
the parents, adds its count changes with one rule check per mutation, and
then each changed child is made once, as a recipe over its winner rather
than a copy. A child's category counts are its winner's plus its row of
the generation's count changes, so the loop scores each generation's
offspring with one evaluator call and no roster is recounted. Only the
survivors and the archive members build their codes, at the end of each
generation; the other children never do.
Once per generation the Pareto archive merges the generation's first front
and truncates to the population size, always keeping the lowest weighted
sum of objectives any evaluated roster reached, which is the roster
exported. Determinism is strict: every random draw goes through a named
substream of the master seed, so a run's outputs are byte-identical for a
given config and seed.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .census_data import HOUSEHOLDS, PERSONS, RegionDataset
from .errors import DataError
from .fitness import ObjectiveEvaluator, ObjectiveSpec, weighted_sums
from .population_model import (
    CandidatePopulation,
    CompiledRules,
    SamplingPlan,
    ValidationRule,
    _draw,
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
    by its annotation. The Pareto archive holds at most the population
    size.
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
    or else passes itself on. Each child, in order, then gets at most one
    swap and one resample mutation:

    - The swap exchanges one attribute's values between two random roster
      slots. It is reverted when either slot would then break one of
      ``rules``. It keeps the category counts.
    - The resample redraws ``config.resample_slots`` random (slot,
      attribute) cells from the plan's marginal weights. Attributes are
      hit in proportion to their category count, and a cell drawn twice
      keeps its last draw. Slots that then break a rule revert to their
      values after the swap. It injects the fresh variation that
      recombination alone cannot reach once the population converges.

    Each stream makes its draws per child, in the order and call shapes
    that one operator call per child would, so this equals applying the
    operators child by child. Crossover records each pair's cuts and adds
    its count change, tallied over the exchanged slice or its complement
    if shorter, to one (children, counts) matrix. The mutation draws need
    no roster data, so they all come next; one pass over the generation's
    touched (child, slot) rows, each read from the parent it came from,
    then makes one rule check per mutation and adds one bincount to the
    matrix. Last, each child is made once. One that nothing changed is its
    winner; the others are unbuilt rosters (see
    :class:`~synthpop.population_model.CandidatePopulation`): the winner
    patched with a view of the other winner's slice and then with the
    mutated rows, carrying the winner's counts plus the child's changes.
    """
    select_rng, cross_rng, mutate_rng = rngs
    length, width = len(population[0]), len(plan.attributes)
    children = config.offspring
    offsets = count_offsets(plan.attributes)
    size = int(offsets[-1])
    winners = _tournaments(rank, crowding, children, select_rng)
    # Each pair's cuts, empty when it did not cross, and each child's count
    # change over its winner: crossover's first, then mutation's.
    cuts = np.zeros((children // 2, 2), dtype=np.intp)
    crossed = np.zeros(children // 2, dtype=bool)
    delta = np.zeros((children, size), dtype=np.int64)
    for pair in range(children // 2):
        if cross_rng.random() < config.crossover_probability:
            cut_a, cut_b = sorted(cross_rng.integers(0, length + 1, size=2).tolist())
            cuts[pair], crossed[pair] = (cut_a, cut_b), True
            first, second = population[winners[2 * pair]], population[winners[2 * pair + 1]]
            a, b = first.codes, second.codes
            # What the first child gains over its winner, and the second
            # loses: from the exchanged slice, or its complement if shorter.
            if 2 * (cut_b - cut_a) <= length:
                gain = tally(b[cut_a:cut_b], offsets) - tally(a[cut_a:cut_b], offsets)
            else:
                kept_a = tally(a[:cut_a], offsets) + tally(a[cut_b:], offsets)
                kept_b = tally(b[:cut_a], offsets) + tally(b[cut_b:], offsets)
                gain = (second.category_counts - kept_b) - (first.category_counts - kept_a)
            delta[2 * pair], delta[2 * pair + 1] = gain, -gain

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

    # The touched (child, slot) rows once each, child-major; ``at`` places
    # both slots of each swap, then each draw, among them.
    swap = np.array(swaps, dtype=np.intp).reshape(-1, 4)
    keys = np.concatenate((
        (swap[:, :1] * length + swap[:, 1:3]).ravel(),
        *(child * length + rows for child, (rows, _, _) in zip(redrawn, draws)),
    ))
    touched, at = np.unique(keys, return_inverse=True)
    owner, slot = np.divmod(touched, length)
    # Each row as crossover left it: inside its pair's cuts the other
    # winner's, else its own winner's, with one gather per parent.
    inside = (cuts[owner // 2, 0] <= slot) & (slot < cuts[owner // 2, 1])
    source = np.asarray(winners)[np.where(inside, owner ^ 1, owner)]
    order = np.argsort(source, kind="stable")
    members, starts = np.unique(source[order], return_index=True)
    old = np.empty((len(touched), width), dtype=population[0].codes.dtype)
    for member, part in zip(members.tolist(), np.split(order, starts[1:])):
        old[part] = population[member].codes[slot[part]]

    new = old.copy()
    if swaps:
        # Swapped, then reverted where either row breaks a rule: one check.
        pairs, col = at[:2 * len(swaps)], swap[:, 3]
        first, second = pairs[::2], pairs[1::2]
        new[first, col], new[second, col] = old[second, col], old[first, col]
        broken = rules.violation_mask(new[pairs]).reshape(-1, 2).any(axis=1).repeat(2)
        new[pairs[broken]] = old[pairs[broken]]
    swapped = new.copy()
    if redrawn:
        # Redrawn in draw order, so a cell drawn twice keeps its last draw;
        # rows that then break a rule revert to their swapped values.
        column_p, cdfs = plan.redraw_tables
        column_cdf = column_p.cumsum() / column_p.cumsum()[-1]
        drawn_at = at[2 * len(swaps):]
        _, column_u, value_u = (np.concatenate(part) for part in zip(*draws))
        columns = np.searchsorted(column_cdf, column_u, side="right")
        for col, cdf in enumerate(cdfs):
            hits = columns == col
            new[drawn_at[hits], col] = _draw(cdf, value_u[hits])
        broken = rules.violation_mask(new)
        new[broken] = swapped[broken]

    # Each changed cell counts its new code up and its old one down, in its
    # child's block: one bincount for the whole generation.
    moved = new != old
    row, col = np.divmod(np.flatnonzero(moved), width)
    base = owner[row] * size + offsets[col]
    up, down = base + new[row, col], base + old[row, col] + children * size
    tallies = np.bincount(np.concatenate((up, down)), minlength=2 * children * size)
    delta += np.subtract(*tallies.reshape(2, children, size))
    # A child changed where its swap stood or its rows moved, even if the
    # redraws then undid the swap; each gets one patch of its touched rows.
    changed = moved.any(axis=1) | (swapped != old).any(axis=1)
    mutated = set(np.unique(owner[changed]).tolist())
    bounds = np.searchsorted(owner, np.arange(children + 1)).tolist()
    # Each child made once, from its winner and its patches in order.
    offspring: list[CandidatePopulation] = []
    for child, winner in enumerate(winners):
        parent, pair = population[winner], child // 2
        patches: list[tuple[slice | np.ndarray, np.ndarray]] = []
        if crossed[pair]:
            cut = slice(*cuts[pair].tolist())
            patches.append((cut, population[winners[child ^ 1]].codes[cut]))
        if child in mutated:
            block = slice(bounds[child], bounds[child + 1])
            patches.append((slot[block], new[block]))
        offspring.append(
            parent.patched(patches, parent.category_counts + delta[child]) if patches else parent
        )
    return offspring


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
    """Non-dominated rosters kept across a run, updated once per generation.

    Members keep the order in which they joined, and row k of the objective
    matrix is member k's vector. The archive does not feed back into the
    search. It always keeps the roster with the lowest weighted sum of raw
    objectives, which ``reporting.select_best`` exports.
    """

    def __init__(self, capacity: int, weights: Sequence[float]):
        if capacity < 1:
            raise DataError("archive capacity must be positive")
        self.capacity = capacity
        self.weights = np.asarray(weights, dtype=np.float64)
        self._candidates: list[CandidatePopulation] = []
        self._objectives = np.empty((0, len(self.weights)), dtype=np.float64)

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

    def update(self, candidates: Sequence[CandidatePopulation], objectives: np.ndarray) -> None:
        """Merge the offered rosters, row for row with ``objectives``.

        The pool is the members followed by the offers. Of each group of
        objective-identical rows only the first is kept, so a member wins a
        tie, and then only the pool's non-dominated rows. Over capacity,
        the row with the lowest weighted sum (the earliest on a tie) is
        kept, and the others are truncated by descending crowding distance
        as :func:`environmental_selection` truncates its last front. The
        kept rows stay in pool order.
        """
        pool = np.vstack([self._objectives, np.asarray(objectives, dtype=np.float64)])
        rosters = [*self._candidates, *candidates]
        if len(rosters) != len(pool):
            raise ValueError("need one objective vector per offered roster")
        _, first = np.unique(pool, axis=0, return_index=True)
        keep = np.sort(first)
        keep = keep[fast_nondominated_sort(pool[keep])[0]]
        if len(keep) > self.capacity:
            rows = pool[keep]
            rank = np.full(len(keep), 2)
            rank[np.argmin(weighted_sums(rows, self.weights))] = 1
            chosen = environmental_selection(rank, crowding_distance(rows), self.capacity)
            keep = keep[np.sort(chosen)]
        self._candidates = [rosters[i] for i in keep.tolist()]
        self._objectives = pool[keep]


@dataclass
class GenerationHistory:
    """Per-generation traces of one stage, one entry per generation.

    ``best[g]`` is, per objective, the lowest value any roster evaluated up
    to generation ``g`` reached, so it never worsens; ``mean[g]`` is the
    surviving population's; ``seconds[g]`` is the wall-clock cost of that
    generation alone (for generation 0, of sampling and scoring the initial
    population). :meth:`normalize` divides by generation 0's mean, so every
    trace starts near 1 and the descent is comparable across objectives of
    different scale.
    """

    names: tuple[str, ...]
    best: list[np.ndarray] = field(default_factory=list)
    mean: list[np.ndarray] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """``values`` over generation 0's mean, objective by objective; 0
        where that mean is not positive."""
        values = np.asarray(values, dtype=np.float64)
        out = np.zeros_like(values)
        np.divide(values, self.mean[0], out=out, where=self.mean[0] > 0)
        return out


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
    stage has none, is a :class:`DataError` naming the table. Returns the
    Pareto archive of at most ``config.population_size`` non-dominated
    rosters, weighted by the specs' weights (see :class:`ParetoArchive`),
    and the per-generation history. Deterministic for a given config seed.

    Generation 0 draws the initial rosters and each later one adds its
    offspring; then every generation runs one body: score the new rosters,
    rank the pool, offer its first front to the archive and, once the pool
    outgrows the population, select the survivors. Generation 0's pool is
    the population itself, so it keeps its draw order.
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
    plan = SamplingPlan.from_tables(dataset.schema, attributes, dataset.stage_tables(stage))
    evaluator = ObjectiveEvaluator(dataset, specs, target, plan.attributes)
    # Compiled once for the stage; this also fails fast on misconfigured rules.
    compiled = CompiledRules(rules, plan.attributes)
    stage_id, seed, size = _STAGE_IDS[stage], config.seed, config.population_size

    archive = ParetoArchive(size, [spec.weight for spec in specs])
    history = GenerationHistory(evaluator.names)
    objectives = np.empty((0, len(specs)), dtype=np.float64)
    best = np.inf
    for generation in range(config.generations + 1):
        started = time.perf_counter()
        if generation == 0:
            streams = (substream(seed, stage_id, 0, _OP_INIT, i) for i in range(size))
            population = [generate_candidate(plan, target, compiled, rng) for rng in streams]
        else:
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
        front = np.flatnonzero(rank == 1)
        archive.update([population[i] for i in front], objectives[front])
        best = np.minimum(best, objectives.min(axis=0))
        if len(population) > size:
            survivors = environmental_selection(rank, crowding, size)
            population = [population[i] for i in survivors]
            objectives, rank, crowding = objectives[survivors], rank[survivors], crowding[survivors]
        # Build the rosters kept past this generation, so no recipe outlives
        # it; the children neither kept nor archived are never built.
        for roster in (*population, *archive.candidates):
            roster.build()
        history.best.append(best)
        history.mean.append(objectives.mean(axis=0))
        history.seconds.append(time.perf_counter() - started)
        if progress is not None:
            progress(stage, generation, best, history.seconds[-1])

    return archive, history
