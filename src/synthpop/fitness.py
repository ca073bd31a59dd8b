"""Objective metrics comparing census frequencies with roster frequencies.

Each objective projects a contingency table onto one attribute (or keeps
the full joint cells), rescales the census counts to the roster length,
and scores the absolute error between expected and observed frequencies.
Lower is better for every metric.

The metrics work row-wise over the last axis, so one formula scores one
frequency vector or a whole matrix of them. The evaluator lays its
objectives' projections out as one :class:`CountLayout`, a marginal as a
one-column projection and a full-cell objective as its table's axes, and
scores a generation in one call from a counts matrix in that layout, one
row per roster: each objective makes one metric call over its block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .census_data import Attribute, RegionDataset, marginalize
from .errors import DataError
from .population_model import CountLayout

L1 = "l1"
TRAPEZOID = "trapezoid"
METRICS = (L1, TRAPEZOID)


def l1_objective(actual: np.ndarray, observed: np.ndarray) -> float | np.ndarray:
    """Sum of absolute per-category differences over the last axis: a
    float for two vectors, one value per row otherwise."""
    actual, observed = _as_pair(actual, observed)
    return _rows(np.abs(actual - observed).sum(axis=-1))


def trapezoid_area(actual: np.ndarray, observed: np.ndarray) -> float | np.ndarray:
    """Area under the absolute difference curve across ordered categories,
    over the last axis.

    Categories sit at unit spacing, so the area is the trapezoidal sum of
    consecutive difference pairs, written out as ``np.trapezoid`` computes
    it (same bits, without its per-call overhead). A single category
    degenerates to the plain absolute difference.
    """
    actual, observed = _as_pair(actual, observed)
    diff = np.abs(actual - observed)
    if diff.shape[-1] == 1:
        return _rows(diff[..., 0])
    return _rows(((diff[..., 1:] + diff[..., :-1]) / 2.0).sum(axis=-1))


def rmse(actual: np.ndarray, observed: np.ndarray) -> float | np.ndarray:
    """Root mean squared error across categories, over the last axis."""
    actual, observed = _as_pair(actual, observed)
    return _rows(np.sqrt(np.mean((actual - observed) ** 2, axis=-1)))


def _as_pair(actual: np.ndarray, observed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    actual = np.asarray(actual, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if (
        actual.ndim == 0
        or observed.ndim == 0
        or actual.shape[-1] != observed.shape[-1]
        or actual.shape[-1] == 0
    ):
        raise ValueError(
            f"frequency vectors must have one equal, non-zero length on the last "
            f"axis, got {actual.shape} and {observed.shape}"
        )
    return actual, observed


def _rows(values: np.ndarray) -> float | np.ndarray:
    """A metric's result: a float for two vectors, else one value per row."""
    return float(values) if np.ndim(values) == 0 else values


_METRIC_FUNCTIONS = {L1: l1_objective, TRAPEZOID: trapezoid_area}


def normalize_objectives(vectors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Min-max normalise objective vectors onto [0, 1] per objective.

    Objectives constant across all vectors map to zero. Returns one row
    per input vector.
    """
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("need a non-empty sequence of objective vectors")
    lo = matrix.min(axis=0)
    span = matrix.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    out = (matrix - lo) / safe
    out[:, span <= 0] = 0.0
    return out


def weighted_sums(objectives: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Each row's weighted sum of raw objective values, added in objective
    order so that a row's sum does not depend on the rows scored with it."""
    matrix = np.asarray(objectives, dtype=np.float64)
    return sum((column * weight for column, weight in zip(matrix.T, weights)),
               np.zeros(len(matrix)))


@dataclass(frozen=True)
class ObjectiveSpec:
    """One reconstruction-error objective.

    ``attribute`` selects the table axis to project onto; leave it None to
    fit the table's full joint cell distribution instead. ``weight`` does
    not steer the search: it weighs this objective's raw value in the sum
    that picks the exported roster, and that the archive always keeps the
    lowest of (see ``reporting.select_best``). The raw values add up
    because every objective of a stage counts errors over the same roster.
    """

    name: str
    table: str
    attribute: str | None = None
    metric: str = TRAPEZOID
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise DataError("objective needs a name")
        if self.metric not in METRICS:
            raise DataError(
                f"objective {self.name!r} has unknown metric {self.metric!r}; "
                f"choose from {METRICS}"
            )
        if self.weight < 0:
            raise DataError(f"objective {self.name!r} has negative weight")


class ObjectiveEvaluator:
    """Precomputed targets for scoring rosters against one dataset.

    :attr:`layout` counts each spec's projection: its attribute's column,
    or its table's axes for a full-cell objective; specs on one projection
    share a block. Calling the evaluator on a counts matrix in that layout,
    one row per roster, returns their objective matrix: one row per roster,
    in order, and one column per spec, in spec order.
    """

    def __init__(
        self,
        dataset: RegionDataset,
        specs: Sequence[ObjectiveSpec],
        roster_size: int,
        attributes: Sequence[Attribute],
    ):
        if not specs:
            raise DataError("need at least one objective")
        if roster_size <= 0:
            raise DataError("roster size must be positive")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise DataError("objective names must be unique")
        columns = {a.name: i for i, a in enumerate(attributes)}
        self.specs = tuple(specs)
        self._plans: list[tuple] = []
        for spec in specs:
            table = dataset.table(spec.table)
            scale = roster_size / table.total
            if spec.attribute is not None:
                if spec.attribute not in columns:
                    raise DataError(
                        f"objective {spec.name!r} projects onto {spec.attribute!r}, "
                        "which is not a roster attribute"
                    )
                projection = (columns[spec.attribute],)
                target = marginalize(table, spec.attribute) * scale
            else:
                missing = [n for n in table.axis_names if n not in columns]
                if missing:
                    raise DataError(
                        f"objective {spec.name!r} fits full cells of {table.name!r} "
                        f"but the roster lacks axes {missing}"
                    )
                projection = tuple(columns[n] for n in table.axis_names)
                target = table.counts.ravel() * scale
            self._plans.append((_METRIC_FUNCTIONS[spec.metric], target, projection))
        self.layout = CountLayout(attributes, [plan[2] for plan in self._plans])

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def __call__(self, counts: np.ndarray) -> np.ndarray:
        values = np.empty((len(counts), len(self._plans)), dtype=np.float64)
        for i, (metric, target, projection) in enumerate(self._plans):
            values[:, i] = metric(target, counts[:, self.layout.blocks[projection]])
        return values
