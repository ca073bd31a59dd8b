"""Candidate rosters, weighted entity sampling and rule-based validation.

A candidate solution is a fixed-length roster of synthetic entities
(persons in stage one, households in stage two) stored as a dense matrix
of category indices: one row per entity, one column per attribute. Initial
rosters are drawn through a :class:`SamplingPlan`, which walks the stage
tables and draws jointly from their cells; resample mutation redraws single
values from each attribute's marginal, which the plan also holds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
import yaml

from .census_data import (
    Attribute,
    AttributeSchema,
    ContingencyTable,
    marginalize,
)
from .errors import DataError, EvolutionError

# Draws each roster slot gets before rejection sampling gives up.
SAMPLING_RETRIES = 100


@dataclass(frozen=True)
class ValidationRule:
    """A forbidden conjunction of per-attribute category sets.

    An entity violates the rule when, for every clause, its value for the
    clause's attribute falls inside the forbidden set. The default rule
    set forbids child age bands combined with a married status.
    """

    name: str
    clauses: tuple[tuple[str, frozenset[str]], ...]
    message: str = ""

    def __post_init__(self) -> None:
        if not self.clauses:
            raise DataError(f"rule {self.name!r} has no clauses")
        for attribute, categories in self.clauses:
            if not categories:
                raise DataError(
                    f"rule {self.name!r} has an empty category set for {attribute!r}"
                )


def load_rules(path: str | Path, schema: AttributeSchema) -> tuple[ValidationRule, ...]:
    """Load validation rules from YAML.

    Expected layout::

        rules:
          - name: no-child-marriage
            message: child age bands cannot be married
            when:
              age: [a0_4, a5_9, a10_14, a15_17]
              marital: [married]
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"rules file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise DataError(f"rules file {path} is not valid YAML: {exc}") from None
    if raw is None:
        return ()
    if not isinstance(raw, dict) or not isinstance(raw.get("rules"), list):
        raise DataError(f"rules file {path} must define a 'rules' list")
    rules = []
    for entry in raw["rules"]:
        if not isinstance(entry, dict) or "name" not in entry or "when" not in entry:
            raise DataError(f"rules file {path}: each rule needs 'name' and 'when'")
        when = entry["when"]
        if not isinstance(when, dict) or not when:
            raise DataError(
                f"rules file {path}: rule {entry['name']!r} 'when' must be a "
                "non-empty mapping of attribute to category list"
            )
        clauses = []
        for attribute, categories in when.items():
            if not isinstance(categories, list) or not categories:
                raise DataError(
                    f"rules file {path}: rule {entry['name']!r} needs a non-empty "
                    f"category list for {attribute!r}"
                )
            try:
                declared = schema[str(attribute)]
                for code in categories:
                    declared.index_of(str(code))
            except DataError as exc:
                raise DataError(f"rules file {path}: rule {entry['name']!r}: {exc}") from None
            clauses.append((str(attribute), frozenset(str(c) for c in categories)))
        rules.append(
            ValidationRule(
                name=str(entry["name"]),
                clauses=tuple(clauses),
                message=str(entry.get("message", "")),
            )
        )
    return tuple(rules)


def code_dtype(attributes: Sequence[Attribute]) -> np.dtype:
    """The dtype of a roster's category codes for an attribute layout: the
    narrowest unsigned integer holding every category index, which is one
    byte up to 256 categories per attribute and two bytes up to 65,536."""
    return np.min_scalar_type(max((a.size for a in attributes), default=1) - 1)


def cell_count(attributes: Sequence[Attribute]) -> int:
    """The number of joint cells of an attribute layout: the product of its
    attributes' category counts. A row's cell index over the layout is a
    numpy index (int64), so a layout of 2**63 cells or more is a
    :class:`DataError`."""
    count = math.prod(a.size for a in attributes)
    if count >= 2**63:
        names = ", ".join(a.name for a in attributes)
        raise DataError(
            f"attributes {names} have {count:,} joint cells; "
            "a row's joint cell index must stay below 2**63"
        )
    return count


class CompiledRules:
    """Rules bound to a roster's column layout for vectorised checking.

    Each clause becomes a boolean lookup table over its attribute's codes,
    True at the forbidden ones, so a membership test is one fancy index.
    """

    def __init__(self, rules: Sequence[ValidationRule], attributes: Sequence[Attribute]):
        columns = {a.name: i for i, a in enumerate(attributes)}
        self.rules = tuple(rules)
        self._bound: list[tuple[tuple[int, np.ndarray], ...]] = []
        for rule in self.rules:
            bound = []
            for attribute, categories in rule.clauses:
                if attribute not in columns:
                    raise DataError(
                        f"rule {rule.name!r} references attribute {attribute!r}, "
                        "which is not configured for this roster"
                    )
            for attribute, categories in rule.clauses:
                col = columns[attribute]
                declared = attributes[col]
                forbidden = np.zeros(declared.size, dtype=bool)
                forbidden[[declared.index_of(c) for c in categories]] = True
                bound.append((col, forbidden))
            self._bound.append(tuple(bound))

    def violation_mask(self, codes: np.ndarray) -> np.ndarray:
        """Boolean mask over roster rows: True where any rule is violated."""
        bad = np.zeros(len(codes), dtype=bool)
        for bound in self._bound:
            hit = np.ones(len(codes), dtype=bool)
            for col, forbidden in bound:
                hit &= forbidden[codes[:, col]]
                if not hit.any():
                    break
            bad |= hit
        return bad


def _draw(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The category each uniform falls in under a cumulative weight vector;
    rounding in the last bin maps to the last category."""
    idx = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(idx, len(cdf) - 1)


@dataclass(frozen=True)
class _JointGroup:
    """One table's contribution to a draw: which columns it fills and how
    its cells are conditioned on columns filled by earlier tables."""

    given_columns: tuple[int, ...]
    given_dims: tuple[int, ...]
    new_columns: tuple[int, ...]
    new_dims: tuple[int, ...]
    cdf_rows: np.ndarray  # (n_given_combos, n_new_combos) cumulative rows


class SamplingPlan:
    """How entity attribute values are drawn for one pipeline stage.

    A plan walks the stage tables in order and draws each table's
    not-yet-assigned axes from the table's cells, conditioned on any axes
    already assigned by earlier tables; this preserves the cross-attribute
    structure the tables record. Each attribute's marginal, from the first
    table listing it, is kept for resample mutation (:attr:`redraw_tables`).
    """

    def __init__(
        self,
        attributes: tuple[Attribute, ...],
        marginal_cdfs: dict[str, np.ndarray],
        joint_groups: tuple[_JointGroup, ...],
    ):
        self.attributes = attributes
        self._marginal_cdfs = marginal_cdfs
        self._joint_groups = joint_groups

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @cached_property
    def redraw_tables(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """What resample mutation draws from, in column order: the chance
        of hitting each column (proportional to its category count) and
        each column's cumulative marginal weights."""
        sizes = np.array([a.size for a in self.attributes], dtype=np.float64)
        cdfs = tuple(self._marginal_cdfs[a.name] for a in self.attributes)
        return sizes / sizes.sum(), cdfs

    @classmethod
    def from_tables(
        cls,
        schema: AttributeSchema,
        attributes: Sequence[str],
        tables: Sequence[ContingencyTable],
    ) -> SamplingPlan:
        """Plan for a stage, deriving its draws from the stage's tables.

        Each table, in order, contributes one group for the attributes no
        earlier table assigned. Each attribute's marginal weights come from
        the first table listing it; an attribute that no table lists is a
        :class:`DataError`.
        """
        if not attributes:
            raise DataError("sampling plan needs at least one attribute")
        resolved = tuple(schema[name] for name in attributes)

        def source_table(attribute: str) -> ContingencyTable:
            for table in tables:
                if attribute in table.axis_names:
                    return table
            raise DataError(f"no stage table lists attribute {attribute!r}")

        marginal_cdfs = {}
        for a in resolved:
            counts = marginalize(source_table(a.name), a.name)
            marginal_cdfs[a.name] = np.cumsum(counts / counts.sum())

        columns = {a.name: i for i, a in enumerate(resolved)}
        assigned: set[str] = set()
        groups: list[_JointGroup] = []
        for table in tables:
            in_stage = [a for a in table.axes if a.name in columns]
            new = [a for a in in_stage if a.name not in assigned]
            if not new:
                continue
            given = [a for a in in_stage if a.name in assigned]
            groups.append(_build_joint_group(table, given, new, columns))
            assigned.update(a.name for a in new)
        return cls(resolved, marginal_cdfs, tuple(groups))

    def sample_codes(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a (count, n_attributes) matrix of category indices."""
        if count <= 0:
            raise DataError("sample count must be positive")
        codes = np.empty((count, len(self.attributes)), dtype=code_dtype(self.attributes))
        for group in self._joint_groups:
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
            parts = np.unravel_index(flat, group.new_dims)
            for col, part in zip(group.new_columns, parts):
                codes[:, col] = part
        return codes


def _build_joint_group(
    table: ContingencyTable,
    given: Sequence[Attribute],
    new: Sequence[Attribute],
    columns: Mapping[str, int],
) -> _JointGroup:
    """Condition a table's cells on its already-assigned axes; ``columns``
    maps attribute names to roster column indices."""
    given_names = [a.name for a in given]
    new_names = [a.name for a in new]
    order = given_names + new_names + [
        n for n in table.axis_names if n not in given_names and n not in new_names
    ]
    perm = [table.axis_names.index(n) for n in order]
    counts = np.transpose(table.counts, perm)
    # Sum out axes that belong to neither set (off-stage extras).
    extra = len(table.axes) - len(given) - len(new)
    if extra:
        counts = counts.sum(axis=tuple(range(len(order) - extra, len(order))))
    given_dims = tuple(a.size for a in given)
    new_dims = tuple(a.size for a in new)
    n_given = int(np.prod(given_dims)) if given_dims else 1
    n_new = int(np.prod(new_dims))
    matrix = counts.reshape(n_given, n_new).astype(np.float64)
    totals = matrix.sum(axis=1, keepdims=True)
    overall = matrix.sum(axis=0)
    overall = overall / overall.sum()
    # Conditioning combinations with no recorded cells fall back to the
    # table's unconditional distribution rather than failing the draw.
    safe = np.where(totals > 0, matrix / np.where(totals > 0, totals, 1.0), overall)
    cdf_rows = np.cumsum(safe, axis=1)
    return _JointGroup(
        given_columns=tuple(columns[n] for n in given_names),
        given_dims=given_dims,
        new_columns=tuple(columns[n] for n in new_names),
        new_dims=new_dims,
        cdf_rows=cdf_rows,
    )


def count_offsets(attributes: Sequence[Attribute]) -> np.ndarray:
    """Where each attribute's block starts in a roster's category counts,
    in column order, followed by the counts' total length; read-only."""
    return _offsets(tuple(a.size for a in attributes))


@lru_cache(maxsize=None)
def _offsets(sizes: tuple[int, ...]) -> np.ndarray:
    offsets = np.cumsum([0, *sizes])
    offsets.setflags(write=False)
    return offsets


# Below this many rows one ``bincount`` over codes shifted into their
# column's block is faster than one ``bincount`` per column; above it the
# shifted copy costs more than the extra calls.
_SHIFTED_TALLY_ROWS = 2048


def tally(codes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Category counts of a block of roster rows, laid out as
    :attr:`CandidatePopulation.category_counts`; ``offsets`` comes from
    :func:`count_offsets`. The codes must lie inside their attributes."""
    if len(codes) < _SHIFTED_TALLY_ROWS:
        return np.bincount((codes + offsets[:-1]).ravel(), minlength=offsets[-1])
    return np.concatenate([
        np.bincount(codes[:, col], minlength=offsets[col + 1] - offsets[col])
        for col in range(codes.shape[1])
    ])


@dataclass(eq=False)
class CandidatePopulation:
    """A fixed-length roster of synthetic entities; one search-space point.

    ``codes`` is read-only after construction, so rosters can share it;
    variation operators change a copy. ``counts``, when given, must equal
    the :attr:`category_counts` of ``codes``: variation operators pass the
    counts they derive from a parent's, so the child is never recounted.
    """

    attributes: tuple[Attribute, ...]
    codes: np.ndarray
    counts: InitVar[np.ndarray | None] = None

    def __post_init__(self, counts: np.ndarray | None) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.shape[1] != len(self.attributes):
            raise DataError(
                f"roster matrix has shape {codes.shape}, expected "
                f"(n, {len(self.attributes)})"
            )
        if not np.issubdtype(codes.dtype, np.integer):
            codes = codes.astype(code_dtype(self.attributes))
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        if counts is not None:
            counts.setflags(write=False)
        self._counts = counts

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def category_counts(self) -> np.ndarray:
        """Each column's category counts (its ``bincount`` at the
        attribute's category count), concatenated in column order.

        An int64 read-only vector, counted on first access unless the
        roster was built with its counts.
        """
        if self._counts is None:
            blocks = []
            for col, attribute in enumerate(self.attributes):
                block = np.bincount(self.codes[:, col], minlength=attribute.size)
                if len(block) > attribute.size:
                    raise DataError(
                        f"roster column {attribute.name!r} holds code {len(block) - 1}, "
                        f"out of range for {attribute.size} categories"
                    )
                blocks.append(block)
            counts = np.concatenate(blocks).astype(np.int64, copy=False)
            counts.setflags(write=False)
            self._counts = counts
        return self._counts

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def column_index(self, attribute: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == attribute:
                return i
        raise DataError(f"roster has no attribute {attribute!r}")

    def column(self, attribute: str) -> np.ndarray:
        return self.codes[:, self.column_index(attribute)]


def generate_candidate(
    plan: SamplingPlan,
    size: int,
    rules: CompiledRules,
    rng: np.random.Generator,
) -> CandidatePopulation:
    """Build a roster of ``size`` valid entities by rejection sampling.

    ``rules`` must be compiled for the plan's attributes. Every roster slot
    gets up to ``SAMPLING_RETRIES`` draws (the initial draw included);
    slots still violating a rule after that raise, which points at
    contradictory rules and weights.
    """
    if size <= 0:
        raise DataError("roster size must be positive")
    codes = plan.sample_codes(size, rng)
    bad = rules.violation_mask(codes)
    attempts = 1
    while bad.any():
        if attempts >= SAMPLING_RETRIES:
            raise EvolutionError(
                f"rejection sampling exhausted {SAMPLING_RETRIES} retries with "
                f"{int(bad.sum())} roster slots still violating rules; the rule "
                "set and sampling weights may be contradictory"
            )
        fresh = plan.sample_codes(size, rng)
        codes[bad] = fresh[bad]
        bad = rules.violation_mask(codes)
        attempts += 1
    return CandidatePopulation(tuple(plan.attributes), codes)
