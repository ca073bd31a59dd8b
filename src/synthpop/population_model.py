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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .census_data import (
    YAML_LOADER,
    Attribute,
    AttributeSchema,
    ContingencyTable,
    marginalize,
)
from .errors import DataError, EvolutionError, not_utf8

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

    A rule whose attributes have more than :data:`MAX_RULE_CELLS` joint
    cells is a :class:`DataError`.
    """
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=YAML_LOADER)
    except FileNotFoundError:
        raise DataError(f"rules file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise not_utf8("rules", path, exc) from None
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
        rule = ValidationRule(
            name=str(entry["name"]),
            clauses=tuple(clauses),
            message=str(entry.get("message", "")),
        )
        try:
            _check_rule_cells(rule, [schema[name] for name, _ in clauses])
        except DataError as exc:
            raise DataError(f"rules file {path}: {exc}") from None
        rules.append(rule)
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


# The most joint cells a rule's attributes may have: its check table holds
# one flag per cell.
MAX_RULE_CELLS = 2**24


def _check_rule_cells(rule: ValidationRule, attributes: Sequence[Attribute]) -> None:
    """Raise a :class:`DataError` naming ``rule`` if its clause attributes,
    resolved in ``attributes``, have more than :data:`MAX_RULE_CELLS` joint
    cells."""
    by_name = {a.name: a for a in attributes}
    clause_attributes = [by_name[name] for name in dict.fromkeys(n for n, _ in rule.clauses)]
    count = math.prod(a.size for a in clause_attributes)
    if count > MAX_RULE_CELLS:
        names = ", ".join(a.name for a in clause_attributes)
        raise DataError(
            f"rule {rule.name!r}: attributes {names} have {count:,} joint cells; "
            f"a rule's attributes may have at most {MAX_RULE_CELLS:,} (2**24)"
        )


class CompiledRules:
    """Rules bound to a roster's column layout for vectorised checking.

    The rules whose clauses name the same set of attributes share one
    boolean table over those attributes' joint cells, True where any of
    them is violated: each rule contributes the outer AND of its clauses'
    forbidden-category masks. A check is one cell index and one gather per
    table.
    """

    def __init__(self, rules: Sequence[ValidationRule], attributes: Sequence[Attribute]):
        columns = {a.name: i for i, a in enumerate(attributes)}
        self.rules = tuple(rules)
        self.attributes = tuple(attributes)
        tables: dict[tuple[int, ...], np.ndarray] = {}
        for rule in self.rules:
            for attribute, _ in rule.clauses:
                if attribute not in columns:
                    raise DataError(
                        f"rule {rule.name!r} references attribute {attribute!r}, "
                        "which is not configured for this roster"
                    )
            _check_rule_cells(rule, attributes)
            masks: dict[int, np.ndarray] = {}
            for attribute, categories in rule.clauses:
                col = columns[attribute]
                declared = attributes[col]
                forbidden = np.zeros(declared.size, dtype=bool)
                forbidden[[declared.index_of(c) for c in categories]] = True
                masks[col] = masks.get(col, True) & forbidden
            key = tuple(sorted(masks))
            hit = masks[key[0]]
            for col in key[1:]:
                hit = np.logical_and.outer(hit, masks[col])
            tables[key] = tables.get(key, False) | hit
        self._tables = tuple(
            (cols, tuple(attributes[c].size for c in cols), table.ravel())
            for cols, table in tables.items()
        )

    def violation_mask(self, codes: np.ndarray) -> np.ndarray:
        """Boolean mask over roster rows: True where any rule is violated."""
        bad = np.zeros(len(codes), dtype=bool)
        for cols, dims, table in self._tables:
            bad |= table[_joint_cells(codes, cols, dims)]
        return bad


def _joint_cells(codes: np.ndarray, columns: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Each row's joint cell over ``columns``, whose category counts are
    ``dims``, numbered as ``np.ravel_multi_index`` numbers them, and 0 when
    there are no columns; the one cell encoder. The codes must lie inside
    their attributes."""
    cells = np.zeros(len(codes), dtype=np.intp)
    for col, size in zip(columns, dims):
        cells *= size
        cells += codes[:, col]
    return cells


def _draw(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The category each uniform falls in under a cumulative weight vector;
    rounding in the last bin maps to the last category."""
    idx = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(idx, len(cdf) - 1)


# A guide table has at least this many buckets per category, so that few
# buckets hold a cumulative weight and most draws end at the lookup.
_GUIDE_BUCKETS_PER_CATEGORY = 16


def _guide_table(cdf_rows: np.ndarray) -> np.ndarray:
    """The guide table of each cumulative row (Chen & Asau, 1974).

    With ``B`` buckets, a power of two, entry ``k`` of a row is
    ``_draw(row, k / B)`` for ``k = 0..B``, in the narrowest unsigned dtype.
    """
    width = cdf_rows.shape[1]
    buckets = 1 << (_GUIDE_BUCKETS_PER_CATEGORY * width - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    guide = np.empty((len(cdf_rows), buckets + 1), dtype=np.min_scalar_type(width - 1))
    for row, cdf in zip(guide, cdf_rows):
        row[:] = _draw(cdf, edges)
    return guide


def _guided_draw(
    cdf_rows: np.ndarray, guide: np.ndarray, rows: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """``_draw(cdf_rows[rows[i]], uniforms[i])`` for every draw ``i``, read
    from the rows' guide tables.

    ``u * B`` is exact, as ``B`` is a power of two, so a uniform ``u`` falls
    in bucket ``k = floor(u * B)``, and ``_draw`` being monotone puts its
    result between the bucket's guide entries ``k`` and ``k + 1``. Where
    they are equal, that is the result; the few draws whose bucket holds a
    cumulative weight bisect their own row between the two.
    """
    buckets = guide.shape[1] - 1
    at = (uniforms * buckets).astype(np.intp) + rows * (buckets + 1)
    flat_guide = guide.ravel()
    low = flat_guide[at]
    high = flat_guide[at + 1]
    drawn = low.astype(np.intp)
    index = np.flatnonzero(low != high)
    if index.size:
        # The result lies in [low, high]. Entry ``mid`` of the row, with
        # low <= mid < high, is at most the uniform exactly when the result
        # is above ``mid``.
        low, high = drawn[index], high[index].astype(np.intp)
        u = uniforms[index]
        start = rows[index] * cdf_rows.shape[1]
        flat_cdf = cdf_rows.ravel()
        while index.size:
            mid = (low + high) >> 1
            below = flat_cdf[start + mid] <= u
            low = np.where(below, mid + 1, low)
            high = np.where(below, high, mid)
            done = low == high
            drawn[index[done]] = low[done]
            left = ~done
            index, low, high, u, start = index[left], low[left], high[left], u[left], start[left]
    return drawn


@dataclass(frozen=True)
class _JointGroup:
    """One table's contribution to a draw: which columns it fills and how
    its cells are conditioned on columns filled by earlier tables."""

    given_columns: tuple[int, ...]
    given_dims: tuple[int, ...]
    new_columns: tuple[int, ...]
    cdf_rows: np.ndarray  # (n_given_combos, n_new_combos) cumulative rows
    guide: np.ndarray  # (n_given_combos, buckets + 1), see _guide_table
    new_codes: tuple[np.ndarray, ...]  # per new column, its code at each new combo


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
        """Draw a (count, n_attributes) matrix of category indices.

        Each group draws one uniform per row. A draw's row of ``cdf_rows`` is
        the joint cell of the group's given columns, which is 0 when it has
        none; the draw is read from that row's guide table
        (:func:`_guided_draw`), and its new combination's code in each new
        column from that column's lookup table.
        """
        if count <= 0:
            raise DataError("sample count must be positive")
        codes = np.empty((count, len(self.attributes)), dtype=code_dtype(self.attributes))
        for group in self._joint_groups:
            uniforms = rng.random(count)
            rows = _joint_cells(codes, group.given_columns, group.given_dims)
            flat = _guided_draw(group.cdf_rows, group.guide, rows, uniforms)
            for col, lookup in zip(group.new_columns, group.new_codes):
                codes[:, col] = lookup.take(flat)
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
        cdf_rows=cdf_rows,
        guide=_guide_table(cdf_rows),
        new_codes=tuple(
            part.astype(np.min_scalar_type(a.size - 1))
            for a, part in zip(new, np.unravel_index(np.arange(n_new), new_dims))
        ),
    )


def count_offsets(attributes: Sequence[Attribute]) -> np.ndarray:
    """Where each attribute's block starts in a roster's category counts,
    in column order, followed by the counts' total length."""
    return np.cumsum([0, *(a.size for a in attributes)])


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


class _Recipe(NamedTuple):
    """How an unbuilt roster's codes are made, and only ever built, never
    read: ``base``'s codes with each patch of (rows, values) written in
    order. A patch's rows are a slice, as crossover writes a donor's rows
    ``cut_a:cut_b``, or distinct row indices, as mutation writes its rows."""

    base: CandidatePopulation
    patches: tuple[tuple[slice | np.ndarray, np.ndarray], ...]


class CandidatePopulation:
    """A fixed-length roster of synthetic entities; one search-space point.

    ``codes`` is read-only, so rosters can share it. A roster that variation
    makes from another (:meth:`patched`) starts as a recipe over it and
    builds its codes on first access, dropping the recipe; variation reads
    the rows it changes from the parents, so a child that is never kept is
    never built. ``counts``, when given, must equal the
    :attr:`category_counts` of ``codes``: variation derives a child's counts
    from its parents', so the child is never recounted.
    """

    def __init__(
        self,
        attributes: tuple[Attribute, ...],
        codes: np.ndarray,
        counts: np.ndarray | None = None,
    ):
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != len(attributes):
            raise DataError(
                f"roster matrix has shape {codes.shape}, expected "
                f"(n, {len(attributes)})"
            )
        if not np.issubdtype(codes.dtype, np.integer):
            codes = codes.astype(code_dtype(attributes))
        codes.setflags(write=False)
        self.attributes = attributes
        self._codes: np.ndarray | None = codes
        self._recipe: _Recipe | None = None
        if counts is not None:
            counts.setflags(write=False)
        self._counts = counts

    def patched(
        self, patches: Sequence[tuple[slice | np.ndarray, np.ndarray]], counts: np.ndarray
    ) -> CandidatePopulation:
        """This roster, unbuilt, with each (rows, values) pair of ``patches``
        written in order; a patch's rows are a slice or distinct row
        indices. ``counts`` are the result's category counts. The values
        are held, not copied, until the result is built."""
        roster = CandidatePopulation.__new__(CandidatePopulation)
        roster.attributes = self.attributes
        roster._codes = None
        roster._recipe = _Recipe(self, tuple(patches))
        counts.setflags(write=False)
        roster._counts = counts
        return roster

    @property
    def codes(self) -> np.ndarray:
        """The (n, n_attributes) category codes; built on first access."""
        if self._codes is None:
            self.build()
        return self._codes

    def build(self) -> None:
        """Build the codes now, if they are not yet, and drop the recipe and
        with it the references to the rosters and codes it was made from."""
        if self._recipe is None:
            return
        base, patches = self._recipe
        codes = base.codes.copy()
        for rows, values in patches:
            codes[rows] = values
        codes.setflags(write=False)
        self._codes, self._recipe = codes, None

    def __len__(self) -> int:
        return len(self._recipe.base) if self._codes is None else self._codes.shape[0]

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
