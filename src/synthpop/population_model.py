"""Candidate rosters, weighted entity sampling and rule-based validation.

A candidate solution is a fixed-length roster of synthetic entities
(persons in stage one, households in stage two) stored as a dense matrix
of category indices: one row per entity, one column per attribute. Initial
rosters are drawn through a :class:`SamplingPlan`, which walks the stage
tables and draws jointly from their cells; resample mutation redraws single
values from each attribute's marginal, which the plan also holds. Rows are
counted only through a :class:`CountLayout`, the one home of count cells.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .census_data import (
    Attribute,
    AttributeSchema,
    ContingencyTable,
    marginalize,
    read_yaml,
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
        if not isinstance(self.name, str):
            raise DataError(f"rule name must be a string, got {self.name!r}")
        if not isinstance(self.message, str):
            raise DataError(f"rule {self.name!r} message must be a string, got {self.message!r}")
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
    raw = read_yaml("rules", path)
    if raw is None:
        return ()
    if not isinstance(raw, dict) or not isinstance(raw.get("rules"), list):
        raise DataError(f"rules file {path} must define a 'rules' list")
    rules = []
    try:
        for entry in raw["rules"]:
            if not isinstance(entry, dict) or "name" not in entry or "when" not in entry:
                raise DataError("each rule needs 'name' and 'when'")
            name, when = entry["name"], entry["when"]
            unknown = set(entry) - {"name", "message", "when"}
            if unknown:
                raise DataError(f"rule {name!r} has unknown keys {sorted(map(str, unknown))}")
            if not isinstance(when, dict):
                raise DataError(f"rule {name!r} 'when' must map attributes to category lists")
            clauses, declared_attributes = [], []
            for attribute, categories in when.items():
                if not isinstance(categories, list):
                    raise DataError(f"rule {name!r} needs a category list for {attribute!r}")
                try:
                    declared = schema[str(attribute)]
                    for code in categories:
                        declared.index_of(str(code))
                except DataError as exc:
                    raise DataError(f"rule {name!r}: {exc}") from None
                clauses.append((str(attribute), frozenset(str(c) for c in categories)))
                declared_attributes.append(declared)
            rule = ValidationRule(name, tuple(clauses), entry.get("message", ""))
            _check_rule_cells(rule, declared_attributes)
            rules.append(rule)
    except DataError as exc:
        raise DataError(f"rules file {path}: {exc}") from None
    return tuple(rules)


def code_dtype(attributes: Sequence[Attribute]) -> np.dtype:
    """The dtype of a roster's category codes for an attribute layout: the
    narrowest unsigned integer holding every category index, which is one
    byte up to 256 categories per attribute and two bytes up to 65,536."""
    return np.min_scalar_type(max((a.size for a in attributes), default=1) - 1)


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

    def describe_violations(self, codes: np.ndarray) -> str:
        """Name each rule that rows of ``codes`` break, with how many rows
        break it and its message when it has one, for an error message.
        Each rule is compiled alone, so this is for error paths only."""
        named = []
        for rule in self.rules:
            rows = int(CompiledRules([rule], self.attributes).violation_mask(codes).sum())
            if rows:
                message = f" ({rule.message})" if rule.message else ""
                named.append(f"rule {rule.name!r} on {rows} rows{message}")
        return "; ".join(named)


def _joint_cells(codes: np.ndarray, columns: Sequence[int], dims: Sequence[int],
                 lead: np.ndarray | None = None) -> np.ndarray:
    """Each row's joint cell over ``columns``, whose category counts are
    ``dims``, numbered as ``np.ravel_multi_index`` numbers them, and 0 when
    there are no columns; the one cell encoder. With ``lead``, one index
    per row, the cell is numbered after it: ``lead * prod(dims) + cell``.
    The codes must lie inside their attributes."""
    cells = np.zeros(len(codes), dtype=np.intp) if lead is None else lead.astype(np.intp)
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
    structure the tables record. Resample mutation draws from
    :attr:`redraw_tables`, in column order: each column's chance of being
    hit (proportional to its category count) and its cumulative marginal
    weights, from the first table listing its attribute.
    """

    def __init__(
        self,
        attributes: tuple[Attribute, ...],
        redraw_tables: tuple[np.ndarray, tuple[np.ndarray, ...]],
        joint_groups: tuple[_JointGroup, ...],
    ):
        self.attributes = attributes
        self.redraw_tables = redraw_tables
        self._joint_groups = joint_groups

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

        cdfs = []
        for a in resolved:
            counts = marginalize(source_table(a.name), a.name)
            cdfs.append(np.cumsum(counts / counts.sum()))
        sizes = np.array([a.size for a in resolved], dtype=np.float64)

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
        return cls(resolved, (sizes / sizes.sum(), tuple(cdfs)), tuple(groups))

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


class CountLayout:
    """How a roster's rows are counted: one block of cells per distinct
    projection, a tuple of roster columns, in first-seen order, the blocks
    end to end (:attr:`blocks`), :attr:`size` cells in all. A block's cells
    are its projection's joint cells, numbered as :func:`_joint_cells`
    numbers them, so a one-column block's are its attribute's categories.
    """

    def __init__(self, attributes: Sequence[Attribute], projections: Sequence[Sequence[int]]):
        self.attributes = tuple(attributes)
        self.projections = tuple(dict.fromkeys(map(tuple, projections)))
        dims = [tuple(self.attributes[c].size for c in p) for p in self.projections]
        starts = np.cumsum([0, *map(math.prod, dims)]).tolist()
        self.size = starts[-1]
        self.blocks = dict(zip(self.projections, map(slice, starts, starts[1:])))
        self._cells = [(p, d, self.blocks[p]) for p, d in zip(self.projections, dims)]
        self._joints = [cell for cell in self._cells if len(cell[0]) != 1]
        singles = [(p[0], self.blocks[p].start) for p in self.projections if len(p) == 1]
        self._singles = np.array(singles, dtype=np.intp).reshape(-1, 2).T

    def tally(
        self, codes: np.ndarray, owners: np.ndarray | None = None, count: int = 1
    ) -> np.ndarray:
        """The int64 counts of the rows of ``codes``: a vector of :attr:`size`
        cells, from one ``bincount`` that shifts every one-column block in one
        op. With ``owners``, each row's index below ``count``, a (count, size)
        matrix whose row r counts r's rows, made a projection at a time (its
        cells bound to no name) so that a long roster holds one cell per row."""
        if owners is None:
            columns, starts = self._singles
            cells = (codes[:, columns] + starts).ravel(order="K")
            if self._joints:
                cells = np.concatenate([cells, *(
                    _joint_cells(codes, p, d) + block.start for p, d, block in self._joints
                )])
            return np.bincount(cells, minlength=self.size)
        counts = np.empty((count, self.size), dtype=np.int64)
        for projection, dims, block in self._cells:
            counts[:, block] = np.bincount(
                _joint_cells(codes, projection, dims, owners), minlength=count * math.prod(dims)
            ).reshape(count, -1)
        return counts


# Rows per block of a roster's prefix counts (see
# :meth:`CandidatePopulation.slice_counts`). Larger blocks shrink the table
# and lengthen the partial blocks that each slice still tallies.
_PREFIX_ROWS = 512


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
    never built. A roster holds no counts of its own codes: the search
    carries them beside its rosters (see :class:`CountLayout`).
    """

    def __init__(self, attributes: tuple[Attribute, ...], codes: np.ndarray):
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != len(attributes):
            raise DataError(
                f"roster matrix has shape {codes.shape}, expected "
                f"(n, {len(attributes)})"
            )
        # Unsigned codes are checked by each column's largest, one pass per
        # column: several times faster than comparing every code.
        sizes = [a.size for a in attributes]
        if codes.dtype.kind != "u" or any(c.max(initial=0) >= n for c, n in zip(codes.T, sizes)):
            bad = (codes < 0) | (codes % 1 != 0) | (codes >= sizes)
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise DataError(
                    f"roster column {attributes[col].name!r} holds code "
                    f"{codes[row, col].item()}, not a category index below {sizes[col]}"
                )
        if not np.issubdtype(codes.dtype, np.integer):
            codes = codes.astype(code_dtype(attributes))
        codes.setflags(write=False)
        self.attributes = attributes
        self._codes: np.ndarray | None = codes
        self._recipe: _Recipe | None = None
        self._prefix: tuple[CountLayout, np.ndarray] | None = None

    def patched(
        self, patches: Sequence[tuple[slice | np.ndarray, np.ndarray]]
    ) -> CandidatePopulation:
        """This roster, unbuilt, with each (rows, values) pair of ``patches``
        written in order; a patch's rows are a slice or distinct row
        indices. The values are held, not copied, until the result is
        built."""
        roster = CandidatePopulation.__new__(CandidatePopulation)
        roster.attributes = self.attributes
        roster._codes = None
        roster._recipe = _Recipe(self, tuple(patches))
        roster._prefix = None
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

    def slice_counts(self, start: int, stop: int, layout: CountLayout) -> np.ndarray:
        """The counts of rows ``start:stop`` in ``layout``.

        A slice that holds no whole block of ``_PREFIX_ROWS`` rows is
        tallied. Otherwise its counts are the difference of two rows of the
        roster's prefix counts, its counts before every ``_PREFIX_ROWS``-th
        row, plus one tally of the fewer than ``_PREFIX_ROWS`` rows at
        either end. The prefix counts are a read-only int64 table, made
        with one :meth:`CountLayout.tally` the first time a slice in
        ``layout`` holds a whole block, and kept with the roster.
        """
        first, last = -(-start // _PREFIX_ROWS), stop // _PREFIX_ROWS
        codes = self.codes
        if first >= last:
            return layout.tally(codes[start:stop])
        if self._prefix is None or self._prefix[0] is not layout:
            blocks = len(codes) // _PREFIX_ROWS
            owners = np.arange(blocks, dtype=np.int32).repeat(_PREFIX_ROWS)
            prefix = np.zeros((blocks + 1, layout.size), dtype=np.int64)
            prefix[1:] = layout.tally(codes[: len(owners)], owners, blocks)
            prefix.cumsum(axis=0, out=prefix)
            prefix.setflags(write=False)
            self._prefix = layout, prefix
        prefix = self._prefix[1]
        ends = (codes[start:first * _PREFIX_ROWS], codes[last * _PREFIX_ROWS:stop])
        return prefix[last] - prefix[first] + layout.tally(np.concatenate(ends))

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
    slots still violating a rule after that raise an :class:`EvolutionError`
    naming each rule they break, which points at contradictory rules and
    weights.
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
                f"{int(bad.sum())} roster slots still violating rules: "
                f"{rules.describe_violations(codes[bad])}; the rule set and sampling "
                "weights may be contradictory"
            )
        fresh = plan.sample_codes(size, rng)
        codes[bad] = fresh[bad]
        bad = rules.violation_mask(codes)
        attempts += 1
    return CandidatePopulation(tuple(plan.attributes), codes)
