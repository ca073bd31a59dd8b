"""Census attribute schemas, contingency tables and derived frequency data.

Tables are loaded from CSV extracts with one row per cell and a trailing
``count`` column, against a schema file that fixes attribute order and
category order. Everything here is immutable after loading. Every input
text file of the package is read by :func:`read_yaml` or :func:`read_csv`.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np
import yaml

from .errors import DataError

# PyYAML's safe loader, through libyaml where PyYAML was built with it: the
# same objects as ``yaml.SafeLoader``, read several times faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

PERSONS = "persons"
HOUSEHOLDS = "households"


@contextmanager
def _open_text(kind: str, path: str | Path) -> Iterator[TextIO]:
    """Open a ``kind`` input file as UTF-8 text, dropping the byte order mark
    that spreadsheet exports write; a read or decode fault is a DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield handle
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{kind} file {path} is not UTF-8 text: "
            f"cannot decode byte 0x{exc.object[exc.start]:02x}"
        ) from None


def read_yaml(kind: str, path: str | Path) -> object:
    """The document of a ``kind`` YAML file at ``path``, None when it is
    empty. A file that cannot be read, is not UTF-8 or is not valid YAML is
    a :class:`DataError` naming ``kind`` and ``path``."""
    with _open_text(kind, path) as handle:
        try:
            return yaml.load(handle, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise DataError(f"{kind} file {path} is not valid YAML: {exc}") from None


def read_csv(kind: str, path: str | Path) -> Iterator[list[str]]:
    """Yield the rows of a ``kind`` CSV file at ``path`` as they are read, a
    blank line as an empty row. A file that cannot be read, is not UTF-8 or
    is not valid CSV is a :class:`DataError` naming ``kind`` and ``path``,
    raised by the ``next`` that meets the fault."""
    with _open_text(kind, path) as handle:
        reader = csv.reader(handle)
        try:
            yield from reader
        except csv.Error as exc:
            raise DataError(
                f"{kind} file {path} line {reader.line_num} is not valid CSV: {exc}"
            ) from None


@dataclass(frozen=True)
class Attribute:
    """A categorical attribute with a fixed category order.

    ``groups`` optionally maps category codes onto coarser labels, for
    example single-year-of-age style bands onto child/adult/elder.
    """

    name: str
    categories: tuple[str, ...]
    groups: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise DataError(f"attribute name must be a string, got {self.name!r}")
        if not self.name:
            raise DataError("attribute name must be non-empty")
        if not self.categories:
            raise DataError(f"attribute {self.name!r} declares no categories")
        if len(set(self.categories)) != len(self.categories):
            raise DataError(f"attribute {self.name!r} has duplicate categories")
        if self.groups:
            unknown = set(self.groups) - set(self.categories)
            if unknown:
                raise DataError(
                    f"attribute {self.name!r} groups undeclared categories: "
                    f"{sorted(unknown)}"
                )
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.categories)})

    @property
    def size(self) -> int:
        return len(self.categories)

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]  # type: ignore[attr-defined]
        except KeyError:
            raise DataError(
                f"unknown category {code!r} for attribute {self.name!r}"
            ) from None

    def group_of(self, code: str) -> str | None:
        """Coarse group label for a category, or None when ungrouped."""
        self.index_of(code)
        return (self.groups or {}).get(code)


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered collection of attributes; the authority on category order."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError(f"schema names attribute {name!r} twice")
        object.__setattr__(self, "_by_name", {a.name: a for a in self.attributes})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name  # type: ignore[attr-defined]

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise DataError(f"schema has no attribute named {name!r}") from None


@dataclass(frozen=True)
class ContingencyTable:
    """A dense cross-tabulation over one to three schema attributes."""

    name: str
    axes: tuple[Attribute, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 3:
            raise DataError(f"table {self.name!r} must have between one and three axes")
        for i, axis in enumerate(self.axis_names):
            if axis in self.axis_names[:i]:
                raise DataError(f"table {self.name!r} names axis {axis!r} twice")
        counts = np.asarray(self.counts, dtype=np.float64)
        expected = tuple(a.size for a in self.axes)
        if counts.shape != expected:
            raise DataError(
                f"table {self.name!r} counts have shape {counts.shape}, "
                f"expected {expected}"
            )
        if not np.isfinite(counts).all():
            raise DataError(f"table {self.name!r} has non-finite cell counts")
        if np.any(counts < 0):
            raise DataError(f"table {self.name!r} has negative cell counts")
        if not np.any(counts > 0):
            raise DataError(f"table {self.name!r} has no positive cell")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class RegionDataset:
    """All census inputs for one region: schema, tables and target counts."""

    region: str
    schema: AttributeSchema
    person_tables: tuple[ContingencyTable, ...]
    household_tables: tuple[ContingencyTable, ...] = ()
    target_persons: int = 0
    target_households: int = 0

    def __post_init__(self) -> None:
        if not self.person_tables:
            raise DataError(f"dataset {self.region!r} has no person tables")
        if self.target_persons <= 0:
            raise DataError(f"dataset {self.region!r} needs a positive person target")
        if self.household_tables and self.target_households <= 0:
            raise DataError(
                f"dataset {self.region!r} has household tables but no household target"
            )
        seen: set[str] = set()
        for table in self.person_tables + self.household_tables:
            if table.name in seen:
                raise DataError(f"duplicate table name {table.name!r}")
            seen.add(table.name)

    def table(self, name: str) -> ContingencyTable:
        for table in self.person_tables + self.household_tables:
            if table.name == name:
                return table
        raise DataError(f"dataset {self.region!r} has no table named {name!r}")

    def stage_tables(self, stage: str) -> tuple[ContingencyTable, ...]:
        if stage == PERSONS:
            return self.person_tables
        if stage == HOUSEHOLDS:
            return self.household_tables
        raise DataError(f"unknown stage {stage!r}")

    def stage_target(self, stage: str) -> int:
        return self.target_persons if stage == PERSONS else self.target_households

    def stage_attributes(self, stage: str) -> tuple[str, ...]:
        """A stage's roster layout: the union of its tables' axes, in schema
        order. Evolution builds rosters with these columns, and a saved
        archive bundle must list them."""
        present: set[str] = set()
        for table in self.stage_tables(stage):
            present.update(table.axis_names)
        return tuple(n for n in self.schema.names if n in present)


def load_schema(path: str | Path) -> AttributeSchema:
    """Load an attribute schema from YAML.

    Expected layout::

        attributes:
          - name: sex
            categories: [m, f]
          - name: age
            categories: [a0_4, a5_9, ...]
            groups: {a0_4: ch, a5_9: ch, ...}
    """
    raw = read_yaml("schema", path)
    if not isinstance(raw, dict) or "attributes" not in raw:
        raise DataError(f"schema file {path} must define an 'attributes' list")
    entries = raw["attributes"]
    if not isinstance(entries, list) or not entries:
        raise DataError(f"schema file {path} defines no attributes")
    attributes = []
    try:
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry or "categories" not in entry:
                raise DataError("each attribute needs 'name' and 'categories'")
            unknown = set(entry) - {"name", "categories", "groups"}
            if unknown:
                raise DataError(
                    f"attribute {entry['name']!r} has unknown keys {sorted(map(str, unknown))}"
                )
            categories = entry["categories"]
            if not isinstance(categories, list):
                raise DataError(f"categories of {entry['name']!r} must be a list")
            groups = entry.get("groups")
            if groups is not None and not isinstance(groups, dict):
                raise DataError(f"groups of {entry['name']!r} must be a mapping")
            attributes.append(
                Attribute(
                    name=entry["name"],
                    categories=tuple(str(c) for c in categories),
                    groups={str(k): str(v) for k, v in groups.items()} if groups else None,
                )
            )
        return AttributeSchema(tuple(attributes))
    except DataError as exc:
        raise DataError(f"schema file {path}: {exc}") from None


def load_contingency_table(path: str | Path, schema: AttributeSchema) -> ContingencyTable:
    """Load one contingency table, named by its file stem, from a CSV cell
    extract.

    The header names distinct axis attributes followed by a literal
    ``count`` column. Cells absent from the file default to zero; repeated
    cells accumulate. Row order does not matter. Blank lines are skipped,
    but a fault's line number counts them, as the file numbers its lines.
    """
    rows = [(n, row) for n, row in enumerate(read_csv("table", path), start=1) if row]
    if not rows:
        raise DataError(f"table file {path} is empty")
    lineno, header = rows[0]
    try:
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "count":
            raise DataError("header must name one to three axes then 'count'")
        axis_names = header[:-1]
        # Checked before np.zeros, whose size is the product of the axes' sizes.
        if len(axis_names) > 3:
            raise DataError("more than three axes")
        # Checked before the rows, whose field count would fail first.
        for i, axis in enumerate(axis_names):
            if axis in axis_names[:i]:
                raise DataError(f"header names axis {axis!r} twice")
        axes = tuple(schema[a] for a in axis_names)
        counts = np.zeros(tuple(a.size for a in axes), dtype=np.float64)
        for lineno, row in rows[1:]:
            if len(row) != len(header):
                raise DataError(f"expected {len(header)} fields, got {len(row)}")
            idx = tuple(a.index_of(code.strip()) for a, code in zip(axes, row))
            text = row[-1].strip()
            try:
                value = float(text)
            except ValueError:
                raise DataError(f"count {text!r} is not a number") from None
            if not math.isfinite(value):
                raise DataError(f"non-finite count {text}")
            if value < 0:
                raise DataError(f"negative count {text}")
            counts[idx] += value
    except DataError as exc:
        raise DataError(f"table file {path}, line {lineno}: {exc}") from None
    try:
        return ContingencyTable(name=Path(path).stem, axes=axes, counts=counts)
    except DataError as exc:
        raise DataError(f"table file {path}: {exc}") from None


def marginalize(table: ContingencyTable, attribute: str) -> np.ndarray:
    """Sum the table down to a single axis: per-category counts (float64)
    in category order."""
    if attribute not in table.axis_names:
        raise DataError(
            f"attribute {attribute!r} is not an axis of table {table.name!r}"
        )
    keep = table.axis_names.index(attribute)
    drop = tuple(i for i in range(len(table.axes)) if i != keep)
    return table.counts.sum(axis=drop) if drop else table.counts


@dataclass(frozen=True)
class ValidationIssue:
    """One internal-consistency observation about a dataset."""

    kind: str  # "marginal-totals" or "target-count"
    attribute: str | None
    tables: tuple[str, ...]
    discrepancy: float
    flagged: bool
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of dataset validation; reporting only, never mutates data."""

    issues: tuple[ValidationIssue, ...]

    @property
    def flagged(self) -> bool:
        return any(issue.flagged for issue in self.issues)

    def lines(self) -> list[str]:
        out = []
        for issue in self.issues:
            marker = "FLAG" if issue.flagged else "ok  "
            out.append(f"{marker} {issue.message}")
        return out


def validate_dataset(dataset: RegionDataset, tolerance: float = 0.01) -> ValidationReport:
    """Check tables against each other and against the target counts.

    For every attribute shared by two or more tables of a stage, each table
    pair's marginals over it are compared: their discrepancy is the summed
    absolute difference of the two marginals over the larger table total.
    Each table's total is also compared against the stage target, relative
    to the larger of the two. A discrepancy above the tolerance is flagged.
    """
    if tolerance < 0:
        raise DataError("validation tolerance must be non-negative")
    issues: list[ValidationIssue] = []
    stages = [(PERSONS, dataset.person_tables, dataset.target_persons)]
    if dataset.household_tables:
        stages.append((HOUSEHOLDS, dataset.household_tables, dataset.target_households))

    for stage, tables, target in stages:
        by_attribute: dict[str, list[ContingencyTable]] = {}
        for table in tables:
            for axis in table.axis_names:
                by_attribute.setdefault(axis, []).append(table)
        for attribute, sharing in by_attribute.items():
            for i in range(len(sharing)):
                for j in range(i + 1, len(sharing)):
                    first, second = sharing[i], sharing[j]
                    gap = marginalize(first, attribute) - marginalize(second, attribute)
                    disc = float(np.abs(gap).sum()) / max(first.total, second.total)
                    issues.append(
                        ValidationIssue(
                            kind="marginal-totals",
                            attribute=attribute,
                            tables=(first.name, second.name),
                            discrepancy=disc,
                            flagged=disc > tolerance,
                            message=(
                                f"{stage}/{attribute}: tables {first.name!r} and "
                                f"{second.name!r} marginals {disc:.2%} apart"
                            ),
                        )
                    )
        for table in tables:
            disc = abs(table.total - target) / max(table.total, target)
            issues.append(
                ValidationIssue(
                    kind="target-count",
                    attribute=None,
                    tables=(table.name,),
                    discrepancy=disc,
                    flagged=disc > tolerance,
                    message=(
                        f"{stage}: table {table.name!r} total {table.total:g} vs "
                        f"target {target} ({disc:.2%} apart)"
                    ),
                )
            )
    return ValidationReport(tuple(issues))
