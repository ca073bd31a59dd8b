"""Export, selection, and audit helpers for finished runs.

Everything here writes deterministic bytes: CSV rows use ``\\n`` line
endings and a fixed float format, JSON manifests sort their keys. Two runs
that produce equal populations therefore produce equal files, which is what
lets a re-run be compared with a plain byte diff.
"""

from __future__ import annotations

import csv
import hashlib
import json
import zipfile
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .census_data import AttributeSchema, ContingencyTable, marginalize, read_csv
from .errors import DataError
from .fitness import normalize_objectives, rmse, weighted_sums
from .household_synthesis import AllocationResult
from .nsga2 import GenerationHistory, ParetoArchive
from .population_model import (
    CandidatePopulation,
    _joint_cells,
    cell_count,
    code_dtype,
    count_offsets,
)

# Stable float rendering for CSV output. 10 significant digits is enough to
# round-trip the objective magnitudes we emit without trailing noise.
_FLOAT_FORMAT = "{:.10g}"

_CHECKSUM_CHUNK = 1 << 20

# Slot-member pairs that save_archive encodes at a time.
_BLOCK_ENTRIES = 1 << 16


def _fmt(value: float) -> str:
    return _FLOAT_FORMAT.format(float(value))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV file at ``path``: ``header``, then each of ``rows`` as it
    is drawn. The file is UTF-8 with ``\\n`` line endings, and each value is
    written as ``str`` renders it, so floats arrive already formatted by
    :func:`_fmt`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def file_checksum(path: str | Path) -> str:
    """Return the SHA-256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHECKSUM_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Selecting one member from an archive


def select_best(objectives: np.ndarray, weights: Sequence[float]) -> int:
    """Pick one archive member as the exported population.

    ``objectives`` is the archive's objective matrix, one row per member,
    and ``weights`` holds one weight per objective column (the stage's
    ``ObjectiveSpec.weight`` values). The member with the lowest weighted
    sum of raw objective values wins, the earliest on a tie. Of all the
    rosters an archive was offered, it always keeps the one this picks.
    """
    if not len(objectives):
        raise DataError("archive is empty, nothing to select")
    matrix = np.asarray(objectives, dtype=np.float64)
    vector = np.asarray(weights, dtype=np.float64)
    if vector.shape != matrix.shape[1:]:
        raise DataError(
            f"got {vector.size} selection weights for {matrix.shape[1]} archive objectives"
        )
    if np.any(vector < 0):
        raise DataError("selection weights must be non-negative")
    if not np.any(vector > 0):
        raise DataError("at least one selection weight must be positive")
    return int(np.argmin(weighted_sums(matrix, vector)))


# ---------------------------------------------------------------------------
# Population CSVs


def _labels(candidate: CandidatePopulation) -> list[np.ndarray]:
    """Each attribute's category labels for every roster row, column by column."""
    return [
        np.array(a.categories, dtype=object)[candidate.codes[:, column]]
        for column, a in enumerate(candidate.attributes)
    ]


def export_persons(path: str | Path, candidate: CandidatePopulation) -> None:
    """Write one row per person: ``person_id`` plus category labels."""
    rows = zip(range(len(candidate)), *_labels(candidate))
    _write_csv(path, ["person_id", *candidate.attribute_names], rows)


def load_persons(path: str | Path, schema: AttributeSchema) -> CandidatePopulation:
    """Read a persons CSV back into a candidate, attribute order from the header.

    Households list their members by roster row, so each data row's
    ``person_id`` must be its 0-based position, as :func:`export_persons`
    writes it; any other id is a :class:`DataError` naming the line.
    """
    reader = read_csv("persons", path)
    header = next(reader, None)
    if header is None:
        raise DataError(f"persons file {path} is empty")
    if not header or header[0] != "person_id":
        raise DataError(f"persons file {path} must start with a person_id column")
    attributes = tuple(schema[name] for name in header[1:])
    rows = []
    for line_number, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path} line {line_number}: expected {len(header)} fields")
        if row[0] != str(len(rows)):
            raise DataError(
                f"{path} line {line_number}: person_id {row[0]!r} is not "
                f"{len(rows)}, the row's 0-based position"
            )
        try:
            codes = [a.index_of(label) for a, label in zip(attributes, row[1:])]
        except DataError as exc:
            raise DataError(f"{path} line {line_number}: {exc}") from None
        rows.append(codes)
    if not rows:
        raise DataError(f"persons file {path} has no rows")
    return CandidatePopulation(attributes, np.array(rows, dtype=code_dtype(attributes)))


def export_households(
    path: str | Path, households: CandidatePopulation, allocation: AllocationResult
) -> None:
    """Write one row per household: ``household_id``, category labels, the
    members' ``;``-joined person ids and a 0/1 ``complete`` flag."""
    if not len(households):
        raise DataError("no households to export")
    members = [";".join(map(str, ids.tolist())) for ids in allocation.members]
    rows = zip(range(len(households)), *_labels(households), members,
               allocation.complete.astype(np.uint8).tolist(), strict=True)
    _write_csv(path, ["household_id", *households.attribute_names, "member_ids", "complete"], rows)


# ---------------------------------------------------------------------------
# Convergence and archive CSVs


def export_convergence(path: str | Path, history: GenerationHistory) -> None:
    """Write a :class:`~synthpop.nsga2.GenerationHistory` in long form.

    One row per (generation, objective), objectives named and ordered as
    in the history, with the best value any evaluated roster had reached
    and the population mean, both normalized by the history (over
    generation 0's mean) so the file is plot-ready without re-scaling.
    """
    _write_csv(path, ["generation", "objective", "best", "mean"], (
        (generation, name, _fmt(b), _fmt(m))
        for generation, (best, mean) in enumerate(zip(history.best, history.mean))
        for name, b, m in zip(history.names, history.normalize(best), history.normalize(mean))
    ))


def export_pareto_pairs(
    path: str | Path,
    objectives: np.ndarray,
    names: Sequence[str],
    selected: int,
) -> None:
    """Write the archive's objective pairs, flagging the selected member.

    ``objectives`` is the archive's objective matrix. One row per archive
    member: member index, each objective min-max normalized across the
    archive, and a ``selected`` column that is 1 on exactly one row.
    """
    if not 0 <= selected < len(objectives):
        raise DataError("selected index is outside the archive")
    _write_csv(path, ["member_id", *names, "selected"], (
        (index, *map(_fmt, row), int(index == selected))
        for index, row in enumerate(normalize_objectives(objectives))
    ))


def _palette_block(cells: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode ``cells[slot, member]``, joint cell indices below ``count``,
    as per-slot palettes.

    Returns the distinct cells of every slot, slot-major and within a slot
    in the order of the first member that holds them; the number of cells
    at each slot; and each member's index into its slot's cells.
    """
    slots, members = cells.shape
    # Packed (slot, cell) keys: equal keys are a slot's equal cells, and a
    # key's first index is its first holder's flat position.
    offsets = np.arange(slots, dtype=np.min_scalar_type(slots * count)) * count
    keys = (cells + offsets[:, None]).ravel()
    _, holders, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # Palette rows are the first holders in slot-major order.
    by_holder = np.argsort(holders)
    slot = holders // members
    counts = np.bincount(slot, minlength=slots)
    number = np.empty(len(holders), dtype=np.intp)
    number[by_holder] = np.arange(len(holders))
    number -= (np.cumsum(counts) - counts)[slot]
    index = number.astype(np.min_scalar_type(members - 1))[inverse]
    return cells.ravel()[holders[by_holder]], counts, index.reshape(slots, members)


def _planes(count: int) -> int:
    """Bytes of a joint cell index below ``count``: at least one."""
    return max(1, -(-(count - 1).bit_length() // 8))


def save_archive(path: str | Path, archive: ParetoArchive, names: Sequence[str]) -> None:
    """Persist an archive's rosters and objectives as an ``.npz`` bundle.

    Each roster row is stored as its joint cell index over the layout's
    attributes, in mixed radix: the index of its code tuple in an array of
    the attributes' sizes (``population_model._joint_cells``). Crossover
    is positional, so members often share the row at a slot. The bundle
    stores each slot's distinct cells once, slot-major and within a slot in
    the order of the first member that holds them, split into byte planes:
    ``palette_cells[byte, row]`` (uint8) holds bits ``8 * byte`` to
    ``8 * byte + 7``, with as many planes as the largest cell needs. It
    also stores their number per slot, ``palette_counts[slot]``, and each
    member's index into its slot's cells, ``member_rows[slot, member]``,
    both in the narrowest unsigned dtype. Slots are encoded in blocks of
    about ``_BLOCK_ENTRIES`` slot-member pairs, so the temporary arrays
    stay small whatever the archive's size.
    """
    if not len(archive):
        raise DataError("archive is empty, nothing to save")
    candidates = archive.candidates
    attributes = candidates[0].attributes
    count = cell_count(attributes)
    slots = len(candidates[0])
    members = len(candidates)
    # A block's (slot, cell) keys must fit 64 bits.
    step = max(1, min(_BLOCK_ENTRIES // members, (2**64 - 1) // count))
    columns, sizes = range(len(attributes)), [a.size for a in attributes]
    block = np.empty((min(step, slots), members), dtype=np.min_scalar_type(count))
    member_rows = np.empty((slots, members), dtype=np.min_scalar_type(members - 1))
    palettes, counts = [], []
    for start in range(0, slots, step):
        part = block[: min(step, slots - start)]
        for member, candidate in enumerate(candidates):
            rows = candidate.codes[start : start + len(part)]
            part[:, member] = _joint_cells(rows, columns, sizes)
        palette, slot_counts, index = _palette_block(part, count)
        palettes.append(palette)
        counts.append(slot_counts)
        member_rows[start : start + len(part)] = index
    cells = np.concatenate(palettes)
    counts = np.concatenate(counts)
    widest = int(counts.max())
    np.savez_compressed(
        path,
        palette_cells=np.stack(
            [(cells >> 8 * plane).astype(np.uint8) for plane in range(_planes(count))]
        ),
        palette_counts=counts.astype(np.min_scalar_type(widest)),
        member_rows=member_rows.astype(np.min_scalar_type(widest - 1), copy=False),
        objectives=archive.objective_matrix(),
        objective_names=np.array(list(names)),
        attribute_names=np.array([a.name for a in attributes]),
    )


class _PaletteMembers(Sequence):
    """An archive's members, each decoded from the palettes when indexed:
    member ``m`` is the rows of ``cells[offsets + member_rows[:, m]]``
    over the bundle's ``attributes``."""

    def __init__(self, attributes, cells, counts, member_rows) -> None:
        self.attributes = attributes
        self._cells = cells
        counts = counts.astype(np.intp)
        self._offsets = np.cumsum(counts) - counts
        self._member_rows = member_rows

    def __len__(self) -> int:
        return self._member_rows.shape[1]

    def __getitem__(self, index: int) -> CandidatePopulation:
        # In intp: uint64 mixed with a signed offset would promote to float.
        rows = self._offsets + self._member_rows[:, index].astype(np.intp)
        columns = np.unravel_index(self._cells[rows], [a.size for a in self.attributes])
        codes = np.stack(columns, axis=1).astype(code_dtype(self.attributes))
        return CandidatePopulation(self.attributes, codes)


# Axes of each palette array, in order.
_PALETTE_AXES = {
    "palette_cells": ("byte", "row"),
    "palette_counts": ("slot",),
    "member_rows": ("slot", "member"),
}
_BUNDLE_KEYS = (*_PALETTE_AXES, "objectives", "objective_names", "attribute_names")


def load_archive(
    path: str | Path, schema: AttributeSchema
) -> tuple[Sequence[CandidatePopulation], np.ndarray, list[str]]:
    """Load an ``.npz`` archive bundle written by :func:`save_archive`.

    Returns the members, their objective matrix, and the objective names,
    in saved order; the members' ``attributes`` are the bundle's layout.
    Every array is checked here, so a file that is not a zip of the six
    plain arrays, or a bundle whose arrays disagree in shape or dtype,
    whose byte planes are not the layout's, that points outside its
    palettes or holds a cell at or above its attributes' joint cell count,
    or whose objectives are not all finite floats, is a :class:`DataError`;
    a member's roster is decoded from its cells only when the member is
    indexed.
    """
    try:
        bundle = np.load(path, allow_pickle=False)
        if not isinstance(bundle, np.lib.npyio.NpzFile):
            raise DataError(f"{path} is not a readable archive bundle: it holds one array")
        with bundle:
            missing = [key for key in _BUNDLE_KEYS if key not in bundle.files]
            if missing:
                raise DataError(
                    f"{path} has no {missing[0]} array (written by an older version?); "
                    "re-run `synthpop run`"
                )
            arrays = {key: bundle[key] for key in _BUNDLE_KEYS}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # Not a zip of plain arrays: truncated, garbage, or holding objects.
        raise DataError(f"{path} is not a readable archive bundle: {exc}") from None
    objectives = arrays.pop("objectives")
    objective_names = [str(n) for n in arrays.pop("objective_names")]
    attributes = tuple(schema[str(n)] for n in arrays.pop("attribute_names"))
    for key, axes in _PALETTE_AXES.items():
        array = arrays[key]
        if array.ndim != len(axes):
            noun = "axis" if len(axes) == 1 else "axes"
            raise DataError(
                f"{path}: {key} must have {len(axes)} {noun} ({', '.join(axes)}), "
                f"got {array.ndim}"
            )
        if array.dtype.kind != "u" or array.size == 0:
            raise DataError(f"{path}: {key} must be a non-empty unsigned integer array")
    planes, counts, member_rows = arrays.values()
    slots, members = member_rows.shape
    if objectives.ndim != 2 or objectives.shape[1] != len(objective_names):
        raise DataError(
            f"{path}: objectives has shape {objectives.shape}, "
            f"expected (members, {len(objective_names)})"
        )
    if objectives.dtype.kind != "f" or not np.isfinite(objectives).all():
        raise DataError(f"{path}: objectives must be finite floats")
    if members != objectives.shape[0]:
        raise DataError(
            f"{path}: member_rows holds {members} members, objectives {objectives.shape[0]}"
        )
    if planes.dtype != np.uint8:
        raise DataError(f"{path}: palette_cells must hold bytes (uint8), got {planes.dtype}")
    count = cell_count(attributes)
    if len(planes) != _planes(count):
        raise DataError(
            f"{path}: palette_cells has {len(planes)} byte planes, but the "
            f"{count:,} joint cells of attribute_names take {_planes(count)}"
        )
    if len(counts) != slots:
        raise DataError(f"{path}: palette_counts has {len(counts)} slots, member_rows {slots}")
    if counts.min() < 1 or counts.sum() != planes.shape[1]:
        raise DataError(
            f"{path}: palette_counts must be at least 1 at every slot and sum to "
            f"the {planes.shape[1]} rows of palette_cells, got {counts.sum()}"
        )
    outside = (member_rows >= counts[:, None]).any(axis=1)
    if outside.any():
        slot = int(outside.argmax())
        raise DataError(
            f"{path}: member_rows at slot {slot} points past its {counts[slot]} palette rows"
        )
    cell_type = np.min_scalar_type(count - 1)
    cells = planes[0].astype(cell_type)
    for plane in range(1, len(planes)):
        cells |= planes[plane].astype(cell_type) << 8 * plane
    if (highest := cells.max()) >= count:
        raise DataError(
            f"{path}: palette_cells holds cell {highest}, at or above the "
            f"{count:,} joint cells of attribute_names"
        )
    members = _PaletteMembers(attributes, cells, counts, member_rows)
    return members, objectives.astype(np.float64), objective_names


# ---------------------------------------------------------------------------
# RMSE audit


@dataclass(frozen=True)
class RmseRow:
    """Reconstruction error for one attribute of one table.

    ``level`` is ``category`` for per-category counts or ``group`` for
    counts summed over the attribute's declared groups.
    """

    table: str
    attribute: str
    level: str
    value: float


def rmse_rows(
    candidate: CandidatePopulation, tables: Sequence[ContingencyTable]
) -> list[RmseRow]:
    """Compare a roster against each table axis it covers.

    For every table and every axis of that table, the roster's observed
    category counts are scored against the table's marginal (scaled to the
    roster size) with root-mean-square error. Attributes that declare
    groups get a second row at group level.
    """
    rows: list[RmseRow] = []
    names = set(candidate.attribute_names)
    offsets = count_offsets(candidate.attributes)
    for table in tables:
        for attribute in table.axes:
            if attribute.name not in names:
                continue
            marginal = marginalize(table, attribute.name)
            target = marginal * (len(candidate) / float(marginal.sum()))
            col = candidate.column_index(attribute.name)
            observed = candidate.category_counts[offsets[col]:offsets[col + 1]].astype(
                np.float64
            )
            rows.append(RmseRow(table.name, attribute.name, "category", rmse(target, observed)))
            if attribute.groups:
                labels = sorted(set(attribute.groups.values()))
                members = {
                    label: [
                        attribute.index_of(c)
                        for c in attribute.categories
                        if attribute.groups.get(c) == label
                    ]
                    for label in labels
                }
                grouped_target = np.array([target[members[g]].sum() for g in labels])
                grouped_observed = np.array([observed[members[g]].sum() for g in labels])
                grouped = rmse(grouped_target, grouped_observed)
                rows.append(RmseRow(table.name, attribute.name, "group", grouped))
    return rows


def export_rmse(path: str | Path, rows: Sequence[RmseRow]) -> None:
    values = ((row.table, row.attribute, row.level, _fmt(row.value)) for row in rows)
    _write_csv(path, ["table", "attribute", "level", "rmse"], values)


# ---------------------------------------------------------------------------
# Manifest and timings


def write_manifest(path: str | Path, payload: Mapping) -> None:
    """Write a manifest as canonical JSON: sorted keys, two-space indent."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def export_timings(path: str | Path, rows: Sequence[tuple[str, float]]) -> None:
    """Write wall-clock timings, one labelled stage per row.

    Timings live in their own file so that the manifest and data exports
    stay byte-identical between runs that only differ in speed.
    """
    _write_csv(path, ["stage", "wall_seconds"], ((label, _fmt(s)) for label, s in rows))
