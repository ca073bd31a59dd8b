"""Export, selection, and audit helpers for finished runs.

Everything here writes deterministic bytes: CSV rows use ``\\n`` line
endings and a fixed float format, JSON manifests sort their keys. Two runs
that produce equal populations therefore produce equal files, which is what
lets a re-run be compared with a plain byte diff.

The population files are written a chunk of rows at a time from labels
that ``csv`` quoted once per category, so writing one holds a chunk of
rendered rows, never the whole file, and gives the bytes ``csv.writer``
would.

A stage's archive bundle keeps the roster of the one member it exports and
every member's objectives: enough to rewrite the stage's population,
Pareto and RMSE files without evolving again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import zipfile
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .census_data import AttributeSchema, ContingencyTable, marginalize
from .errors import DataError
from .fitness import normalize_objectives, rmse, weighted_sums
from .household_synthesis import AllocationResult
from .nsga2 import GenerationHistory, ParetoArchive
from .population_model import CandidatePopulation, code_dtype

# Stable float rendering for CSV output. 10 significant digits is enough to
# round-trip the objective magnitudes we emit without trailing noise.
_FLOAT_FORMAT = "{:.10g}"

_CHECKSUM_CHUNK = 1 << 20

# Rows of a population file rendered and written at once.
_CHUNK_ROWS = 1 << 14


def _fmt(value: float) -> str:
    return _FLOAT_FORMAT.format(float(value))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a small CSV file at ``path``: ``header``, then each of ``rows``
    as it is drawn, one cell at a time through ``csv.writer``. The file is
    UTF-8 with ``\\n`` line endings, and each value is written as ``str``
    renders it, so floats arrive already formatted by :func:`_fmt`. The
    population files, which can be long, go through
    :func:`_write_population`.
    """
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
    rosters an archive was offered, it always keeps the one this picks, as
    its :attr:`~synthpop.nsga2.ParetoArchive.selected` member.
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


def _quoted(labels: Sequence[str]) -> np.ndarray:
    """Each label as ``csv.writer`` writes it as one field of a longer row,
    as an object array.

    Each label is written as the first of a two-field row: a row of one
    empty field would come out as ``""``, where an empty field in a longer
    row comes out empty, as it does in every population file row.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quoted = []
    for label in labels:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((label, ""))
        quoted.append(buffer.getvalue()[:-2])  # drop the "," and "\n" that follow it
    return np.array(quoted, dtype=object)


def _write_population(
    path: str | Path,
    header: Sequence[str],
    candidate: CandidatePopulation,
    extra: Callable[[int, int], list[list[str]]] = lambda start, stop: [],
) -> None:
    """Write ``header``, then one row per roster row: its index, its
    category labels and the fields ``extra(start, stop)`` gives for rows
    ``start`` to ``stop``, one list per column, which must need no quoting.

    The bytes are those :func:`_write_csv` would write, but the rows are
    rendered and written :data:`_CHUNK_ROWS` at a time, each joined from
    columns of labels quoted once.
    """
    tables = [_quoted(a.categories) for a in candidate.attributes]
    codes = candidate.codes
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        for start in range(0, len(codes), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(codes))
            labels = [table[codes[start:stop, column]].tolist()
                      for column, table in enumerate(tables)]
            rows = zip(map(str, range(start, stop)), *labels, *extra(start, stop))
            handle.write("\n".join(map(",".join, rows)))
            handle.write("\n")


def export_persons(path: str | Path, candidate: CandidatePopulation) -> None:
    """Write one row per person: ``person_id`` plus category labels."""
    _write_population(path, ["person_id", *candidate.attribute_names], candidate)


def export_households(
    path: str | Path, households: CandidatePopulation, allocation: AllocationResult
) -> None:
    """Write one row per household: ``household_id``, category labels, the
    members' ``;``-joined person ids and a 0/1 ``complete`` flag."""
    if not len(households):
        raise DataError("no households to export")
    if len(allocation.bounds) != len(households) + 1 or len(allocation.complete) != len(households):
        raise DataError(
            f"allocation has {len(allocation.bounds) - 1} member lists and "
            f"{len(allocation.complete)} complete flags for {len(households)} households"
        )

    def members_and_flags(start: int, stop: int) -> list[list[str]]:
        bounds = allocation.bounds[start:stop + 1]
        ids = list(map(str, allocation.member_ids[bounds[0]:bounds[-1]].tolist()))
        cuts = (bounds - bounds[0]).tolist()
        members = [";".join(ids[a:b]) for a, b in zip(cuts, cuts[1:])]
        return [members, np.where(allocation.complete[start:stop], "1", "0").tolist()]

    _write_population(
        path, ["household_id", *households.attribute_names, "member_ids", "complete"],
        households, members_and_flags,
    )


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


def save_archive(path: str | Path, archive: ParetoArchive, names: Sequence[str]) -> None:
    """Persist an archive's exported member as an ``.npz`` bundle.

    The bundle holds the roster of member :attr:`~ParetoArchive.selected`,
    the earliest at the archive's lowest weighted sum, as
    ``roster[slot, attribute]`` in the layout's code dtype
    (:func:`~synthpop.population_model.code_dtype`); ``selected`` itself as
    a 0-d integer; every member's ``objectives``; and the
    ``objective_names`` and ``attribute_names`` that label them. The archive
    holds no other member's roster to keep.
    """
    if not len(archive):
        raise DataError("archive is empty, nothing to save")
    roster = archive.best
    np.savez_compressed(
        path,
        roster=roster.codes.astype(code_dtype(roster.attributes), copy=False),
        selected=np.array(archive.selected),
        objectives=archive.objective_matrix(),
        objective_names=np.array(list(names)),
        attribute_names=np.array(roster.attribute_names),
    )


_BUNDLE_KEYS = ("roster", "selected", "objectives", "objective_names", "attribute_names")


def load_archive(
    path: str | Path, schema: AttributeSchema
) -> tuple[np.ndarray, int, CandidatePopulation, list[str]]:
    """Load an ``.npz`` archive bundle written by :func:`save_archive`.

    Returns every member's objective matrix, the saved member's index, its
    roster over the bundle's attribute layout, and the objective names.
    Every array is checked here: a file that cannot be opened or is not a
    zip of the five plain arrays, names that are not a list or an attribute
    name the schema lacks, objectives that are not a finite float matrix
    with one column per name, a ``selected`` that is not an integer index
    into them, or a roster that is not an unsigned matrix with one column
    per attribute and every code below its attribute's category count is a
    :class:`DataError` naming the bundle.
    """
    try:
        with open(path, "rb") as handle:
            bundle = np.load(handle, allow_pickle=False)
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                raise DataError(f"{path} is not a readable archive bundle: it holds one array")
            with bundle:
                missing = [key for key in _BUNDLE_KEYS if key not in bundle.files]
                if missing:
                    raise DataError(
                        f"{path} has no {missing[0]} array (written by an older version?); "
                        "re-run `synthpop run`"
                    )
                codes, selected, objectives, objective_names, attribute_names = (
                    bundle[key] for key in _BUNDLE_KEYS
                )
    except OSError as exc:
        raise DataError(f"cannot read archive bundle {path}: {exc.strerror or exc}") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # Not a zip of plain arrays: truncated, garbage, or holding objects.
        raise DataError(f"{path} is not a readable archive bundle: {exc}") from None
    for key, labels in (("objective_names", objective_names),
                        ("attribute_names", attribute_names)):
        if labels.ndim != 1:
            raise DataError(f"{path}: {key} must be a list of names, got shape {labels.shape}")
    objective_names = [str(n) for n in objective_names]
    try:
        attributes = tuple(schema[str(n)] for n in attribute_names)
    except DataError as exc:
        raise DataError(f"{path}: attribute_names: {exc}") from None
    if objectives.ndim != 2 or objectives.shape[1] != len(objective_names):
        raise DataError(
            f"{path}: objectives has shape {objectives.shape}, "
            f"expected (members, {len(objective_names)})"
        )
    if objectives.dtype.kind != "f" or not np.isfinite(objectives).all():
        raise DataError(f"{path}: objectives must be finite floats")
    if (selected.ndim != 0 or selected.dtype.kind not in "iu"
            or not 0 <= selected < len(objectives)):
        raise DataError(
            f"{path}: selected must be one integer index into the {len(objectives)} "
            f"archive members, got {selected!r}"
        )
    if codes.ndim != 2 or codes.shape[1] != len(attributes):
        raise DataError(
            f"{path}: roster must have 2 axes (slot, attribute) and {len(attributes)} "
            f"columns, one per name of attribute_names; got shape {codes.shape}"
        )
    if codes.dtype.kind != "u" or codes.size == 0:
        raise DataError(
            f"{path}: roster must be a non-empty unsigned integer array, got {codes.dtype}"
        )
    for attribute, code in zip(attributes, codes.max(axis=0).tolist()):
        if code >= attribute.size:
            raise DataError(
                f"{path}: roster holds code {code} for {attribute.name!r}, at or above "
                f"its {attribute.size} categories"
            )
    roster = CandidatePopulation(attributes, codes.astype(code_dtype(attributes)))
    return objectives.astype(np.float64), int(selected), roster, objective_names


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
    for table in tables:
        for attribute in table.axes:
            if attribute.name not in names:
                continue
            marginal = marginalize(table, attribute.name)
            target = marginal * (len(candidate) / float(marginal.sum()))
            observed = np.bincount(candidate.column(attribute.name), minlength=attribute.size)
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
