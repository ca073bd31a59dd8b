"""Tests for selection, CSV/JSON exports and their load round trips."""

import csv
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synthpop import (
    Attribute,
    AttributeSchema,
    CandidatePopulation,
    ContingencyTable,
    DataError,
    GenerationHistory,
    ParetoArchive,
    RmseRow,
    export_convergence,
    export_households,
    export_pareto_pairs,
    export_persons,
    export_rmse,
    export_timings,
    file_checksum,
    load_archive,
    rmse_rows,
    save_archive,
    select_best,
    write_manifest,
)
from synthpop import reporting
from synthpop.household_synthesis import AllocationResult
from synthpop.population_model import code_dtype

TOL = 1e-9


def dummy_roster(schema, rng, size=6):
    attributes = tuple(schema.attributes)
    codes = np.column_stack(
        [rng.integers(0, a.size, size=size) for a in attributes]
    ).astype(np.int16)
    return CandidatePopulation(attributes, codes)


def archive_of(schema, vectors):
    """An archive of dummy rosters holding ``vectors``, which must be
    mutually non-dominated, under unit weights."""
    rng = np.random.default_rng(0)
    archive = ParetoArchive(len(vectors), np.ones(len(vectors[0])))
    archive.update([dummy_roster(schema, rng) for _ in vectors], np.array(vectors, dtype=float))
    assert len(archive) == len(vectors)
    return archive


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestSelectBest:
    def test_equal_weights_pick_the_balanced_member(self):
        objectives = np.array([[1, 5], [2, 2], [5, 1]], dtype=float)
        # Raw sums are 6, 4 and 6.
        assert select_best(objectives, [1.0, 1.0]) == 1

    def test_raw_values_are_not_rescaled(self):
        # Min-max scaling would tie all three members at 1.0; the raw
        # sums are 100, 91 and 10.
        objectives = np.array([[0, 100], [1, 90], [10, 0]], dtype=float)
        assert select_best(objectives, [1.0, 1.0]) == 2

    def test_zero_weight_ignores_an_objective(self):
        objectives = np.array([[1, 5], [2, 2], [5, 1]], dtype=float)
        assert select_best(objectives, [1.0, 0.0]) == 0
        assert select_best(objectives, [0.0, 1.0]) == 2

    def test_ties_go_to_the_earliest_member(self):
        objectives = np.array([[4, 0], [0, 4], [3, 3]], dtype=float)
        # Members 0 and 1 both sum to 4, member 2 to 6.
        assert select_best(objectives, [1.0, 1.0]) == 0

    def test_weight_scaling_does_not_change_the_winner(self):
        objectives = np.array([[1, 5], [2, 2], [5, 1]], dtype=float)
        one = select_best(objectives, [2.0, 1.0])
        two = select_best(objectives, [4.0, 2.0])
        assert one == two

    def test_weight_length_mismatch_rejected(self):
        objectives = np.array([[1, 2], [2, 1]], dtype=float)
        for weights in ([1.0], [1.0, 1.0, 1.0], 1.0):
            with pytest.raises(DataError, match="2 archive objectives"):
                select_best(objectives, weights)

    def test_negative_weight_rejected(self):
        objectives = np.array([[1, 2], [2, 1]], dtype=float)
        with pytest.raises(DataError, match="non-negative"):
            select_best(objectives, [-1.0, 1.0])

    def test_all_zero_weights_rejected(self):
        objectives = np.array([[1, 2], [2, 1]], dtype=float)
        with pytest.raises(DataError, match="positive"):
            select_best(objectives, [0.0, 0.0])

    def test_empty_archive_rejected(self):
        with pytest.raises(DataError, match="empty"):
            select_best(np.empty((0, 1)), [1.0])


class TestPersonsCsv:
    def test_labels_not_codes_on_disk(self, schema_small, tmp_path):
        attributes = tuple(schema_small.attributes)
        codes = np.array([[1, 2, 0]], dtype=np.int16)
        path = tmp_path / "persons.csv"
        export_persons(path, CandidatePopulation(attributes, codes))
        rows = read_rows(path)
        assert rows[0] == ["person_id", "sex", "age", "marital"]
        assert rows[1] == ["0", "f", "a65p", "single"]

    def test_unix_line_endings(self, schema_small, tmp_path):
        candidate = dummy_roster(schema_small, np.random.default_rng(2))
        path = tmp_path / "persons.csv"
        export_persons(path, candidate)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestHouseholdsCsv:
    def households(self):
        hsize = Attribute("hsize", ("s1", "s2"))
        composition = Attribute("composition", ("1A", "1A 1C"))
        return CandidatePopulation((hsize, composition), np.array([[1, 1], [0, 0]]))

    def test_member_ids_join_with_semicolons(self, tmp_path):
        path = tmp_path / "households.csv"
        allocation = AllocationResult(
            member_ids=np.array([0, 2]),
            bounds=np.array([0, 2, 2]),
            complete=np.array([True, False]),
            unallocated=np.array([1]),
        )
        export_households(path, self.households(), allocation)
        rows = read_rows(path)
        assert rows[0] == ["household_id", "hsize", "composition", "member_ids", "complete"]
        assert rows[1] == ["0", "s2", "1A 1C", "0;2", "1"]
        assert rows[2] == ["1", "s1", "1A", "", "0"]

    def test_allocation_of_another_roster_rejected(self, tmp_path):
        allocation = AllocationResult(
            np.array([0]), np.array([0, 1]), np.array([True]), np.array([], dtype=np.intp)
        )
        with pytest.raises(DataError, match="1 member lists and 1 complete flags for 2 households"):
            export_households(tmp_path / "households.csv", self.households(), allocation)

    def test_empty_export_rejected(self, tmp_path):
        empty = CandidatePopulation(self.households().attributes, np.empty((0, 2), dtype=np.uint8))
        allocation = AllocationResult(
            np.array([], dtype=np.intp), np.array([0]), np.array([], dtype=bool),
            np.array([], dtype=np.intp),
        )
        with pytest.raises(DataError, match="no households"):
            export_households(tmp_path / "households.csv", empty, allocation)


# Labels that the CSV dialect must quote, or must not: the delimiter, the
# quote, both line-break characters, leading spaces, the empty label and
# non-ASCII text, besides any text at all.
_LABELS = st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", " ", ";", "a", "Z", "\u00e9", "\u5b57"]),
    max_size=5,
) | st.text(max_size=4)


def reference_rows(header, label_columns, extra_columns=()):
    """The bytes ``csv.writer(lineterminator="\\n")`` writes for the rows,
    one cell at a time: what the population writers wrote before they
    rendered rows themselves, and must still write."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(range(len(label_columns[0])), *label_columns, *extra_columns))
    return buffer.getvalue().encode("utf-8")


def labels_of(candidate):
    return [
        np.array(a.categories, dtype=object)[candidate.codes[:, column]]
        for column, a in enumerate(candidate.attributes)
    ]


@st.composite
def labelled_rosters(draw, min_rows=0):
    """A roster over one to three attributes with labels from ``_LABELS``."""
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True))
    attributes = tuple(
        Attribute(name, tuple(draw(st.lists(_LABELS, min_size=1, max_size=5, unique=True))))
        for name in names
    )
    rows = draw(st.integers(min_rows, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.column_stack([rng.integers(0, a.size, size=rows) for a in attributes])
    return CandidatePopulation(attributes, codes.astype(code_dtype(attributes)))


def random_allocation(rng, households):
    """Member lists of zero to three ids each, some empty, and flags."""
    sizes = rng.integers(0, 4, size=households)
    ids = rng.permutation(int(sizes.sum()) + 5)[: sizes.sum()]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    complete = rng.random(households) < 0.5
    allocation = AllocationResult(ids, bounds, complete, np.array([], dtype=np.intp))
    members = [";".join(map(str, ids[a:b].tolist())) for a, b in zip(bounds, bounds[1:])]
    return allocation, [members, complete.astype(np.uint8).tolist()]


class TestPopulationCsvBytes:
    """The population writers render rows themselves, a chunk at a time;
    they must write exactly what ``csv.writer`` wrote one cell at a time."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(roster=labelled_rosters(), chunk=st.integers(1, 7))
    def test_persons_bytes_match_csv_writer(self, tmp_path, roster, chunk):
        path = tmp_path / "persons.csv"
        with mock.patch.object(reporting, "_CHUNK_ROWS", chunk):
            export_persons(path, roster)
        header = ["person_id", *roster.attribute_names]
        assert path.read_bytes() == reference_rows(header, labels_of(roster))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(roster=labelled_rosters(min_rows=1), chunk=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1))
    def test_households_bytes_match_csv_writer(self, tmp_path, roster, chunk, seed):
        allocation, extra = random_allocation(np.random.default_rng(seed), len(roster))
        path = tmp_path / "households.csv"
        with mock.patch.object(reporting, "_CHUNK_ROWS", chunk):
            export_households(path, roster, allocation)
        header = ["household_id", *roster.attribute_names, "member_ids", "complete"]
        assert path.read_bytes() == reference_rows(header, labels_of(roster), extra)

    def test_rosters_longer_than_a_chunk(self, tmp_path):
        # At the shipped chunk size: two full chunks and a partial one.
        rows = 2 * reporting._CHUNK_ROWS + 3
        rng = np.random.default_rng(5)
        attributes = (Attribute("x", ("", " a", "b,c", 'q"', "r\rs", "t\nu", "\u00e9")),
                      Attribute("y", ("1", "2")))
        roster = CandidatePopulation(attributes, np.column_stack(
            [rng.integers(0, a.size, size=rows) for a in attributes]
        ).astype(np.uint8))
        export_persons(tmp_path / "persons.csv", roster)
        assert (tmp_path / "persons.csv").read_bytes() == reference_rows(
            ["person_id", "x", "y"], labels_of(roster)
        )
        allocation, extra = random_allocation(rng, rows)
        export_households(tmp_path / "households.csv", roster, allocation)
        assert (tmp_path / "households.csv").read_bytes() == reference_rows(
            ["household_id", "x", "y", "member_ids", "complete"], labels_of(roster), extra
        )


class TestConvergenceCsv:
    def history(self):
        return GenerationHistory(
            names=("a", "b"),
            best=[np.array([10.0, 5.0]), np.array([5.0, 5.0])],
            mean=[np.array([10.0, 5.0]), np.array([8.0, 5.0])],
            seconds=[0.1, 0.2],
        )

    def test_long_format_rows(self, tmp_path):
        path = tmp_path / "convergence.csv"
        export_convergence(path, self.history())
        rows = read_rows(path)
        assert rows[0] == ["generation", "objective", "best", "mean"]
        assert rows[1] == ["0", "a", "1", "1"]
        assert rows[2] == ["0", "b", "1", "1"]
        assert rows[3] == ["1", "a", "0.5", "0.8"]
        assert rows[4] == ["1", "b", "1", "1"]

    def test_one_row_per_generation_and_objective(self, tmp_path):
        path = tmp_path / "convergence.csv"
        history = self.history()
        export_convergence(path, history)
        rows = read_rows(path)
        assert len(rows) == 1 + 2 * len(history.best)


class TestParetoPairsCsv:
    def test_selected_flag_set_exactly_once(self, tmp_path):
        objectives = np.array([[1, 5], [2, 2], [5, 1]], dtype=float)
        path = tmp_path / "pareto.csv"
        export_pareto_pairs(path, objectives, ("a", "b"), 1)
        rows = read_rows(path)
        assert rows[0] == ["member_id", "a", "b", "selected"]
        assert [r[-1] for r in rows[1:]] == ["0", "1", "0"]

    def test_values_are_archive_normalized(self, tmp_path):
        objectives = np.array([[1, 5], [2, 2], [5, 1]], dtype=float)
        path = tmp_path / "pareto.csv"
        export_pareto_pairs(path, objectives, ("a", "b"), 0)
        rows = read_rows(path)
        assert rows[1][1:3] == ["0", "1"]
        assert rows[2][1:3] == ["0.25", "0.25"]
        assert rows[3][1:3] == ["1", "0"]

    def test_out_of_range_selection_rejected(self, tmp_path):
        objectives = np.array([[1, 2], [2, 1]], dtype=float)
        with pytest.raises(DataError, match="outside"):
            export_pareto_pairs(tmp_path / "pareto.csv", objectives, ("a", "b"), 5)


def _bundle_arrays(source):
    with np.load(source) as bundle:
        return {key: bundle[key] for key in bundle.files}


class TestArchiveBundle:
    def test_round_trip(self, schema_small, tmp_path):
        archive = archive_of(schema_small, [[1.0, 4.0], [2.0, 2.0], [4.0, 1.0]])
        path = tmp_path / "archive.npz"
        # Sums 5, 4 and 5: member 1 is saved.
        assert archive.selected == 1
        save_archive(path, archive, ("a", "b"))
        objectives, selected, roster, names = load_archive(path, schema_small)
        assert names == ["a", "b"]
        assert np.array_equal(objectives, archive.objective_matrix())
        assert selected == 1
        kept = archive.best
        assert roster.attribute_names == kept.attribute_names
        assert np.array_equal(roster.codes, kept.codes)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        members=st.integers(1, 12),
        slots=st.integers(1, 30),
        sizes=st.lists(st.integers(1, 256), min_size=1, max_size=4),
        wide=st.one_of(st.none(), st.integers(257, 700)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_round_trip_any_shape(self, tmp_path, members, slots, sizes, wide, seed, data):
        # ``wide`` adds an attribute of more than 256 categories: uint16 codes.
        if wide is not None:
            sizes = [*sizes, wide]
        attributes = tuple(
            Attribute(f"a{i}", tuple(f"c{j}" for j in range(size)))
            for i, size in enumerate(sizes)
        )
        rng = np.random.default_rng(seed)
        rosters = []
        for _ in range(members):
            codes = np.column_stack([rng.integers(0, size, size=slots) for size in sizes])
            # Every attribute's highest category appears, so the dtype bound is hit.
            codes[0] = [size - 1 for size in sizes]
            rosters.append(CandidatePopulation(attributes, codes))
        # Strictly decreasing second objective: no vector dominates another.
        # The third puts the lowest sum at the member to be saved alone.
        selected = data.draw(st.integers(0, members - 1), label="selected")
        third = np.where(np.arange(members) == selected, 0.0, 1.0 + rng.random(members))
        objectives = np.column_stack(
            [np.arange(members), -np.arange(members), third]
        ).astype(float)
        archive = ParetoArchive(members, np.ones(3))
        archive.update(rosters, objectives)
        assert len(archive) == members
        assert dict(archive.held) == {selected: rosters[selected]}
        path = tmp_path / "archive.npz"
        save_archive(path, archive, ("x", "y", "z"))
        arrays = _bundle_arrays(path)
        assert set(arrays) == {
            "roster", "selected", "objectives", "objective_names", "attribute_names"
        }
        assert arrays["roster"].dtype == code_dtype(attributes)
        assert arrays["selected"].shape == ()
        loaded, loaded_selected, roster, names = load_archive(path, AttributeSchema(attributes))
        assert names == ["x", "y", "z"]
        assert loaded_selected == selected
        assert np.array_equal(loaded, archive.objective_matrix())
        assert roster.attribute_names == tuple(a.name for a in attributes)
        assert np.array_equal(roster.codes, rosters[selected].codes)
        assert roster.codes.dtype == (np.uint8 if wide is None else np.uint16)

    def test_wider_unsigned_arrays_decode(self, schema_small, tmp_path):
        archive = archive_of(schema_small, [[1.0, 3.0], [2.0, 1.0]])
        path = tmp_path / "archive.npz"
        save_archive(path, archive, ("a", "b"))
        arrays = _bundle_arrays(path)
        # The roster may be any unsigned width, selected any integer width.
        arrays["roster"] = arrays["roster"].astype(np.uint64)
        arrays["selected"] = arrays["selected"].astype(np.uint8)
        np.savez_compressed(path, **arrays)
        _, selected, roster, _ = load_archive(path, schema_small)
        assert selected == 1
        assert np.array_equal(roster.codes, archive.best.codes)
        assert roster.codes.dtype == code_dtype(schema_small.attributes)

    def test_empty_archive_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            save_archive(tmp_path / "archive.npz", ParetoArchive(3, [1.0]), ("a",))

    def test_saving_keeps_its_temporaries_to_a_few_times_the_codes(self, tmp_path):
        # An 11-member households archive at persons-70k's size: 30,233
        # slots of three attributes.
        attributes = tuple(
            Attribute(f"x{i}", tuple(f"c{j}" for j in range(size)))
            for i, size in enumerate((6, 4, 16))
        )
        rng = np.random.default_rng(5)
        rosters = [
            CandidatePopulation(
                attributes,
                np.column_stack([rng.integers(0, a.size, 30_233) for a in attributes])
                .astype(np.uint8),
            )
            for _ in range(11)
        ]
        archive = ParetoArchive(11, np.ones(2))
        # Sums 10 + (i - 4)**2 / 100: member 4 is saved.
        archive.update(
            rosters, np.array([[i, 10 - i + (i - 4) ** 2 / 100] for i in range(11)], dtype=float)
        )
        assert len(archive) == 11
        assert archive.selected == 4
        codes = rosters[0].codes.nbytes
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            save_archive(tmp_path / "archive.npz", archive, ("a", "b"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Only the exported roster is saved, so the temporaries (zlib's state
        # included) stay a small multiple of one member's codes.
        assert peak - start < 10 * codes


def _tampered_bundle(schema, path, tamper):
    """Save a valid two-member bundle that exports member 1, the lower sum,
    apply ``tamper`` to its arrays, save again."""
    save_archive(path, archive_of(schema, [[1, 3], [2, 1]]), ("a", "b"))
    arrays = _bundle_arrays(path)
    tamper(arrays)
    np.savez_compressed(path, **arrays)


def _legacy_layout(arrays):
    # The slot_codes layout that bundles held before palettes.
    del arrays["roster"], arrays["selected"]
    arrays["slot_codes"] = np.zeros((6, 2, 3), dtype=np.uint8)


def _palette_layout(arrays):
    # The palettes of joint cells that bundles held before only the
    # exported roster was kept.
    del arrays["roster"], arrays["selected"]
    arrays["palette_cells"] = np.zeros((1, 6), dtype=np.uint8)
    arrays["palette_counts"] = np.ones(6, dtype=np.uint8)
    arrays["member_rows"] = np.zeros((6, 2), dtype=np.uint8)


def _flat_codes(arrays):
    arrays["roster"] = arrays["roster"].ravel()


def _missing_attribute(arrays):
    arrays["attribute_names"] = arrays["attribute_names"][:2]


def _empty_roster(arrays):
    arrays["roster"] = arrays["roster"][:0]


def _extra_objective(arrays):
    arrays["objective_names"] = np.array(["a", "b", "c"])


def _code_out_of_range(arrays):
    # age has 3 categories, so 3 is the first code past them.
    arrays["roster"][0, 1] = 3


def _negative_code(arrays):
    signed = arrays["roster"].astype(np.int16)
    signed[0, 0] = -1
    arrays["roster"] = signed


def _selected_past_the_archive(arrays):
    arrays["selected"] = np.array(2)


def _negative_selected(arrays):
    arrays["selected"] = np.array(-1)


def _float_selected(arrays):
    arrays["selected"] = np.array(1.0)


def _selected_list(arrays):
    arrays["selected"] = np.array([1])


def _text_objectives(arrays):
    arrays["objectives"] = np.array([["abc", "1"], ["2", "1"]])


def _nan_objective(arrays):
    arrays["objectives"][0, 1] = np.nan


def _unknown_attribute(arrays):
    arrays["attribute_names"] = np.array(["sex", "agez", "marital"])


def _scalar_objective_names(arrays):
    arrays["objective_names"] = arrays["objective_names"][0]


def _scalar_attribute_names(arrays):
    arrays["attribute_names"] = arrays["attribute_names"][0]


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestMalformedArchiveBundle:
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_legacy_layout, "re-run `synthpop run`"),
            (_palette_layout, r"no roster array \(written by an older version\?\); "
                              "re-run `synthpop run`"),
            (_flat_codes, r"2 axes \(slot, attribute\) and 3 columns, .* got shape \(18,\)"),
            (_missing_attribute, r"2 axes \(slot, attribute\) and 2 columns, .* "
                                 r"got shape \(6, 3\)"),
            (_empty_roster, "roster must be a non-empty unsigned integer array"),
            (_extra_objective, r"expected \(members, 3\)"),
            (_code_out_of_range, "roster holds code 3 for 'age', at or above its 3 categories"),
            (_negative_code, "unsigned integer array, got int16"),
            (_selected_past_the_archive, "selected must be one integer index into the 2 "),
            (_negative_selected, "selected must be one integer index"),
            (_float_selected, "selected must be one integer index"),
            (_selected_list, "selected must be one integer index"),
            (_text_objectives, "objectives must be finite floats"),
            (_nan_objective, "objectives must be finite floats"),
            (_unknown_attribute,
             "archive.npz: attribute_names: schema has no attribute named 'agez'"),
            (_scalar_objective_names,
             r"archive.npz: objective_names must be a list of names, got shape \(\)"),
            (_scalar_attribute_names,
             r"archive.npz: attribute_names must be a list of names, got shape \(\)"),
        ],
    )
    def test_rejected_with_a_named_error(self, schema_small, tmp_path, tamper, message):
        path = tmp_path / "archive.npz"
        _tampered_bundle(schema_small, path, tamper)
        with pytest.raises(DataError, match=message):
            load_archive(path, schema_small)

    @pytest.mark.parametrize(
        "key", ["roster", "selected", "objectives", "objective_names", "attribute_names"]
    )
    def test_every_array_is_required(self, schema_small, tmp_path, key):
        path = tmp_path / "archive.npz"
        _tampered_bundle(schema_small, path, lambda arrays: arrays.pop(key))
        with pytest.raises(DataError, match=rf"archive.npz has no {key} array"):
            load_archive(path, schema_small)

    def test_an_object_array_is_refused_by_name(self, schema_small, tmp_path):
        path = tmp_path / "archive.npz"
        _tampered_bundle(schema_small, path, lambda arrays: arrays.update(
            objective_names=arrays["objective_names"].astype(object)
        ))
        with pytest.raises(DataError, match="archive.npz is not a readable archive bundle: "
                           "Object arrays cannot be loaded"):
            load_archive(path, schema_small)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda data: bytes(range(256)) * 4, "pickled"),
            (lambda data: data[: len(data) // 2], "not a zip file"),
            (lambda data: b"", ""),
            (lambda data: _npy_bytes(np.zeros(3)), "it holds one array"),
        ],
        ids=["garbage", "first-half", "empty", "one-array"],
    )
    def test_an_unreadable_file_is_named(self, schema_small, tmp_path, spoil, message):
        path = tmp_path / "archive.npz"
        _tampered_bundle(schema_small, path, lambda arrays: None)
        path.write_bytes(spoil(path.read_bytes()))
        with pytest.raises(DataError, match=f"archive.npz is not a readable archive bundle: .*"
                           f"{message}"):
            load_archive(path, schema_small)


    def test_a_directory_is_named(self, schema_small, tmp_path):
        path = tmp_path / "archive.npz"
        path.mkdir()
        with pytest.raises(DataError, match="cannot read archive bundle .*archive.npz: "):
            load_archive(path, schema_small)


class TestRmseRows:
    def band_attribute(self):
        return Attribute(
            name="band",
            categories=("b1", "b2", "b3", "b4"),
            groups={"b1": "lo", "b2": "lo", "b3": "hi", "b4": "hi"},
        )

    def band_setup(self, observed):
        band = self.band_attribute()
        table = ContingencyTable("bands", (band,), np.array([4.0, 2.0, 3.0, 1.0]))
        codes = np.repeat(np.arange(4), observed).reshape(-1, 1).astype(np.int16)
        return CandidatePopulation((band,), codes), table

    def test_category_and_group_levels(self):
        # Observed counts miss every category by 2 but the group sums are
        # exact, so the category row is 2 and the group row is 0.
        candidate, table = self.band_setup([2, 4, 1, 3])
        rows = rmse_rows(candidate, [table])
        assert [(r.table, r.attribute, r.level) for r in rows] == [
            ("bands", "band", "category"),
            ("bands", "band", "group"),
        ]
        assert rows[0].value == pytest.approx(2.0, abs=TOL)
        assert rows[1].value == pytest.approx(0.0, abs=TOL)

    def test_perfect_roster_scores_zero(self):
        candidate, table = self.band_setup([4, 2, 3, 1])
        rows = rmse_rows(candidate, [table])
        assert all(r.value == pytest.approx(0.0, abs=TOL) for r in rows)

    def test_hand_value_with_scaling(self, schema_small, dataset_small):
        # 10 persons against tables totalling 100: sex target is (5.3, 4.7).
        attributes = tuple(schema_small.attributes)
        codes = np.zeros((10, 3), dtype=np.int16)
        codes[5:, 0] = 1
        codes[3:8, 1] = 1
        codes[8:, 1] = 2
        candidate = CandidatePopulation(attributes, codes)
        rows = rmse_rows(candidate, [dataset_small.table("sex_age")])
        by_key = {(r.attribute, r.level): r.value for r in rows}
        assert by_key[("sex", "category")] == pytest.approx(0.3, abs=TOL)
        expected_age = np.sqrt((0.0 + 0.2**2 + 0.2**2) / 3)
        assert by_key[("age", "category")] == pytest.approx(expected_age, abs=TOL)

    def test_axes_outside_the_roster_are_skipped(self, dataset_small):
        candidate, table = self.band_setup([4, 2, 3, 1])
        rows = rmse_rows(candidate, [table, dataset_small.table("sex_age")])
        assert {r.table for r in rows} == {"bands"}

    def test_export_format(self, tmp_path):
        path = tmp_path / "rmse.csv"
        export_rmse(path, [RmseRow("t", "a", "category", 0.5)])
        assert read_rows(path) == [
            ["table", "attribute", "level", "rmse"],
            ["t", "a", "category", "0.5"],
        ]


class TestManifest:
    def test_round_trip(self, tmp_path):
        payload = {"b": 1, "a": {"nested": [1, 2, 3]}, "c": "x"}
        path = tmp_path / "manifest.json"
        write_manifest(path, payload)
        assert json.loads(path.read_text()) == payload

    def test_canonical_bytes(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        write_manifest(first, {"b": 1, "a": 2})
        write_manifest(second, {"a": 2, "b": 1})
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith('{\n  "a": 2')
        assert first.read_text().endswith("\n")


class TestChecksumAndTimings:
    def test_checksum_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "blob.bin"
        path.write_bytes(b"synthetic population")
        expected = hashlib.sha256(b"synthetic population").hexdigest()
        assert file_checksum(path) == expected

    def test_checksum_changes_with_content(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"one")
        before = file_checksum(path)
        path.write_bytes(b"two")
        assert file_checksum(path) != before

    def test_timings_rows(self, tmp_path):
        path = tmp_path / "timings.csv"
        export_timings(path, [("persons_evolve", 1.5), ("total", 2.0)])
        assert read_rows(path) == [
            ["stage", "wall_seconds"],
            ["persons_evolve", "1.5"],
            ["total", "2"],
        ]
