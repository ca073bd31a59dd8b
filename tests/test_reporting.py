"""Tests for selection, CSV/JSON exports and their load round trips."""

import csv
import io
import json
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
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
    load_persons,
    rmse_rows,
    save_archive,
    select_best,
    write_manifest,
)
from synthpop import reporting
from synthpop.household_synthesis import AllocationResult
from synthpop.population_model import code_dtype

from conftest import reference_palette_block

TOL = 1e-9


def dummy_roster(schema, rng, size=6):
    attributes = tuple(schema.attributes)
    codes = np.column_stack(
        [rng.integers(0, a.size, size=size) for a in attributes]
    ).astype(np.int16)
    return CandidatePopulation(attributes, codes)


def archive_of(schema, vectors):
    """An archive of dummy rosters holding ``vectors``, which must be
    mutually non-dominated."""
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
    def test_round_trip(self, schema_small, tmp_path):
        candidate = dummy_roster(schema_small, np.random.default_rng(1), size=12)
        path = tmp_path / "persons.csv"
        export_persons(path, candidate)
        loaded = load_persons(path, schema_small)
        assert loaded.attribute_names == candidate.attribute_names
        assert np.array_equal(loaded.codes, candidate.codes)

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

    def test_bad_header_rejected(self, schema_small, tmp_path):
        path = tmp_path / "persons.csv"
        path.write_text("id,sex\n0,m\n")
        with pytest.raises(DataError, match="person_id"):
            load_persons(path, schema_small)

    def test_unknown_label_names_the_line(self, schema_small, tmp_path):
        path = tmp_path / "persons.csv"
        path.write_text("person_id,sex,age,marital\n0,m,zz,single\n")
        with pytest.raises(DataError, match="line 2"):
            load_persons(path, schema_small)

    def test_empty_file_rejected(self, schema_small, tmp_path):
        path = tmp_path / "persons.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_persons(path, schema_small)

    @pytest.mark.parametrize(
        "ids, line, bad",
        [
            (["1", "0", "2"], 2, "'1' is not 0"),
            (["0", "0", "2"], 3, "'0' is not 1"),
            (["0", "1", "2.0"], 4, "'2.0' is not 2"),
            (["0", "x", "2"], 3, "'x' is not 1"),
        ],
        ids=["reordered", "duplicate", "float", "not-a-number"],
    )
    def test_each_person_id_must_be_its_row_position(
        self, schema_small, tmp_path, ids, line, bad
    ):
        path = tmp_path / "persons.csv"
        rows = "".join(f"{i},m,a0_17,single\n" for i in ids)
        path.write_text("person_id,sex,age,marital\n" + rows, encoding="utf-8")
        with pytest.raises(DataError, match=f"persons.csv line {line}: person_id {bad}"):
            load_persons(path, schema_small)

    def test_a_byte_order_mark_is_dropped(self, schema_small, tmp_path):
        candidate = dummy_roster(schema_small, np.random.default_rng(3), size=5)
        path = tmp_path / "persons.csv"
        export_persons(path, candidate)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_persons(path, schema_small)
        assert loaded.attribute_names == candidate.attribute_names
        assert np.array_equal(loaded.codes, candidate.codes)


class TestHouseholdsCsv:
    def households(self):
        hsize = Attribute("hsize", ("s1", "s2"))
        composition = Attribute("composition", ("1A", "1A 1C"))
        return CandidatePopulation((hsize, composition), np.array([[1, 1], [0, 0]]))

    def test_member_ids_join_with_semicolons(self, tmp_path):
        path = tmp_path / "households.csv"
        allocation = AllocationResult(
            members=(np.array([0, 2]), np.array([], dtype=np.intp)),
            complete=np.array([True, False]),
            unallocated=np.array([1]),
        )
        export_households(path, self.households(), allocation)
        rows = read_rows(path)
        assert rows[0] == ["household_id", "hsize", "composition", "member_ids", "complete"]
        assert rows[1] == ["0", "s2", "1A 1C", "0;2", "1"]
        assert rows[2] == ["1", "s1", "1A", "", "0"]

    def test_empty_export_rejected(self, tmp_path):
        empty = CandidatePopulation(self.households().attributes, np.empty((0, 2), dtype=np.uint8))
        allocation = AllocationResult((), np.array([], dtype=bool), np.array([], dtype=np.intp))
        with pytest.raises(DataError, match="no households"):
            export_households(tmp_path / "households.csv", empty, allocation)


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


def _palette_rows(arrays, attributes):
    """The palette's rows of category codes, decoded from its byte planes."""
    cells = sum(
        plane.astype(np.uint64) << np.uint64(8 * byte)
        for byte, plane in enumerate(arrays["palette_cells"])
    )
    return np.stack(np.unravel_index(cells, [a.size for a in attributes]), axis=1)


def _slot_palettes(arrays, attributes):
    """Each slot's palette rows, split from the slot-major palette."""
    ends = np.cumsum(arrays["palette_counts"].astype(np.intp))
    return np.split(_palette_rows(arrays, attributes), ends[:-1])


def _saved(archive, block):
    """The arrays of ``archive``'s bundle, encoded ``block`` slot-member
    pairs at a time."""
    buffer = io.BytesIO()
    # Small blocks make the encoder cross block boundaries.
    with patch.object(reporting, "_BLOCK_ENTRIES", block):
        save_archive(buffer, archive, ("x", "y", "z"))
    buffer.seek(0)
    return buffer, _bundle_arrays(buffer)


# Archives of any layout and size whose members share rows at a slot.
ARCHIVE_SHAPES = dict(
    members=st.integers(1, 40),
    slots=st.integers(1, 30),
    sizes=st.lists(st.integers(1, 256), min_size=1, max_size=4),
    wide=st.one_of(st.none(), st.integers(257, 700)),
    crowd=st.one_of(st.none(), st.integers(257, 300)),
    pool=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)


def _repeating_archive(members, slots, sizes, wide, crowd, pool, seed):
    """An archive of rosters that draw each slot's row from a small pool,
    so rows repeat across members as they do after positional crossover.

    ``wide`` adds an attribute of more than 256 categories; ``crowd`` gives
    each of that many members its own row at slot 0, so member_rows needs
    more than one byte. Returns the archive and its rosters.
    """
    if wide is not None:
        sizes = [*sizes, wide]
    if crowd is not None:
        members, sizes = crowd, [*sizes, crowd]
    attributes = tuple(
        Attribute(f"a{i}", tuple(f"c{j}" for j in range(size)))
        for i, size in enumerate(sizes)
    )
    rng = np.random.default_rng(seed)
    pools = np.stack(
        [rng.integers(0, size, size=(slots, pool)) for size in sizes], axis=-1
    )
    rosters = []
    for member in range(members):
        codes = pools[np.arange(slots), rng.integers(0, pool, size=slots)]
        # Every attribute's highest category appears, so the dtype bound is hit.
        codes[0] = [size - 1 for size in sizes]
        if crowd is not None:
            codes[0, -1] = member
        rosters.append(CandidatePopulation(attributes, codes.astype(np.int16)))
    # Strictly decreasing second objective: no vector dominates another.
    objectives = np.column_stack(
        [np.arange(members), -np.arange(members), rng.random(members)]
    ).astype(float)
    archive = ParetoArchive(members, np.ones(3))
    archive.update(rosters, objectives)
    assert archive.candidates == tuple(rosters)
    return archive, rosters


class TestArchiveBundle:
    def test_round_trip(self, schema_small, tmp_path):
        archive = archive_of(schema_small, [[1.0, 4.0], [2.0, 2.0], [4.0, 1.0]])
        path = tmp_path / "archive.npz"
        save_archive(path, archive, ("a", "b"))
        members, objectives, names = load_archive(path, schema_small)
        assert names == ["a", "b"]
        assert np.array_equal(objectives, archive.objective_matrix())
        assert len(members) == 3
        for loaded, kept in zip(members, archive.candidates):
            assert loaded.attribute_names == kept.attribute_names
            assert np.array_equal(loaded.codes, kept.codes)

    @settings(max_examples=40, deadline=None)
    @given(**ARCHIVE_SHAPES, block=st.integers(1, 64))
    def test_round_trip_any_shape(self, block, **shape):
        archive, rosters = _repeating_archive(**shape)
        attributes = rosters[0].attributes
        members, slots = len(rosters), len(rosters[0])
        buffer, arrays = _saved(archive, block)
        planes = arrays["palette_cells"]
        cells = math.prod(a.size for a in attributes)
        assert planes.dtype == np.uint8
        # One plane per byte of the largest cell index.
        assert 256 ** (len(planes) - 1) < cells <= 256 ** len(planes) or len(planes) == 1
        counts = arrays["palette_counts"]
        assert counts.dtype.kind == "u" and len(counts) == slots
        member_rows = arrays["member_rows"]
        assert member_rows.shape == (slots, members)
        assert member_rows.dtype == np.min_scalar_type(int(counts.max()) - 1)
        if shape["crowd"] is not None:
            assert member_rows.dtype == np.uint16
        for slot, palette in enumerate(_slot_palettes(arrays, attributes)):
            assert len(np.unique(palette, axis=0)) == len(palette)
            # Rows come in the order of the first member that holds them.
            first_seen = dict.fromkeys(tuple(r.codes[slot]) for r in rosters)
            assert [tuple(row) for row in palette] == list(first_seen)
        assert not member_rows[:, 0].any()
        buffer.seek(0)
        loaded, loaded_objectives, names = load_archive(buffer, AttributeSchema(attributes))
        assert names == ["x", "y", "z"]
        assert np.array_equal(loaded_objectives, archive.objective_matrix())
        assert len(loaded) == members
        for roster, kept in zip(loaded, rosters):
            assert roster.attribute_names == kept.attribute_names
            assert np.array_equal(roster.codes, kept.codes)
            assert roster.codes.dtype == code_dtype(attributes)

    @settings(max_examples=40, deadline=None)
    @given(**ARCHIVE_SHAPES, block=st.integers(1, 64))
    def test_encoder_matches_the_lexsort_reference(self, block, **shape):
        archive, rosters = _repeating_archive(**shape)
        attributes = rosters[0].attributes
        _, arrays = _saved(archive, block)
        stacked = np.stack([r.codes for r in rosters], axis=1).astype(code_dtype(attributes))
        rows, counts, index = reference_palette_block(stacked)
        assert np.array_equal(_palette_rows(arrays, attributes), rows)
        widest = int(counts.max())
        assert arrays["palette_counts"].dtype == np.min_scalar_type(widest)
        assert np.array_equal(arrays["palette_counts"], counts)
        assert arrays["member_rows"].dtype == np.min_scalar_type(widest - 1)
        assert np.array_equal(arrays["member_rows"], index)

    def test_round_trip_near_the_cell_bound(self):
        # 2**62 joint cells: keys of two slots already need 64 bits, so the
        # encoder takes at most three slots at a time.
        sizes = (2**16, 2**16, 2**16, 2**14)
        attributes = tuple(
            Attribute(f"a{i}", tuple(f"c{j}" for j in range(size)))
            for i, size in enumerate(sizes)
        )
        rng = np.random.default_rng(5)
        rosters = [
            CandidatePopulation(
                attributes, np.column_stack([rng.integers(0, s, size=7) for s in sizes])
            )
            for _ in range(3)
        ]
        # The last member repeats the first at every slot.
        rosters.append(rosters[0])
        archive = ParetoArchive(4, np.ones(3))
        member = np.arange(4.0)
        archive.update(rosters, np.column_stack([member, -member, np.zeros(4)]))
        assert archive.candidates == tuple(rosters)
        buffer, arrays = _saved(archive, 1 << 18)
        assert arrays["palette_cells"].shape[0] == 8
        assert np.array_equal(arrays["member_rows"][:, 3], arrays["member_rows"][:, 0])
        buffer.seek(0)
        loaded, _, _ = load_archive(buffer, AttributeSchema(attributes))
        for roster, kept in zip(loaded, rosters):
            assert np.array_equal(roster.codes, kept.codes)

    def test_wider_unsigned_arrays_decode(self, schema_small, tmp_path):
        archive = archive_of(schema_small, [[1.0, 2.0], [2.0, 1.0]])
        path = tmp_path / "archive.npz"
        save_archive(path, archive, ("a", "b"))
        arrays = _bundle_arrays(path)
        # palette_cells stays in bytes; the index arrays may be any width.
        for key in ("palette_counts", "member_rows"):
            arrays[key] = arrays[key].astype(np.uint64)
        np.savez_compressed(path, **arrays)
        members, _, _ = load_archive(path, schema_small)
        for loaded, kept in zip(members, archive.candidates):
            assert np.array_equal(loaded.codes, kept.codes)
            assert loaded.codes.dtype == code_dtype(schema_small.attributes)

    def test_empty_archive_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            save_archive(tmp_path / "archive.npz", ParetoArchive(3, [1.0]), ("a",))

    def test_saving_keeps_its_temporaries_to_a_few_times_the_codes(self, tmp_path):
        # An 11-member households archive at persons-70k's size: 30,233
        # slots of three attributes, random rows, so few members share a
        # slot's cell and the palettes are nearly as long as the codes.
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
        archive.update(rosters, np.array([[i, 10 - i] for i in range(11)], dtype=float))
        assert len(archive) == 11
        codes = sum(roster.codes.nbytes for roster in rosters)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            save_archive(tmp_path / "archive.npz", archive, ("a", "b"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Slots are encoded a block at a time, so the encoder's temporaries
        # stay a small multiple of the codes.
        assert peak - start < 10 * codes


def _tampered_bundle(schema, path, tamper):
    """Save a valid two-member bundle, apply ``tamper`` to its arrays, save again."""
    save_archive(path, archive_of(schema, [[1, 2], [2, 1]]), ("a", "b"))
    arrays = _bundle_arrays(path)
    tamper(arrays)
    np.savez_compressed(path, **arrays)


def _legacy_layout(arrays):
    # The slot_codes layout that bundles held before palettes.
    for key in ("palette_cells", "palette_counts", "member_rows"):
        del arrays[key]
    arrays["slot_codes"] = np.zeros((6, 2, 3), dtype=np.uint8)


def _palette_layout(arrays):
    # The palette[row, attribute] codes that bundles held before cells.
    planes = arrays.pop("palette_cells")
    arrays["palette"] = np.zeros((planes.shape[1], 3), dtype=np.uint8)


def _flat_codes(arrays):
    arrays["palette_cells"] = arrays["palette_cells"].ravel()


def _extra_member(arrays):
    arrays["objectives"] = np.vstack([arrays["objectives"], [[3.0, 3.0]]])


def _missing_attribute(arrays):
    # sex, age: 6 joint cells, which the saved female rows' cells exceed.
    arrays["attribute_names"] = arrays["attribute_names"][:2]


def _extra_objective(arrays):
    arrays["objective_names"] = np.array(["a", "b", "c"])


def _code_out_of_range(arrays):
    # sex, age, marital: 2 * 3 * 2 = 12 joint cells, so 12 is the first out.
    arrays["palette_cells"][0, 0] = 12


def _negative_code(arrays):
    signed = arrays["palette_cells"].astype(np.int16)
    signed[0, 0] = -1
    arrays["palette_cells"] = signed


def _wide_planes(arrays):
    arrays["palette_cells"] = arrays["palette_cells"].astype(np.uint16)


def _extra_plane(arrays):
    planes = arrays["palette_cells"]
    arrays["palette_cells"] = np.vstack([planes, np.zeros_like(planes)])


def _signed_member_rows(arrays):
    arrays["member_rows"] = arrays["member_rows"].astype(np.int16)


def _member_row_at_count(arrays):
    # The slot's own count is the first index past its palette rows.
    arrays["member_rows"][0, 1] = arrays["palette_counts"][0]


def _counts_over_palette(arrays):
    arrays["palette_counts"][-1] += 1


def _palette_row_short(arrays):
    arrays["palette_cells"] = arrays["palette_cells"][:, :-1]


def _empty_slot(arrays):
    counts = arrays["palette_counts"]
    counts[1] += counts[0]
    counts[0] = 0


def _missing_slot(arrays):
    arrays["palette_counts"] = arrays["palette_counts"][:-1]


def _text_objectives(arrays):
    arrays["objectives"] = np.array([["abc", "1"], ["2", "1"]])


def _nan_objective(arrays):
    arrays["objectives"][0, 1] = np.nan


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestMalformedArchiveBundle:
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_legacy_layout, "re-run `synthpop run`"),
            (_palette_layout, r"no palette_cells array \(written by an older version\?\)"),
            (_flat_codes, r"2 axes \(byte, row\), got 1"),
            (_extra_member, "holds 2 members, objectives 3"),
            (_missing_attribute, r"palette_cells holds cell \d+, at or above the 6 joint cells"),
            (_extra_objective, r"expected \(members, 3\)"),
            (_code_out_of_range, "palette_cells holds cell 12, at or above the 12 joint cells"),
            (_negative_code, "unsigned integer"),
            (_wide_planes, r"palette_cells must hold bytes \(uint8\), got uint16"),
            (_extra_plane, "palette_cells has 2 byte planes, but the 12 joint cells"),
            (_signed_member_rows, "member_rows must be a non-empty unsigned integer"),
            (_member_row_at_count, "member_rows at slot 0 points past its"),
            (_counts_over_palette, r"sum to the \d+ rows of palette_cells"),
            (_palette_row_short, r"sum to the \d+ rows of palette_cells"),
            (_empty_slot, "at least 1 at every slot"),
            (_missing_slot, "palette_counts has 5 slots, member_rows 6"),
            (_text_objectives, "objectives must be finite floats"),
            (_nan_objective, "objectives must be finite floats"),
        ],
    )
    def test_rejected_with_a_named_error(self, schema_small, tmp_path, tamper, message):
        path = tmp_path / "archive.npz"
        _tampered_bundle(schema_small, path, tamper)
        with pytest.raises(DataError, match=message):
            load_archive(path, schema_small)

    def test_missing_byte_plane_rejected(self, tmp_path):
        # 2 * 300 = 600 joint cells take two byte planes.
        schema = AttributeSchema((
            Attribute("sex", ("m", "f")),
            Attribute("wide", tuple(f"c{j}" for j in range(300))),
        ))
        path = tmp_path / "archive.npz"
        _tampered_bundle(schema, path, lambda arrays: arrays.update(
            palette_cells=arrays["palette_cells"][:1]
        ))
        with pytest.raises(DataError, match="palette_cells has 1 byte planes, but the 600 joint"):
            load_archive(path, schema)

    @pytest.mark.parametrize("key", ["objectives", "objective_names", "attribute_names"])
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
