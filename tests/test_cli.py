"""End-to-end tests of the command line interface on a small config tree."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synthpop import cli, file_checksum
from synthpop.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def mask_seconds(text):
    """``text`` with the wall-clock seconds that end its lines masked."""
    return re.sub(r"[0-9.]+s$", "<s>", text, flags=re.MULTILINE)


def make_inconsistent(config_tree):
    """Bump one cell so the shared age marginal disagrees across tables."""
    table = config_tree.parent / "tables" / "sex_age.csv"
    table.write_text(table.read_text().replace("m,a0_17,15", "m,a0_17,20"))


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "synthpop" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_workers_flag_rejected(self, config_tree, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "-c", config_tree, "--workers", 2)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("validate-data", "--seed"), ("report", "--generations")],
        ids=["validate-data", "report"],
    )
    def test_subcommand_rejects_a_flag_it_does_not_read(
        self, config_tree, capsys, command, flag
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "-c", config_tree, flag, 1)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestValidateData:
    def test_consistent_tables_pass(self, config_tree, capsys):
        assert run_cli("validate-data", "-c", config_tree) == 0
        assert "all consistency checks passed" in capsys.readouterr().out

    def test_inconsistent_tables_fail(self, config_tree, capsys):
        make_inconsistent(config_tree)
        assert run_cli("validate-data", "-c", config_tree) == 1
        assert "check(s) failed" in capsys.readouterr().out

    def test_a_marginal_that_disagrees_at_equal_totals_fails(
        self, config_tree, tmp_path, capsys
    ):
        # Ten persons move from a18_64 to a65p: age_marital's total stays 100,
        # its age marginal moves 20% of it away from sex_age's.
        table = config_tree.parent / "tables" / "age_marital.csv"
        edit(table, "a18_64,single,22", "a18_64,single,12")
        edit(table, "a65p,single,8", "a65p,single,18")
        assert run_cli("validate-data", "-c", config_tree) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("FLAG")] == [
            "FLAG persons/age: tables 'sex_age' and 'age_marital' marginals 20.00% apart"
        ]
        assert out[-1] == "1 check(s) failed"
        result = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", result, "--quiet") == 1
        assert "consistency tolerance" in capsys.readouterr().err
        assert not result.exists()

    def test_non_finite_table_count_fails(self, config_tree, capsys):
        table = config_tree.parent / "tables" / "sex_age.csv"
        table.write_text(table.read_text().replace("m,a0_17,15", "m,a0_17,nan"))
        assert run_cli("validate-data", "-c", config_tree) == 1
        captured = capsys.readouterr()
        assert "all consistency checks passed" not in captured.out
        assert captured.err.startswith("error: table file")
        assert "sex_age.csv, line" in captured.err and "non-finite count nan" in captured.err

    def test_table_header_naming_an_axis_twice_fails(self, config_tree, capsys):
        table = config_tree.parent / "tables" / "age_marital.csv"
        table.write_text(
            table.read_text().replace("age,marital,count", "age,marital,marital,count")
        )
        assert run_cli("validate-data", "-c", config_tree) == 1
        captured = capsys.readouterr()
        assert "all consistency checks passed" not in captured.out
        assert captured.err.startswith("error: table file")
        assert "age_marital.csv, line 1: header names axis 'marital' twice" in captured.err

    @pytest.mark.parametrize(
        "kind, name, edits, detail",
        [
            (
                "table",
                "tables/sex_age.csv",
                [("m,a0_17,15\n", "m,a0_17,15\n\n"), ("m,a65p,8", "q,a65p,8")],
                ", line 5: unknown category 'q' for attribute 'sex'",
            ),
            (
                "table",
                "tables/sex_age.csv",
                [("sex,age,count", "gender,age,count")],
                ", line 1: schema has no attribute named 'gender'",
            ),
            (
                "schema",
                "schema.yaml",
                [("categories: [m, f]", "categories: [m, f, m]")],
                ": attribute 'sex' has duplicate categories",
            ),
            (
                "rules",
                "person_rules.yaml",
                [("name: no-child-marriage", "name: null")],
                ": rule name must be a string, got None",
            ),
        ],
        ids=["table-row", "table-header", "schema-category", "rule-name"],
    )
    def test_a_fault_inside_an_input_file_names_the_file(
        self, config_tree, tmp_path, capsys, kind, name, edits, detail
    ):
        path = config_tree.parent / name
        for old, new in edits:
            edit(path, old, new)
        expected = f"error: {kind} file {path}{detail}\n"
        assert run_cli("validate-data", "-c", config_tree) == 1
        captured = capsys.readouterr()
        assert "all consistency checks passed" not in captured.out
        assert captured.err == expected
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 1
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_a_field_past_the_csv_field_limit_fails(self, config_tree, capsys):
        # The csv module refuses a field of more than 131,072 characters.
        table = config_tree.parent / "tables" / "sex_age.csv"
        field = '"' + "x" * 200_000 + '"'
        table.write_text(table.read_text().replace("m,a65p,8", f"m,{field},8"))
        assert run_cli("validate-data", "-c", config_tree) == 1
        captured = capsys.readouterr()
        assert "all consistency checks passed" not in captured.out
        assert captured.err.splitlines() == [
            f"error: table file {table} line 4 is not valid CSV: "
            "field larger than field limit (131072)"
        ]

    def test_objective_attribute_outside_its_table_fails(self, config_tree, capsys):
        config_tree.write_text(
            config_tree.read_text().replace(
                "{name: size_fit, table: size_comp, attribute: hsize}",
                "{name: size_fit, table: size_comp, attribute: sex}",
            )
        )
        assert run_cli("validate-data", "-c", config_tree) == 1
        captured = capsys.readouterr()
        assert "all consistency checks passed" not in captured.out
        assert captured.err.startswith("error: stage 'households' objective 'size_fit'")
        assert "'sex' is not an axis of table 'size_comp'" in captured.err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("{name: sex_fit,", "{name: null,", "stage 'persons' objective 0: name"),
            ("region: test-region", "region: 0042", "config.yaml: region"),
            ("output_dir: out", "output_dir: [a]", "config.yaml: output_dir"),
            ("attribute: sex}", "attribute: [sex]}", "stage 'persons' objective 0: attribute"),
            (
                "tables: [tables/sex_age.csv, tables/age_marital.csv]",
                "tables: [tables/sex_age.csv, 2011]",
                "stage 'persons': tables[1]",
            ),
        ],
        ids=["name-null", "region-octal", "output_dir-list", "attribute-list", "tables-number"],
    )
    def test_a_non_string_in_a_string_key_fails_cleanly(self, config_tree, capsys, old, new, key):
        config_tree.write_text(config_tree.read_text().replace(old, new, 1))
        before = sorted(config_tree.parent.rglob("*"))
        for argv in (["validate-data"], ["run", "--quiet"]):
            assert run_cli(argv[0], "-c", config_tree, *argv[1:]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("error: ") and f"{key} must be a string, got " in line
        assert sorted(config_tree.parent.rglob("*")) == before

    def test_unknown_rule_category_fails(self, config_tree, capsys):
        rules = config_tree.parent / "person_rules.yaml"
        rules.write_text(rules.read_text().replace("age: [a0_17]", "age: [no_such_band]"))
        assert run_cli("validate-data", "-c", config_tree) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no_such_band" in err


class TestRun:
    def test_writes_every_output(self, config_tree, tmp_path):
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 0
        expected = {
            "persons.csv",
            "households.csv",
            "convergence_persons.csv",
            "convergence_households.csv",
            "pareto_persons.csv",
            "pareto_households.csv",
            "archive_persons.npz",
            "archive_households.npz",
            "rmse_persons.csv",
            "rmse_households.csv",
            "manifest.json",
            "timings.csv",
        }
        assert {p.name for p in out.iterdir()} == expected

    def test_population_sizes_match_targets(self, config_tree, tmp_path):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        assert len(read_rows(out / "persons.csv")) == 101
        assert len(read_rows(out / "households.csv")) == 11

    def test_rules_hold_in_the_export(self, config_tree, tmp_path):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        rows = read_rows(out / "persons.csv")
        header = rows[0]
        age, marital = header.index("age"), header.index("marital")
        for row in rows[1:]:
            assert not (row[age] == "a0_17" and row[marital] == "married")

    def test_manifest_describes_the_run(self, config_tree, tmp_path):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["region"] == "test-region"
        assert manifest["inputs"]["config"]["sha256"] == file_checksum(config_tree)
        assert manifest["inputs"]["tables"]["sex_age"]["sha256"] == file_checksum(
            config_tree.parent / "tables" / "sex_age.csv"
        )
        assert manifest["inputs"]["rules"]["persons"]["file"] == "person_rules.yaml"
        assert manifest["outputs"] == sorted(manifest["outputs"])
        assert "timings.csv" not in manifest["outputs"]
        persons = manifest["stages"]["persons"]
        assert persons["target_count"] == 100
        assert isinstance(persons["result"]["selected_member"], int)
        assert set(persons["result"]["final_objectives"]) == {
            "sex_fit",
            "age_fit",
            "marital_fit",
        }

    def test_generation_override_shapes_the_trace(self, config_tree, tmp_path):
        out = tmp_path / "result"
        run_cli(
            "run", "-c", config_tree, "--out-dir", out, "--generations", 1, "--quiet"
        )
        # two generations (0 and 1) times three person objectives, plus header
        assert len(read_rows(out / "convergence_persons.csv")) == 7

    def test_rerun_is_byte_identical(self, config_tree, tmp_path):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        for name, data in first.items():
            if name == "timings.csv":
                continue
            assert (out / name).read_bytes() == data

    def test_lenient_validation_warns_and_continues(self, config_tree, tmp_path, capsys):
        make_inconsistent(config_tree)
        config_tree.write_text(
            config_tree.read_text().replace(
                "strict_validation: true", "strict_validation: false"
            )
        )
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 0
        assert "warning:" in capsys.readouterr().out
        assert (out / "persons.csv").exists()


class TestHouseholdsChild:
    """``run`` evolves the households stage in a forked child while it
    evolves and exports persons; what it prints and writes, and how it
    fails, are those of the stage run in-process."""

    def impossible_rules(self, config_tree, stage):
        """Rules that no draw of ``stage``'s first attribute satisfies."""
        when = "{sex: [m, f]}" if stage == "persons" else "{hsize: [s1, s2]}"
        (config_tree.parent / f"{stage}_rules.yaml").write_text(
            f"rules:\n  - name: nobody-allowed\n    when: {when}\n", encoding="utf-8"
        )
        if stage == "households":
            edit(config_tree, "  tables: [tables/size_comp.csv]\n",
                 "  tables: [tables/size_comp.csv]\n  rules: households_rules.yaml\n")
        else:
            edit(config_tree, "rules: person_rules.yaml", "rules: persons_rules.yaml")

    def test_households_progress_comes_after_the_persons_export(
        self, config_tree, tmp_path, capsys
    ):
        out, staged = tmp_path / "result", tmp_path / "staged"
        assert run_cli("run", "-c", config_tree, "--out-dir", out) == 0
        lines = mask_seconds(capsys.readouterr().out).splitlines()
        run_cli("generate-persons", "-c", config_tree, "--out-dir", staged, "--quiet")
        capsys.readouterr()
        run_cli("generate-households", "-c", config_tree, "--out-dir", staged)
        expected = [
            line for line in mask_seconds(capsys.readouterr().out).splitlines()
            if line.startswith("[households] gen ")
        ]
        assert [line.split()[2] for line in expected] == ["0", "1", "2"]
        exported = next(i for i, line in enumerate(lines) if line.startswith("persons: member "))
        archived = next(
            i for i, line in enumerate(lines) if line.startswith("households: archive size ")
        )
        assert lines[exported:archived][-len(expected):] == expected
        assert not any(line.startswith("[households]") for line in lines[:exported])
        assert_no_child()

    def test_a_households_failure_exits_2_after_the_persons_export(
        self, config_tree, tmp_path, capsys
    ):
        self.impossible_rules(config_tree, "households")
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert_no_child()
        assert sorted(p.name for p in out.iterdir()) == [
            "archive_persons.npz", "convergence_persons.csv", "pareto_persons.csv",
            "persons.csv", "rmse_persons.csv",
        ]
        # The same stage evolved in-process fails with the same message.
        code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 2
        assert err == capsys.readouterr().err
        assert err.startswith("evolution error: rejection sampling exhausted")

    def test_a_persons_failure_reaps_the_child(self, config_tree, tmp_path, capsys):
        self.impossible_rules(config_tree, "persons")
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 2
        assert capsys.readouterr().err.startswith("evolution error: rejection sampling exhausted")
        assert_no_child()
        assert list(out.iterdir()) == []

    def test_an_uncaught_persons_failure_reaps_the_child_first(
        self, config_tree, tmp_path, monkeypatch
    ):
        class Unexpected(Exception):
            pass

        def fail(*args, **kwargs):
            raise Unexpected

        monkeypatch.setattr(cli, "_export_persons", fail)
        out = tmp_path / "result"
        with pytest.raises(Unexpected):
            run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        assert_no_child()
        assert not any(p.name.endswith(("households.csv", "households.npz"))
                       for p in out.iterdir())

    def test_a_child_that_dies_without_a_result_is_named(
        self, config_tree, tmp_path, capsys, monkeypatch
    ):
        parent, evolve = os.getpid(), cli.evolve

        def dying(dataset, stage, *args, **kwargs):
            if stage == "households":
                assert os.getpid() != parent, "the households stage ran in the parent"
                os._exit(7)
            return evolve(dataset, stage, *args, **kwargs)

        monkeypatch.setattr(cli, "evolve", dying)
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 2
        assert capsys.readouterr().err == (
            "evolution error: the households stage's child process ended with exit status 7 "
            "without sending its result\n"
        )
        assert_no_child()
        assert (out / "persons.csv").exists()
        assert not (out / "households.csv").exists()


class TestStageCommands:
    def test_generate_persons_alone(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        assert run_cli("generate-persons", "-c", config_tree, "--out-dir", out) == 0
        assert (out / "persons.csv").exists()
        assert not (out / "households.csv").exists()
        assert "[persons] gen 0" in capsys.readouterr().out

    def test_generate_households_needs_persons(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 1
        assert "generate-persons" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_households_after_persons(self, config_tree, tmp_path):
        out = tmp_path / "result"
        run_cli("generate-persons", "-c", config_tree, "--out-dir", out, "--quiet")
        code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 0
        assert (out / "households.csv").exists()
        assert (out / "pareto_households.csv").exists()

    def test_generate_households_rejects_reordered_person_ids(
        self, config_tree, tmp_path, capsys
    ):
        out = tmp_path / "result"
        run_cli("generate-persons", "-c", config_tree, "--out-dir", out, "--quiet")
        path = out / "persons.csv"
        header, first, second, *rest = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text("".join([header, second, first, *rest]), encoding="utf-8")
        before = {p: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "persons.csv line 2: person_id '1'" in err[0]
        assert {p: p.read_bytes() for p in out.iterdir()} == before

    def test_generate_households_rejects_a_repeated_attribute(
        self, config_tree, tmp_path, capsys
    ):
        out = tmp_path / "result"
        run_cli("generate-persons", "-c", config_tree, "--out-dir", out, "--quiet")
        path = out / "persons.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        # A second copy of the first attribute's column, appended.
        path.write_text(
            "".join(f"{line},{line.split(',')[1]}\n" for line in lines), encoding="utf-8"
        )
        name = lines[0].split(",")[1]
        before = {p: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {path} line 1: attribute {name!r} appears more than once"
        ]
        assert {p: p.read_bytes() for p in out.iterdir()} == before

    def test_generate_households_names_an_unreadable_persons_csv(
        self, config_tree, tmp_path, capsys
    ):
        out = tmp_path / "result"
        (out / "persons.csv").mkdir(parents=True)
        code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot read persons file {out / 'persons.csv'}: Is a directory"]
        assert [p.name for p in out.rglob("*")] == ["persons.csv"]

    def test_generate_households_reads_a_bom_persons_csv(self, config_tree, tmp_path):
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        run_cli("generate-persons", "-c", config_tree, "--out-dir", plain, "--quiet")
        bom.mkdir()
        (bom / "persons.csv").write_bytes(b"\xef\xbb\xbf" + (plain / "persons.csv").read_bytes())
        for out in (plain, bom):
            code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
            assert code == 0
        assert (bom / "households.csv").read_bytes() == (plain / "households.csv").read_bytes()

    def test_stage_commands_write_what_run_writes(self, config_tree, tmp_path):
        staged, full = tmp_path / "staged", tmp_path / "full"
        run_cli("generate-persons", "-c", config_tree, "--out-dir", staged, "--quiet")
        run_cli("generate-households", "-c", config_tree, "--out-dir", staged, "--quiet")
        run_cli("run", "-c", config_tree, "--out-dir", full, "--quiet")
        names = ["persons.csv", "households.csv"] + [
            f"{kind}_{stage}.{'npz' if kind == 'archive' else 'csv'}"
            for stage in ("persons", "households")
            for kind in ("convergence", "pareto", "archive", "rmse")
        ]
        assert len(names) == 10
        for name in names:
            assert (staged / name).read_bytes() == (full / name).read_bytes(), name


def edit(path, old, new):
    """Replace ``old`` by ``new`` in a config tree file, which must hold it."""
    text = path.read_text(encoding="utf-8")
    assert old in text, (path, old)
    path.write_text(text.replace(old, new), encoding="utf-8")


class TestInputChecks:
    """Inputs a stage would reject only after earlier stages wrote their
    files fail every command before anything is written."""

    def write_rules(self, config_tree, stage, when):
        name = f"{stage}_rules.yaml"
        (config_tree.parent / name).write_text(
            f"rules:\n  - name: stray\n    when: {when}\n", encoding="utf-8"
        )
        if stage == "households":
            edit(config_tree, "  tables: [tables/size_comp.csv]\n",
                 "  tables: [tables/size_comp.csv]\n  rules: households_rules.yaml\n")
        else:
            edit(config_tree, "rules: person_rules.yaml", f"rules: {name}")
        return name

    @pytest.mark.parametrize(
        "stage, when, attribute, layout",
        [
            ("persons", "{age: [a0_17], composition: ['1A']}", "composition",
             "['sex', 'age', 'marital']"),
            ("households", "{hsize: [s1], marital: [single]}", "marital",
             "['hsize', 'composition']"),
        ],
        ids=["persons", "households"],
    )
    def test_a_rule_outside_its_stage_layout_fails_before_any_write(
        self, config_tree, tmp_path, capsys, stage, when, attribute, layout
    ):
        name = self.write_rules(config_tree, stage, when)
        expected = (
            f"error: rules file {config_tree.parent / name}: rule 'stray' references "
            f"attribute {attribute!r}, which is not in the {stage} layout {layout}\n"
        )
        assert run_cli("validate-data", "-c", config_tree) == 1
        captured = capsys.readouterr()
        assert "all consistency checks passed" not in captured.out
        assert captured.err == expected
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 1
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_an_oversized_rule_fails_before_any_write(self, config_tree, tmp_path, capsys):
        # Two schema attributes of 4,097 categories: one row of 4,097 joint
        # cells past 2**24.
        categories = ", ".join(f"w{k}" for k in range(4097))
        with open(config_tree.parent / "schema.yaml", "a", encoding="utf-8") as schema:
            for name in ("wide0", "wide1"):
                schema.write(f"  - name: {name}\n    categories: [{categories}]\n")
        name = self.write_rules(config_tree, "persons", "{wide0: [w0], wide1: [w1]}")
        expected = (
            f"error: rules file {config_tree.parent / name}: rule 'stray': attributes "
            "wide0, wide1 have 16,785,409 joint cells; a rule's attributes may have at "
            "most 16,777,216 (2**24)\n"
        )
        assert run_cli("validate-data", "-c", config_tree) == 1
        assert capsys.readouterr().err == expected
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 1
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def break_age_table(self, config_tree):
        (config_tree.parent / "tables" / "sex.csv").write_text(
            "sex,count\nm,53\nf,47\n", encoding="utf-8"
        )
        edit(config_tree, "  rules: person_rules.yaml\n", "")
        edit(config_tree, "[tables/sex_age.csv, tables/age_marital.csv]", "[tables/sex.csv]")
        edit(config_tree, """    - {name: sex_fit, table: sex_age, attribute: sex}
    - {name: age_fit, table: sex_age, attribute: age}
    - {name: marital_fit, table: age_marital, attribute: marital}
""", "    - {name: sex_fit, table: sex, attribute: sex}\n")

    def break_composition_table(self, config_tree):
        (config_tree.parent / "tables" / "size.csv").write_text(
            "hsize,count\ns1,4\ns2,6\n", encoding="utf-8"
        )
        edit(config_tree, "[tables/size_comp.csv]", "[tables/size.csv]")
        edit(config_tree, """    - {name: size_fit, table: size_comp, attribute: hsize}
    - {name: comp_fit, table: size_comp, attribute: composition}
""", "    - {name: size_fit, table: size, attribute: hsize}\n")

    def ungroup_an_age_bin(self, config_tree):
        edit(config_tree.parent / "schema.yaml", "a65p: el}", "a65p: old}")

    def add_an_unparsed_composition(self, config_tree):
        edit(config_tree.parent / "schema.yaml", '"2A"]', '"2A", "2A pets"]')

    @pytest.mark.parametrize(
        "mistake, message",
        [
            (break_age_table, "error: allocation needs the persons attribute 'age', "
                              "but the persons tables give ['sex']\n"),
            (break_composition_table, "error: allocation needs the households attribute "
                                      "'composition', but the households tables give "
                                      "['hsize']\n"),
            (ungroup_an_age_bin, "error: age bin 'a65p' lacks a child/adult/elder grouping, "
                                 "so persons cannot be classified for allocation\n"),
            (add_an_unparsed_composition, "error: malformed composition token 'pets' in "
                                          "'2A pets'\n"),
        ],
        ids=["no-age", "no-composition", "ungrouped-age", "unparsed-composition"],
    )
    def test_missing_allocation_input_fails_before_any_write(
        self, config_tree, tmp_path, capsys, mistake, message
    ):
        mistake(self, config_tree)
        assert run_cli("validate-data", "-c", config_tree) == 1
        captured = capsys.readouterr()
        assert "all consistency checks passed" not in captured.out
        assert captured.err == message
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 1
        assert capsys.readouterr().err == message
        assert not out.exists()
        # generate-households reads persons.csv first; it must add nothing.
        out.mkdir()
        (out / "persons.csv").write_text("person_id,sex\n0,m\n", encoding="utf-8")
        code = run_cli("generate-households", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 1
        assert capsys.readouterr().err == message
        assert [p.name for p in out.iterdir()] == ["persons.csv"]

    def test_a_persons_only_config_needs_no_allocation_input(self, config_tree, tmp_path):
        self.break_age_table(config_tree)
        text = config_tree.read_text(encoding="utf-8")
        config_tree.write_text(text[: text.index("households:")], encoding="utf-8")
        assert run_cli("validate-data", "-c", config_tree) == 0
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 0


class TestNonUtf8Inputs:
    @pytest.mark.parametrize(
        "name",
        ["config.yaml", "schema.yaml", "person_rules.yaml", "tables/sex_age.csv", "persons.csv"],
    )
    def test_a_latin_1_byte_is_named_and_nothing_is_written(
        self, config_tree, tmp_path, capsys, name
    ):
        out = tmp_path / "out"
        if name == "persons.csv":
            run_cli("generate-persons", "-c", config_tree, "--out-dir", out, "--quiet")
            path, command = out / name, ("generate-households", "--out-dir", out, "--quiet")
        else:
            path, command = tmp_path / name, ("validate-data",)
        # The first "a" becomes Latin-1's "\u00e1", one byte that UTF-8 cannot decode.
        path.write_bytes(path.read_bytes().replace(b"a", "\u00e1".encode("latin-1"), 1))
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        capsys.readouterr()
        assert run_cli(command[0], "-c", config_tree, *command[1:]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"{path.name} is not UTF-8 text: cannot decode byte 0xe1" in err[0]
        assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before


class TestEncoding:
    def test_outputs_do_not_depend_on_the_locale(self, config_tree, tmp_path):
        # A label, an attribute and a region that ASCII cannot encode; the
        # attribute's name is printed on its rmse line unless --quiet.
        for path in (config_tree.parent / "schema.yaml",
                     config_tree.parent / "tables" / "age_marital.csv",
                     config_tree.parent / "person_rules.yaml"):
            edit(path, "married", "mari\u00e9")
            edit(path, "marital", "mar\u00eftal")
        edit(config_tree, "attribute: marital}", "attribute: mar\u00eftal}")
        edit(config_tree, "region: test-region", "region: test-r\u00e9gion")
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        default = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        ascii_locale = dict(default, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        outs = []
        for quiet in (True, False):
            for env in (default, ascii_locale):
                out = tmp_path / f"out{len(outs)}"
                result = subprocess.run(
                    [sys.executable, "-m", "synthpop.cli", "run", "-c", str(config_tree),
                     "--out-dir", str(out), *(["--quiet"] if quiet else [])],
                    env=env, capture_output=True, text=True, encoding="utf-8",
                    errors="replace", check=False,
                )
                assert result.returncode == 0, result.stderr
                printed = "  rmse age_marital/mar\u00eftal (category)" in result.stdout
                assert printed != quiet
                outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "timings.csv")
        assert len(names) == 11
        assert "mari\u00e9" in (outs[0] / "persons.csv").read_text(encoding="utf-8")
        for out in outs[1:]:
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), name


def _bundle_made_a_directory(bundle):
    bundle.unlink()
    bundle.mkdir()


def _respoiled_bundle(tamper):
    """A spoiler that rewrites a bundle's arrays after ``tamper``."""
    def spoil(bundle):
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        tamper(arrays)
        np.savez_compressed(bundle, **arrays)
    return spoil


def _unknown_first_attribute(arrays):
    arrays["attribute_names"][0] = f"{arrays['attribute_names'][0]}z"


class TestReport:
    def test_reexports_saved_populations(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        names = (
            "persons.csv",
            "households.csv",
            "pareto_persons.csv",
            "rmse_persons.csv",
            "pareto_households.csv",
            "rmse_households.csv",
        )
        saved = {name: (out / name).read_bytes() for name in names}
        for name in names:
            (out / name).unlink()
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 0
        for name in names:
            assert (out / name).read_bytes() == saved[name]
        printed = capsys.readouterr().out
        for stage in ("persons", "households"):
            assert re.search(rf"^{stage}: member \d+ of \d+ exported", printed, re.MULTILINE)

    def test_report_quiet_omits_rmse_lines(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 0
        assert "  rmse " in capsys.readouterr().out
        assert run_cli("report", "-c", config_tree, "--out-dir", out, "--quiet") == 0
        assert "rmse" not in capsys.readouterr().out

    def test_report_without_archives(self, config_tree, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        assert "run the pipeline first" in capsys.readouterr().err

    def test_report_rejects_a_tampered_archive(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        # The households bundle is read after the persons one: its check
        # must still come before persons.csv is rewritten.
        bundle = out / "archive_households.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        # composition has 3 categories; 3 is the first code past them.
        arrays["roster"][0, 1] = 3
        np.savez_compressed(bundle, **arrays)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "roster holds code 3 for 'composition', at or above its 3 categories" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda data: data, "has no objectives array"),
            (lambda data: bytes(range(256)) * 4, "is not a readable archive bundle"),
            (lambda data: data[: len(data) // 2], "is not a readable archive bundle"),
        ],
        ids=["no-objectives", "garbage", "first-half"],
    )
    def test_report_names_an_unreadable_bundle(
        self, config_tree, tmp_path, capsys, spoil, message
    ):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        bundle = out / "archive_persons.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files if key != "objectives"}
        np.savez_compressed(bundle, **arrays)
        bundle.write_bytes(spoil(bundle.read_bytes()))
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"archive_persons.npz {message}" in err[0]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved

    @pytest.mark.parametrize("stage", ["persons", "households"])
    @pytest.mark.parametrize(
        "spoil, message",
        [
            (_bundle_made_a_directory, "cannot read archive bundle .*archive_{stage}.npz: "),
            (_respoiled_bundle(_unknown_first_attribute),
             "archive_{stage}.npz: attribute_names: schema has no attribute named '.*z'"),
            (_respoiled_bundle(lambda a: a.update(objective_names=a["objective_names"][0])),
             r"archive_{stage}.npz: objective_names must be a list of names, got shape \(\)"),
            (_respoiled_bundle(lambda a: a.update(attribute_names=a["attribute_names"][0])),
             r"archive_{stage}.npz: attribute_names must be a list of names, got shape \(\)"),
        ],
        ids=["directory", "unknown-attribute", "scalar-objective-names",
             "scalar-attribute-names"],
    )
    def test_report_names_a_bundle_it_cannot_use(
        self, config_tree, tmp_path, capsys, stage, spoil, message
    ):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        spoil(out / f"archive_{stage}.npz")
        saved = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert re.search(message.format(stage=stage), err[0]), err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == saved

    def test_report_rejects_a_bundle_of_another_layout(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        bundle = out / "archive_households.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        # Reversed with its roster's columns, the bundle still holds every
        # code inside its attribute.
        layout = [str(name) for name in arrays["attribute_names"]]
        assert layout == ["hsize", "composition"]
        arrays["attribute_names"] = arrays["attribute_names"][::-1]
        arrays["roster"] = arrays["roster"][:, ::-1]
        np.savez_compressed(bundle, **arrays)
        (out / "persons.csv").unlink()
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "['composition', 'hsize']" in err and "['hsize', 'composition']" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved

    def test_report_rejects_a_palette_of_codes(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        bundle = out / "archive_persons.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        # Bundles held every member's rows as palettes of codes before they
        # held only the exported roster.
        slots = len(arrays.pop("roster"))
        del arrays["selected"]
        arrays["palette"] = np.zeros((slots, 3), dtype=np.uint8)
        arrays["member_rows"] = np.zeros((slots, len(arrays["objectives"])), dtype=np.uint8)
        np.savez_compressed(bundle, **arrays)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert err[0].endswith(
            "archive_persons.npz has no roster array (written by an older version?); "
            "re-run `synthpop run`"
        )
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved

    def test_report_rejects_text_objectives(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        bundle = out / "archive_persons.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        arrays["objectives"] = arrays["objectives"].astype(str)
        arrays["objectives"][0, 0] = "abc"
        np.savez_compressed(bundle, **arrays)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "objectives must be finite floats" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved

    def test_report_rejects_a_rewritten_objective(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        stage = json.loads((out / "manifest.json").read_text())["stages"]["persons"]
        chosen = stage["result"]["selected_member"]
        bundle = out / "archive_persons.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        # Lowering the exported member's first objective keeps it selected.
        objectives = arrays["objectives"]
        objectives[chosen, 0] = np.nextafter(objectives[chosen, 0], -np.inf)
        np.savez_compressed(bundle, **arrays)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 2
        err = capsys.readouterr().err
        name = stage["objectives"][0]["name"]
        assert err.startswith(f"evolution error: persons archive member {chosen} scores")
        assert f"on {name!r}" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved

    @pytest.mark.parametrize("stage", ["persons", "households"])
    def test_weights_that_select_another_member_fail_before_any_write(
        self, config_tree, tmp_path, capsys, stage
    ):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        with np.load(out / f"archive_{stage}.npz") as bundle:
            objectives, selected = bundle["objectives"], int(bundle["selected"])
        # The members are mutually non-dominated, so each other member beats
        # the saved one on some objective, and that objective's weight alone
        # selects another member.
        assert len(objectives) > 1
        column = next(k for k in range(objectives.shape[1])
                      if int(np.argmin(objectives[:, k])) != selected)
        chosen = int(np.argmin(objectives[:, column]))
        specs = json.loads((out / "manifest.json").read_text())["stages"][stage]["objectives"]
        text = config_tree.read_text()
        for k, spec in enumerate(specs):
            line = (f"    - {{name: {spec['name']}, table: {spec['table']}, "
                    f"attribute: {spec['attribute']}}}\n")
            assert line in text
            text = text.replace(line, line.replace("}", f", weight: {int(k == column)}}}"))
        copy = config_tree.with_name("weights.yaml")
        copy.write_text(text)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", copy, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: saved archive archive_{stage}.npz holds the roster of member {selected}, "
            f"but the configured weights select member {chosen}; re-run `synthpop run`"
        ]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved

    @pytest.mark.parametrize(
        "objective",
        [
            "    - {name: marital_fit, table: age_marital, attribute: marital}\n",
            "    - {name: comp_fit, table: size_comp, attribute: composition}\n",
        ],
        ids=["persons", "households"],
    )
    def test_changed_objectives_fail_before_any_write(
        self, config_tree, tmp_path, capsys, objective
    ):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        text = config_tree.read_text()
        assert objective in text
        config_tree.write_text(text.replace(objective, ""))
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tracks objectives" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == saved


class TestExitCodes:
    def test_invalid_override_names_its_stage(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        code = run_cli("run", "-c", config_tree, "--out-dir", out, "--population-size", 3)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: stage 'persons': population size must be an even number of at least 2\n"
        )
        assert not out.exists()

    def test_missing_table_is_a_config_error(self, config_tree, capsys):
        (config_tree.parent / "tables" / "sex_age.csv").unlink()
        assert run_cli("run", "-c", config_tree, "--quiet") == 1
        assert "error:" in capsys.readouterr().err

    def test_mistyped_config_value_is_a_config_error(self, config_tree, capsys):
        config_tree.write_text(config_tree.read_text().replace("seed: 7", "seed: abc"))
        assert run_cli("validate-data", "-c", config_tree) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("{name: size_fit, table: size_comp,", "{name: size_fit, table: age_marital,"),
            ("{name: size_fit, table: size_comp,", "{name: size_fit, table: no_such_table,"),
            ("{name: comp_fit,", "{name: size_fit,"),
            ("table: size_comp, attribute: hsize}", "table: size_comp, attribute: marital}"),
        ],
        ids=["other-stage-table", "unknown-table", "duplicate-name", "attribute-not-an-axis"],
    )
    def test_objective_mistake_fails_before_any_write(
        self, config_tree, tmp_path, capsys, old, new
    ):
        config_tree.write_text(config_tree.read_text().replace(old, new))
        out = tmp_path / "result"
        assert run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'households'") and "size_fit" in err
        assert not out.exists()

    def test_impossible_rules_are_an_evolution_error(self, config_tree, tmp_path, capsys):
        rules = config_tree.parent / "person_rules.yaml"
        rules.write_text(
            "rules:\n"
            "  - name: nobody-allowed\n"
            "    when:\n"
            "      sex: [m, f]\n"
        )
        out = tmp_path / "result"
        code = run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        assert code == 2
        assert "evolution error:" in capsys.readouterr().err
