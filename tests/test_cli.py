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

from synthpop import file_checksum
from synthpop.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


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
        assert "age_marital.csv: header names axis 'marital' twice" in captured.err

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
        # The households bundle is read after the persons one, and members
        # decode lazily: its check must still come before persons.csv is
        # rewritten.
        bundle = out / "archive_households.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        # hsize and composition have 2 * 3 = 6 joint cells; 6 is the first
        # cell past them.
        arrays["palette_cells"][0, 0] = 6
        np.savez_compressed(bundle, **arrays)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "palette_cells holds cell 6" in err
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

    def test_report_rejects_a_bundle_of_another_layout(self, config_tree, tmp_path, capsys):
        out = tmp_path / "result"
        run_cli("run", "-c", config_tree, "--out-dir", out, "--quiet")
        bundle = out / "archive_households.npz"
        with np.load(bundle) as saved:
            arrays = {key: saved[key] for key in saved.files}
        # Reversed, hsize and composition still have 2 * 3 = 6 joint cells,
        # so every cell of the bundle still decodes.
        layout = [str(name) for name in arrays["attribute_names"]]
        assert layout == ["hsize", "composition"]
        arrays["attribute_names"] = arrays["attribute_names"][::-1]
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
        # Bundles held palette[row, attribute] codes before joint cells.
        planes = arrays.pop("palette_cells")
        arrays["palette"] = np.zeros((planes.shape[1], 3), dtype=np.uint8)
        np.savez_compressed(bundle, **arrays)
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("report", "-c", config_tree, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "no palette_cells array (written by an older version?)" in err
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
