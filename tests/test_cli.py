"""End-to-end tests of the command line interface on a small config tree."""

import csv
import json
import re

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
