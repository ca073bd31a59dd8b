"""Command line entry points for building synthetic populations.

Subcommands:

* ``validate-data``: check table consistency against the configured
  tolerance and print one line per check.
* ``generate-persons``: evolve the person stage and export its outputs.
* ``generate-households``: evolve the household stage, allocate persons
  from an existing persons export, and export household outputs.
* ``run``: full pipeline (both stages, allocation, manifest).
* ``report``: re-export populations from the archives a previous run
  saved, without re-running evolution.

Exit codes: 0 success, 1 configuration or data problem, 2 evolution
failure, 3 filesystem problem.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .census_data import HOUSEHOLDS, PERSONS, RegionDataset, validate_dataset
from .config import RunConfig, StageConfig, load_dataset, load_run_config, load_stage_rules
from .errors import DataError, EvolutionError
from .fitness import normalize_objectives
from .household_synthesis import allocate, generate_households
from .nsga2 import ParetoArchive, evolve
from .population_model import CandidatePopulation, CompiledRules, ValidationRule
from .reporting import (
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

_FORMAT = "{:.10g}"


class _Progress:
    """Prints one line per generation with a running elapsed clock."""

    def __init__(self) -> None:
        self.elapsed = 0.0

    def __call__(self, stage: str, generation: int, best: np.ndarray, seconds: float) -> None:
        self.elapsed += seconds
        values = " ".join(_FORMAT.format(v) for v in best)
        print(
            f"[{stage}] gen {generation} best {values} elapsed {self.elapsed:.1f}s",
            flush=True,
        )


def _validate(config: RunConfig, dataset: RegionDataset) -> None:
    report = validate_dataset(dataset, tolerance=config.validation_tolerance)
    for line, issue in zip(report.lines(), report.issues):
        if issue.flagged:
            print(line)
    if report.flagged:
        message = (
            f"input tables exceed the {config.validation_tolerance:.2%} consistency tolerance"
        )
        if config.strict_validation:
            raise DataError(message)
        print(f"warning: {message}, continuing (strict_validation is off)")


def _assert_rule_free(
    candidate: CandidatePopulation, rules: tuple[ValidationRule, ...], stage: str
) -> None:
    if not rules:
        return
    compiled = CompiledRules(rules, candidate.attributes)
    violations = int(compiled.violation_mask(candidate.codes).sum())
    if violations:
        raise EvolutionError(
            f"{stage} export would contain {violations} validation-rule violations"
        )


def _run_stage(
    stage_config: StageConfig,
    dataset: RegionDataset,
    rules: tuple[ValidationRule, ...],
    *,
    quiet: bool,
) -> tuple[ParetoArchive, object, float]:
    progress = None if quiet else _Progress()
    started = time.perf_counter()
    if stage_config.stage == HOUSEHOLDS:
        archive, history = generate_households(
            dataset, stage_config.objectives, stage_config.evolution, rules,
            progress=progress,
        )
    else:
        archive, history = evolve(
            dataset, stage_config.objectives, stage_config.evolution, rules,
            progress=progress,
        )
    return archive, history, time.perf_counter() - started


def _select_and_summarize(
    stage_config: StageConfig,
    dataset: RegionDataset,
    archive: ParetoArchive,
) -> tuple[CandidatePopulation, int, dict]:
    """Pick the exported member and describe the choice for the manifest."""
    names = [spec.name for spec in stage_config.objectives]
    chosen = select_best(archive, [spec.weight for spec in stage_config.objectives])
    candidate = archive.members[chosen].candidate
    matrix = archive.objective_matrix()
    normalized = normalize_objectives(matrix)
    summary = {
        "selected_member": chosen,
        "archive_size": len(archive.members),
        "final_objectives": {
            name: {
                "raw": float(matrix[chosen, i]),
                "normalized": float(normalized[chosen, i]),
            }
            for i, name in enumerate(names)
        },
        "rmse": [
            {"table": r.table, "attribute": r.attribute, "level": r.level, "value": r.value}
            for r in rmse_rows(candidate, dataset.stage_tables(stage_config.stage))
        ],
    }
    return candidate, chosen, summary


def _export_stage(
    out_dir: Path,
    stage_config: StageConfig,
    dataset: RegionDataset,
    archive: ParetoArchive,
    history,
    chosen: int,
    candidate: CandidatePopulation,
) -> list[str]:
    names = [spec.name for spec in stage_config.objectives]
    stage = stage_config.stage
    written = []

    convergence = out_dir / f"convergence_{stage}.csv"
    export_convergence(convergence, history, names)
    written.append(convergence.name)

    pareto = out_dir / f"pareto_{stage}.csv"
    export_pareto_pairs(pareto, archive, names, chosen)
    written.append(pareto.name)

    bundle = out_dir / f"archive_{stage}.npz"
    save_archive(bundle, archive, names)
    written.append(bundle.name)

    rmse = out_dir / f"rmse_{stage}.csv"
    export_rmse(rmse, rmse_rows(candidate, dataset.stage_tables(stage)))
    written.append(rmse.name)
    return written


def _stage_manifest(stage_config: StageConfig, summary: dict | None) -> dict:
    entry = {
        "target_count": stage_config.target_count,
        "rules": stage_config.rules_path.name if stage_config.rules_path else None,
        "objectives": [
            {
                "name": spec.name,
                "table": spec.table,
                "attribute": spec.attribute,
                "metric": spec.metric,
                "weight": spec.weight,
            }
            for spec in stage_config.objectives
        ],
        "evolution": asdict(stage_config.evolution),
    }
    if summary is not None:
        entry["result"] = summary
    return entry


def _build_manifest(config: RunConfig, summaries: dict, outputs: list[str]) -> dict:
    tables = {}
    for stage in (config.persons, config.households):
        if stage is None:
            continue
        for path in stage.table_paths:
            tables[path.stem] = {"file": path.name, "sha256": file_checksum(path)}
    inputs = {
        "config": {"file": config.config_path.name, "sha256": file_checksum(config.config_path)},
        "schema": {"file": config.schema_path.name, "sha256": file_checksum(config.schema_path)},
        "tables": tables,
        "rules": {
            stage.stage: {"file": stage.rules_path.name, "sha256": file_checksum(stage.rules_path)}
            for stage in (config.persons, config.households)
            if stage is not None and stage.rules_path is not None
        },
    }
    stages = {PERSONS: _stage_manifest(config.persons, summaries.get(PERSONS))}
    if config.households is not None:
        stages[HOUSEHOLDS] = _stage_manifest(config.households, summaries.get(HOUSEHOLDS))
    return {
        "tool": {"name": "synthpop", "version": __version__},
        "region": config.region,
        "seed": config.seed,
        "validation_tolerance": config.validation_tolerance,
        "strict_validation": config.strict_validation,
        "inputs": inputs,
        "stages": stages,
        "outputs": sorted(outputs),
    }


def _cmd_validate_data(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset = load_dataset(config)
    report = validate_dataset(dataset, tolerance=config.validation_tolerance)
    for line in report.lines():
        print(line)
    if report.flagged:
        print(f"{sum(1 for i in report.issues if i.flagged)} check(s) failed")
        return 1
    print("all consistency checks passed")
    return 0


def _cmd_generate_persons(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset = load_dataset(config)
    rules = load_stage_rules(config, dataset.schema)
    _validate(config, dataset)
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    archive, history, wall = _run_stage(config.persons, dataset, rules[PERSONS], quiet=args.quiet)
    candidate, chosen, _ = _select_and_summarize(config.persons, dataset, archive)
    _assert_rule_free(candidate, rules[PERSONS], PERSONS)
    _export_stage(out_dir, config.persons, dataset, archive, history, chosen, candidate)
    export_persons(out_dir / "persons.csv", candidate)
    print(f"persons: {len(candidate)} exported, archive size {len(archive.members)},"
          f" {wall:.1f}s")
    return 0


def _cmd_generate_households(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.households is None:
        raise DataError("config has no households section")
    dataset = load_dataset(config)
    rules = load_stage_rules(config, dataset.schema)
    _validate(config, dataset)
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    persons_path = out_dir / "persons.csv"
    if not persons_path.exists():
        raise DataError(
            f"{persons_path} not found; run generate-persons (or run) first"
        )
    persons = load_persons(persons_path, dataset.schema)

    archive, history, wall = _run_stage(
        config.households, dataset, rules[HOUSEHOLDS], quiet=args.quiet
    )
    candidate, chosen, _ = _select_and_summarize(config.households, dataset, archive)
    _assert_rule_free(candidate, rules[HOUSEHOLDS], HOUSEHOLDS)
    _export_stage(out_dir, config.households, dataset, archive, history, chosen, candidate)
    result = allocate(persons, candidate, dataset.schema)
    export_households(out_dir / "households.csv", result.households)
    print(f"households: {len(result.households)} exported,"
          f" complete rate {result.complete_rate:.1%},"
          f" unallocated persons {len(result.unallocated)}, {wall:.1f}s")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset = load_dataset(config)
    rules = load_stage_rules(config, dataset.schema)
    _validate(config, dataset)
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    summaries: dict = {}
    timings: list[tuple[str, float]] = []
    total_started = time.perf_counter()

    archive, history, wall = _run_stage(config.persons, dataset, rules[PERSONS], quiet=args.quiet)
    timings.append(("persons_evolve", wall))
    persons, chosen, summary = _select_and_summarize(config.persons, dataset, archive)
    summaries[PERSONS] = summary
    _assert_rule_free(persons, rules[PERSONS], PERSONS)
    outputs.extend(
        _export_stage(out_dir, config.persons, dataset, archive, history, chosen, persons)
    )
    export_persons(out_dir / "persons.csv", persons)
    outputs.append("persons.csv")
    print(f"persons: {len(persons)} exported, archive size {len(archive.members)}, {wall:.1f}s")

    if config.households is not None:
        archive, history, wall = _run_stage(
            config.households, dataset, rules[HOUSEHOLDS], quiet=args.quiet
        )
        timings.append(("households_evolve", wall))
        households, chosen, summary = _select_and_summarize(config.households, dataset, archive)
        summaries[HOUSEHOLDS] = summary
        _assert_rule_free(households, rules[HOUSEHOLDS], HOUSEHOLDS)
        outputs.extend(
            _export_stage(
                out_dir, config.households, dataset, archive, history, chosen, households
            )
        )
        allocation_started = time.perf_counter()
        result = allocate(persons, households, dataset.schema)
        timings.append(("allocation", time.perf_counter() - allocation_started))
        export_households(out_dir / "households.csv", result.households)
        outputs.append("households.csv")
        print(f"households: {len(result.households)} exported,"
              f" complete rate {result.complete_rate:.1%},"
              f" unallocated persons {len(result.unallocated)}, {wall:.1f}s")

    outputs.append("manifest.json")
    write_manifest(out_dir / "manifest.json", _build_manifest(config, summaries, outputs))
    timings.append(("total", time.perf_counter() - total_started))
    export_timings(out_dir / "timings.csv", timings)
    print(f"outputs written to {out_dir}")
    return 0


def _restore_archive(path: Path, schema, expected_names: list[str]) -> ParetoArchive:
    """Rebuild a Pareto archive from a saved bundle that must track the
    configured objectives, in order."""
    if not path.exists():
        raise DataError(f"{path} not found; run the pipeline first")
    members, objectives, names = load_archive(path, schema)
    if names != expected_names:
        raise DataError(
            f"saved archive {path.name} tracks objectives {names}, config expects {expected_names}"
        )
    return ParetoArchive.restore(zip(members, objectives))


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset = load_dataset(config)
    rules = load_stage_rules(config, dataset.schema)
    out_dir = config.output_dir

    # Both bundles are restored and checked before any file is rewritten.
    person_names = [spec.name for spec in config.persons.objectives]
    archive = _restore_archive(out_dir / "archive_persons.npz", dataset.schema, person_names)
    household_bundle = out_dir / "archive_households.npz"
    household_archive = None
    if config.households is not None and household_bundle.exists():
        household_names = [spec.name for spec in config.households.objectives]
        household_archive = _restore_archive(household_bundle, dataset.schema, household_names)

    persons, chosen, summary = _select_and_summarize(config.persons, dataset, archive)
    _assert_rule_free(persons, rules[PERSONS], PERSONS)
    export_persons(out_dir / "persons.csv", persons)
    export_pareto_pairs(out_dir / "pareto_persons.csv", archive, person_names, chosen)
    export_rmse(out_dir / "rmse_persons.csv", rmse_rows(persons, dataset.person_tables))
    print(f"persons: member {chosen} of {len(archive.members)} re-exported")
    for row in summary["rmse"]:
        print(f"  rmse {row['table']}/{row['attribute']} ({row['level']}): {row['value']:.3f}")

    if household_archive is not None:
        households, chosen, _ = _select_and_summarize(
            config.households, dataset, household_archive
        )
        _assert_rule_free(households, rules[HOUSEHOLDS], HOUSEHOLDS)
        result = allocate(persons, households, dataset.schema)
        export_households(out_dir / "households.csv", result.households)
        export_pareto_pairs(
            out_dir / "pareto_households.csv", household_archive, household_names, chosen
        )
        export_rmse(
            out_dir / "rmse_households.csv", rmse_rows(households, dataset.household_tables)
        )
        print(f"households: member {chosen} of {len(household_archive.members)} re-exported,"
              f" complete rate {result.complete_rate:.1%}")
    return 0


def _load_config(args: argparse.Namespace) -> RunConfig:
    return load_run_config(
        args.config,
        seed=args.seed,
        generations=args.generations,
        population_size=args.population_size,
        output_dir=args.out_dir,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="run configuration YAML")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--generations", type=int, default=None,
                        help="override generations for every stage")
    parser.add_argument("--population-size", type=int, default=None,
                        help="override population size for every stage")
    parser.add_argument("--out-dir", default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-generation progress lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthpop",
        description="evolve synthetic populations against census contingency tables",
    )
    parser.add_argument("--version", action="version", version=f"synthpop {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, text in (
        ("validate-data", _cmd_validate_data, "check input table consistency"),
        ("generate-persons", _cmd_generate_persons, "evolve and export the person stage"),
        ("generate-households", _cmd_generate_households,
         "evolve households and allocate persons into them"),
        ("run", _cmd_run, "full pipeline: persons, households, allocation, manifest"),
        ("report", _cmd_report, "re-export populations from saved archives"),
    ):
        sub = commands.add_parser(name, help=text)
        _add_common(sub)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvolutionError as exc:
        print(f"evolution error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
