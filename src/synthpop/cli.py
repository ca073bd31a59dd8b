"""Command line entry points for building synthetic populations.

Subcommands:

* ``validate-data``: load the rules, check that each names only its
  stage's attributes and that allocation finds its inputs, check table
  consistency against the configured tolerance and print one line per
  check.
* ``generate-persons``: evolve the person stage and export its outputs.
* ``generate-households``: evolve the household stage, allocate persons
  from an existing persons export, and export household outputs.
* ``run``: full pipeline (both stages, allocation, manifest).
* ``report``: re-export populations from the archives a previous run
  saved, without re-running evolution.

Every command exports a stage the same way: evolving saves the stage's
archive bundle, and exporting reads that bundle back, so ``run`` and
``report`` write their CSVs from the same bytes.

Exit codes: 0 success, 1 configuration or data problem, 2 evolution
failure, 3 filesystem problem.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from collections.abc import Sequence
from dataclasses import asdict

import numpy as np

from . import __version__
from .census_data import HOUSEHOLDS, PERSONS, RegionDataset, validate_dataset
from .config import RunConfig, StageConfig, load_dataset, load_run_config, load_stage_rules
from .errors import DataError, EvolutionError
from .fitness import ObjectiveEvaluator, normalize_objectives
from .household_synthesis import allocate, check_allocation_inputs
from .nsga2 import evolve
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


def _load_inputs(config: RunConfig) -> tuple[RegionDataset, dict[str, tuple[ValidationRule, ...]]]:
    """Load the tables and rules, and check before any stage runs that each
    rule names only its stage's attributes and, when a households stage is
    configured, that allocation finds its inputs."""
    dataset = load_dataset(config)
    rules = load_stage_rules(config, dataset.schema)
    for stage in filter(None, (config.persons, config.households)):
        layout = dataset.stage_attributes(stage.stage)
        for rule in rules[stage.stage]:
            outside = [name for name, _ in rule.clauses if name not in layout]
            if outside:
                raise DataError(
                    f"rules file {stage.rules_path}: rule {rule.name!r} references attribute "
                    f"{outside[0]!r}, which is not in the {stage.stage} layout {list(layout)}"
                )
    if config.households is not None:
        check_allocation_inputs(dataset)
    return dataset, rules


def _prepare(config: RunConfig) -> tuple[RegionDataset, dict[str, tuple[ValidationRule, ...]]]:
    """Load and check the inputs and the tables' consistency, and create the
    output directory: the set-up every evolving command shares."""
    dataset, rules = _load_inputs(config)
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
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return dataset, rules


def _evolve_stage(
    config: RunConfig, stage_config: StageConfig, dataset: RegionDataset, rules: dict,
    *, quiet: bool,
) -> tuple[tuple[np.ndarray, Sequence[CandidatePopulation]], float]:
    """Evolve one stage, write its convergence trace and archive bundle,
    and read the bundle back for the stage's export.

    Returns the bundle as :func:`_load_stage_archive` gives it and the
    evolution's wall-clock seconds.
    """
    stage = stage_config.stage
    started = time.perf_counter()
    archive, history = evolve(
        dataset, stage, stage_config.objectives, stage_config.evolution, rules[stage],
        progress=None if quiet else _Progress(),
    )
    wall = time.perf_counter() - started
    export_convergence(config.output_dir / f"convergence_{stage}.csv", history)
    save_archive(config.output_dir / f"archive_{stage}.npz", archive, history.names)
    print(f"{stage}: archive size {len(archive)}, {wall:.1f}s")
    return _load_stage_archive(config, dataset, stage_config), wall


def _export_stage(
    config: RunConfig, stage_config: StageConfig, dataset: RegionDataset, rules: dict,
    bundle: tuple[np.ndarray, Sequence[CandidatePopulation]],
) -> tuple[CandidatePopulation, dict]:
    """Select the exported member from the bundle's objective matrix,
    re-score it and check it against the rules, and write the stage's
    Pareto and RMSE files. Only the selected member is read from the
    bundle's members.

    Returns the member and its manifest summary. Nothing is written when
    the member's fresh scores differ from the bundle's row or when it
    breaks a rule.
    """
    stage = stage_config.stage
    objectives, members = bundle
    names = [spec.name for spec in stage_config.objectives]
    chosen = select_best(objectives, [spec.weight for spec in stage_config.objectives])
    candidate = members[chosen]
    evaluator = ObjectiveEvaluator(
        dataset, stage_config.objectives, len(candidate), candidate.attributes
    )
    scores = evaluator([candidate])[0]
    for name, fresh, saved in zip(names, scores, objectives[chosen]):
        if fresh != saved:
            raise EvolutionError(
                f"{stage} archive member {chosen} scores {float(fresh)!r} on {name!r}, "
                f"but its bundle records {float(saved)!r}"
            )
    if rules[stage]:
        compiled = CompiledRules(rules[stage], candidate.attributes)
        violations = int(compiled.violation_mask(candidate.codes).sum())
        if violations:
            raise EvolutionError(
                f"{stage} export would contain {violations} validation-rule violations"
            )
    rows = rmse_rows(candidate, dataset.stage_tables(stage))
    export_pareto_pairs(config.output_dir / f"pareto_{stage}.csv", objectives, names, chosen)
    export_rmse(config.output_dir / f"rmse_{stage}.csv", rows)
    normalized = normalize_objectives(objectives)
    summary = {
        "selected_member": chosen,
        "archive_size": len(objectives),
        "final_objectives": {
            name: {
                "raw": float(objectives[chosen, i]),
                "normalized": float(normalized[chosen, i]),
            }
            for i, name in enumerate(names)
        },
        "rmse": [
            {"table": r.table, "attribute": r.attribute, "level": r.level, "value": r.value}
            for r in rows
        ],
    }
    return candidate, summary


def _print_export(stage: str, summary: dict, detail: str, *, quiet: bool) -> None:
    print(f"{stage}: member {summary['selected_member']} of {summary['archive_size']}"
          f" exported{detail}")
    if not quiet:
        for row in summary["rmse"]:
            print(f"  rmse {row['table']}/{row['attribute']} ({row['level']}): {row['value']:.3f}")


def _export_persons(
    config: RunConfig, dataset: RegionDataset, rules: dict, bundle: tuple, *, quiet: bool
) -> tuple[CandidatePopulation, dict]:
    """Export the persons bundle's selected member and write ``persons.csv``."""
    persons, summary = _export_stage(config, config.persons, dataset, rules, bundle)
    export_persons(config.output_dir / "persons.csv", persons)
    _print_export(PERSONS, summary, "", quiet=quiet)
    return persons, summary


def _export_households(
    config: RunConfig, dataset: RegionDataset, rules: dict, bundle: tuple,
    persons: CandidatePopulation, *, quiet: bool,
) -> tuple[dict, float]:
    """Export the households bundle's selected member, allocate ``persons``
    into it and write ``households.csv``.

    Returns the stage's manifest summary and the allocation's wall-clock
    seconds.
    """
    households, summary = _export_stage(config, config.households, dataset, rules, bundle)
    started = time.perf_counter()
    result = allocate(persons, households, dataset.schema)
    wall = time.perf_counter() - started
    export_households(config.output_dir / "households.csv", households, result)
    detail = (f", complete rate {result.complete_rate:.1%},"
              f" unallocated persons {len(result.unallocated)}")
    _print_export(HOUSEHOLDS, summary, detail, quiet=quiet)
    return summary, wall


def _stage_manifest(stage_config: StageConfig, summary: dict) -> dict:
    return {
        "target_count": stage_config.target_count,
        "rules": stage_config.rules_path.name if stage_config.rules_path else None,
        "objectives": [asdict(spec) for spec in stage_config.objectives],
        "evolution": asdict(stage_config.evolution),
        "result": summary,
    }


def _build_manifest(config: RunConfig, summaries: dict, outputs: list[str]) -> dict:
    stages = [s for s in (config.persons, config.households) if s is not None]
    inputs = {
        "config": {"file": config.config_path.name, "sha256": file_checksum(config.config_path)},
        "schema": {"file": config.schema_path.name, "sha256": file_checksum(config.schema_path)},
        "tables": {
            path.stem: {"file": path.name, "sha256": file_checksum(path)}
            for stage in stages
            for path in stage.table_paths
        },
        "rules": {
            stage.stage: {"file": stage.rules_path.name, "sha256": file_checksum(stage.rules_path)}
            for stage in stages
            if stage.rules_path is not None
        },
    }
    return {
        "tool": {"name": "synthpop", "version": __version__},
        "region": config.region,
        "seed": config.seed,
        "validation_tolerance": config.validation_tolerance,
        "strict_validation": config.strict_validation,
        "inputs": inputs,
        "stages": {stage.stage: _stage_manifest(stage, summaries[stage.stage]) for stage in stages},
        "outputs": sorted(outputs),
    }


def _cmd_validate_data(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset, _ = _load_inputs(config)
    report = validate_dataset(dataset, tolerance=config.validation_tolerance)
    for line in report.lines():
        print(line)
    if report.flagged:
        print(f"{sum(1 for i in report.issues if i.flagged)} check(s) failed")
        return 1
    print("all consistency checks passed")
    return 0


def _load_stage_archive(
    config: RunConfig, dataset: RegionDataset, stage_config: StageConfig
) -> tuple[np.ndarray, Sequence[CandidatePopulation]]:
    """Load the stage's saved bundle, which must track the stage's
    configured objectives, in order, over the stage's attribute layout
    (:meth:`~synthpop.census_data.RegionDataset.stage_attributes`);
    returns its objective matrix and its members, which decode only when
    indexed."""
    stage = stage_config.stage
    path = config.output_dir / f"archive_{stage}.npz"
    if not path.exists():
        raise DataError(f"{path} not found; run the pipeline first")
    members, objectives, names = load_archive(path, dataset.schema)
    expected = [spec.name for spec in stage_config.objectives]
    if names != expected:
        raise DataError(
            f"saved archive {path.name} tracks objectives {names}, config expects {expected}"
        )
    layout = [a.name for a in members.attributes]
    stage_layout = list(dataset.stage_attributes(stage))
    if layout != stage_layout:
        raise DataError(
            f"saved archive {path.name} lays out attributes {layout}, "
            f"but the {stage} tables give {stage_layout}"
        )
    return objectives, members


def _cmd_generate_persons(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset, rules = _prepare(config)
    bundle, _ = _evolve_stage(config, config.persons, dataset, rules, quiet=args.quiet)
    _export_persons(config, dataset, rules, bundle, quiet=args.quiet)
    return 0


def _cmd_generate_households(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.households is None:
        raise DataError("config has no households section")
    # Checked before _prepare creates the output directory; loading the
    # persons needs the schema, so it waits until after.
    persons_path = config.output_dir / "persons.csv"
    if not persons_path.exists():
        raise DataError(
            f"{persons_path} not found; run generate-persons (or run) first"
        )
    dataset, rules = _prepare(config)
    persons = load_persons(persons_path, dataset.schema)
    bundle, _ = _evolve_stage(config, config.households, dataset, rules, quiet=args.quiet)
    _export_households(config, dataset, rules, bundle, persons, quiet=args.quiet)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset, rules = _prepare(config)
    total_started = time.perf_counter()
    summaries: dict = {}
    bundle, wall = _evolve_stage(config, config.persons, dataset, rules, quiet=args.quiet)
    timings = [("persons_evolve", wall)]
    persons, summaries[PERSONS] = _export_persons(config, dataset, rules, bundle,
                                                  quiet=args.quiet)
    if config.households is not None:
        bundle, wall = _evolve_stage(config, config.households, dataset, rules,
                                     quiet=args.quiet)
        summaries[HOUSEHOLDS], allocation_wall = _export_households(
            config, dataset, rules, bundle, persons, quiet=args.quiet
        )
        timings += [("households_evolve", wall), ("allocation", allocation_wall)]

    outputs = ["manifest.json"]
    for stage in summaries:
        outputs += [f"{stage}.csv", f"convergence_{stage}.csv", f"pareto_{stage}.csv",
                    f"archive_{stage}.npz", f"rmse_{stage}.csv"]
    write_manifest(config.output_dir / "manifest.json", _build_manifest(config, summaries, outputs))
    timings.append(("total", time.perf_counter() - total_started))
    export_timings(config.output_dir / "timings.csv", timings)
    print(f"outputs written to {config.output_dir}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    dataset, rules = _load_inputs(config)

    # Both bundles are loaded and checked before any file is rewritten.
    bundle = _load_stage_archive(config, dataset, config.persons)
    household_bundle = None
    if config.households is not None and (config.output_dir / "archive_households.npz").exists():
        household_bundle = _load_stage_archive(config, dataset, config.households)

    persons, _ = _export_persons(config, dataset, rules, bundle, quiet=args.quiet)
    if household_bundle is not None:
        _export_households(config, dataset, rules, household_bundle, persons, quiet=args.quiet)
    return 0


def _load_config(args: argparse.Namespace) -> RunConfig:
    return load_run_config(
        args.config,
        seed=getattr(args, "seed", None),
        generations=getattr(args, "generations", None),
        population_size=getattr(args, "population_size", None),
        output_dir=getattr(args, "out_dir", None),
    )


# Optional flags, by name; each subcommand takes only the ones it reads.
_FLAGS = {
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--generations": dict(type=int, default=None, help="override generations for every stage"),
    "--population-size": dict(type=int, default=None,
                              help="override population size for every stage"),
    "--out-dir": dict(default=None, help="override the output directory"),
    "--quiet": dict(action="store_true",
                    help="suppress per-generation progress and per-table RMSE lines"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthpop",
        description="evolve synthetic populations against census contingency tables",
    )
    parser.add_argument("--version", action="version", version=f"synthpop {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, text, flags in (
        ("validate-data", _cmd_validate_data, "check input table consistency", ()),
        ("generate-persons", _cmd_generate_persons, "evolve and export the person stage",
         tuple(_FLAGS)),
        ("generate-households", _cmd_generate_households,
         "evolve households and allocate persons into them", tuple(_FLAGS)),
        ("run", _cmd_run, "full pipeline: persons, households, allocation, manifest",
         tuple(_FLAGS)),
        ("report", _cmd_report, "re-export populations from saved archives",
         ("--out-dir", "--quiet")),
    ):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("-c", "--config", required=True, help="run configuration YAML")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Printed lines name tables, attributes and categories, which the input
    # files hold as UTF-8; they go out as UTF-8 whatever the locale.
    for stream in (sys.stdout, sys.stderr):
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
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
