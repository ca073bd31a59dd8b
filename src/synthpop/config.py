"""Run configuration: one YAML file describing a whole region build.

The file names a schema, an output directory, and one section per stage
(persons required, households optional). Every relative path inside the
file resolves against the file's own directory, so a config can move with
its fixtures. CLI overrides (seed, generations, population size, output
directory) are applied here so that the rest of the pipeline only
ever sees a finished, immutable configuration.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

import yaml

from .census_data import (
    HOUSEHOLDS,
    PERSONS,
    YAML_LOADER,
    AttributeSchema,
    ContingencyTable,
    RegionDataset,
    load_contingency_table,
    load_schema,
)
from .errors import DataError, not_utf8
from .fitness import METRICS, ObjectiveSpec
from .nsga2 import EvolutionConfig
from .population_model import ValidationRule, load_rules


@dataclass(frozen=True)
class StageConfig:
    """Resolved settings for one synthesis stage."""

    stage: str
    target_count: int
    table_paths: tuple[Path, ...]
    rules_path: Path | None
    objectives: tuple[ObjectiveSpec, ...]
    evolution: EvolutionConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, with all paths resolved to absolutes."""

    config_path: Path
    region: str
    schema_path: Path
    output_dir: Path
    seed: int
    validation_tolerance: float
    strict_validation: bool
    persons: StageConfig
    households: StageConfig | None


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise DataError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _as_mapping(value, context: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise DataError(f"{context}: expected a mapping")
    return value


# YAML scalar kinds a key may hold. A YAML bool is a Python int, so booleans
# are told apart first: ``seed: true`` is not a seed and ``weight: 1`` is not
# a flag.
_KINDS = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
}


def _scalar(mapping: Mapping, key: str, default, kind: type, context: str):
    """``mapping[key]`` (or ``default``), which must be of ``kind``; a
    number comes back as a finite float."""
    value = mapping.get(key, default)
    label, accepted = _KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise DataError(f"{context}: {key} must be {label}, got {value!r}")
    if kind is float:
        if not math.isfinite(value):
            raise DataError(f"{context}: {key} must be a finite number, got {value!r}")
        return float(value)
    return value


def _parse_objective(entry, context: str) -> ObjectiveSpec:
    entry = _as_mapping(entry, context)
    unknown = set(entry) - {"name", "table", "attribute", "metric", "weight"}
    if unknown:
        raise DataError(f"{context}: unknown keys {sorted(unknown)}")
    metric = entry.get("metric", "trapezoid")
    if metric not in METRICS:
        raise DataError(
            f"{context}: metric must be one of {sorted(METRICS)}, got '{metric}'"
        )
    return ObjectiveSpec(
        name=str(_require(entry, "name", context)),
        table=str(_require(entry, "table", context)),
        attribute=entry.get("attribute"),
        metric=metric,
        weight=_scalar(entry, "weight", 1.0, float, context),
    )


def _parse_evolution(entry, seed: int, overrides: Mapping, context: str) -> EvolutionConfig:
    """Build a stage's evolution settings. The settable keys are
    ``EvolutionConfig``'s fields, except ``seed``, which is the run's; each
    one present must hold its field's kind (``int | None`` holds an int).
    ``overrides`` replace the file's values before the settings are checked."""
    entry = _as_mapping(entry, context) if entry is not None else {}
    hints = get_type_hints(EvolutionConfig)
    kinds = {
        f.name: (get_args(hints[f.name]) or (hints[f.name],))[0]
        for f in fields(EvolutionConfig)
        if f.name != "seed"
    }
    unknown = set(entry) - set(kinds)
    if unknown:
        raise DataError(f"{context}: unknown evolution keys {sorted(unknown)}")
    values = {key: _scalar(entry, key, None, kinds[key], context) for key in entry}
    values.update(overrides)
    try:
        return EvolutionConfig(seed=seed, **values)
    except DataError as exc:
        raise DataError(f"{context}: {exc}") from None


def _parse_stage(stage: str, entry, base: Path, seed: int, overrides: Mapping) -> StageConfig:
    context = f"stage '{stage}'"
    entry = _as_mapping(entry, context)
    unknown = set(entry) - {"target_count", "tables", "rules", "objectives", "evolution"}
    if unknown:
        raise DataError(f"{context}: unknown keys {sorted(unknown)}")
    _require(entry, "target_count", context)
    target = _scalar(entry, "target_count", None, int, context)
    if target <= 0:
        raise DataError(f"{context}: target_count must be a positive integer")
    tables = _require(entry, "tables", context)
    if not isinstance(tables, list) or not tables:
        raise DataError(f"{context}: tables must be a non-empty list of paths")
    objectives = _require(entry, "objectives", context)
    if not isinstance(objectives, list) or not objectives:
        raise DataError(f"{context}: objectives must be a non-empty list")
    objectives = tuple(
        _parse_objective(o, f"{context} objective {i}") for i, o in enumerate(objectives)
    )
    if not any(o.weight > 0 for o in objectives):
        raise DataError(f"{context}: at least one objective must carry positive weight")
    rules = entry.get("rules")
    table_paths = tuple((base / str(p)).resolve() for p in tables)
    # Tables are named by file stem (see load_dataset).
    stems = sorted({p.stem for p in table_paths})
    seen: set[str] = set()
    for objective in objectives:
        if objective.name in seen:
            raise DataError(f"{context}: objective name {objective.name!r} is used twice")
        seen.add(objective.name)
        if objective.table not in stems:
            raise DataError(
                f"{context} objective {objective.name!r}: table {objective.table!r} "
                f"is not one of this stage's tables {stems}"
            )
    rules_path = (base / str(rules)).resolve() if rules else None
    for file_path in (*table_paths, *([rules_path] if rules_path else [])):
        if not file_path.is_file():
            raise DataError(f"{context}: file not found: {file_path}")
    return StageConfig(
        stage=stage,
        target_count=target,
        table_paths=table_paths,
        rules_path=rules_path,
        objectives=objectives,
        evolution=_parse_evolution(entry.get("evolution"), seed, overrides, context),
    )


def load_run_config(
    path: str | Path,
    *,
    seed: int | None = None,
    generations: int | None = None,
    population_size: int | None = None,
    output_dir: str | Path | None = None,
) -> RunConfig:
    """Load a run configuration, applying any CLI overrides.

    ``generations`` and ``population_size`` overrides merge into every
    stage's evolution values before they are checked, so an invalid one is
    reported with its stage; ``seed`` replaces the file's top-level seed
    before stage configs are built, so both stages always share it.
    """
    config_path = Path(path).resolve()
    try:
        with open(config_path, encoding="utf-8") as handle:
            raw = yaml.load(handle, Loader=YAML_LOADER)
    except OSError as exc:
        raise DataError(f"cannot read config file {config_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8("config", config_path, exc) from None
    except yaml.YAMLError as exc:
        raise DataError(f"config file {config_path} is not valid YAML: {exc}") from exc
    raw = _as_mapping(raw, str(config_path))
    known = {
        "region",
        "schema",
        "output_dir",
        "seed",
        "validation_tolerance",
        "strict_validation",
        PERSONS,
        HOUSEHOLDS,
    }
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"{config_path}: unknown keys {sorted(unknown)}")
    base = config_path.parent

    file_seed = _scalar(raw, "seed", 0, int, str(config_path))
    effective_seed = seed if seed is not None else file_seed

    overrides = {
        key: value
        for key, value in (("generations", generations), ("population_size", population_size))
        if value is not None
    }
    persons = _parse_stage(
        PERSONS, _require(raw, PERSONS, str(config_path)), base, effective_seed, overrides
    )
    households = None
    if HOUSEHOLDS in raw:
        households = _parse_stage(HOUSEHOLDS, raw[HOUSEHOLDS], base, effective_seed, overrides)

    tolerance = _scalar(raw, "validation_tolerance", 0.01, float, str(config_path))
    if tolerance < 0:
        raise DataError("validation_tolerance must be non-negative")

    out = Path(output_dir) if output_dir is not None else base / str(raw.get("output_dir", "out"))
    schema_path = (base / str(_require(raw, "schema", str(config_path)))).resolve()
    if not schema_path.is_file():
        raise DataError(f"{config_path}: schema file not found: {schema_path}")
    return RunConfig(
        config_path=config_path,
        region=str(_require(raw, "region", str(config_path))),
        schema_path=schema_path,
        output_dir=out.resolve(),
        seed=effective_seed,
        validation_tolerance=tolerance,
        strict_validation=_scalar(raw, "strict_validation", True, bool, str(config_path)),
        persons=persons,
        households=households,
    )


def _load_stage_tables(
    stage: StageConfig, schema: AttributeSchema
) -> tuple[ContingencyTable, ...]:
    """Load one stage's tables; each objective's attribute must be an axis
    of its table."""
    tables = tuple(load_contingency_table(p, schema) for p in stage.table_paths)
    axes = {table.name: table.axis_names for table in tables}
    for spec in stage.objectives:
        if spec.attribute is not None and spec.attribute not in axes[spec.table]:
            raise DataError(
                f"stage '{stage.stage}' objective {spec.name!r}: attribute "
                f"{spec.attribute!r} is not an axis of table {spec.table!r} "
                f"(axes {list(axes[spec.table])})"
            )
    return tables


def load_dataset(config: RunConfig) -> RegionDataset:
    """Load the schema and every configured table into one dataset.

    Table names are the file stems, which is what objective specs and the
    manifest refer to. An objective that projects onto an attribute its
    table does not tabulate is a :class:`DataError` here, before any stage
    runs.
    """
    schema = load_schema(config.schema_path)
    person_tables = _load_stage_tables(config.persons, schema)
    household_tables = ()
    target_households = 0
    if config.households is not None:
        household_tables = _load_stage_tables(config.households, schema)
        target_households = config.households.target_count
    return RegionDataset(
        region=config.region,
        schema=schema,
        person_tables=person_tables,
        household_tables=household_tables,
        target_persons=config.persons.target_count,
        target_households=target_households,
    )


def load_stage_rules(config: RunConfig, schema: AttributeSchema) -> dict[str, tuple[ValidationRule, ...]]:
    """Load validation rules for each configured stage (empty tuple if none)."""
    rules: dict[str, tuple[ValidationRule, ...]] = {PERSONS: (), HOUSEHOLDS: ()}
    if config.persons.rules_path is not None:
        rules[PERSONS] = load_rules(config.persons.rules_path, schema)
    if config.households is not None and config.households.rules_path is not None:
        rules[HOUSEHOLDS] = load_rules(config.households.rules_path, schema)
    return rules
