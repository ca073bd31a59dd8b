"""Hierarchical synthetic population generation by multi-objective search.

The package reconstructs person and household populations from census
contingency tables: an NSGA-II loop evolves fixed-length rosters to
minimise reconstruction error against the tables, persons first, then
households, and a greedy allocator nests one into the other.
"""

from .census_data import (
    Attribute,
    AttributeSchema,
    ContingencyTable,
    RegionDataset,
    load_contingency_table,
    load_schema,
    marginalize,
    validate_dataset,
)
from .config import load_dataset, load_run_config, load_stage_rules
from .errors import DataError, EvolutionError, SynthPopError
from .fitness import (
    ObjectiveEvaluator,
    ObjectiveSpec,
    l1_objective,
    normalize_objectives,
    rmse,
    trapezoid_area,
)
from .household_synthesis import allocate, parse_composition
from .nsga2 import (
    EvolutionConfig,
    GenerationHistory,
    ParetoArchive,
    breed,
    crowding_distance,
    environmental_selection,
    evolve,
    fast_nondominated_sort,
)
from .reporting import (
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
from .population_model import (
    CandidatePopulation,
    SamplingPlan,
    ValidationRule,
    generate_candidate,
    load_rules,
)

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "AttributeSchema",
    "CandidatePopulation",
    "ContingencyTable",
    "DataError",
    "EvolutionConfig",
    "EvolutionError",
    "GenerationHistory",
    "ObjectiveEvaluator",
    "ObjectiveSpec",
    "ParetoArchive",
    "RegionDataset",
    "RmseRow",
    "SamplingPlan",
    "SynthPopError",
    "ValidationRule",
    "allocate",
    "breed",
    "crowding_distance",
    "environmental_selection",
    "evolve",
    "export_convergence",
    "export_households",
    "export_pareto_pairs",
    "export_persons",
    "export_rmse",
    "export_timings",
    "fast_nondominated_sort",
    "file_checksum",
    "generate_candidate",
    "l1_objective",
    "load_archive",
    "load_contingency_table",
    "load_dataset",
    "load_persons",
    "load_run_config",
    "load_rules",
    "load_schema",
    "load_stage_rules",
    "marginalize",
    "normalize_objectives",
    "parse_composition",
    "rmse",
    "rmse_rows",
    "save_archive",
    "select_best",
    "trapezoid_area",
    "validate_dataset",
    "write_manifest",
]
