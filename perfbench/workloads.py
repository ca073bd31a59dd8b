"""Benchmark workloads: generated census inputs plus a run config.

Each workload is built by the repository's own ``scripts/make_fixture.py``,
unmodified: the workload seed becomes its ``SEED`` and the workload's
person count its ``N_PERSONS``. The generated config then changes only
``seed``, ``population_size`` and ``generations``, so options that later
changes may delete (``--workers``, objective weights) are never touched.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

DEFAULT_SEED = 20240601
# The shipped fixture runs with config seed 42; offsetting from it makes the
# default workload seed reproduce the shipped fixture run exactly.
FIXTURE_CONFIG_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    persons: int
    persons_evolution: dict = field(default_factory=dict)
    households_evolution: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # The everyday fixture-sized job, shortened from 100 generations per
        # stage. Halving the persons population halves the archive's
        # capacity to 500, which the persons archive reaches by generation
        # 7-10 at workload seeds 1-10 (at 100 it took 21-28 generations, or
        # more than 30); it then evicts for the remaining generations, so
        # archive save and upkeep, resampling and rule checks dominate.
        Workload("msoa-7k", persons=7000,
                 persons_evolution={"population_size": 50, "generations": 20},
                 households_evolution={"generations": 20}),
        # Ten times the roster with a 100-member archive: archive save (about
        # 60% of the run), evaluation, crossover copies, CSV export,
        # allocation at 30k households and peak memory scale with roster
        # bytes, while archive upkeep and rule compilation stay small.
        Workload("persons-70k", persons=70000,
                 persons_evolution={"population_size": 10, "generations": 3},
                 households_evolution={"generations": 0}),
    )
}


def config_seed(workload_seed: int) -> int:
    return (workload_seed - DEFAULT_SEED + FIXTURE_CONFIG_SEED) % 2**31


def make_inputs(workload: Workload, seed: int, out: Path, *, full: bool = False) -> Path:
    """Write the workload's tables, schema, rules and config under ``out``.

    ``full`` keeps the generated evolution settings (the shipped fixture's)
    instead of the workload's shortened ones. Returns the config path.
    """
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("_bench_make_fixture", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.SEED = seed
    module.N_PERSONS = workload.persons
    argv = sys.argv
    sys.argv = [str(script), str(out)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            module.main()
    finally:
        sys.argv = argv

    config_path = out / "config.yaml"
    config = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    config["seed"] = config_seed(seed)
    if not full:
        config["persons"]["evolution"].update(workload.persons_evolution)
        config["households"]["evolution"].update(workload.households_evolution)
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return config_path
