"""Time synthpop's set-up in this fresh interpreter and print the seconds.

Usage: python perfbench/setup_probe.py CONFIG

Covers ``import synthpop``, ``load_run_config``, ``load_dataset``,
``load_stage_rules`` and ``validate_dataset``: everything a run does before
its first generation.
"""

import sys
import time

start = time.perf_counter()

from synthpop.census_data import validate_dataset  # noqa: E402
from synthpop.config import load_dataset, load_run_config, load_stage_rules  # noqa: E402

config = load_run_config(sys.argv[1])
dataset = load_dataset(config)
load_stage_rules(config, dataset.schema)
validate_dataset(dataset, tolerance=config.validation_tolerance)
print(repr(time.perf_counter() - start))
