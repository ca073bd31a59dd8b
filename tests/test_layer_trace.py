"""Every name perfbench/layer_trace.py wraps still exists in the package,
but the ones listed as deleted, and every observer hook it installs still
reads what the program returns.

The tracer resolves all its targets when it installs, before the command
runs, so even the short ``validate-data`` lists a renamed or deleted
function under ``missing``, where the benchmark would only count it. The
observer hooks run only when their function is called, so a short real
``run`` and ``report`` exercise them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "fixtures" / "config.yaml")
# Traced names deleted from the package on purpose. ``run`` is the only
# command that evolves: the ``generate-persons`` and ``generate-households``
# commands are gone, and the household stage runs through ``cli.evolve``
# like the persons stage, but the tracer names the old household search
# ``cli.generate_households`` until its next change moves that span to
# ``cli.evolve`` per stage. ``nsga2.breed`` makes each generation in one
# pass, so the tracer's four per-child operators are gone too, until its
# next change spans ``breed`` instead; ``breed`` checks rules with
# ``violation_mask``, so ``CompiledRules.row_ok`` is gone as well. The
# archive takes one ``update`` per generation, so its per-offer ``insert``
# and its ``best_values`` are gone until the tracer counts archive work from
# ``update``. Households are nested from the persons roster that the
# persons bundle holds, which ``cli.load_archive`` reads, so the persons CSV
# reader ``cli.load_persons`` is gone. Any other missing name fails these
# tests.
DELETED = [
    "population_model.CompiledRules.row_ok",
    "nsga2.binary_tournament",
    "nsga2.two_point_crossover",
    "nsga2.swap_mutation",
    "nsga2.resample_mutation",
    "nsga2.ParetoArchive.insert",
    "nsga2.ParetoArchive.best_values",
    "cli.generate_households",
    "cli.load_persons",
]


def trace(spans, *command):
    """Run one traced ``synthpop`` subcommand and return its span record."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layer_trace.py"), str(spans), *command],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


def test_every_traced_name_resolves(tmp_path):
    record = trace(tmp_path / "spans.json", "validate-data", "-c", CONFIG)
    assert record["missing"] == DELETED
    assert record["observer_errors"] == []


def test_a_short_run_and_report_feed_every_observer(tmp_path):
    common = ("-c", CONFIG, "--out-dir", str(tmp_path / "out"), "--quiet")
    run = trace(
        tmp_path / "run.json", "run", *common, "--generations", "1", "--population-size", "10"
    )
    report = trace(tmp_path / "report.json", "report", *common)
    for record in (run, report):
        assert record["missing"] == DELETED
        assert record["observer_errors"] == []
    assert {"complete_rate", "archive_bytes"} <= set(run["counts"])
