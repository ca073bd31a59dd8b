"""Run one ``synthpop`` subcommand with a span around each layer's calls.

Usage: python perfbench/layer_trace.py SPANS_JSON SUBCOMMAND [ARGS...]

The program is driven from outside: this script replaces public names in
the ``synthpop.cli``, ``synthpop.nsga2``, ``synthpop.fitness`` and
``synthpop.population_model`` namespaces with timing wrappers, runs
``synthpop.cli.main`` in-process and writes per-span call counts,
inclusive and self time, and a few counters to SPANS_JSON. A span's self
time is its duration minus that of the spans it called. A target that no
longer exists is listed under ``missing``; the run goes on without it.
Spans assume one thread, which holds because no ``--workers`` is passed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "nsga2", "fitness", "population_model")
ROOT_SPAN = "cli.main"
# Importing the package (numpy and PyYAML included), before cli.main runs.
IMPORT_SPAN = "synthpop.import"

# Reporting calls made from the CLI; their total is the export stage.
EXPORT_SPANS = (
    "cli.select_best", "cli.normalize_objectives", "cli.rmse_rows",
    "cli.export_convergence", "cli.export_pareto_pairs", "cli.save_archive",
    "cli.export_rmse", "cli.export_persons", "cli.export_households",
    "cli.write_manifest", "cli.export_timings", "cli.file_checksum",
    "cli.load_archive", "cli.load_persons",
)
STAGE_SPANS = ("cli.evolve", "cli.generate_households")

# Per-layer time metrics: the summed self time of these spans.
SELF_TIME = {
    "config.load_s": ("cli.load_run_config", "cli.load_stage_rules"),
    "census_data.load_s": ("cli.load_dataset",),
    "cli.import_s": (IMPORT_SPAN,),
    "census_data.validate_s": ("cli.validate_dataset",),
    "population_model.init_s": (
        "nsga2.generate_candidate", "population_model.SamplingPlan.from_tables",
    ),
    "population_model.rules_compile_s": ("population_model.CompiledRules.__init__",),
    "population_model.rule_check_s": (
        "population_model.CompiledRules.violation_mask",
        "population_model.CompiledRules.row_ok",
    ),
    "fitness.evaluate_s": (
        "fitness.ObjectiveEvaluator.__call__", "fitness.ObjectiveEvaluator.__init__",
    ),
    "nsga2.tournament_s": ("nsga2.binary_tournament",),
    "nsga2.crossover_s": ("nsga2.two_point_crossover",),
    "nsga2.swap_s": ("nsga2.swap_mutation",),
    "nsga2.resample_s": ("nsga2.resample_mutation",),
    "nsga2.rank_s": ("nsga2.rank_population",),
    "nsga2.selection_s": ("nsga2.environmental_selection",),
    "nsga2.archive_s": (
        "nsga2.ParetoArchive.update", "nsga2.ParetoArchive.insert",
        "nsga2.ParetoArchive.best_values",
    ),
    "nsga2.loop_self_s": STAGE_SPANS,
    "reporting.save_archive_s": ("cli.save_archive",),
    "reporting.export_s": tuple(
        n for n in EXPORT_SPANS
        if n not in ("cli.save_archive", "cli.load_archive", "cli.load_persons")
    ),
    "household_synthesis.allocate_s": ("cli.allocate",),
}
# Self time that no layer accounts for: the stage loops' own code, which
# nsga2.loop_self_s reports, and the CLI's orchestration outside any span.
# trace.coverage leaves both out, so work that moves out of the wrapped
# functions lowers it.
UNATTRIBUTED = ("nsga2.loop_self_s",)
# Measured in the traced ``synthpop report`` rather than the traced run.
REPORT_SELF_TIME = {
    "reporting.load_archive_s": ("cli.load_archive",),
    "reporting.select_s": ("cli.select_best",),
}
# Per-layer call counts.
CALLS = {
    "population_model.rules_compiled": ("population_model.CompiledRules.__init__",),
    "population_model.rule_checks": (
        "population_model.CompiledRules.violation_mask",
        "population_model.CompiledRules.row_ok",
    ),
    "fitness.evaluations": ("fitness.ObjectiveEvaluator.__call__",),
    "nsga2.archive_offers": ("nsga2.ParetoArchive.insert",),
}


def _insert_before(args, kwargs):
    return len(args[0])


def _insert_after(counts, before, args, kwargs, result):
    archive = args[0]
    counts["archive_accepted"] += bool(result)
    counts["archive_evictions"] += before + bool(result) - len(archive)
    counts["archive_inserts_at_capacity"] += bool(result) and len(archive) >= archive.capacity


def _applied(key):
    def after(counts, before, args, kwargs, result):
        counts[key] += result is not args[0]
    return after


def _stage_after(counts, before, args, kwargs, result):
    counts["archive_size"] += len(result[0])


def _allocate_after(counts, before, args, kwargs, result):
    counts["complete_rate"] = result.complete_rate


def _save_after(counts, before, args, kwargs, result):
    counts["archive_bytes"] += Path(args[0]).stat().st_size


# Span name -> (before hook or None, after hook) feeding the counters.
OBSERVERS = {
    "nsga2.ParetoArchive.insert": (_insert_before, _insert_after),
    "nsga2.swap_mutation": (None, _applied("swap_applied")),
    "nsga2.resample_mutation": (None, _applied("resample_applied")),
    "cli.evolve": (None, _stage_after),
    "cli.generate_households": (None, _stage_after),
    "cli.allocate": (None, _allocate_after),
    "cli.save_archive": (None, _save_after),
}

# Every wrapped name, in the order the metrics above first use it.
TARGETS = tuple(dict.fromkeys(
    name
    for names in (*SELF_TIME.values(), *REPORT_SELF_TIME.values(), *CALLS.values(),
                  EXPORT_SPANS, OBSERVERS)
    for name in names
    if name != IMPORT_SPAN
))


class Tracer:
    """Aggregates spans by name: calls, inclusive seconds, self seconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.observer_errors: list[str] = []
        self._children: list[float] = []

    def wrap(self, name: str, fn):
        before_hook, after_hook = OBSERVERS.get(name, (None, None))
        clock = time.perf_counter
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self._observe(name, before_hook, args, kwargs)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - inner
            if after_hook is not None:
                self._observe(name, after_hook, self.counts, before, args, kwargs, result)
            return result

        return traced

    def _observe(self, name, hook, *args):
        # A hook that no longer fits the program must not change its run.
        if hook is None:
            return None
        try:
            return hook(*args)
        except Exception as exc:  # noqa: BLE001
            self.observer_errors.append(f"{name}: {exc!r}")
            return None

    def install(self, modules: dict) -> None:
        for target in TARGETS:
            module, *path = target.split(".")
            owner = modules[module]
            try:
                for part in path[:-1]:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, path[-1])
            except AttributeError:
                self.missing.append(target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(target, raw.__func__))
            else:
                wrapped = self.wrap(target, raw)
            setattr(owner, path[-1], wrapped)

    def dump(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "counts": dict(self.counts),
            "missing": self.missing,
            "observer_errors": self.observer_errors[:20],
        }


def _sum(spans: dict, names, key: str) -> float:
    return sum(spans[n][key] for n in names if n in spans)


def layer_metrics(run: dict, report: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced run and the traced report."""
    spans, counts = run["spans"], run["counts"]
    values: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_TIME.items():
        values[metric] = (_sum(spans, names, "self_s"), "s")
    for metric, names in REPORT_SELF_TIME.items():
        values[metric] = (_sum(report["spans"], names, "self_s"), "s")
    for metric, names in CALLS.items():
        values[metric] = (_sum(spans, names, "calls"), "count")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    offers = values["nsga2.archive_offers"][0]
    values["nsga2.archive_accept_ratio"] = (ratio(counts.get("archive_accepted", 0), offers), "ratio")
    values["nsga2.archive_evictions"] = (counts.get("archive_evictions", 0), "count")
    values["nsga2.archive_size"] = (counts.get("archive_size", 0), "count")
    values["nsga2.archive_inserts_at_capacity"] = (
        counts.get("archive_inserts_at_capacity", 0), "count"
    )
    for kind in ("swap", "resample"):
        calls = _sum(spans, (f"nsga2.{kind}_mutation",), "calls")
        values[f"nsga2.{kind}_applied_ratio"] = (ratio(counts.get(f"{kind}_applied", 0), calls), "ratio")
    values["reporting.archive_bytes"] = (counts.get("archive_bytes", 0), "bytes")
    values["household_synthesis.complete_rate"] = (counts.get("complete_rate", 0.0), "ratio")
    values["cli.persons_stage_s"] = (_sum(spans, ("cli.evolve",), "total_s"), "s")
    values["cli.households_stage_s"] = (
        _sum(spans, ("cli.generate_households", "cli.allocate"), "total_s"), "s"
    )
    values["cli.export_s"] = (_sum(spans, EXPORT_SPANS, "total_s"), "s")
    explained = sum(values[m][0] for m in SELF_TIME if m not in UNATTRIBUTED)
    values["trace.coverage"] = (ratio(explained, traced_wall), "ratio")
    values["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    values["trace.missing_spans"] = (len(set(run["missing"]) | set(report["missing"])), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _import_modules() -> dict:
    return {name: importlib.import_module(f"synthpop.{name}") for name in MODULES}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    tracer = Tracer()
    modules = tracer.wrap(IMPORT_SPAN, _import_modules)()
    tracer.install(modules)
    code = tracer.wrap(ROOT_SPAN, modules["cli"].main)(argv[1:])
    out.write_text(json.dumps(tracer.dump(), indent=1), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
