"""synthpop benchmark: ``synthpop run`` and ``synthpop report`` on one workload.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--full]

Run from the root of a source checkout. The program is driven only from
outside, as fresh processes of ``python -m synthpop.cli`` on the
checkout's ``src/``:

1. The workload's inputs are generated from ``--seed`` (see workloads.py).
2. ``synthpop run``, then ``synthpop report`` on its output, repeat until
   ``--seconds`` is spent and at least three times, so that the same
   seed's outputs can be compared for determinism and a median has a
   middle. Every run's outputs are checked (checks.py); a non-zero exit or
   a failed check fails the operation. Batches of fresh-interpreter
   set-up probes (setup_probe.py) run before and after each run.
3. With ``--trace 1`` one untraced run is followed by a traced run and a
   traced report (layer_trace.py), which give the per-layer metrics.

Every end-to-end metric is printed by name and unit, with
``failed_share``, the fit of the exported population, the archive sizes
and the result fingerprint: raw objective vectors and output sha256s. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``. The full record, with
the environment, every repetition and its fingerprint, is written to
``.bench_work/<workload>-<seed>/result.json``.

``wall_s``, ``peak_rss_mb`` and ``output_mb`` are medians over the runs.
``report_s`` and ``setup_s`` time short processes, which a stretch of load
from elsewhere on the machine can slow by half or more for seconds at a
time. So they are taken in batches, one after each run (and, for set-up,
one before the first): the k-th sample of every batch is a try at the k-th
measurement, which counts its fastest try, and the metric is the median
of these measurements (see ``median_of_fastest``).

``--full`` keeps the shipped fixture's evolution settings instead of the
shortened ones. It is for checking the fixture's published results by hand
and is not time-bounded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

# No run may use more threads than there are cores; numpy's pools stay at one.
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(SINGLE_THREAD)

import numpy as np  # noqa: E402

from checks import inspect_run, sha256  # noqa: E402
from layer_trace import layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_seed, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
MIN_REPS = 3
REPORTS_PER_REP = 2
SETUP_PROBES_PER_BATCH = 5
# Stay inside the 180 s a benchmark invocation may take.
BUDGET_S = 165.0
# The end-to-end metrics bounded in BENCHMARK.json, printed with --trace 0.
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("report_s", "s"), ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)
# Fit of the exported population, printed with every run. Each is fixed by
# the seed, so its spread over a set of seeds measures how the seeds differ,
# not run-to-run noise; it is too wide to bound (a change in results shows
# exactly in the fingerprint instead).
FIT = (
    ("persons_fit", "persons"), ("households_fit", "households"),
    ("persons_cell_srmse", "ratio"), ("unallocated_share", "ratio"),
)
DETERMINISTIC_FILES = ("persons.csv", "households.csv")


class Exit(NamedTuple):
    wall_s: float
    code: int
    peak_rss_mb: float
    cpu_s: float


class Bench:
    """One workload's inputs, its subprocesses and the operations they count."""

    def __init__(self, work: Path, config: Path, deadline: float | None):
        self.work = work
        self.config = config
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, str] | None = None
        # Set-up probe times, one list per batch.
        self.setups: list[list[float]] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def spawn(self, argv: list[str], log: Path) -> Exit:
        """Run one Python process to its exit, killing it at the deadline.

        ``os.wait4`` gives this child's own resource usage, which
        ``Popen.wait`` does not.
        """
        with open(log, "wb") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=handle, stderr=subprocess.STDOUT,
                env=self.env, cwd=ROOT,
            )
            timer = None
            if self.deadline is not None:
                timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
                timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                if timer is not None:
                    timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6,
                    usage.ru_utime + usage.ru_stime)

    def operation(self, argv: list[str], log: Path) -> Exit:
        """One counted operation; a non-zero exit fails it."""
        self.attempted += 1
        result = self.spawn(argv, log)
        if result.code != 0:
            self.fail(f"{log.stem}: exit {result.code}")
        return result

    def setup_batch(self) -> None:
        """A few set-up probes, back to back, in a fresh interpreter each."""
        batch = []
        for i in range(SETUP_PROBES_PER_BATCH):
            log = self.work / f"setup-{len(self.setups)}-{i}.log"
            if not self.operation([str(BENCH / "setup_probe.py"), str(self.config)], log).code:
                batch.append(float(log.read_text().split()[-1]))
        self.setups.append(batch)

    def synthpop(self, command: str, out: Path, log: Path, spans: Path | None) -> Exit:
        argv = ["-m", "synthpop.cli"] if spans is None else [str(BENCH / "layer_trace.py"), str(spans)]
        return self.operation(
            [*argv, command, "-c", str(self.config), "--out-dir", str(out), "--quiet"], log
        )

    def repetition(self, label: str, traced: bool = False) -> dict | None:
        """One run, its output checks and its reports; None if the run failed."""
        out = self.work / label
        spans = {c: self.work / f"{label}-{c}-spans.json" for c in ("run", "report")}
        run = self.synthpop("run", out, self.work / f"{label}-run.log",
                            spans["run"] if traced else None)
        if run.code:
            return None
        try:
            problems, fit, fingerprint = inspect_run(out, self.config)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            self.fail(f"{label}: run outputs unreadable: {exc!r}")
            return None
        digests = fingerprint["sha256"]
        if self.first_digests is None:
            self.first_digests = digests
        for name in DETERMINISTIC_FILES:
            if digests[name] != self.first_digests[name]:
                problems.append(f"{name} differs from the first run of this seed")
        if problems:
            self.fail(f"{label}: run outputs: " + "; ".join(problems))
        timings = out / "timings.csv"
        rep = {
            "wall_s": run.wall_s, "report_s": [], "peak_rss_mb": run.peak_rss_mb, **fit,
            "cpu_s": run.cpu_s,
            "timings_csv": timings.read_text(encoding="utf-8") if timings.exists() else None,
            "fingerprint": fingerprint,
        }
        for i in range(1 if traced else REPORTS_PER_REP):
            report = self.synthpop("report", out, self.work / f"{label}-report{i}.log",
                                   spans["report"] if traced else None)
            if report.code:
                continue
            rep["report_s"].append(report.wall_s)
            changed = [n for n in DETERMINISTIC_FILES if sha256(out / n) != digests[n]]
            if changed:
                self.fail(f"{label}: report re-exported different {', '.join(changed)}")
        shutil.rmtree(out)
        if traced:
            rep["spans"] = {c: json.loads(p.read_text()) for c, p in spans.items() if p.exists()}
        return rep


def median_of_fastest(batches: list[list[float]]) -> float:
    """Median over k of the fastest k-th sample across the batches.

    Each batch is taken in another stretch of the run, so a k-th
    measurement is slow only if load from elsewhere slowed every stretch.
    """
    tries = [[b[k] for b in batches if len(b) > k] for k in range(max(map(len, batches)))]
    return statistics.median(min(t) for t in tries)


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "workload_seed": seed,
        "config_seed": config_seed(seed),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}, the shipped fixture)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time to spend on repetitions (at least two are made)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="keep the fixture's evolution settings (slow, not time-bounded)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    missing = [p for p in ("src/synthpop/cli.py", "scripts/make_fixture.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a synthpop checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = make_inputs(WORKLOADS[args.workload], args.seed, work / "inputs", full=args.full)
    bench = Bench(work, config, None if args.full else started + BUDGET_S)
    record = {"environment": environment(args.workload, args.seed), "trace": args.trace}

    bench.setup_batch()
    reps = []
    measure_start = time.monotonic()
    while True:
        reps.append(bench.repetition(f"rep-{len(reps)}"))
        bench.setup_batch()
        if args.trace:
            break
        elapsed = time.monotonic() - measure_start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed >= args.seconds:
            break
        if bench.deadline is not None and time.monotonic() + 1.5 * per_rep > bench.deadline:
            break
    good = [r for r in reps if r is not None]
    traced = bench.repetition("traced", traced=True) if args.trace and good else None
    reports = [r["report_s"] for r in good if r["report_s"]]
    setups = [batch for batch in bench.setups if batch]
    traced_ok = traced is not None and "run" in traced["spans"]
    if not setups or not reports or (args.trace and not traced_ok):
        print(f"error: no successful measurement; see the logs in {work}", file=sys.stderr)
        return 1

    values = {name: statistics.median(r[name] for r in good)
              for name, _ in END_TO_END + FIT if name not in ("setup_s", "report_s")}
    values["setup_s"] = median_of_fastest(setups)
    values["report_s"] = median_of_fastest(reports)
    failed = len(bench.failures)
    summary = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END + FIT}
    summary["failed_share"] = {"value": failed / bench.attempted, "unit": "ratio"}
    env = record["environment"]
    print(f"synthpop benchmark {args.workload}: seed {args.seed} (config seed "
          f"{env['config_seed']}), python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {env['cpu']}")
    print(f"end to end, {len(good)} runs, {len(reports)} report and {len(setups)} set-up"
          f" batches; {failed} of {bench.attempted} operations failed")
    _print_metrics(summary)
    fingerprint = good[0]["fingerprint"]
    for stage, vector in fingerprint["objectives"].items():
        print(f"  {stage} objectives: {json.dumps(vector)}")
    print(f"  archive sizes: {json.dumps(fingerprint['archive_size'])}")
    for name, digest in fingerprint["sha256"].items():
        print(f"  sha256 {name}: {digest}")

    if args.trace:
        empty = {"spans": {}, "counts": {}, "missing": []}
        metrics = layer_metrics(traced["spans"]["run"], traced["spans"].get("report", empty),
                                traced["wall_s"], values["wall_s"])
        print(f"per layer, from one traced run ({traced['wall_s']:.3f} s) and report")
        _print_metrics(metrics)
        record["traced"] = traced
    else:
        metrics = {name: summary[name] for name, _ in END_TO_END}
    record.update(
        end_to_end=summary,
        metrics=metrics,
        setup_s=bench.setups,
        repetitions=[{k: v for k, v in r.items() if k != "spans"} if r else None for r in reps],
        failures=bench.failures,
    )
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:<16.6g} {entry['unit']}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
