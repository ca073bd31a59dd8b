"""Golden output fingerprints: the sha256 of every output a short run writes.

Usage: python scripts/fingerprints.py [--write]

Four short ``run`` invocations are made in a temporary directory:

* ``fixture-run``: on fixtures/config.yaml with ``--generations 2
  --population-size 10``;
* ``fixture-cells-run``: the same, on a copy of the fixture in the
  temporary directory whose config appends one full-cell objective (one
  with no ``attribute``) per persons table;
* ``msoa-7k-run`` and ``persons-70k-run``: ``run`` on the benchmark
  workloads' inputs (built by ``perfbench/workloads.make_inputs`` at its
  default seed) with ``--generations 2`` and ``--generations 1``.

Each output file except ``timings.csv``, which holds wall-clock seconds, is
hashed. Without ``--write`` the hashes are compared with
tests/fingerprints.json and every difference is printed (exit 1 if any).
With ``--write`` that file is rewritten, together with the Python and numpy
versions it was made with. A change that alters outputs on purpose rewrites
it and says which hashes moved and why; a change that keeps outputs
byte-identical leaves it alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINTS = ROOT / "tests" / "fingerprints.json"
FIXTURE_CONFIG = ROOT / "fixtures" / "config.yaml"
HASHED = ("persons.csv", "households.csv", "manifest.json", "pareto_*", "rmse_*",
          "convergence_*", "archive_*.npz")

# Run name -> (inputs, flags for ``run``).
RUNS = {
    "fixture-run": ("fixture", ("--generations", "2", "--population-size", "10")),
    "fixture-cells-run": ("fixture-cells", ("--generations", "2", "--population-size", "10")),
    "msoa-7k-run": ("msoa-7k", ("--generations", "2")),
    "persons-70k-run": ("persons-70k", ("--generations", "1")),
}


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_fingerprint_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _fixture_cells_config(work: Path) -> Path:
    """Copy the fixture under ``work`` with one full-cell objective per
    persons table appended to its config; returns the copied config."""
    copy = work / "fixture-cells"
    shutil.copytree(FIXTURE_CONFIG.parent, copy)
    raw = yaml.safe_load(FIXTURE_CONFIG.read_text(encoding="utf-8"))
    raw["persons"]["objectives"] += [
        {"name": f"{Path(table).stem}_cells", "table": Path(table).stem}
        for table in raw["persons"]["tables"]
    ]
    path = copy / FIXTURE_CONFIG.name
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return path


def _synthpop(*argv: str) -> None:
    from synthpop.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--quiet"])
    if code:
        raise RuntimeError(f"synthpop {' '.join(argv)} exited with {code}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprints(work: Path) -> dict[str, dict[str, str]]:
    """Make every run under ``work``; returns run -> output file -> sha256."""
    work = Path(work)
    workloads = _workloads()
    configs = {"fixture": FIXTURE_CONFIG, "fixture-cells": _fixture_cells_config(work)}
    for name in ("msoa-7k", "persons-70k"):
        configs[name] = workloads.make_inputs(
            workloads.WORKLOADS[name], workloads.DEFAULT_SEED, work / f"{name}-inputs"
        )
    result = {}
    for run, (inputs, flags) in RUNS.items():
        out = work / run
        _synthpop("run", "-c", str(configs[inputs]), "--out-dir", str(out), *flags)
        result[run] = {
            path.name: _sha256(path)
            for pattern in HASHED
            for path in sorted(out.glob(pattern))
        }
    return result


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per run output whose hash is missing, new or changed."""
    lines = []
    for run in sorted(set(expected) | set(actual)):
        want, got = expected.get(run, {}), actual.get(run, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                lines.append(f"{run}/{name}: {want.get(name)} -> {got.get(name)}")
    return lines


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        actual = fingerprints(Path(work))
    if write:
        record = {**versions(), "runs": actual}
        FINGERPRINTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
        print(f"wrote {FINGERPRINTS.relative_to(ROOT)}")
        return 0
    committed = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    lines = differences(committed["runs"], actual)
    for line in lines:
        print(line)
    made = f"python {committed['python']}, numpy {committed['numpy']}"
    here = ", ".join(f"{k} {v}" for k, v in versions().items())
    print(f"{len(lines)} differences (committed with {made}; this is {here})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
