"""Output checks, fit metrics and the result fingerprint of one run.

Reads only the documented outputs of ``synthpop run`` (the CSVs and
``manifest.json``) plus the run's own inputs. The ``archive_*.npz``
bundles are counted for their size but never opened, so their format may
change without touching the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import yaml

STAGES = ("persons", "households")
FINGERPRINT_FILES = ("persons.csv", "households.csv", "manifest.json")
# Allocation classes by age group, as the README's composition codes use them.
AGE_CLASS_BY_GROUP = {"ch": "C", "ad": "A", "el": "E"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path.name} is empty")
        return header, list(reader)


def _composition_needs(code: str) -> dict[str, int]:
    needs: dict[str, int] = {}
    for token in code.split():
        needs[token[-1]] = needs.get(token[-1], 0) + int(token[:-1])
    return needs


def _rule_violations(path: Path, header: list[str], rows: list[list[str]]) -> int:
    """Rows matching every clause of any rule (the README's rule semantics)."""
    rules = (yaml.safe_load(path.read_text(encoding="utf-8")) or {}).get("rules") or []
    column = {name: i for i, name in enumerate(header)}
    bad = 0
    for row in rows:
        for rule in rules:
            if all(row[column[a]] in set(cats) for a, cats in rule["when"].items()):
                bad += 1
                break
    return bad


def _pareto_problems(path: Path) -> list[str]:
    header, rows = _read_csv(path)
    selected = sum(int(row[-1]) for row in rows)
    problems = []
    if selected != 1:
        problems.append(f"{path.name}: {selected} selected rows, expected 1")
    matrix = np.array([[float(v) for v in row[1:-1]] for row in rows])
    if len(matrix):
        le = (matrix[:, None, :] <= matrix[None, :, :]).all(axis=2)
        lt = (matrix[:, None, :] < matrix[None, :, :]).any(axis=2)
        dominating = int((le & lt).sum())
        if dominating:
            problems.append(f"{path.name}: {dominating} member pairs where one dominates")
    return problems


def _cell_srmse(persons: dict[str, np.ndarray], table: Path, categories: dict) -> float:
    """Full-cell RMSE of the roster against one table over its mean cell."""
    header, rows = _read_csv(table)
    axes = header[:-1]
    dims = tuple(len(categories[a]) for a in axes)
    expected = np.zeros(dims)
    for row in rows:
        index = tuple(categories[a].index(v) for a, v in zip(axes, row[:-1]))
        expected[index] += float(row[-1])
    flat = np.ravel_multi_index(tuple(persons[a] for a in axes), dims)
    actual = np.bincount(flat, minlength=expected.size).reshape(dims)
    rmse = float(np.sqrt(np.mean((actual - expected) ** 2)))
    return rmse / (expected.sum() / expected.size)


def inspect_run(out: Path, config_path: Path) -> tuple[list[str], dict, dict]:
    """Check one run's outputs.

    Returns the failed checks (empty when all pass), the fit metrics, and
    the fingerprint: raw objective vectors and output sha256s.
    """
    inputs = config_path.parent
    config = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    schema = yaml.safe_load((inputs / config["schema"]).read_text(encoding="utf-8"))
    categories = {a["name"]: list(a["categories"]) for a in schema["attributes"]}
    groups = {a["name"]: a.get("groups") or {} for a in schema["attributes"]}
    problems: list[str] = []

    p_header, p_rows = _read_csv(out / "persons.csv")
    target = int(config["persons"]["target_count"])
    if len(p_rows) != target:
        problems.append(f"persons.csv has {len(p_rows)} rows, target_count is {target}")
    h_header, h_rows = _read_csv(out / "households.csv")
    for stage, header, rows in (
        ("persons", p_header, p_rows), ("households", h_header, h_rows)
    ):
        rules = config[stage].get("rules")
        if rules:
            bad = _rule_violations(inputs / rules, header, rows)
            if bad:
                problems.append(f"{stage}.csv: {bad} rows violate {rules}")
        problems.extend(_pareto_problems(out / f"pareto_{stage}.csv"))

    person_ids = {int(row[0]) for row in p_rows}
    age_col = p_header.index("age")
    class_of = {
        int(row[0]): AGE_CLASS_BY_GROUP[groups["age"][row[age_col]]] for row in p_rows
    }
    members_col = h_header.index("member_ids")
    comp_col = h_header.index("composition")
    seen: set[int] = set()
    duplicates = invalid = mismatched = 0
    for row in h_rows:
        members = [int(p) for p in row[members_col].split(";")] if row[members_col] else []
        duplicates += sum(1 for p in members if p in seen)
        seen.update(members)
        invalid += sum(1 for p in members if p not in person_ids)
        needs = _composition_needs(row[comp_col])
        have: dict[str, int] = {}
        for p in members:
            if p in class_of:
                have[class_of[p]] = have.get(class_of[p], 0) + 1
        if any(have.get(c, 0) > n for c, n in needs.items()) or set(have) - set(needs):
            mismatched += 1
        elif int(row[-1]) != (have == needs):
            mismatched += 1
    for count, what in (
        (duplicates, "member ids repeated across households"),
        (invalid, "member ids that are not person ids"),
        (mismatched, "households whose members or complete flag disagree with the composition"),
    ):
        if count:
            problems.append(f"households.csv: {count} {what}")

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    objectives = {
        stage: {
            name: entry["raw"]
            for name, entry in manifest["stages"][stage]["result"]["final_objectives"].items()
        }
        for stage in STAGES
    }
    columns = {name: i for i, name in enumerate(p_header)}
    persons = {
        name: np.array([categories[name].index(row[i]) for row in p_rows])
        for name, i in columns.items()
        if name != "person_id"
    }
    srmse = [
        _cell_srmse(persons, inputs / table, categories)
        for table in config["persons"]["tables"]
    ]
    fit = {
        "persons_fit": sum(objectives["persons"].values()),
        "households_fit": sum(objectives["households"].values()),
        "persons_cell_srmse": float(np.mean(srmse)),
        "unallocated_share": (len(p_rows) - len(seen & person_ids)) / len(p_rows),
        "output_mb": sum(f.stat().st_size for f in out.iterdir() if f.is_file()) / 1e6,
    }
    fingerprint = {
        "archive_size": {
            stage: manifest["stages"][stage]["result"]["archive_size"] for stage in STAGES
        },
        "objectives": objectives,
        "cell_srmse_by_table": [float(v) for v in srmse],
        "sha256": {name: sha256(out / name) for name in FINGERPRINT_FILES},
    }
    return problems, fit, fingerprint
