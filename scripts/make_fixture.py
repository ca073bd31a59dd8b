"""Regenerate the synthetic MSOA fixture under fixtures/.

Draws a 7,000-person ground-truth microdata set with realistic UK-flavoured
demographics, builds households from it by consuming the person pools, and
tabulates both into the contingency-table CSVs the engine consumes. All
tables are exact tabulations of the same microdata, so they are mutually
consistent by construction. Deterministic: re-running reproduces identical
files.

Usage: python scripts/make_fixture.py [out_dir]
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np
import yaml

SEED = 20240601
N_PERSONS = 7000
CONSUME_TARGET = 0.97  # stop building households at this person coverage

SEX = ["m", "f"]
AGE = [
    "a0_4", "a5_9", "a10_14", "a15_17", "a18_24", "a25_34", "a35_49",
    "a50_64", "a65_74", "a75_84", "a85p",
]
AGE_GROUPS = {
    "a0_4": "ch", "a5_9": "ch", "a10_14": "ch", "a15_17": "ch",
    "a18_24": "ad", "a25_34": "ad", "a35_49": "ad", "a50_64": "ad",
    "a65_74": "el", "a75_84": "el", "a85p": "el",
}
ETHNICITY = [
    "W1", "W2", "W3", "W4", "M1", "M2", "M3", "M4",
    "A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3", "O1", "O2",
]
ETHNICITY_GROUPS = {
    "W1": "wht", "W2": "wht", "W3": "wht", "W4": "wht",
    "M1": "mxd", "M2": "mxd", "M3": "mxd", "M4": "mxd",
    "A1": "asn", "A2": "asn", "A3": "asn", "A4": "asn", "A5": "asn",
    "B1": "blk", "B2": "blk", "B3": "blk",
    "O1": "oth", "O2": "oth",
}
RELIGION = ["C", "B", "H", "J", "M", "S", "O", "N", "NS"]
QUALIFICATION = [
    "none", "level1", "level2", "apprentice", "level3", "level4plus", "other",
]
MARITAL = ["single", "married", "divorced", "widowed"]

HH_SIZE = ["1", "2", "3", "4", "5", "6"]
HH_TYPE = ["detached", "semi", "terraced", "flat"]
# Composition codes ordered by household size, then code.
HH_COMPOSITION = [
    "1A", "1E",
    "1A 1C", "1A 1E", "2A", "2E",
    "1A 2C", "2A 1C", "2A 1E", "3A",
    "2A 2C", "3A 1C", "4A",
    "2A 3C", "3A 2C",
    "2A 4C",
]

AGE_SHARES = [0.060, 0.058, 0.056, 0.034, 0.095, 0.142, 0.198, 0.177,
              0.096, 0.060, 0.024]
# P(male) by age band: slight male surplus at birth, female surplus in old age.
MALE_SHARE = {"ch": 0.512, "ad": 0.497, "el": 0.440}
ETHNICITY_SHARES = [0.630, 0.012, 0.028, 0.040, 0.012, 0.010, 0.014, 0.009,
                    0.055, 0.036, 0.016, 0.033, 0.015, 0.032, 0.016, 0.007,
                    0.013, 0.022]
RELIGION_BY_ETH_GROUP = {
    "wht": [0.52, 0.003, 0.001, 0.006, 0.005, 0.001, 0.004, 0.36, 0.10],
    "mxd": [0.40, 0.010, 0.010, 0.004, 0.100, 0.006, 0.010, 0.36, 0.10],
    "asn": [0.10, 0.020, 0.220, 0.001, 0.420, 0.080, 0.009, 0.07, 0.08],
    "blk": [0.60, 0.005, 0.002, 0.001, 0.170, 0.001, 0.011, 0.14, 0.07],
    "oth": [0.18, 0.100, 0.030, 0.010, 0.350, 0.010, 0.060, 0.16, 0.10],
}
QUALIFICATION_BY_AGE = {
    "a18_24": [0.09, 0.12, 0.20, 0.05, 0.28, 0.20, 0.06],
    "a25_34": [0.07, 0.09, 0.14, 0.05, 0.13, 0.46, 0.06],
    "a35_49": [0.10, 0.11, 0.16, 0.05, 0.12, 0.40, 0.06],
    "a50_64": [0.18, 0.14, 0.17, 0.06, 0.10, 0.29, 0.06],
    "a65_74": [0.30, 0.13, 0.14, 0.06, 0.08, 0.23, 0.06],
    "a75_84": [0.42, 0.12, 0.11, 0.05, 0.06, 0.18, 0.06],
    "a85p": [0.52, 0.10, 0.09, 0.04, 0.05, 0.14, 0.06],
}
MARITAL_BY_AGE = {
    "a18_24": [0.85, 0.10, 0.04, 0.01],
    "a25_34": [0.55, 0.38, 0.06, 0.01],
    "a35_49": [0.28, 0.58, 0.12, 0.02],
    "a50_64": [0.14, 0.62, 0.16, 0.08],
    "a65_74": [0.08, 0.60, 0.12, 0.20],
    "a75_84": [0.06, 0.48, 0.08, 0.38],
    "a85p": [0.06, 0.28, 0.06, 0.60],
}
HH_SHARES = {
    "1A": 0.180, "2A": 0.160, "3A": 0.055, "4A": 0.018,
    "1E": 0.138, "2E": 0.113, "1A 1E": 0.022, "2A 1E": 0.015,
    "1A 1C": 0.040, "1A 2C": 0.018, "2A 1C": 0.085, "2A 2C": 0.080,
    "2A 3C": 0.022, "2A 4C": 0.008, "3A 1C": 0.027, "3A 2C": 0.019,
}
# P(type) by household size band: small households skew to flats, large to
# detached and semi-detached houses.
TYPE_BY_SIZE = {
    1: [0.08, 0.18, 0.26, 0.48],
    2: [0.14, 0.24, 0.28, 0.34],
    3: [0.20, 0.33, 0.31, 0.16],
    4: [0.26, 0.36, 0.28, 0.10],
    5: [0.30, 0.38, 0.26, 0.06],
    6: [0.32, 0.38, 0.25, 0.05],
}


def composition_requirements(code: str) -> dict[str, int]:
    need: dict[str, int] = {}
    for token in code.split():
        need[token[-1]] = need.get(token[-1], 0) + int(token[:-1])
    return need


def draw_persons(rng: np.random.Generator) -> dict[str, np.ndarray]:
    age_p = np.array(AGE_SHARES) / np.sum(AGE_SHARES)
    ages = rng.choice(len(AGE), size=N_PERSONS, p=age_p)
    age_group = np.array([AGE_GROUPS[AGE[a]] for a in ages])
    male_p = np.array([MALE_SHARE[g] for g in age_group])
    sexes = (rng.random(N_PERSONS) >= male_p).astype(int)  # 0=m, 1=f
    eth_p = np.array(ETHNICITY_SHARES) / np.sum(ETHNICITY_SHARES)
    eths = rng.choice(len(ETHNICITY), size=N_PERSONS, p=eth_p)
    rels = np.zeros(N_PERSONS, dtype=int)
    for group, dist in RELIGION_BY_ETH_GROUP.items():
        mask = np.array([ETHNICITY_GROUPS[ETHNICITY[e]] == group for e in eths])
        if mask.any():
            p = np.array(dist) / np.sum(dist)
            rels[mask] = rng.choice(len(RELIGION), size=int(mask.sum()), p=p)
    quals = np.zeros(N_PERSONS, dtype=int)  # children default to "none"
    mars = np.zeros(N_PERSONS, dtype=int)  # children default to "single"
    for band, dist in QUALIFICATION_BY_AGE.items():
        mask = ages == AGE.index(band)
        if mask.any():
            p = np.array(dist) / np.sum(dist)
            quals[mask] = rng.choice(len(QUALIFICATION), size=int(mask.sum()), p=p)
    for band, dist in MARITAL_BY_AGE.items():
        mask = ages == AGE.index(band)
        if mask.any():
            p = np.array(dist) / np.sum(dist)
            mars[mask] = rng.choice(len(MARITAL), size=int(mask.sum()), p=p)
    return {
        "sex": sexes, "age": ages, "ethnicity": eths,
        "religion": rels, "qualification": quals, "marital": mars,
    }


def build_households(
    persons: dict[str, np.ndarray], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Consume the person pools into households; returns (sizes, comp idx)."""
    classes = np.array(
        [{"ch": "C", "ad": "A", "el": "E"}[AGE_GROUPS[AGE[a]]] for a in persons["age"]]
    )
    pool = {c: int((classes == c).sum()) for c in "ACE"}
    codes = list(HH_SHARES)
    shares = np.array([HH_SHARES[c] for c in codes])
    shares = shares / shares.sum()
    need_by_code = {c: composition_requirements(c) for c in codes}
    target = int(CONSUME_TARGET * N_PERSONS)
    consumed = 0
    failures = 0
    chosen: list[str] = []
    while consumed < target and failures < 200:
        code = codes[int(rng.choice(len(codes), p=shares))]
        need = need_by_code[code]
        if all(pool[c] >= n for c, n in need.items()):
            for c, n in need.items():
                pool[c] -= n
            consumed += sum(need.values())
            chosen.append(code)
            failures = 0
        else:
            failures += 1
    sizes = np.array([sum(need_by_code[c].values()) for c in chosen])
    comp_idx = np.array([HH_COMPOSITION.index(c) for c in chosen])
    return sizes, comp_idx


def tabulate(path: Path, axes: list[tuple[str, list[str]]],
             columns: list[np.ndarray]) -> None:
    dims = tuple(len(cats) for _, cats in axes)
    flat = np.ravel_multi_index(tuple(columns), dims)
    counts = np.bincount(flat, minlength=int(np.prod(dims))).reshape(dims)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in axes] + ["count"])
        for idx in np.ndindex(dims):
            value = int(counts[idx])
            if value:
                writer.writerow(
                    [axes[d][1][idx[d]] for d in range(len(axes))] + [value]
                )


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("fixtures")
    tables = out / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)

    persons = draw_persons(rng)
    hh_sizes, hh_comps = build_households(persons, rng)
    n_households = len(hh_sizes)
    type_idx = np.zeros(n_households, dtype=int)
    for size in range(1, 7):
        mask = hh_sizes == size
        if mask.any():
            p = np.array(TYPE_BY_SIZE[size]) / np.sum(TYPE_BY_SIZE[size])
            type_idx[mask] = rng.choice(len(HH_TYPE), size=int(mask.sum()), p=p)
    size_idx = hh_sizes - 1

    tabulate(tables / "person_sex_age_ethnicity.csv",
             [("sex", SEX), ("age", AGE), ("ethnicity", ETHNICITY)],
             [persons["sex"], persons["age"], persons["ethnicity"]])
    tabulate(tables / "person_sex_age_religion.csv",
             [("sex", SEX), ("age", AGE), ("religion", RELIGION)],
             [persons["sex"], persons["age"], persons["religion"]])
    tabulate(tables / "person_sex_age_qualification.csv",
             [("sex", SEX), ("age", AGE), ("qualification", QUALIFICATION)],
             [persons["sex"], persons["age"], persons["qualification"]])
    tabulate(tables / "person_age_marital.csv",
             [("age", AGE), ("marital", MARITAL)],
             [persons["age"], persons["marital"]])
    tabulate(tables / "household_size_composition.csv",
             [("size", HH_SIZE), ("composition", HH_COMPOSITION)],
             [size_idx, hh_comps])
    tabulate(tables / "household_size_type.csv",
             [("size", HH_SIZE), ("type", HH_TYPE)],
             [size_idx, type_idx])

    schema = {
        "attributes": [
            {"name": "sex", "categories": SEX},
            {"name": "age", "categories": AGE, "groups": AGE_GROUPS},
            {"name": "ethnicity", "categories": ETHNICITY,
             "groups": ETHNICITY_GROUPS},
            {"name": "religion", "categories": RELIGION},
            {"name": "qualification", "categories": QUALIFICATION},
            {"name": "marital", "categories": MARITAL},
            {"name": "size", "categories": HH_SIZE},
            {"name": "type", "categories": HH_TYPE},
            {"name": "composition", "categories": HH_COMPOSITION},
        ]
    }
    (out / "schema.yaml").write_text(
        yaml.safe_dump(schema, sort_keys=False), encoding="utf-8"
    )

    child_bins = [a for a in AGE if AGE_GROUPS[a] == "ch"]
    person_rules = {
        "rules": [
            {
                "name": "no-child-marriage",
                "message": "persons in a child age band cannot be married",
                "when": {"age": child_bins, "marital": ["married"]},
            }
        ]
    }
    (out / "person_rules.yaml").write_text(
        yaml.safe_dump(person_rules, sort_keys=False), encoding="utf-8"
    )

    hh_rules = {"rules": []}
    for size in HH_SIZE:
        wrong = [
            c for c in HH_COMPOSITION
            if sum(composition_requirements(c).values()) != int(size)
        ]
        hh_rules["rules"].append(
            {
                "name": f"composition-matches-size-{size}",
                "message": f"size {size} households need a size-{size} composition",
                "when": {"size": [size], "composition": wrong},
            }
        )
    (out / "household_rules.yaml").write_text(
        yaml.safe_dump(hh_rules, sort_keys=False), encoding="utf-8"
    )

    config = {
        "region": "synthetic-msoa-0042",
        "schema": "schema.yaml",
        "output_dir": "out",
        "seed": 42,
        "validation_tolerance": 0.01,
        "strict_validation": True,
        "persons": {
            "target_count": N_PERSONS,
            "tables": [
                "tables/person_sex_age_ethnicity.csv",
                "tables/person_sex_age_religion.csv",
                "tables/person_sex_age_qualification.csv",
                "tables/person_age_marital.csv",
            ],
            "rules": "person_rules.yaml",
            "objectives": [
                {"name": "sex_fit", "table": "person_sex_age_ethnicity",
                 "attribute": "sex"},
                {"name": "age_fit", "table": "person_sex_age_ethnicity",
                 "attribute": "age"},
                {"name": "ethnicity_fit", "table": "person_sex_age_ethnicity",
                 "attribute": "ethnicity"},
                {"name": "religion_fit", "table": "person_sex_age_religion",
                 "attribute": "religion"},
                {"name": "qualification_fit",
                 "table": "person_sex_age_qualification",
                 "attribute": "qualification"},
            ],
            "evolution": {
                "population_size": 100,
                "generations": 100,
                "crossover_probability": 1.0,
                "mutation_probability": 0.2,
                "offspring_size": 400,
                "resample_probability": 1.0,
                "resample_slots": 100,
                "sampling": "joint",
            },
        },
        "households": {
            "target_count": n_households,
            "tables": [
                "tables/household_size_composition.csv",
                "tables/household_size_type.csv",
            ],
            "rules": "household_rules.yaml",
            "objectives": [
                {"name": "size_fit", "table": "household_size_composition",
                 "attribute": "size"},
                {"name": "composition_fit",
                 "table": "household_size_composition",
                 "attribute": "composition"},
                {"name": "type_fit", "table": "household_size_type",
                 "attribute": "type"},
            ],
            "evolution": {
                "population_size": 100,
                "generations": 100,
                "crossover_probability": 1.0,
                "mutation_probability": 0.2,
                "offspring_size": 200,
                "resample_probability": 1.0,
                "resample_slots": 40,
                "sampling": "joint",
            },
        },
    }
    (out / "config.yaml").write_text(
        yaml.safe_dump(config, sort_keys=False), encoding="utf-8"
    )

    classes = np.array(
        [{"ch": "C", "ad": "A", "el": "E"}[AGE_GROUPS[AGE[a]]]
         for a in persons["age"]]
    )
    supply = {c: int((classes == c).sum()) for c in "ACE"}
    demand = {c: 0 for c in "ACE"}
    for code, size in zip(hh_comps, hh_sizes):
        for cls, n in composition_requirements(HH_COMPOSITION[code]).items():
            demand[cls] += n
    print(f"persons: {N_PERSONS}, households: {n_households}")
    print(f"class supply: {supply}")
    print(f"class demand: {demand} "
          f"({sum(demand.values()) / N_PERSONS:.1%} of persons)")


if __name__ == "__main__":
    main()
