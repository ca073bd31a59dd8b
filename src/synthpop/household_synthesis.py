"""Household roster evolution and nesting of persons into households.

Households evolve through the same NSGA-II loop as persons, over household
attributes (size, accommodation type, composition). Afterwards a greedy
allocator fills each household's composition from the person roster:
households are served in roster order and people are taken first-fit in
roster order from per-class age pools.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .census_data import HOUSEHOLDS, AttributeSchema, RegionDataset
from .errors import DataError
from .fitness import ObjectiveSpec
from .nsga2 import (
    EvolutionConfig,
    GenerationHistory,
    ParetoArchive,
    ProgressCallback,
    evolve,
    infer_stage,
)
from .population_model import CandidatePopulation, ValidationRule

# Age-class letters used in composition codes, keyed by schema group label.
AGE_CLASS_BY_GROUP = {"ch": "C", "ad": "A", "el": "E"}

_TOKEN = re.compile(r"^(\d+)([A-Za-z])$")


@dataclass(frozen=True)
class CompositionSpec:
    """Parsed household composition: members required per age class."""

    requirements: Mapping[str, int]
    size: int

    def __post_init__(self) -> None:
        if self.size != sum(self.requirements.values()):
            raise DataError("composition size must equal the summed requirements")


def parse_composition(code: str) -> CompositionSpec:
    """Parse a composition code such as ``2A 3C`` (two adults, three
    children) into per-class requirements.

    Tokens are ``<count><class letter>`` separated by whitespace; repeated
    letters accumulate. Valid letters are A (adult), C (child), E (elder).
    """
    tokens = code.split()
    if not tokens:
        raise DataError("composition code is empty")
    requirements: dict[str, int] = {}
    for token in tokens:
        match = _TOKEN.match(token)
        if not match:
            raise DataError(f"malformed composition token {token!r} in {code!r}")
        count, letter = int(match.group(1)), match.group(2)
        if letter not in AGE_CLASS_BY_GROUP.values():
            raise DataError(f"unknown age class {letter!r} in composition {code!r}")
        requirements[letter] = requirements.get(letter, 0) + count
    total = sum(requirements.values())
    if total <= 0:
        raise DataError(f"composition {code!r} requires nobody")
    return CompositionSpec(requirements=requirements, size=total)


@dataclass(frozen=True)
class SyntheticHousehold:
    """One allocated household: attribute codes plus member person ids."""

    household_id: int
    assignments: Mapping[str, str]
    members: tuple[int, ...]
    complete: bool


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of nesting a person roster into a household roster.

    Allocated members and the unallocated remainder partition the person
    roster exactly; no person appears twice.
    """

    households: tuple[SyntheticHousehold, ...]
    unallocated: tuple[int, ...]

    @property
    def complete_count(self) -> int:
        return sum(1 for h in self.households if h.complete)

    @property
    def complete_rate(self) -> float:
        return self.complete_count / len(self.households) if self.households else 0.0


def generate_households(
    dataset: RegionDataset,
    specs: Sequence[ObjectiveSpec],
    config: EvolutionConfig,
    rules: Sequence[ValidationRule] = (),
    *,
    progress: ProgressCallback | None = None,
) -> tuple[ParetoArchive, GenerationHistory]:
    """Evolve household rosters against the dataset's household tables."""
    if not dataset.household_tables:
        raise DataError(f"dataset {dataset.region!r} has no household tables")
    if specs and infer_stage(dataset, specs) != HOUSEHOLDS:
        raise DataError("household objectives must reference household tables")
    return evolve(dataset, specs, config, rules, progress=progress)


def allocate(
    persons: CandidatePopulation,
    households: CandidatePopulation,
    schema: AttributeSchema,
    *,
    age_attribute: str = "age",
    composition_attribute: str = "composition",
) -> AllocationResult:
    """Fill household compositions from the person roster.

    Persons are split into age-class pools (child, adult, elder) keeping
    roster order. Households are served in their own roster order and take
    the first available persons of each required class. When a pool runs
    dry the household stays partial; it never borrows from another class.
    Deterministic throughout.
    """
    if len(persons) == 0 or len(households) == 0:
        raise DataError("allocation needs non-empty person and household rosters")

    age = schema[age_attribute]
    age_col = persons.column_index(age_attribute)
    class_of_bin: list[str] = []
    for code in age.categories:
        group = age.group_of(code)
        if group is None or group not in AGE_CLASS_BY_GROUP:
            raise DataError(
                f"age bin {code!r} lacks a child/adult/elder grouping, so "
                "persons cannot be classified for allocation"
            )
        class_of_bin.append(AGE_CLASS_BY_GROUP[group])

    pools: dict[str, deque[int]] = {c: deque() for c in AGE_CLASS_BY_GROUP.values()}
    age_codes = persons.codes[:, age_col]
    for index in range(len(persons)):
        pools[class_of_bin[int(age_codes[index])]].append(index)

    comp_col = households.column_index(composition_attribute)
    comp_attr = households.attributes[comp_col]
    spec_of_code = {c: parse_composition(c) for c in comp_attr.categories}
    comp_codes = households.codes[:, comp_col]

    members: list[tuple[int, ...]] = [()] * len(households)
    complete: list[bool] = [False] * len(households)
    for h in range(len(households)):
        spec = spec_of_code[comp_attr.categories[int(comp_codes[h])]]
        taken: list[int] = []
        filled = True
        for letter in sorted(spec.requirements):
            need = spec.requirements[letter]
            pool = pools[letter]
            grab = min(need, len(pool))
            taken.extend(pool.popleft() for _ in range(grab))
            if grab < need:
                filled = False
        members[h] = tuple(taken)
        complete[h] = filled

    synthesised = tuple(
        SyntheticHousehold(
            household_id=h,
            assignments=households.person(h),
            members=members[h],
            complete=complete[h],
        )
        for h in range(len(households))
    )
    unallocated = tuple(sorted(i for pool in pools.values() for i in pool))
    return AllocationResult(households=synthesised, unallocated=unallocated)
