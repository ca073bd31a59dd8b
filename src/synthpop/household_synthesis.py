"""Nesting persons into households.

A greedy allocator fills each household's composition from the person
roster; :func:`parse_composition` reads a composition code such as ``2A 1C``
as the members it requires of each class. Persons are pooled by age
class (adult A, child C, elder E), each pool in roster order.
Households are served in roster order, each taking the first
free persons of every class it needs: household ``h`` takes a class's pool
from the summed need of the households before it to that sum plus its own
need, both capped at the pool's size. A class that runs dry therefore
leaves that household and every later one short of that class. A
household's members are listed class by class in letter order (A, C, E),
each class in roster order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .census_data import HOUSEHOLDS, PERSONS, Attribute, AttributeSchema, RegionDataset
from .errors import DataError
from .population_model import CandidatePopulation

# Age-class letters used in composition codes, keyed by schema group label.
AGE_CLASS_BY_GROUP = {"ch": "C", "ad": "A", "el": "E"}
# The order in which a household takes its classes: letter order.
_CLASSES = tuple(sorted(AGE_CLASS_BY_GROUP.values()))
# The person attribute that sorts persons into classes, and the household
# attribute holding each household's composition code.
AGE_ATTRIBUTE = "age"
COMPOSITION_ATTRIBUTE = "composition"

_TOKEN = re.compile(r"^(\d+)([A-Za-z])$")


def parse_composition(code: str) -> dict[str, int]:
    """Parse a composition code such as ``2A 3C`` (two adults, three
    children) into the members it requires per class letter, here
    ``{"A": 2, "C": 3}``; the household's size is their sum.

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
    if sum(requirements.values()) <= 0:
        raise DataError(f"composition {code!r} requires nobody")
    return requirements


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of nesting a person roster into a household roster.

    ``member_ids`` holds every allocated person id, household by household,
    and ``bounds`` its ``len(complete) + 1`` offsets: household ``h``'s
    members are ``member_ids[bounds[h]:bounds[h + 1]]``. ``complete[h]``
    says whether household ``h`` got every member its composition asks
    for, and ``unallocated`` holds the person ids no household took,
    sorted. Allocated members and the unallocated remainder partition the
    person roster exactly; no person appears twice.
    """

    member_ids: np.ndarray
    bounds: np.ndarray
    complete: np.ndarray
    unallocated: np.ndarray

    @property
    def complete_rate(self) -> float:
        return int(np.count_nonzero(self.complete)) / len(self.complete)


def _class_of_bin(age: Attribute) -> np.ndarray:
    """Each age category's class, as an index into the letter-ordered
    classes; a category outside the child, adult and elder groups is a
    :class:`DataError`."""
    groups = [age.group_of(code) for code in age.categories]
    for code, group in zip(age.categories, groups):
        if group not in AGE_CLASS_BY_GROUP:
            raise DataError(
                f"age bin {code!r} lacks a child/adult/elder grouping, so "
                "persons cannot be classified for allocation"
            )
    return np.array([_CLASSES.index(AGE_CLASS_BY_GROUP[group]) for group in groups])


def _need_of_code(composition: Attribute) -> np.ndarray:
    """Persons of each class, in letter order, that each composition
    category needs, one row per category; a category that does not parse
    is a :class:`DataError`."""
    return np.array([
        [parse_composition(code).get(letter, 0) for letter in _CLASSES]
        for code in composition.categories
    ])


def check_allocation_inputs(dataset: RegionDataset) -> None:
    """Check, before any stage runs, what :func:`allocate` reads: the
    persons layout holds ``age`` with every category grouped into a class,
    and the households layout holds ``composition`` with every category
    parsing. Each failure is a :class:`DataError` naming its input."""
    for stage, name in ((PERSONS, AGE_ATTRIBUTE), (HOUSEHOLDS, COMPOSITION_ATTRIBUTE)):
        if name not in dataset.stage_attributes(stage):
            raise DataError(
                f"allocation needs the {stage} attribute {name!r}, but the {stage} "
                f"tables give {list(dataset.stage_attributes(stage))}"
            )
    _class_of_bin(dataset.schema[AGE_ATTRIBUTE])
    _need_of_code(dataset.schema[COMPOSITION_ATTRIBUTE])


def allocate(
    persons: CandidatePopulation,
    households: CandidatePopulation,
    schema: AttributeSchema,
) -> AllocationResult:
    """Fill household compositions from the person roster.

    Households are served in roster order and take the first free persons
    of each class they need (see the module docstring): with ``needs[h,
    k]`` the persons of class ``k`` household ``h`` needs, the class's pool
    is cut at ``min(cumsum(needs), supply)``. A household short of any
    class is incomplete; no class borrows from another. Deterministic
    throughout. The members come back as one flat id array with
    per-household bounds (see :class:`AllocationResult`).
    """
    if len(persons) == 0 or len(households) == 0:
        raise DataError("allocation needs non-empty person and household rosters")

    person_class = _class_of_bin(schema[AGE_ATTRIBUTE])[persons.column(AGE_ATTRIBUTE)]
    pools = [np.flatnonzero(person_class == k) for k in range(len(_CLASSES))]
    composition = households.attributes[households.column_index(COMPOSITION_ATTRIBUTE)]
    needs = _need_of_code(composition)[households.column(COMPOSITION_ATTRIBUTE)]
    ends = np.minimum(np.cumsum(needs, axis=0), [len(pool) for pool in pools])
    taken = np.diff(ends, axis=0, prepend=0)

    used = ends[-1]
    ids = np.concatenate([pool[:end] for pool, end in zip(pools, used)])
    owners = np.concatenate(
        [np.repeat(np.arange(len(households)), taken[:, k]) for k in range(len(pools))]
    )
    # ids run class by class in letter order, each class in roster order, so
    # a stable sort by household keeps that order within every household.
    member_ids = ids[np.argsort(owners, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(taken.sum(axis=1))])
    unallocated = np.sort(np.concatenate([pool[end:] for pool, end in zip(pools, used)]))
    return AllocationResult(member_ids, bounds, (taken == needs).all(axis=1), unallocated)
