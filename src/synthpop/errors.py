"""Exception types shared across the package."""

from __future__ import annotations


class SynthPopError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SynthPopError):
    """Bad configuration or census data: missing files, unknown categories,
    malformed tables, inconsistent settings."""


class EvolutionError(SynthPopError):
    """The evolutionary engine could not make progress, typically because
    rejection sampling exhausted its retry budget under contradictory
    rules and weights."""
