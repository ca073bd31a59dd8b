"""Exception types shared across the package."""

from __future__ import annotations


class SynthPopError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SynthPopError):
    """Bad configuration or census data: missing files, unknown categories,
    malformed tables, inconsistent settings."""


def not_utf8(kind: str, path: object, exc: UnicodeDecodeError) -> DataError:
    """The error for a ``kind`` file at ``path`` that is not UTF-8 text,
    naming the first byte that does not decode."""
    return DataError(
        f"{kind} file {path} is not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}"
    )


class EvolutionError(SynthPopError):
    """The evolutionary engine could not make progress, typically because
    rejection sampling exhausted its retry budget under contradictory
    rules and weights."""
