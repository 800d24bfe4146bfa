"""Exception hierarchy. The CLI maps these onto process exit codes."""

from __future__ import annotations

__all__ = [
    "AvqclabError",
    "ValidationError",
    "DimensionMismatch",
    "SchemaError",
    "BudgetExceeded",
]


class AvqclabError(Exception):
    """Base class for all package errors."""


class ValidationError(AvqclabError):
    """An object or argument violates one of its declared invariants."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions or arities."""


class SchemaError(ValidationError):
    """A JSON document does not match its schema.

    ``path`` points at the offending location, e.g. ``$.channels.s0.kraus[1]``.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class BudgetExceeded(AvqclabError):
    """An enumeration or size budget would be exceeded."""
