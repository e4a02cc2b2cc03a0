"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: DomainError -> 2, PrecisionError -> 4.
"""
from __future__ import annotations


class TornheimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TornheimError, ValueError):
    """Arguments violate a precondition (bad index, sign, or inequality)."""


class DivergenceError(DomainError):
    """The requested series diverges at these indices."""


class PrecisionError(TornheimError, RuntimeError):
    """The tail goal cannot be met within the configured term budget."""
