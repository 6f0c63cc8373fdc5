"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`RwdomError`, so callers can catch library failures with a single
``except RwdomError`` clause while programming errors (plain ``TypeError``,
``AttributeError``, ...) still propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "RwdomError",
    "ParameterError",
    "GraphFormatError",
    "DatasetError",
    "RecordOrderError",
]


class RwdomError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(RwdomError, ValueError):
    """An argument value is outside its documented domain.

    Also a :class:`ValueError` so that generic validation code that expects
    ``ValueError`` keeps working.
    """


class GraphFormatError(RwdomError, ValueError):
    """An edge-list file or in-memory edge description is malformed."""


class DatasetError(RwdomError, KeyError):
    """An unknown dataset name was requested from the registry."""


class RecordOrderError(RwdomError, ValueError):
    """A walk engine yielded first-visit records out of state-major order.

    The index builders assemble the canonical ``(hit, state)`` order by a
    stable bucket-by-hit that is only correct over a ``(state, hop)``
    ordered record stream, so they check the order as records arrive and
    raise this instead of building a silently wrong index.
    """
