"""Findings: what `check` and `lint` report.

A finding ties one issue of the requirement taxonomy to an element, an
application or the world. `check` builds its findings from this module
alone, so it never loads the lint rules; `lint` re-exports both names.
"""

from enum import Enum
from typing import NamedTuple, Optional

from .model import Operator


class Issue(Enum):
    """The kinds of requirement defects a review can report.

    INVALID (a statement that is not a requirement at all) is part of the
    taxonomy for callers that classify findings from other sources; no
    automated rule here emits it, since telling a requirement from a
    non-requirement needs human judgment.
    """

    INVALID = "invalid"
    INCOMPLETE = "incomplete"
    AMBIGUOUS = "ambiguous"
    UNVERIFIABLE = "unverifiable"
    UNSATISFIABLE = "unsatisfiable"
    INCONSISTENT = "inconsistent"
    UNMODIFIABLE = "unmodifiable"
    REDUNDANT = "redundant"


_OPERATOR_NAMES = frozenset(op.value for op in Operator)


class _FindingFields(NamedTuple):
    """The fields of a finding; `LintFinding` checks them."""

    element_id: str
    issue: Issue
    detail: str
    suggested_operator: Optional[str] = None
    span: Optional[tuple[int, int]] = None


class LintFinding(_FindingFields):
    """One detected issue, tied to an element (or to the world)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        finding = super().__new__(cls, *args, **kwargs)
        operator = finding.suggested_operator
        if operator is not None and operator not in _OPERATOR_NAMES:
            raise ValueError(
                f"suggested_operator must name a transformation operator, "
                f"not {operator!r}"
            )
        return finding

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`, which skips `__new__`.
        return cls(*iterable)
