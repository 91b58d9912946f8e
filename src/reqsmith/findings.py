"""Findings: what `check` and `lint` report, and the JSON report.

A finding ties one issue of the requirement taxonomy to an element, an
application or the world. `check` builds its findings from this module
alone, so it never loads the lint rules; `lint` re-exports both names,
and both commands turn a clashing world into findings by `world_findings`.
`emit_report` bundles findings, fulfillment states, and subsumption
verdicts into one versioned JSON document for scripting; every `--json`
run loads it from here, without the ontology exporter.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .model import Operator, _record

if TYPE_CHECKING:
    from .reasoner import ConsistencyResult, SubsumptionVerdict


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


class LintFinding(metaclass=_record):
    """One detected issue, tied to an element (or to the world)."""

    element_id: str
    issue: Issue
    detail: str
    suggested_operator: Optional[str] = None

    def __post_init__(self) -> None:
        operator = self.suggested_operator
        if operator is not None and operator not in _OPERATOR_NAMES:
            raise ValueError(
                f"suggested_operator must name a transformation operator, "
                f"not {operator!r}"
            )


def world_findings(result: ConsistencyResult) -> list[LintFinding]:
    """One `world` finding per clash line of an inconsistent world."""
    from .reasoner import ConsistencyStatus  # loaded by whoever holds a result

    if result.status is not ConsistencyStatus.INCONSISTENT:
        return []
    return [LintFinding("world", Issue.INCONSISTENT, line) for line in result.explanation]


def _finding_dict(finding: LintFinding) -> dict:
    return {
        "element": finding.element_id,
        "issue": finding.issue.value,
        "detail": finding.detail,
        "suggestion": finding.suggested_operator,
        "span": None,  # kept so version-1 readers see the same keys
    }


def emit_report(
    findings: Sequence[LintFinding],
    fulfillment: Mapping[str, object],
    verdicts: Sequence[tuple[str, str, SubsumptionVerdict]],
) -> str:
    """Render findings, fulfillment states, and verdicts as versioned JSON."""
    import json  # only `--json` runs load it; `check` and `lint` text runs do not

    states = {
        key: value if isinstance(value, str) else value.value
        for key, value in fulfillment.items()
    }
    document = {
        "version": 1,
        "findings": [_finding_dict(f) for f in findings],
        "fulfillment": {key: states[key] for key in sorted(states)},
        "subsumptions": [
            {
                "sub": sub,
                "sup": sup,
                "status": verdict.status.value,
                "method": verdict.method,
            }
            for sub, sup, verdict in verdicts
        ],
    }
    return json.dumps(document, indent=2) + "\n"
