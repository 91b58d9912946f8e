"""Checking structured elements against a finite world.

No command checks elements, so no command loads this module.
"""

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .model import (
    Element,
    FunctionDesc,
    NamedRegion,
    NaturalLanguage,
    QualityStatement,
    SlotRestriction,
    Subsumption,
    UAnnotation,
    World,
    subterms,
)
from .semantics import PathMismatch, _value_test, eval_description, translate_region


class UnsupportedNestedU(ValueError):
    """Two percentage annotations stack on the same path; world checking
    supports at most one level of nesting per path."""


class HoldsStatus(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not-applicable"


class HoldsResult(NamedTuple):
    """Whether an element holds in a world, and the individuals that
    violate it."""

    status: HoldsStatus
    witnesses: tuple[str, ...] = ()


HOLDS = HoldsResult(HoldsStatus.HOLDS)
NOT_APPLICABLE = HoldsResult(HoldsStatus.NOT_APPLICABLE)


def violated(witnesses) -> HoldsResult:
    return HoldsResult(HoldsStatus.VIOLATED, tuple(sorted(witnesses)))


def _nested_pair(annotations) -> bool:
    for i, first in enumerate(annotations):
        for second in annotations[i + 1 :]:
            a, b = first.matched_path, second.matched_path
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            if longer[: len(shorter)] == shorter:
                return True
    return False


def element_holds(e: Element, world: World) -> HoldsResult:
    """Check one structured element against a world.

    Unstructured and purely functional bodies have nothing to check, so
    they come back NotApplicable, as do quality statements whose subject
    (or declared observer set) has an empty extension.
    """
    body = e.body
    if isinstance(body, (NaturalLanguage, FunctionDesc)):
        return NOT_APPLICABLE
    flat = world.materialize()
    if isinstance(body, Subsumption):
        extra = eval_description(body.subsumee, flat) - eval_description(
            body.subsumer, flat
        )
        return HOLDS if not extra else violated(extra)
    assert isinstance(body, QualityStatement)
    return _quality_holds(body, flat)


def _quality_holds(body: QualityStatement, flat: World) -> HoldsResult:
    annotations = body.pct_annotations
    if len(annotations) >= 2 and _nested_pair(annotations):
        raise UnsupportedNestedU(
            "stacked percentage annotations on one path cannot be checked "
            "against a world; expand them syntactically instead"
        )
    subjects = eval_description(body.subject, flat)
    if not subjects:
        return NOT_APPLICABLE

    quality_ext = eval_description(body.quality, flat)
    bearer_of: dict[str, set[str]] = {}
    for q, x in flat.tuples("inheres_in"):
        if q in quality_ext and x in subjects:
            bearer_of.setdefault(q, set()).add(x)

    observed = flat.tuples("observed_by")
    if body.observers:
        allowed: list[frozenset[str]] = []
        for observer in body.observers:
            members = eval_description(observer, flat)
            if not members:
                return NOT_APPLICABLE
            allowed.append(members)
        bearer_of = {
            q: bearers
            for q, bearers in bearer_of.items()
            if all(any((q, u) in observed for u in members) for members in allowed)
        }

    def good(q: str) -> bool:
        if isinstance(body.region, NamedRegion):
            return q in flat.extension(body.region.name)
        value = flat.data_values.get((q, "has_value_in"))
        return value is not None and _value_test(translate_region(body.region), value)

    if not annotations:
        bad = [q for q in bearer_of if not good(q)]
        return HOLDS if not bad else violated(bad)

    all_witnesses: list[str] = []
    saw_not_applicable = False
    for ann in annotations:
        outcome = _counted_fraction(ann, body, flat, subjects, bearer_of, good)
        if outcome is None:
            saw_not_applicable = True
        else:
            all_witnesses.extend(outcome)
    if all_witnesses:
        return violated(all_witnesses)
    if saw_not_applicable:
        return NOT_APPLICABLE
    return HOLDS


def _counted_fraction(
    ann: UAnnotation, body, flat, subjects, bearer_of, good
) -> Optional[list[str]]:
    """Apply one annotation's counting rule.

    Returns the failing group members when the satisfying fraction falls
    short, an empty list when it meets the bound, or None when the group
    the annotation quantifies over is empty.
    """
    path = ann.matched_path
    if path == ("inheres_in",):
        group = subjects

        def satisfied(x: str) -> bool:
            return all(good(q) for q, bearers in bearer_of.items() if x in bearers)

    elif path == ("observed_by",):
        members: set[str] = set()
        for observer in body.observers:
            members |= eval_description(observer, flat)
        if not members:
            return None
        observed = flat.tuples("observed_by")
        group = frozenset(members)

        def satisfied(u: str) -> bool:
            return all(good(q) for q in bearer_of if (q, u) in observed)

    elif path[0] == "inheres_in" and len(path) == 2:
        filler = next(
            (
                d.filler
                for d in subterms(body.subject)
                if isinstance(d, SlotRestriction) and d.slot == path[1]
            ),
            None,
        )
        if filler is None:
            raise PathMismatch(f"no slot {path[1]!r} in the subject description")
        group = eval_description(filler, flat)
        if not group:
            return None
        pairs = flat.tuples(path[1])

        def satisfied(f: str) -> bool:
            bearers = {x for (x, y) in pairs if y == f and x in subjects}
            return all(
                good(q)
                for q, q_bearers in bearer_of.items()
                if q_bearers & bearers
            )

    else:
        raise PathMismatch(
            f"annotation path {'.'.join(path)!r} is not checkable against a world"
        )

    winners = sum(1 for member in group if satisfied(member))
    if Fraction(winners, len(group)) >= ann.pct_low:
        return []
    return [member for member in sorted(group) if not satisfied(member)]
