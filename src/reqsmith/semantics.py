"""Logic translation and finite-world evaluation for structured elements.

`translate_description` and `translate_element` map descriptions and
elements into a small description-logic fragment used by the subsumption
reasoner and the exporter. One evaluator computes the exact extension of a
fragment concept over a finite closed world (`eval_dl`); `eval_description`
evaluates a description through its translation, and `element_holds` checks
a structured element against a world with it, including the counting rule
for percentage annotations.
"""

from __future__ import annotations

from collections import _tuplegetter
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .model import (
    AtomicConcept,
    Description,
    Difference,
    Element,
    Enumeration,
    FunctionDesc,
    Intersection,
    Interval,
    InverseProjection,
    Kind,
    NamedRegion,
    NaturalLanguage,
    Nothing,
    QualityStatement,
    Quantity,
    Region,
    RegionExpr,
    SlotRestriction,
    Subsumption,
    Thing,
    UAnnotation,
    Union,
    World,
    ModifierKind,
    SOME,
    EXACTLY_ONE,
    annotation_path_error,
    subterms,
)


class UnsupportedNestedU(ValueError):
    """Two percentage annotations stack on the same path; world checking
    supports at most one level of nesting per path."""


class PathMismatch(ValueError):
    """A percentage annotation names a path that does not occur in the
    element it decorates."""


# ===== PART 1: holds-checking result =====


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


# ===== PART 2: evaluating descriptions =====


def eval_description(d: Description, world: World) -> frozenset[str]:
    """Compute the exact extension of `d` over a finite closed world."""
    return _eval_dl(translate_description(d), world.materialize())


# ===== PART 3: checking elements against a world =====


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


# ===== PART 4: the logic fragment =====


# Each concept is a tuple whose first item names its class, so
# `DLExists("r", A)` is `("DLExists", "r", A)`. Equality and hashing are
# tuple's, which run in C, and no class here generates code at import.
# Fields read through the C getter that named tuples use.


class _Tagged(tuple):
    """An immutable tuple of a class name followed by the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self[1:]))
        return f"{self[0]}({fields})"

    def __getnewargs__(self):
        return self[1:]


class DLConcept(_Tagged):
    """A concept of the logic fragment."""

    __slots__ = ()


class DLThing(DLConcept):
    """Every individual."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, ("DLThing",))


class DLNothing(DLConcept):
    """No individual."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, ("DLNothing",))


class DLAtomic(DLConcept):
    """A named concept."""

    __slots__ = ()
    _fields = ("name",)
    name = _tuplegetter(1, None)

    def __new__(cls, name: str):
        return tuple.__new__(cls, ("DLAtomic", name))


class DLAnd(DLConcept):
    """The individuals in every argument."""

    __slots__ = ()
    _fields = ("args",)
    args = _tuplegetter(1, None)

    def __new__(cls, args: tuple[DLConcept, ...]):
        return tuple.__new__(cls, ("DLAnd", args))


class DLOr(DLConcept):
    """The individuals in some argument."""

    __slots__ = ()
    _fields = ("args",)
    args = _tuplegetter(1, None)

    def __new__(cls, args: tuple[DLConcept, ...]):
        return tuple.__new__(cls, ("DLOr", args))


class DLNot(DLConcept):
    """The individuals outside `inner`."""

    __slots__ = ()
    _fields = ("inner",)
    inner = _tuplegetter(1, None)

    def __new__(cls, inner: DLConcept):
        return tuple.__new__(cls, ("DLNot", inner))


class DLExists(DLConcept):
    """The individuals with some `slot` successor in `filler`."""

    __slots__ = ()
    _fields = ("slot", "filler")
    slot = _tuplegetter(1, None)
    filler = _tuplegetter(2, None)

    def __new__(cls, slot: str, filler: DLConcept):
        return tuple.__new__(cls, ("DLExists", slot, filler))


class DLForAll(DLConcept):
    """The individuals whose every `slot` successor is in `filler`."""

    __slots__ = ()
    _fields = ("slot", "filler")
    slot = _tuplegetter(1, None)
    filler = _tuplegetter(2, None)

    def __new__(cls, slot: str, filler: DLConcept):
        return tuple.__new__(cls, ("DLForAll", slot, filler))


class DLCard(DLConcept):
    """The individuals with at least, at most or exactly `n` `slot`
    successors in `filler`; `kind` is min, max or exact."""

    __slots__ = ()
    _fields = ("slot", "kind", "n", "filler")
    slot = _tuplegetter(1, None)
    kind = _tuplegetter(2, None)
    n = _tuplegetter(3, None)
    filler = _tuplegetter(4, None)

    def __new__(cls, slot: str, kind: str, n: int, filler: DLConcept):
        if kind not in ("min", "max", "exact"):
            raise ValueError(f"bad cardinality kind {kind!r}")
        if n < 1:
            raise ValueError("cardinalities start at 1")
        return tuple.__new__(cls, ("DLCard", slot, kind, n, filler))


class DLExistsInverse(DLConcept):
    """The individuals that some individual in `filler` has as a `slot`
    successor."""

    __slots__ = ()
    _fields = ("slot", "filler")
    slot = _tuplegetter(1, None)
    filler = _tuplegetter(2, None)

    def __new__(cls, slot: str, filler: DLConcept):
        return tuple.__new__(cls, ("DLExistsInverse", slot, filler))


class DLDataRange(DLConcept):
    """The data values at least (min), at most (max) or equal to (eq)
    `value`, in `unit` when one is given."""

    __slots__ = ()
    _fields = ("facet", "value", "unit")
    facet = _tuplegetter(1, None)
    value = _tuplegetter(2, None)
    unit = _tuplegetter(3, None)

    def __new__(cls, facet: str, value: object, unit: Optional[str] = None):
        if facet not in ("min", "max", "eq"):
            raise ValueError(f"bad facet {facet!r}")
        return tuple.__new__(cls, ("DLDataRange", facet, value, unit))


class DLNominal(DLConcept):
    """The named individuals `ids`."""

    __slots__ = ()
    _fields = ("ids",)
    ids = _tuplegetter(1, None)

    def __new__(cls, ids: tuple[str, ...]):
        return tuple.__new__(cls, ("DLNominal", ids))


class DLSubClassOf(_Tagged):
    """The axiom that `sub` is below `sup`."""

    __slots__ = ()
    _fields = ("sub", "sup")
    sub = _tuplegetter(1, None)
    sup = _tuplegetter(2, None)

    def __new__(cls, sub: DLConcept, sup: DLConcept):
        return tuple.__new__(cls, ("DLSubClassOf", sub, sup))


DL_THING = DLThing()
DL_NOTHING = DLNothing()


# ===== PART 5: translation =====


def translate_region(expr: RegionExpr) -> DLConcept:
    if isinstance(expr, NamedRegion):
        return DLAtomic(expr.name)
    if isinstance(expr, Interval):
        return DLAnd(
            (
                DLDataRange("min", expr.low, expr.unit),
                DLDataRange("max", expr.high, expr.unit),
            )
        )
    parts = tuple(DLDataRange("eq", value) for value in expr.values)
    return parts[0] if len(parts) == 1 else DLOr(parts)


def translate_description(d: Description) -> DLConcept:
    """Map a description to its logical form, preserving structure."""
    if isinstance(d, AtomicConcept):
        return DLAtomic(d.name)
    if isinstance(d, Thing):
        return DL_THING
    if isinstance(d, Nothing):
        return DL_NOTHING
    if isinstance(d, Enumeration):
        parts = tuple(DLNominal((i,)) for i in d.ids)
        return parts[0] if len(parts) == 1 else DLOr(parts)
    if isinstance(d, Intersection):
        return DLAnd((translate_description(d.left), translate_description(d.right)))
    if isinstance(d, Union):
        return DLOr((translate_description(d.left), translate_description(d.right)))
    if isinstance(d, Difference):
        return DLAnd(
            (translate_description(d.left), DLNot(translate_description(d.right)))
        )
    if isinstance(d, Region):
        return translate_region(d.expr)
    if isinstance(d, InverseProjection):
        return DLExistsInverse(d.slot, translate_description(d.source))
    assert isinstance(d, SlotRestriction)
    filler = translate_description(d.filler)
    kind = d.modifier.kind
    if kind is ModifierKind.EXACTLY_ONE:
        return DLCard(d.slot, "exact", 1, filler)
    if kind is ModifierKind.SOME:
        return DLExists(d.slot, filler)
    if kind is ModifierKind.ONLY:
        return DLForAll(d.slot, filler)
    card_kind = {
        ModifierKind.AT_MOST: "max",
        ModifierKind.AT_LEAST: "min",
        ModifierKind.EXACTLY: "exact",
    }[kind]
    return DLCard(d.slot, card_kind, d.modifier.n, filler)


def _pct_restriction(ann: UAnnotation, modifier) -> SlotRestriction:
    return SlotRestriction(
        "pct", modifier, Region(Interval(ann.pct_low, ann.pct_high))
    )


def _wrap_at_path(d: Description, rest: tuple[str, ...], pct: SlotRestriction):
    return _replace_first(d, rest, pct) if rest else Union(d, pct)


def _replace_first(d: Description, rest, pct) -> Optional[Description]:
    """Rebuild `d` with the first restriction on `rest[0]` deepened; None
    when the slot does not occur anywhere."""
    if isinstance(d, SlotRestriction):
        if d.slot == rest[0]:
            return SlotRestriction(
                d.slot, d.modifier, _wrap_at_path(d.filler, rest[1:], pct)
            )
        inner = _replace_first(d.filler, rest, pct)
        if inner is not None:
            return SlotRestriction(d.slot, d.modifier, inner)
        return None
    if isinstance(d, (Intersection, Union, Difference)):
        left = _replace_first(d.left, rest, pct)
        if left is not None:
            return type(d)(left, d.right)
        right = _replace_first(d.right, rest, pct)
        if right is not None:
            return type(d)(d.left, right)
        return None
    if isinstance(d, InverseProjection):
        inner = _replace_first(d.source, rest, pct)
        if inner is not None:
            return InverseProjection(inner, d.slot)
        return None
    return None


def _graft_annotations(body: QualityStatement, modifier):
    subject = body.subject
    observers = body.observers
    for ann in body.pct_annotations:
        # grafting only widens fillers, so a path that holds in the body
        # holds in the grafted descriptions too
        error = annotation_path_error(body, ann.matched_path)
        if error is not None:
            raise PathMismatch(error)
        pct = _pct_restriction(ann, modifier)
        head, rest = ann.matched_path[0], ann.matched_path[1:]
        if head == "inheres_in":
            subject = _wrap_at_path(subject, rest, pct)
        else:
            observers = tuple(_wrap_at_path(o, rest, pct) for o in observers)
    return subject, observers


def expand_u(e: Element) -> Element:
    """Materialize percentage annotations into the subject description.

    Each annotation widens the description at its path with an alternative
    `<pct: [low, 1]>` branch, applied in declaration order; the returned
    element carries no annotations.
    """
    body = e.body
    if not isinstance(body, QualityStatement) or not body.pct_annotations:
        raise ValueError("only quality elements with annotations can be expanded")
    subject, observers = _graft_annotations(body, EXACTLY_ONE)
    return Element(
        e.id,
        e.kind,
        QualityStatement(body.quality, subject, body.region, observers, ()),
    )


def translate_element(e: Element) -> tuple[DLConcept, list]:
    """Build the logical image of one element: its concept plus any axioms."""
    body = e.body
    if isinstance(body, NaturalLanguage):
        raise ValueError("an unstructured element has no logical form")
    root = DLAtomic("Function" if e.kind is Kind.F else e.kind.display)
    if isinstance(body, FunctionDesc):
        parts = [root, DLAtomic(body.head)]
        parts.extend(translate_description(slot) for slot in body.slots)
        return DLAnd(tuple(parts)), []
    if isinstance(body, Subsumption):
        sub = translate_description(body.subsumee)
        sup = translate_description(body.subsumer)
        concept = DLAnd((root, DLExists("subsumee", sub), DLExists("subsumer", sup)))
        return concept, [DLSubClassOf(sub, sup)]
    assert isinstance(body, QualityStatement)
    subject, observers = _graft_annotations(body, SOME)
    parts = [
        root,
        translate_description(body.quality),
        DLExists("inheres_in", translate_description(subject)),
        DLExists("has_value_in", translate_region(body.region)),
    ]
    for observer in observers:
        parts.append(DLCard("observed_by", "exact", 1, translate_description(observer)))
    return DLAnd(tuple(parts)), []


# ===== PART 6: evaluating the logic fragment over a world =====


def _is_dataish(c: DLConcept) -> bool:
    if isinstance(c, DLDataRange):
        return True
    if isinstance(c, (DLAnd, DLOr)):
        return all(_is_dataish(a) for a in c.args)
    return False


def _value_test(c: DLConcept, value) -> bool:
    if isinstance(c, DLAnd):
        return all(_value_test(a, value) for a in c.args)
    if isinstance(c, DLOr):
        return any(_value_test(a, value) for a in c.args)
    assert isinstance(c, DLDataRange)
    raw, unit = value, None
    if isinstance(value, Quantity):
        raw, unit = value.value, value.unit
    if c.facet == "eq":
        return raw == c.value
    if isinstance(raw, str):
        return False
    if c.unit and unit and c.unit != unit:
        return False
    return raw >= c.value if c.facet == "min" else raw <= c.value


def _slot_counts(slot: str, filler: DLConcept, w: World) -> dict[str, tuple[int, int]]:
    """For each individual with a slot successor: how many it has, and how
    many land in the filler. The filler is evaluated once for the whole slot."""
    counts: dict[str, tuple[int, int]] = {}
    if _is_dataish(filler):
        for (x, s), value in w.data_values.items():
            if s == slot:
                counts[x] = (1, int(_value_test(filler, value)))
        return counts
    targets = _eval_dl(filler, w)
    for x, y in w.tuples(slot):
        total, inside = counts.get(x, (0, 0))
        counts[x] = (total + 1, inside + (y in targets))
    return counts


def _eval_dl(c: DLConcept, w: World) -> frozenset[str]:
    if isinstance(c, DLAtomic):
        return w.extension(c.name)
    if isinstance(c, DLThing):
        return frozenset(w.individuals)
    if isinstance(c, (DLNothing, DLDataRange)):
        return frozenset()
    if isinstance(c, DLNominal):
        return frozenset(c.ids) & w.individuals
    if isinstance(c, DLAnd):
        result = frozenset(w.individuals)
        for arg in c.args:
            result &= _eval_dl(arg, w)
        return result
    if isinstance(c, DLOr):
        result: frozenset[str] = frozenset()
        for arg in c.args:
            result |= _eval_dl(arg, w)
        return result
    if isinstance(c, DLNot):
        return frozenset(w.individuals) - _eval_dl(c.inner, w)
    if isinstance(c, DLExistsInverse):
        sources = _eval_dl(c.filler, w)
        return frozenset(y for (x, y) in w.tuples(c.slot) if x in sources)
    counts = _slot_counts(c.slot, c.filler, w)
    if isinstance(c, DLExists):
        return w.individuals & {x for x, (_, inside) in counts.items() if inside}
    if isinstance(c, DLForAll):
        missed = {x for x, (total, inside) in counts.items() if inside < total}
        return w.individuals - missed
    assert isinstance(c, DLCard)
    result = set()
    for x in w.individuals:
        count = counts.get(x, (0, 0))[1]
        if c.kind == "min":
            ok = count >= c.n
        elif c.kind == "max":
            ok = count <= c.n
        else:
            ok = count == c.n
        if ok:
            result.add(x)
    return frozenset(result)


def eval_dl(c: DLConcept, world: World) -> frozenset[str]:
    """Extension of a logic-fragment concept over a finite closed world."""
    return _eval_dl(c, world.materialize())
