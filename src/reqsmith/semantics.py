"""Logic translation and finite-world evaluation for structured elements.

`translate_description` and `translate_element` map descriptions and
elements into a small description-logic fragment used by the subsumption
reasoner and the exporter. One evaluator computes the exact extension of a
fragment concept over a finite closed world (`eval_dl`); `eval_description`
evaluates a description through its translation.
"""

from __future__ import annotations

import operator
from typing import Optional

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
    Union,
    World,
    ModifierKind,
    _record,
    fold,
    graft_annotations,
)


class PathMismatch(ValueError):
    """A percentage annotation names a path that does not occur in the
    element it decorates."""


# ===== PART 1: evaluating descriptions =====


def eval_description(d: Description, world: World) -> frozenset[str]:
    """Compute the exact extension of `d` over a finite closed world."""
    return _eval_dl(translate_description(d), world.materialize())


# ===== PART 2: the logic fragment =====


# Each concept is a record, a tuple whose first item names its class, so
# `DLExists("r", A)` is `("DLExists", "r", A)`.


class DLConcept:
    """A concept of the logic fragment."""

    __slots__ = ()


class DLThing(DLConcept, metaclass=_record):
    """Every individual."""


class DLNothing(DLConcept, metaclass=_record):
    """No individual."""


class DLAtomic(DLConcept, metaclass=_record):
    """A named concept."""

    name: str


class DLAnd(DLConcept, metaclass=_record):
    """The individuals in every argument."""

    args: tuple[DLConcept, ...]


class DLOr(DLConcept, metaclass=_record):
    """The individuals in some argument."""

    args: tuple[DLConcept, ...]


class DLNot(DLConcept, metaclass=_record):
    """The individuals outside `inner`."""

    inner: DLConcept


class DLExists(DLConcept, metaclass=_record):
    """The individuals with some `slot` successor in `filler`."""

    slot: str
    filler: DLConcept


class DLForAll(DLConcept, metaclass=_record):
    """The individuals whose every `slot` successor is in `filler`."""

    slot: str
    filler: DLConcept


class DLCard(DLConcept, metaclass=_record):
    """The individuals with at least, at most or exactly `n` `slot`
    successors in `filler`; `kind` is min, max or exact."""

    slot: str
    kind: str
    n: int
    filler: DLConcept

    def __post_init__(self) -> None:
        if self.kind not in ("min", "max", "exact"):
            raise ValueError(f"bad cardinality kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("cardinalities start at 1")


class DLExistsInverse(DLConcept, metaclass=_record):
    """The individuals that some individual in `filler` has as a `slot`
    successor."""

    slot: str
    filler: DLConcept


class DLDataRange(DLConcept, metaclass=_record):
    """The data values at least (min), at most (max) or equal to (eq)
    `value`, in `unit` when one is given."""

    facet: str
    value: object
    unit: Optional[str] = None

    def __post_init__(self) -> None:
        if self.facet not in ("min", "max", "eq"):
            raise ValueError(f"bad facet {self.facet!r}")


class DLNominal(DLConcept, metaclass=_record):
    """The named individuals `ids`."""

    ids: tuple[str, ...]


class DLSubClassOf(metaclass=_record):
    """The axiom that `sub` is below `sup`."""

    sub: DLConcept
    sup: DLConcept


DL_THING = DLThing()
DL_NOTHING = DLNothing()


# ===== PART 3: translation =====


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


# The getter of each composite concept's children, left to right, for
# `model.fold`; a class missing here is a leaf.
DL_CHILDREN = {
    **dict.fromkeys((DLAnd, DLOr), operator.attrgetter("args")),
    DLNot: lambda c: (c.inner,),
    **dict.fromkeys((DLExists, DLForAll, DLCard, DLExistsInverse), lambda c: (c.filler,)),
}


def translate_description(d: Description) -> DLConcept:
    """Map a description to its logical form, preserving structure."""
    return fold(d, _translate_step)


def _translate_step(d: Description, kids) -> DLConcept:
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
        return DLAnd(tuple(kids))
    if isinstance(d, Union):
        return DLOr(tuple(kids))
    if isinstance(d, Difference):
        return DLAnd((kids[0], DLNot(kids[1])))
    if isinstance(d, Region):
        return translate_region(d.expr)
    if isinstance(d, InverseProjection):
        return DLExistsInverse(d.slot, kids[0])
    assert isinstance(d, SlotRestriction)
    filler = kids[0]
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
    try:
        subject, observers = graft_annotations(body, body.pct_annotations)
    except ValueError as error:
        raise PathMismatch(str(error)) from None
    parts = [
        root,
        translate_description(body.quality),
        DLExists("inheres_in", translate_description(subject)),
        DLExists("has_value_in", translate_region(body.region)),
    ]
    for observer in observers:
        parts.append(DLCard("observed_by", "exact", 1, translate_description(observer)))
    return DLAnd(tuple(parts)), []


# ===== PART 4: evaluating the logic fragment over a world =====


# A walk through ands, ors and nots alone; every other concept is a leaf.
CONNECTIVES = {cls: DL_CHILDREN[cls] for cls in (DLAnd, DLOr, DLNot)}


def _is_dataish(c: DLConcept) -> bool:
    return fold(c, _dataish_step, CONNECTIVES)


def _dataish_step(c: DLConcept, kids) -> bool:
    if isinstance(c, (DLAnd, DLOr, DLNot)):
        return all(kids)
    return isinstance(c, DLDataRange)


def _value_test(c: DLConcept, value) -> bool:
    raw, unit = value, None
    if isinstance(value, Quantity):
        raw, unit = value.value, value.unit

    def step(c: DLConcept, kids) -> bool:
        if isinstance(c, DLAnd):
            return all(kids)
        if isinstance(c, DLOr):
            return any(kids)
        if isinstance(c, DLNot):
            return not kids[0]
        assert isinstance(c, DLDataRange)
        if c.facet == "eq":
            return raw == c.value
        if isinstance(raw, str):
            return False
        if c.unit and unit and c.unit != unit:
            return False
        return raw >= c.value if c.facet == "min" else raw <= c.value

    return fold(c, step, CONNECTIVES)


def _slot_counts(
    slot: str, filler: DLConcept, targets: frozenset[str], w: World
) -> dict[str, tuple[int, int]]:
    """For each individual with a slot successor: how many it has, and how
    many land in the filler, whose extension is `targets`; a data filler
    tests the individual's value instead."""
    counts: dict[str, tuple[int, int]] = {}
    if _is_dataish(filler):
        for (x, s), value in w.data_values.items():
            if s == slot:
                counts[x] = (1, int(_value_test(filler, value)))
        return counts
    for x, y in w.tuples(slot):
        total, inside = counts.get(x, (0, 0))
        counts[x] = (total + 1, inside + (y in targets))
    return counts


_COUNT_TESTS = {"min": operator.ge, "max": operator.le, "exact": operator.eq}


def _eval_dl(c: DLConcept, w: World) -> frozenset[str]:
    def step(c: DLConcept, kids) -> frozenset[str]:
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
            for extension in kids:
                result &= extension
            return result
        if isinstance(c, DLOr):
            return frozenset().union(*kids)
        if isinstance(c, DLNot):
            return frozenset(w.individuals) - kids[0]
        if isinstance(c, DLExistsInverse):
            return frozenset(y for (x, y) in w.tuples(c.slot) if x in kids[0])
        counts = _slot_counts(c.slot, c.filler, kids[0], w)
        if isinstance(c, DLExists):
            return w.individuals & {x for x, (_, inside) in counts.items() if inside}
        if isinstance(c, DLForAll):
            missed = {x for x, (total, inside) in counts.items() if inside < total}
            return w.individuals - missed
        assert isinstance(c, DLCard)
        holds = _COUNT_TESTS[c.kind]
        return frozenset(x for x in w.individuals if holds(counts.get(x, (0, 0))[1], c.n))

    return fold(c, step, DL_CHILDREN)


def eval_dl(c: DLConcept, world: World) -> frozenset[str]:
    """Extension of a logic-fragment concept over a finite closed world."""
    return _eval_dl(c, world.materialize())
