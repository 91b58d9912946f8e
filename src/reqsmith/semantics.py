"""Logic translation and finite-world evaluation for structured elements.

`translate_description` and `translate_element` map descriptions and
elements into a small description-logic fragment used by the subsumption
reasoner and the exporter. One evaluator computes the exact extension of a
fragment concept over a finite closed world (`eval_dl`); `eval_description`
evaluates a description through its translation.
"""

from __future__ import annotations

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


def _is_dataish(c: DLConcept) -> bool:
    if isinstance(c, DLDataRange):
        return True
    if isinstance(c, (DLAnd, DLOr)):
        return all(_is_dataish(a) for a in c.args)
    if isinstance(c, DLNot):
        return _is_dataish(c.inner)
    return False


def _value_test(c: DLConcept, value) -> bool:
    if isinstance(c, DLAnd):
        return all(_value_test(a, value) for a in c.args)
    if isinstance(c, DLOr):
        return any(_value_test(a, value) for a in c.args)
    if isinstance(c, DLNot):
        return not _value_test(c.inner, value)
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
