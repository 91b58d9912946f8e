"""Logic translation and finite-world evaluation for structured elements.

`translate_description` and `translate_element` map descriptions and
elements into a small description-logic fragment used by the subsumption
reasoner and the exporter. One evaluator computes the exact extension of a
fragment concept over a finite closed world (`eval_dl`); `eval_description`
evaluates a description through its translation.
"""

from __future__ import annotations

from collections import _tuplegetter
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
    SOME,
    annotation_path_error,
)


class PathMismatch(ValueError):
    """A percentage annotation names a path that does not occur in the
    element it decorates."""


# ===== PART 1: evaluating descriptions =====


def eval_description(d: Description, world: World) -> frozenset[str]:
    """Compute the exact extension of `d` over a finite closed world."""
    return _eval_dl(translate_description(d), world.materialize())


# ===== PART 2: the logic fragment =====


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


def _graft_annotations(body: QualityStatement):
    subject = body.subject
    observers = body.observers
    for ann in body.pct_annotations:
        # grafting only widens fillers, so a path that holds in the body
        # holds in the grafted descriptions too
        error = annotation_path_error(body, ann.matched_path)
        if error is not None:
            raise PathMismatch(error)
        pct = SlotRestriction("pct", SOME, Region(Interval(ann.pct_low, ann.pct_high)))
        head, rest = ann.matched_path[0], ann.matched_path[1:]
        if head == "inheres_in":
            subject = _wrap_at_path(subject, rest, pct)
        else:
            observers = tuple(_wrap_at_path(o, rest, pct) for o in observers)
    return subject, observers


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
    subject, observers = _graft_annotations(body)
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
