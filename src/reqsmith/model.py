"""Core data model shared by every other module.

Defines the description algebra (the expression language element bodies are
written in), the nine requirement element kinds, operator application
records, finite instance worlds, prototype region specifications, and the
model container, together with operator signatures, model validation,
description traversal, and symbol collection.
"""

from __future__ import annotations

from collections import _tuplegetter
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Union as TypingUnion


# Each record in the package is an immutable tuple made by `_record`: its
# class name followed by its fields, so `Quantity(F(5), "ms")` is the tuple
# `("Quantity", F(5), "ms")`. Equality and hashing are the tuple's, which
# run in C, and records of different classes differ in their first item.
# The field names are the class's own annotations, in order, kept as
# `__match_args__`; each field reads through the C getter that named tuples
# use. Nothing is compiled per class, so importing the model stays cheap.


def _record_repr(self) -> str:
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self[1:]))
    return f"{self.__class__.__qualname__}({fields})"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record_newargs(self) -> tuple:
    return self[1:]


class _Fresh:
    """A field default built anew for each record, such as `_Fresh(dict)`."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call that does not pass every field by position,
    or the TypeError a function with these parameters would raise."""
    call = f"{cls.__qualname__}()"
    if len(args) > len(names):
        raise TypeError(f"{call} takes {len(names)} arguments but {len(args)} were given")
    for name in names[: len(args)]:
        if name in kwargs:
            raise TypeError(f"{call} got multiple values for argument {name!r}")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
    values = list(args)
    for name in names[len(args) :]:
        if name in kwargs:
            values.append(kwargs[name])
        elif name in defaults:
            default = defaults[name]
            values.append(default.make() if isinstance(default, _Fresh) else default)
        else:
            raise TypeError(f"{call} missing required argument {name!r}")
    return tuple(values)


def _record(name: str, bases: tuple, namespace: dict) -> type:
    """Make the class `name` a record: a tuple of its class name and its
    fields. A class statement calls it as its metaclass,
    `class Interval(RegionExpr, metaclass=_record):`, so the class is made
    once, as a plain `type`.

    Its fields are its own annotations, in order; a class attribute of the
    same name is the field's default. After the fields are bound, the
    class's `__post_init__`, if it has one, checks the record. A class that
    defines its own `__eq__` keeps it, and keeps its own `__hash__` too. A
    record has no instance dict unless its class declares
    `__slots__ = ("__dict__",)`.
    """
    names = tuple(namespace.get("__annotations__", ()))
    defaults = {field: namespace.pop(field) for field in names if field in namespace}
    if "__dict__" not in namespace.pop("__slots__", ()):
        namespace["__slots__"] = ()
    count, post_init = len(names), namespace.get("__post_init__")
    # pads[n]: the plain trailing defaults that a call of n values by position takes
    pads, pad = {}, ()
    for field in reversed(names):
        if field not in defaults or isinstance(defaults[field], _Fresh):
            break
        pad = (defaults[field],) + pad
        pads[count - len(pad)] = pad
    new = tuple.__new__

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != count:
            pad = pads.get(len(args))
            if kwargs or pad is None:
                args = _bind(cls, names, defaults, args, kwargs)
            else:
                args += pad
        record = new(cls, (name,) + args)
        if post_init is not None:
            post_init(record)
        return record

    namespace.update(
        {field: _tuplegetter(index, None) for index, field in enumerate(names, 1)},
        __new__=__new__,
        __match_args__=names,
        __setattr__=_record_setattr,
        __delattr__=_record_delattr,
        __repr__=_record_repr,
        __getnewargs__=_record_newargs,
    )
    return type(name, (*bases, tuple), namespace)


def replace(record, **changes):
    """A copy of `record` with the given fields changed. It is built by
    calling its class, so the record's checks run again."""
    values = [changes.pop(name, getattr(record, name)) for name in record.__match_args__]
    if changes:
        name = next(iter(changes))
        raise TypeError(f"{record.__class__.__qualname__} has no field {name!r}")
    return record.__class__(*values)


# ===== PART 1: the description algebra =====


class Description:
    """Base class for description expressions (concept-level algebra)."""

    __slots__ = ()


class ModifierKind(Enum):
    EXACTLY_ONE = "exactly_one"
    AT_MOST = "at_most"
    AT_LEAST = "at_least"
    EXACTLY = "exactly"
    SOME = "some"
    ONLY = "only"


class CardinalityModifier(metaclass=_record):
    """How many slot fillers of the given filler type a member must have.

    The default (no written modifier) requires exactly one matching filler.
    SOME requires at least one; ONLY requires every filler to match and is
    vacuously satisfied by individuals with no filler at all.
    """

    kind: ModifierKind
    n: Optional[int] = None

    def __post_init__(self) -> None:
        bounded = self.kind in (
            ModifierKind.AT_MOST,
            ModifierKind.AT_LEAST,
            ModifierKind.EXACTLY,
        )
        if bounded:
            if self.n is None or self.n < 1:
                raise ValueError("bounded cardinality modifiers need n >= 1")
        elif self.n is not None:
            raise ValueError(f"{self.kind.value} modifier takes no count")


EXACTLY_ONE = CardinalityModifier(ModifierKind.EXACTLY_ONE)
SOME = CardinalityModifier(ModifierKind.SOME)
ONLY = CardinalityModifier(ModifierKind.ONLY)


def at_most(n: int) -> CardinalityModifier:
    return CardinalityModifier(ModifierKind.AT_MOST, n)


def at_least(n: int) -> CardinalityModifier:
    return CardinalityModifier(ModifierKind.AT_LEAST, n)


def exactly(n: int) -> CardinalityModifier:
    return CardinalityModifier(ModifierKind.EXACTLY, n)


class RegionExpr:
    """Base class for quality region expressions (value-level algebra)."""

    __slots__ = ()


class NamedRegion(RegionExpr, metaclass=_record):
    """A region referred to by name.

    `qualitative` is True for vague regions (no agreed measurement) and False
    for named regions that are backed by a measurable definition.
    """

    name: str
    qualitative: bool = True


class Interval(RegionExpr, metaclass=_record):
    """An inclusive numeric range `[low, high]`, in `unit` when one is given."""

    low: Fraction
    high: Fraction
    unit: Optional[str] = None

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError("interval low bound exceeds high bound")


class ValueSet(RegionExpr, metaclass=_record):
    """A finite set of admissible values (rationals or strings)."""

    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("value set must be non-empty")


class AtomicConcept(Description, metaclass=_record):
    """A named class, written as its bare name."""

    name: str


class Enumeration(Description, metaclass=_record):
    """A finite set of named individuals, written `{id1, id2}`."""

    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.ids:
            raise ValueError("enumeration must be non-empty")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("enumeration ids must be duplicate-free")


class SlotRestriction(Description, metaclass=_record):
    """`<slot: modifier filler>`: members restricted through a slot."""

    slot: str
    modifier: CardinalityModifier
    filler: Description


class InverseProjection(Description, metaclass=_record):
    """`D.s`: everything some member of D points at through slot s."""

    source: Description
    slot: str


class Intersection(Description, metaclass=_record):
    """The members of both sides, written by juxtaposition."""

    left: Description
    right: Description


class Union(Description, metaclass=_record):
    """The members of either side, written `left | right`."""

    left: Description
    right: Description


class Difference(Description, metaclass=_record):
    """The members of the left side outside the right, written `left - right`."""

    left: Description
    right: Description


class Region(Description, metaclass=_record):
    """A region expression used in description position (slot fillers)."""

    expr: RegionExpr


class Thing(Description, metaclass=_record):
    """Every individual."""


class Nothing(Description, metaclass=_record):
    """No individual."""


THING = Thing()
NOTHING = Nothing()


# ===== PART 2: elements and operator applications =====


class Kind(Enum):
    """The nine requirement element kinds."""

    GOAL = "goal"
    FG = "fg"
    F = "func"
    FC = "fc"
    QG = "qg"
    QC = "qc"
    CTG = "ctg"
    SC = "sc"
    DA = "da"

    @property
    def display(self) -> str:
        return "Goal" if self is Kind.GOAL else self.name

QUALITY_KINDS = frozenset({Kind.QG, Kind.QC})
SUBSUMPTION_KINDS = frozenset({Kind.FG, Kind.FC, Kind.CTG, Kind.SC, Kind.DA})


class NaturalLanguage(metaclass=_record):
    """An unstructured body: raw text awaiting interpretation."""

    text: str


class FunctionDesc(metaclass=_record):
    """A capability: a head verb concept plus slot restrictions."""

    head: str
    slots: tuple[SlotRestriction, ...] = ()


class Subsumption(metaclass=_record):
    """`subsumee :< subsumer`: every subsumee member is a subsumer member."""

    subsumee: Description
    subsumer: Description


class UAnnotation(metaclass=_record):
    """A per-fraction relaxation: only `pct_low` of the matched population
    needs to satisfy the statement.

    `matched_path` locates the relaxed population: `(inheres_in,)` relaxes
    over subjects, `(observed_by,)` over observers, and `(inheres_in, s)`
    over the fillers of slot `s` inside the subject description.
    """

    var_id: str
    matched_path: tuple[str, ...]
    pct_low: Fraction

    def __post_init__(self) -> None:
        if not self.matched_path:
            raise ValueError("annotation path must be non-empty")
        if not (0 < self.pct_low <= 1):
            raise ValueError("pct_low must be in (0, 1]")


class QualityStatement(metaclass=_record):
    """`Quality (Subject) :: Region` with optional observers and pct marks.

    The quality position is a description because focusing may widen an
    atomic quality into a union of quality types.
    """

    quality: Description
    subject: Description
    region: RegionExpr
    observers: tuple[Description, ...] = ()
    pct_annotations: tuple[UAnnotation, ...] = ()


ElementBody = TypingUnion[NaturalLanguage, FunctionDesc, Subsumption, QualityStatement]


class Element(metaclass=_record):
    """One declared requirement: its id, its kind and its body."""

    id: str
    kind: Kind
    body: ElementBody


class Operator(Enum):
    REDUCE = "reduce"
    INTERPRET = "interpret"
    FOCUS = "focus"
    SCALE = "scale"
    DEUNIVERSALIZE = "deuniv"
    RESOLVE = "resolve"
    OPERATIONALIZE = "operationalize"
    OBSERVE = "observe"


class Strength(Enum):
    STRENGTHENING = "strengthen"
    WEAKENING = "weaken"
    EQUATING = "equate"


class ScaleDirection(Enum):
    UP = "up"
    DOWN = "down"


class ScaleFactor(metaclass=_record):
    """Either a pair of bound multipliers or a target region name.

    Down-scaling may only enlarge the region (low factor <= 1 <= high
    factor); up-scaling may only shrink it (low factor >= 1, high factor
    <= 1). On a region with a negative bound such a pair can still shift or
    empty the region; `scale_error` refuses that.
    """

    low_factor: Optional[Fraction] = None
    high_factor: Optional[Fraction] = None
    region_name: Optional[str] = None

    def __post_init__(self) -> None:
        quantitative = self.low_factor is not None or self.high_factor is not None
        if quantitative:
            if self.low_factor is None or self.high_factor is None:
                raise ValueError("quantitative factor needs both multipliers")
            if self.region_name is not None:
                raise ValueError("factor is either quantitative or named, not both")
        elif self.region_name is None:
            raise ValueError("factor needs multipliers or a region name")

    @property
    def is_quantitative(self) -> bool:
        return self.low_factor is not None

    def allows(self, direction: ScaleDirection) -> bool:
        if not self.is_quantitative:
            return True
        if direction is ScaleDirection.DOWN:
            return self.low_factor <= 1 <= self.high_factor
        return self.low_factor >= 1 and self.high_factor <= 1


class ScaleArgs(metaclass=_record):
    """The factor and direction of a scale application."""

    factor: ScaleFactor
    direction: ScaleDirection


class ObserveArgs(metaclass=_record):
    """The observer an observe application adds."""

    observer: Description


class DeUniversalizeArgs(metaclass=_record):
    """The percentage annotation a deuniversalize application adds."""

    annotation: UAnnotation


OperatorArgs = TypingUnion[ScaleArgs, ObserveArgs, DeUniversalizeArgs, None]


class OperatorApplication(metaclass=_record):
    """One operator applied to input elements, giving output elements."""

    op: Operator
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    strength: Strength
    args: OperatorArgs = None


ONE_TO_ONE_OPS = frozenset(
    {Operator.INTERPRET, Operator.SCALE, Operator.DEUNIVERSALIZE, Operator.OBSERVE}
)
ONE_TO_MANY_OPS = frozenset({Operator.REDUCE, Operator.FOCUS, Operator.OPERATIONALIZE})

# Operator signatures: validation, the strength audit and the operators all
# read the tables below.

_OPERATIONALIZE_TARGETS = {
    Kind.FG: frozenset({Kind.F, Kind.FC, Kind.DA}),
    Kind.QG: frozenset({Kind.QC, Kind.F, Kind.FC, Kind.DA}),
    Kind.CTG: frozenset({Kind.SC, Kind.DA}),
    Kind.GOAL: frozenset({Kind.DA}),
}


class _Signature(metaclass=_record):
    """Where an operator may take an element.

    `inputs` are the kinds it reads; another input kind is reported with
    `input_message`. `outputs[k]` are the kinds an input of kind `k` may
    produce; each other output is reported with `output_message`, and the
    outputs of an input kind missing from `outputs` are not checked. The
    messages are formatted with `op`, `input`, `output` and `eid`.
    """

    inputs: frozenset[Kind]
    input_message: str
    outputs: dict[Kind, frozenset[Kind]]
    output_message: str


_ALL_KINDS = frozenset(Kind)
_STAYS_QUALITY = _Signature(
    QUALITY_KINDS,
    "{op} applies to quality elements",
    {kind: QUALITY_KINDS for kind in Kind},
    "output {eid} must stay a quality element",
)

# Resolution selects among its inputs, so it has no kind routing.
_SIGNATURES = {
    Operator.REDUCE: _Signature(
        _ALL_KINDS,
        "",
        {kind: frozenset({kind, Kind.DA}) for kind in Kind},
        "reduction output {eid} must keep kind {input}",
    ),
    Operator.INTERPRET: _Signature(
        _ALL_KINDS,
        "",
        {kind: _ALL_KINDS if kind is Kind.GOAL else frozenset({kind}) for kind in Kind},
        "interpretation cannot change a non-goal kind",
    ),
    Operator.OPERATIONALIZE: _Signature(
        frozenset(_OPERATIONALIZE_TARGETS),
        "{input} cannot be operationalized",
        _OPERATIONALIZE_TARGETS,
        "operationalization of {input} cannot produce {output} ({eid})",
    ),
    Operator.FOCUS: _STAYS_QUALITY,
    Operator.DEUNIVERSALIZE: _STAYS_QUALITY,
    Operator.SCALE: _Signature(
        QUALITY_KINDS,
        "scaling applies to quality elements",
        {kind: frozenset({kind}) for kind in Kind},
        "scaled output {eid} must keep its kind",
    ),
    Operator.OBSERVE: _Signature(
        QUALITY_KINDS,
        "observation applies to quality elements",
        {kind: frozenset({Kind.QC}) for kind in Kind},
        "observed output {eid} must be a quality constraint",
    ),
}

# The strengths an operator's semantics allows, whatever the tag says, and
# why. An operator missing here may carry any tag; the audit checks it
# against the provable directions instead.
_FIXED_STRENGTH = {
    Operator.OBSERVE: (
        frozenset({Strength.STRENGTHENING}),
        "observation always strengthens",
    ),
    Operator.DEUNIVERSALIZE: (
        frozenset({Strength.WEAKENING}),
        "dropping universality always weakens",
    ),
    Operator.INTERPRET: (
        frozenset({Strength.STRENGTHENING, Strength.EQUATING}),
        "interpretation cannot weaken",
    ),
    Operator.FOCUS: (
        frozenset({Strength.WEAKENING, Strength.EQUATING}),
        "narrowing focus cannot strengthen",
    ),
}
# Assumptions hold under any solution, so an operationalization whose outputs
# are all assumptions only weakens.
_ASSUMPTIONS_ONLY = (
    frozenset({Strength.WEAKENING}),
    "operationalizing into assumptions only always weakens",
)

# Slots reserved for reasoning; user-written descriptions may not use them.
REASONING_INTERNAL_SLOTS = frozenset(
    {
        "relate_to",
        "relate_to_one",
        "relate_to_many",
        "interpret_to",
        "reduce_to",
        "operationalize_to",
        "pct",
        "subsumee",
        "subsumer",
    }
)


# ===== PART 3: worlds and membership specs =====


class Quantity(metaclass=_record):
    """A rational value tagged with a measurement unit."""

    value: Fraction
    unit: Optional[str] = None


def exact_decimal(value: Fraction) -> Optional[str]:
    """`value` as an exact decimal (`3`, `-0.25`), or None when its decimal
    expansion does not terminate."""
    num, den = value.numerator, value.denominator
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    places = max(twos, fives)
    digits = str(abs(num) * 10**places // den).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    if not places:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


class QualityRecord(metaclass=_record):
    """One concrete quality instance living in a world."""

    quality_id: str
    quality_concept: str
    bearer: str
    value: Fraction
    unit: Optional[str] = None
    observers: frozenset[str] = frozenset()


class World(metaclass=_record):
    """A finite instance structure: the brute-force semantic oracle.

    `data_values` maps (individual, slot) to a rational, string, or Quantity.
    Quality records are sugar: `materialize()` folds them into individuals,
    extensions, slot tuples, and data values without losing information.
    """

    individuals: frozenset[str] = frozenset()
    concept_extensions: dict[str, frozenset[str]] = _Fresh(dict)
    slot_tuples: dict[str, frozenset[tuple[str, str]]] = _Fresh(dict)
    data_values: dict[tuple[str, str], object] = _Fresh(dict)
    quality_records: tuple[QualityRecord, ...] = ()

    def extension(self, concept: str) -> frozenset[str]:
        return self.concept_extensions.get(concept, frozenset())

    def tuples(self, slot: str) -> frozenset[tuple[str, str]]:
        return self.slot_tuples.get(slot, frozenset())

    def materialize(self) -> "World":
        """Fold quality records into plain world structure."""
        if not self.quality_records:
            return self
        individuals = set(self.individuals)
        extensions = {c: set(e) for c, e in self.concept_extensions.items()}
        tuples = {s: set(t) for s, t in self.slot_tuples.items()}
        data = dict(self.data_values)
        for rec in self.quality_records:
            individuals.add(rec.quality_id)
            individuals.add(rec.bearer)
            extensions.setdefault(rec.quality_concept, set()).add(rec.quality_id)
            tuples.setdefault("inheres_in", set()).add((rec.quality_id, rec.bearer))
            for obs in rec.observers:
                individuals.add(obs)
                tuples.setdefault("observed_by", set()).add((rec.quality_id, obs))
            data[(rec.quality_id, "has_value_in")] = Quantity(rec.value, rec.unit)
        return World(
            individuals=frozenset(individuals),
            concept_extensions={c: frozenset(e) for c, e in extensions.items()},
            slot_tuples={s: frozenset(t) for s, t in tuples.items()},
            data_values=data,
            quality_records=(),
        )

    def _contents(self) -> tuple:
        """What equality and hashing read: the materialized world, with
        empty extension and slot entries dropped."""
        w = self.materialize()
        return (
            frozenset(w.individuals),
            _nonempty(w.concept_extensions),
            _nonempty(w.slot_tuples),
            frozenset(w.data_values.items()),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, World):
            return NotImplemented
        return self._contents() == other._contents()

    def __hash__(self) -> int:
        return hash(self._contents())


def _nonempty(mapping: dict) -> frozenset:
    return frozenset((k, frozenset(v)) for k, v in mapping.items() if v)


class PointPrototypes(metaclass=_record):
    """Prototype points of a region, e.g. two observed exemplar values."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("prototype point set must be non-empty")


class IntervalPrototypes(metaclass=_record):
    """A whole interval of prototype values."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("prototype interval needs a < b")


class PrototypeRegion(metaclass=_record):
    """A named region of a quality space and its prototypes."""

    name: str
    prototypes: TypingUnion[PointPrototypes, IntervalPrototypes]


class MembershipSpec(metaclass=_record):
    """Prototype regions of a one-dimensional quality space."""

    quality: str
    regions: tuple[PrototypeRegion, ...]


# ===== PART 4: the model container =====


class Model(metaclass=_record):
    """A requirements model: elements, applications, axioms, marks and world."""

    # `reasoner` keeps the model's derivation and consistency verdict here.
    __slots__ = ("__dict__",)

    name: str = ""
    elements: tuple[Element, ...] = ()
    applications: tuple[OperatorApplication, ...] = ()
    conflicts: tuple[frozenset[str], ...] = ()
    axioms: tuple[Subsumption, ...] = ()
    fulfilled_marks: frozenset[str] = frozenset()
    world: Optional[World] = None
    membership_specs: tuple[MembershipSpec, ...] = ()

    def by_id(self) -> dict[str, Element]:
        return {e.id: e for e in self.elements}

    def element(self, eid: str) -> Element:
        for e in self.elements:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def has_element(self, eid: str) -> bool:
        return any(e.id == eid for e in self.elements)

    def dropped_ids(self) -> frozenset[str]:
        """Element ids excluded by conflict resolution."""
        dropped: set[str] = set()
        for app in self.applications:
            if app.op is Operator.RESOLVE:
                dropped.update(set(app.inputs) - set(app.outputs))
        return frozenset(dropped)

    def with_element(self, element: Element) -> "Model":
        return replace(self, elements=self.elements + (element,))

    def with_application(self, app: OperatorApplication) -> "Model":
        return replace(self, applications=self.applications + (app,))

    def spec_for(self, quality: str) -> Optional[MembershipSpec]:
        for spec in self.membership_specs:
            if spec.quality == quality:
                return spec
        return None


class ValidationDiagnostic(metaclass=_record):
    """A rule a model breaks, tied to the statement that breaks it."""

    subject_id: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject_id}: [{self.rule}] {self.message}"


# ===== PART 5: validation =====


def validate_model(model: Model) -> list[ValidationDiagnostic]:
    """Check every structural model invariant; return one diagnostic each.

    An empty result means the model is well-formed. Diagnostics are data and
    never raised.
    """
    diags: list[ValidationDiagnostic] = []
    seen: set[str] = set()
    for element in model.elements:
        if element.id in seen:
            message = "duplicate element id"
            diags.append(ValidationDiagnostic(element.id, "unique-ids", message))
        seen.add(element.id)
        diags.extend(_validate_element(element))

    by_id = model.by_id()
    for index, app in enumerate(model.applications):
        app_id = f"application[{index}]"
        problems = application_diagnostics(app, by_id, app_id)
        unmatched = None if problems else resolve_error(app, model.conflicts)
        if unmatched is not None:
            problems.append(ValidationDiagnostic(app_id, "resolve-conflict", unmatched))
        unscalable = scale_error(app, by_id)
        if unscalable is not None:
            problems.append(ValidationDiagnostic(app_id, "scale-factor", unscalable))
        diags.extend(problems)
    for index, conflict in enumerate(model.conflicts):
        cid = f"conflict[{index}]"
        if len(conflict) < 2:
            message = "conflict sets need >= 2 ids"
            diags.append(ValidationDiagnostic(cid, "conflict-size", message))
        for eid in conflict:
            if eid not in by_id:
                message = f"unknown id {eid}"
                diags.append(ValidationDiagnostic(cid, "dangling-reference", message))
    for eid in sorted(model.fulfilled_marks):
        if eid not in by_id:
            message = f"unknown id {eid}"
            diags.append(
                ValidationDiagnostic("fulfilled_marks", "dangling-reference", message)
            )
    for eid in sorted(model.dropped_ids() & model.fulfilled_marks):
        message = "resolution-dropped element marked fulfilled"
        diags.append(ValidationDiagnostic(eid, "dropped-fulfilled", message))
    diags.extend(_check_acyclic(model))
    for index, axiom in enumerate(model.axioms):
        diags.extend(_validate_descriptions(axiom, f"axiom[{index}]"))
    qualities: set[str] = set()
    for index, spec in enumerate(model.membership_specs):
        rid, names = f"regions[{index}]", [region.name for region in spec.regions]
        if spec.quality in qualities:
            message = f"quality {spec.quality} has more than one regions block"
            diags.append(ValidationDiagnostic(rid, "unique-regions", message))
        qualities.add(spec.quality)
        for name in sorted({n for n in names if names.count(n) > 1}):
            message = f"quality {spec.quality} declares region {name} more than once"
            diags.append(ValidationDiagnostic(rid, "unique-regions", message))
        if spec.regions:
            ungradable = regions_error(spec.regions, spec.regions[0].prototypes.__class__)
            if ungradable is not None:
                diags.append(ValidationDiagnostic(rid, "regions-order", ungradable))
    return diags


def _validate_element(element: Element) -> list[ValidationDiagnostic]:
    diags: list[ValidationDiagnostic] = []
    body, kind = element.body, element.kind
    if isinstance(body, NaturalLanguage):
        return diags
    if isinstance(body, FunctionDesc):
        shape, allowed = "function", kind is Kind.F
    elif isinstance(body, Subsumption):
        shape, allowed = "subsumption", kind in SUBSUMPTION_KINDS
    else:
        shape, allowed = "quality", kind in QUALITY_KINDS
    if not allowed and kind is not Kind.GOAL:
        message = f"{kind.display} cannot carry a {shape} body"
        diags.append(ValidationDiagnostic(element.id, "kind-body", message))
    quality = isinstance(body, QualityStatement)
    if quality and kind is Kind.QC:
        region = body.region
        if isinstance(region, NamedRegion) and region.qualitative:
            message = "a quality constraint needs a measurable region"
            diags.append(ValidationDiagnostic(element.id, "qc-region", message))
    diags.extend(_validate_descriptions(body, element.id))
    if quality and body.pct_annotations:
        # one annotation per path: whether a path can be followed depends
        # on the path alone
        by_path = {ann.matched_path: ann for ann in body.pct_annotations}
        if len(by_path) != len(body.pct_annotations):
            message = "two pct annotations share one path"
            diags.append(ValidationDiagnostic(element.id, "pct-paths", message))
        for ann in by_path.values():
            try:
                graft_annotations(body, (ann,))
            except ValueError as error:
                diags.append(ValidationDiagnostic(element.id, "pct-path", str(error)))
    return diags


def application_diagnostics(
    app: OperatorApplication,
    by_id: dict[str, Element],
    app_id: str = "application",
) -> list[ValidationDiagnostic]:
    """Where `app` breaks its operator's signature: dangling ids, arity and
    kind routing, in that order."""
    diags: list[ValidationDiagnostic] = []

    def flag(rule: str, message: str) -> None:
        diags.append(ValidationDiagnostic(app_id, rule, message))

    for eid in app.inputs + app.outputs:
        if eid not in by_id:
            flag("dangling-reference", f"unknown id {eid}")
    dangling = bool(diags)
    if app.op is Operator.RESOLVE:
        if len(app.inputs) < 2:
            flag("arity", "resolution takes at least two inputs")
    else:
        if len(app.inputs) != 1:
            flag("arity", f"{app.op.value} takes exactly one input")
        if not app.outputs:
            flag("arity", f"{app.op.value} needs at least one output")
    if app.op in ONE_TO_ONE_OPS and len(app.outputs) != 1:
        flag("arity", f"{app.op.value} produces exactly one output")
    signature = _SIGNATURES.get(app.op)
    if dangling or signature is None or not app.inputs:
        return diags
    source = by_id[app.inputs[0]].kind
    if source not in signature.inputs:
        flag(
            "kind-routing",
            signature.input_message.format(op=app.op.value, input=source.display),
        )
    allowed = signature.outputs.get(source, _ALL_KINDS)
    for eid in app.outputs:
        kind = by_id[eid].kind
        if kind not in allowed:
            message = signature.output_message.format(
                op=app.op.value, input=source.display, output=kind.display, eid=eid
            )
            flag("kind-routing", message)
    return diags


def resolve_error(
    app: OperatorApplication, conflicts: tuple[frozenset[str], ...]
) -> Optional[str]:
    """Why `app` resolves no declared conflict, or None: a resolution's
    inputs must be exactly one declared conflict set."""
    if app.op is not Operator.RESOLVE or frozenset(app.inputs) in conflicts:
        return None
    ids = ", ".join(sorted(set(app.inputs)))
    return f"no declared conflict matches {{{ids}}}"


def scale_error(app: OperatorApplication, by_id: dict[str, Element]) -> Optional[str]:
    """Why `app`'s factor cannot scale its input's region, or None.

    A multiplier pair must enlarge the region when scaling down and shrink it
    when scaling up, and it needs an interval region whose scaled bounds
    neither cross nor shift it; a region-name factor needs a named region.
    Whether an axiom orders the two names needs a proof, so
    `reasoner.scale_order_error` checks that, for `check` and `apply_scale`.
    """
    args = app.args
    if not isinstance(args, ScaleArgs):
        return None
    factor = args.factor
    if not factor.allows(args.direction):
        return (
            f"factor ({factor.low_factor}, {factor.high_factor}) "
            f"cannot scale {args.direction.value}"
        )
    source = by_id.get(app.inputs[0]) if app.inputs else None
    if source is None or not isinstance(source.body, QualityStatement):
        return None
    region = source.body.region
    if factor.is_quantitative:
        if not isinstance(region, Interval):
            return "a multiplier factor needs an interval region"
        low, high = region.low * factor.low_factor, region.high * factor.high_factor
        if low > high:
            return f"scaling would empty the region: {low} > {high}"
        if args.direction is ScaleDirection.DOWN:
            contained = low <= region.low and high >= region.high
        else:
            contained = low >= region.low and high <= region.high
        if not contained:
            return "scaling must enlarge or shrink the region, never shift it"
    elif not isinstance(region, NamedRegion):
        return "a region-name factor needs a named region"
    return None


def regions_error(regions: tuple[PrototypeRegion, ...], style: type) -> Optional[str]:
    """Why `membership` cannot grade `regions` by the measure of prototype
    `style`, or None: every region has prototypes of that style, and each
    region's prototypes lie below the next region's."""
    if not all(isinstance(region.prototypes, style) for region in regions):
        return "point and interval prototype styles may not be mixed in one computation"
    if style is PointPrototypes:
        hulls = [(min(r.prototypes.values), max(r.prototypes.values)) for r in regions]
        message = "prototype point sets must not interleave"
    else:
        hulls = [(r.prototypes.a, r.prototypes.b) for r in regions]
        message = "interval regions must be ordered and disjoint"
    if any(not high < low for (_, high), (low, _) in zip(hulls, hulls[1:])):
        return message
    return None


def strength_error(app: OperatorApplication, by_id: dict[str, Element]) -> Optional[str]:
    """Why `app`'s strength tag is illegal for its operator, or None."""
    legal, reason = _FIXED_STRENGTH.get(app.op, (None, ""))
    if app.op is Operator.OPERATIONALIZE and app.outputs and all(
        eid in by_id and by_id[eid].kind is Kind.DA for eid in app.outputs
    ):
        legal, reason = _ASSUMPTIONS_ONLY
    if legal is None or app.strength in legal:
        return None
    return f"{app.op.value} cannot be tagged {app.strength.value}: {reason}"


def graft_annotations(
    body: QualityStatement, annotations: tuple[UAnnotation, ...]
) -> tuple[Description, tuple[Description, ...]]:
    """`body`'s subject and observers with each annotation's `<pct: SOME
    [p, 1]>` grafted where its path ends, as `filler | <pct: …>`; a
    ValueError names the first path that `body` does not have.

    A path starts at `inheres_in` (the subject) or `observed_by` (every
    observer); each later step is the first restriction on that slot, in
    pre-order, inside the filler the step before reached. Every path is
    followed in the body as written, never in what another graft widened.
    """
    starts = (body.subject, *body.observers)
    grafts: dict[tuple[int, ...], list[SlotRestriction]] = {}
    for ann in annotations:
        head = ann.matched_path[0]
        if head not in ("inheres_in", "observed_by"):
            raise ValueError(f"annotation path cannot start at {head!r}")
        if head == "observed_by" and not body.observers:
            message = "annotation follows observed_by but the element has no observers"
            raise ValueError(message)
        pct = SlotRestriction("pct", SOME, Region(Interval(ann.pct_low, Fraction(1))))
        for index in range(1, len(starts)) if head == "observed_by" else (0,):
            d, at = starts[index], (index,)
            for slot in ann.matched_path[1:]:
                found = _first_restriction(d, slot)
                if found is None:
                    raise ValueError(f"no slot {slot!r} found on the annotation path")
                d, at = found[0].filler, at + found[1] + (0,)
            grafts.setdefault(at, []).append(pct)
    grafted = [_graft(d, (index,), grafts) for index, d in enumerate(starts)]
    return grafted[0], tuple(grafted[1:])


def _first_restriction(d: Description, slot: str):
    """The first restriction on `slot` in `d`, in pre-order, with its
    position below `d` (child indices), or None."""
    stack = [(d, ())]
    while stack:
        node, at = stack.pop()
        if isinstance(node, SlotRestriction) and node.slot == slot:
            return node, at
        stack += [(kid, at + (i,)) for i, kid in enumerate(children(node))][::-1]
    return None


def _graft(d: Description, at: tuple[int, ...], grafts: dict) -> Description:
    """`d`, found at position `at`, with the grafts at or below `at` made."""

    def kids(located):
        # a node with no graft at or below it is kept as it is
        node, at = located
        if not any(position[: len(at)] == at for position in grafts):
            return ()
        return [(kid, at + (i,)) for i, kid in enumerate(children(node))]

    def step(located, inner):
        node, at = located
        if isinstance(node, SlotRestriction) and inner:
            node = SlotRestriction(node.slot, node.modifier, *inner)
        elif isinstance(node, InverseProjection) and inner:
            node = InverseProjection(*inner, node.slot)
        elif inner:
            node = node.__class__(*inner)
        for pct in grafts.get(at, ()):
            node = Union(node, pct)
        return node

    # each node is folded with its position, as a plain (node, position) tuple
    return fold((d, at), step, {tuple: kids})


def _check_acyclic(model: Model) -> list[ValidationDiagnostic]:
    edges: dict[str, set[str]] = {}
    for app in model.applications:
        for src in app.inputs:
            # a resolution may keep a survivor among its outputs; that is
            # selection, not derivation, so it adds no edge
            targets = set(app.outputs) - set(app.inputs) if (
                app.op is Operator.RESOLVE
            ) else set(app.outputs)
            edges.setdefault(src, set()).update(targets)
    # Depth-first from each node in name order; the walk keeps its own
    # stack, so a long refinement chain is not bounded by the recursion limit.
    color: dict[str, int] = {}  # 1 while on the path, 2 once left
    for start in sorted(edges):
        if start in color:
            continue
        color[start] = 1
        path, branches = [start], [iter(sorted(edges[start]))]
        while branches:
            nxt = next(branches[-1], None)
            if nxt is None:
                color[path.pop()] = 2
                branches.pop()
            elif color.get(nxt) == 1:
                cycle = " -> ".join(path + [nxt])
                message = "application graph contains a cycle: " + cycle
                return [ValidationDiagnostic(start, "acyclic", message)]
            elif nxt not in color:
                color[nxt] = 1
                path.append(nxt)
                branches.append(iter(sorted(edges.get(nxt, ()))))
    return []


def _region_step(d: Description, kids) -> bool:
    if isinstance(d, (Intersection, Union, Difference)):
        return all(kids)
    return isinstance(d, Region)


def _is_region(d: Description) -> bool:
    """Whether `d` is a region, or regions combined by `|`, `-` or adjacency."""
    return fold(d, _region_step)


def _validate_descriptions(body: ElementBody, owner: str) -> list[ValidationDiagnostic]:
    """Reserved slots, region mixing and regions where a class is expected
    (a subsumption side, the quality, a projection's source) in the body's
    descriptions, in pre-order."""
    diags: list[ValidationDiagnostic] = []
    positions: tuple[str, ...] = ()
    if isinstance(body, Subsumption):
        positions = ("the left side", "the right side")
    elif isinstance(body, QualityStatement):
        positions = ("the quality",)
    # Whether a node is a region, by its id: the first node of `|`, `-` or
    # adjacency asked about records its whole subtree in one fold, so the
    # pre-order walk below reads each answer without walking again.
    region: dict[int, bool] = {}

    def is_region(d: Description) -> bool:
        if not isinstance(d, (Intersection, Union, Difference)):
            return isinstance(d, Region)
        if id(d) not in region:
            fold(d, lambda node, kids: region.setdefault(id(node), _region_step(node, kids)))
        return region[id(d)]

    for index, desc in enumerate(body_descriptions(body)):
        if index < len(positions) and is_region(desc):
            diags.append(_misplaced(owner, positions[index]))
        # Pre-order, left to right, on a stack of its own; an atom, the
        # commonest node, has nothing to check.
        stack = [desc]
        while stack:
            d = stack.pop()
            if isinstance(d, AtomicConcept):
                continue
            if isinstance(d, (SlotRestriction, InverseProjection)):
                if d.slot in REASONING_INTERNAL_SLOTS:
                    message = f"slot {d.slot} is reserved for reasoning"
                    diags.append(ValidationDiagnostic(owner, "reserved-slot", message))
                if isinstance(d, SlotRestriction):
                    stack.append(d.filler)
                    continue
                if is_region(d.source):
                    diags.append(_misplaced(owner, f"the source of .{d.slot}"))
                stack.append(d.source)
            elif isinstance(d, (Intersection, Union, Difference)):
                if is_region(d.left) != is_region(d.right):
                    message = "regions combine only with regions, not with concepts"
                    diags.append(ValidationDiagnostic(owner, "region-mixing", message))
                stack += (d.right, d.left)
    return diags


def _misplaced(owner: str, position: str) -> ValidationDiagnostic:
    message = f"{position} is a region, where a class is expected"
    return ValidationDiagnostic(owner, "region-position", message)


# ===== PART 6: traversal and symbol collection =====


# The getter of each composite description's children, left to right; a
# class missing here is a leaf.
CHILDREN = {
    **dict.fromkeys((Intersection, Union, Difference), attrgetter("left", "right")),
    SlotRestriction: lambda d: (d.filler,),
    InverseProjection: lambda d: (d.source,),
}


def children(d: Description) -> tuple[Description, ...]:
    """The descriptions directly inside `d`, left to right."""
    get = CHILDREN.get(d.__class__)
    return () if get is None else get(d)


def fold(term, step, kids=CHILDREN):
    """`step(node, results)` for each node of `term`, children first, where
    `results` holds what `step` gave the node's children, left to right;
    the value is what it gave `term`. `kids` maps a node's class to the
    getter of its children; a node of a class it lacks is a leaf, and goes
    straight to `step` with no results.

    Every function over descriptions and logic concepts is a step of this
    one post-order walk (a catamorphism: Meijer, Fokkinga & Paterson, FPCA
    1991). It keeps its own stack, so a term's depth is not bounded by the
    interpreter's recursion limit.
    """
    get = kids.get(term.__class__)
    if get is None:
        return step(term, ())
    frames = []  # the nodes above this one, each with its children and results
    node, inner, results = term, get(term), []
    while True:
        if len(results) < len(inner):
            kid = inner[len(results)]
            get = kids.get(kid.__class__)
            if get is None:
                results.append(step(kid, ()))
            else:
                frames.append((node, inner, results))
                node, inner, results = kid, get(kid), []
        elif frames:
            value = step(node, results)
            node, inner, results = frames.pop()
            results.append(value)
        else:
            return step(node, results)


def subterms(d: Description) -> list[Description]:
    """`d` and every description inside it, in pre-order, left to right.

    The walk keeps its own stack, so nesting depth is not bounded by the
    interpreter's recursion limit.
    """
    out: list[Description] = []
    stack = [d]
    while stack:
        node = stack.pop()
        out.append(node)
        inner = children(node)
        if inner:
            stack += inner[::-1]
    return out


def body_descriptions(body: ElementBody) -> tuple[Description, ...]:
    """The descriptions a body is written with, in source order.

    A function's head and a quality statement's region are not descriptions;
    callers that want them add them.
    """
    if isinstance(body, FunctionDesc):
        return body.slots
    if isinstance(body, Subsumption):
        return (body.subsumee, body.subsumer)
    if isinstance(body, QualityStatement):
        return (body.quality, body.subject, *body.observers)
    return ()


def mentions(d: Description) -> set[str]:
    """Atom names, enumerated ids and named regions written in `d`."""
    names: set[str] = set()
    for node in subterms(d):
        if isinstance(node, AtomicConcept):
            names.add(node.name)
        elif isinstance(node, Enumeration):
            names.update(node.ids)
        elif isinstance(node, Region) and isinstance(node.expr, NamedRegion):
            names.add(node.expr.name)
    return names
