"""Core data model shared by every other module.

Defines the description algebra (the expression language element bodies are
written in), the nine requirement element kinds, operator application
records, finite instance worlds, prototype region specifications, and the
model container, together with operator signatures, model validation,
description traversal, and symbol collection.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Union as TypingUnion


# Each record below is a frozen value class made by `_record`. Its field
# names are its own annotations, in order, kept as `__match_args__`. It
# takes `__eq__`, `__hash__` and `__repr__` from the functions here:
# equality within one class, the hash of the field tuple, and
# `Name(field=value, ...)`. Nothing is compiled per class, so importing
# the model stays cheap for every command.


def _field_values(record) -> tuple:
    return tuple([getattr(record, name) for name in record.__match_args__])


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _field_values(self) == _field_values(other)


def _record_hash(self) -> int:
    return hash(_field_values(self))


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class _Fresh:
    """A field default built anew for each record, such as `_Fresh(dict)`."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make


def _bind(record, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call that does not pass every field by position,
    or the TypeError a function with these parameters would raise."""
    call = f"{record.__class__.__qualname__}()"
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
    return values


def _make_init(names: tuple, defaults: dict, post_init):
    """The `__init__` of a record with fields `names`: it takes them by
    position or keyword, fills in `defaults` and then runs `post_init`, if
    there is one.

    The parser passes every field by position, and nearly every record it
    builds has one to three fields. Those records store their fields
    unrolled: on CPython 3.11 a loop over the names costs about 100 ns more
    per record, a few percent of a parse.
    """
    count, set_field = len(names), object.__setattr__

    if count == 1:
        (first,) = names

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 1:
                args = _bind(self, names, defaults, args, kwargs)
            set_field(self, first, args[0])
            if post_init is not None:
                post_init(self)

    elif count == 2:
        first, second = names

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 2:
                args = _bind(self, names, defaults, args, kwargs)
            set_field(self, first, args[0])
            set_field(self, second, args[1])
            if post_init is not None:
                post_init(self)

    elif count == 3:
        first, second, third = names

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 3:
                args = _bind(self, names, defaults, args, kwargs)
            set_field(self, first, args[0])
            set_field(self, second, args[1])
            set_field(self, third, args[2])
            if post_init is not None:
                post_init(self)

    else:

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = _bind(self, names, defaults, args, kwargs)
            for name, value in zip(names, args):
                set_field(self, name, value)
            if post_init is not None:
                post_init(self)

    return __init__


def _record(cls):
    """Make `cls` a frozen record with the shared value methods.

    Its fields are its own annotations, in order; a class attribute of the
    same name is the field's default. A class that defines its own `__eq__`
    keeps it, and keeps its own `__hash__` too.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls.__init__ = _make_init(names, defaults, cls.__dict__.get("__post_init__"))
    cls.__match_args__ = names
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    if "__eq__" not in cls.__dict__:
        cls.__eq__ = _record_eq
        cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    return cls


def replace(record, **changes):
    """A copy of `record` with the given fields changed. It is built through
    `__init__`, so the record's checks run again."""
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


@_record
class CardinalityModifier:
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


@_record
class NamedRegion(RegionExpr):
    """A region referred to by name.

    `qualitative` is True for vague regions (no agreed measurement) and False
    for named regions that are backed by a measurable definition.
    """

    name: str
    qualitative: bool = True


@_record
class Interval(RegionExpr):
    """An inclusive numeric range `[low, high]`, in `unit` when one is given."""

    low: Fraction
    high: Fraction
    unit: Optional[str] = None

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError("interval low bound exceeds high bound")


@_record
class ValueSet(RegionExpr):
    """A finite set of admissible values (rationals or strings)."""

    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("value set must be non-empty")


@_record
class AtomicConcept(Description):
    """A named class, written as its bare name."""

    name: str


@_record
class Enumeration(Description):
    """A finite set of named individuals, written `{id1, id2}`."""

    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.ids:
            raise ValueError("enumeration must be non-empty")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("enumeration ids must be duplicate-free")


@_record
class SlotRestriction(Description):
    """`<slot: modifier filler>`: members restricted through a slot."""

    slot: str
    modifier: CardinalityModifier
    filler: Description


@_record
class InverseProjection(Description):
    """`D.s`: everything some member of D points at through slot s."""

    source: Description
    slot: str


@_record
class Intersection(Description):
    """The members of both sides, written by juxtaposition."""

    left: Description
    right: Description


@_record
class Union(Description):
    """The members of either side, written `left | right`."""

    left: Description
    right: Description


@_record
class Difference(Description):
    """The members of the left side outside the right, written `left - right`."""

    left: Description
    right: Description


@_record
class Region(Description):
    """A region expression used in description position (slot fillers)."""

    expr: RegionExpr


@_record
class Thing(Description):
    """Every individual."""


@_record
class Nothing(Description):
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


@_record
class NaturalLanguage:
    """An unstructured body: raw text awaiting interpretation."""

    text: str


@_record
class FunctionDesc:
    """A capability: a head verb concept plus slot restrictions."""

    head: str
    slots: tuple[SlotRestriction, ...] = ()


@_record
class Subsumption:
    """`subsumee :< subsumer`: every subsumee member is a subsumer member."""

    subsumee: Description
    subsumer: Description


@_record
class UAnnotation:
    """A per-fraction relaxation: only `pct_low` of the matched population
    needs to satisfy the statement.

    `matched_path` locates the relaxed population: `(inheres_in,)` relaxes
    over subjects, `(observed_by,)` over observers, and `(inheres_in, s)`
    over the fillers of slot `s` inside the subject description.
    """

    var_id: str
    matched_path: tuple[str, ...]
    pct_low: Fraction
    pct_high: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if not self.matched_path:
            raise ValueError("annotation path must be non-empty")
        if not (0 < self.pct_low <= 1):
            raise ValueError("pct_low must be in (0, 1]")
        if self.pct_high != 1:
            raise ValueError("pct_high is fixed at 1")


@_record
class QualityStatement:
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


@_record
class Element:
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


@_record
class ScaleFactor:
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


@_record
class ScaleArgs:
    """The factor and direction of a scale application."""

    factor: ScaleFactor
    direction: ScaleDirection


@_record
class FocusArgs:
    """Focus targets: quality names and/or subject descriptions."""

    targets: tuple[TypingUnion[str, Description], ...]


@_record
class ObserveArgs:
    """The observer an observe application adds."""

    observer: Description


@_record
class DeUniversalizeArgs:
    """The percentage annotation a deuniversalize application adds."""

    annotation: UAnnotation


OperatorArgs = TypingUnion[ScaleArgs, FocusArgs, ObserveArgs, DeUniversalizeArgs, None]


@_record
class OperatorApplication:
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


class _Signature(NamedTuple):
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


@_record
class Quantity:
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


@_record
class QualityRecord:
    """One concrete quality instance living in a world."""

    quality_id: str
    quality_concept: str
    bearer: str
    value: Fraction
    unit: Optional[str] = None
    observers: frozenset[str] = frozenset()


@_record
class World:
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


@_record
class PointPrototypes:
    """Prototype points of a region, e.g. two observed exemplar values."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("prototype point set must be non-empty")


@_record
class IntervalPrototypes:
    """A whole interval of prototype values."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("prototype interval needs a < b")


@_record
class PrototypeRegion:
    """A named region of a quality space and its prototypes."""

    name: str
    prototypes: TypingUnion[PointPrototypes, IntervalPrototypes]


@_record
class MembershipSpec:
    """Prototype regions of a one-dimensional quality space."""

    quality: str
    regions: tuple[PrototypeRegion, ...]


# ===== PART 4: the model container =====


@_record
class Model:
    """A requirements model: elements, applications, axioms, marks and world."""

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


@_record
class ValidationDiagnostic:
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
            diags.append(
                ValidationDiagnostic(element.id, "unique-ids", "duplicate element id")
            )
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
            diags.append(
                ValidationDiagnostic(cid, "conflict-size", "conflict sets need >= 2 ids")
            )
        for eid in conflict:
            if eid not in by_id:
                diags.append(
                    ValidationDiagnostic(cid, "dangling-reference", f"unknown id {eid}")
                )
    for eid in sorted(model.fulfilled_marks):
        if eid not in by_id:
            diags.append(
                ValidationDiagnostic(
                    "fulfilled_marks", "dangling-reference", f"unknown id {eid}"
                )
            )
    dropped = model.dropped_ids()
    for eid in sorted(dropped & model.fulfilled_marks):
        diags.append(
            ValidationDiagnostic(
                eid, "dropped-fulfilled", "resolution-dropped element marked fulfilled"
            )
        )
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
    return diags


def _validate_element(element: Element) -> list[ValidationDiagnostic]:
    diags: list[ValidationDiagnostic] = []
    body = element.body
    kind = element.kind

    if isinstance(body, NaturalLanguage):
        return diags
    if isinstance(body, FunctionDesc):
        shape, allowed = "function", kind is Kind.F
    elif isinstance(body, Subsumption):
        shape, allowed = "subsumption", kind in SUBSUMPTION_KINDS
    else:
        shape, allowed = "quality", kind in QUALITY_KINDS
    if not allowed and kind is not Kind.GOAL:
        diags.append(
            ValidationDiagnostic(
                element.id, "kind-body", f"{kind.display} cannot carry a {shape} body"
            )
        )
    quality = isinstance(body, QualityStatement)
    if quality and kind is Kind.QC:
        region = body.region
        if isinstance(region, NamedRegion) and region.qualitative:
            diags.append(
                ValidationDiagnostic(
                    element.id,
                    "qc-region",
                    "a quality constraint needs a measurable region",
                )
            )
    diags.extend(_validate_descriptions(body, element.id))
    if quality:
        paths = [ann.matched_path for ann in body.pct_annotations]
        if len(set(paths)) != len(paths):
            diags.append(
                ValidationDiagnostic(
                    element.id, "pct-paths", "two pct annotations share one path"
                )
            )
        for path in paths:
            error = annotation_path_error(body, path)
            if error is not None:
                diags.append(ValidationDiagnostic(element.id, "pct-path", error))
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


def annotation_path_error(body: QualityStatement, path: tuple[str, ...]) -> Optional[str]:
    """Why a `u(…)` annotation cannot follow `path` in `body`, or None.

    The path starts at `inheres_in` (the subject) or `observed_by` (every
    observer); each later step is the first restriction on that slot, in
    pre-order, inside the filler the step before reached.
    """
    head = path[0]
    if head not in ("inheres_in", "observed_by"):
        return f"annotation path cannot start at {head!r}"
    starts = (body.subject,) if head == "inheres_in" else body.observers
    if not starts:
        return "annotation follows observed_by but the element has no observers"
    for d in starts:
        for slot in path[1:]:
            found = [
                n for n in subterms(d) if isinstance(n, SlotRestriction) and n.slot == slot
            ]
            if not found:
                return f"no slot {slot!r} found on the annotation path"
            d = found[0].filler
    return None


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


def _is_region(d: Description) -> bool:
    """Whether `d` is a region, or regions combined by `|`, `-` or adjacency."""
    if isinstance(d, (Intersection, Union, Difference)):
        return _is_region(d.left) and _is_region(d.right)
    return isinstance(d, Region)


def _validate_descriptions(body: ElementBody, owner: str) -> list[ValidationDiagnostic]:
    """Reserved slots, region mixing and regions where a class is expected
    (a subsumption side, the quality, a projection's source) in the body's
    descriptions, in pre-order."""
    diags: list[ValidationDiagnostic] = []

    def misplaced(position: str) -> None:
        message = f"{position} is a region, where a class is expected"
        diags.append(ValidationDiagnostic(owner, "region-position", message))

    positions: tuple[str, ...] = ()
    if isinstance(body, Subsumption):
        positions = ("the left side", "the right side")
    elif isinstance(body, QualityStatement):
        positions = ("the quality",)
    for index, desc in enumerate(body_descriptions(body)):
        if index < len(positions) and _is_region(desc):
            misplaced(positions[index])
        for d in subterms(desc):
            if isinstance(d, (SlotRestriction, InverseProjection)):
                if d.slot in REASONING_INTERNAL_SLOTS:
                    message = f"slot {d.slot} is reserved for reasoning"
                    diags.append(ValidationDiagnostic(owner, "reserved-slot", message))
                if isinstance(d, InverseProjection) and _is_region(d.source):
                    misplaced(f"the source of .{d.slot}")
            elif isinstance(d, (Intersection, Union, Difference)):
                if _is_region(d.left) != _is_region(d.right):
                    message = "regions combine only with regions, not with concepts"
                    diags.append(ValidationDiagnostic(owner, "region-mixing", message))
    return diags


# ===== PART 6: traversal and symbol collection =====


def children(d: Description) -> tuple[Description, ...]:
    """The descriptions directly inside `d`, left to right."""
    if isinstance(d, (Intersection, Union, Difference)):
        return (d.left, d.right)
    if isinstance(d, SlotRestriction):
        return (d.filler,)
    if isinstance(d, InverseProjection):
        return (d.source,)
    return ()


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
