"""Element-transforming operations.

Four relators (reduce, interpret, operationalize, resolve) record how
declared elements derive from one another; four constructors (focus, scale,
de-universalize, observe) additionally build the derived element from the
input and the operation's arguments. Every operation returns a new model
value and leaves the input model untouched.
"""

from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence, Union as TypingUnion

from .model import (
    _OPERATIONALIZE_TARGETS,
    AtomicConcept,
    Description,
    DeUniversalizeArgs,
    Element,
    FocusArgs,
    Interval,
    Kind,
    Model,
    NamedRegion,
    ObserveArgs,
    Operator,
    OperatorApplication,
    QUALITY_KINDS,
    QualityStatement,
    ScaleArgs,
    ScaleDirection,
    ScaleFactor,
    Strength,
    UAnnotation,
    Union,
)
from .reasoner import _Derivation, collect_axioms
from .semantics import DLAtomic, PathMismatch, expand_u


class OperatorError(ValueError):
    """An application that violates an operation's signature."""


OutputRef = TypingUnion[Element, str]


# ===== shared plumbing =====


def _get(model: Model, eid: str) -> Element:
    if not model.has_element(eid):
        raise OperatorError(f"unknown element {eid}")
    return model.element(eid)


def _peek_kind(model: Model, out: OutputRef) -> Kind:
    return _get(model, out).kind if isinstance(out, str) else out.kind


def _with_outputs(
    model: Model, outputs: Sequence[OutputRef]
) -> tuple[Model, tuple[str, ...]]:
    """Add element-valued outputs and resolve id-valued ones."""
    ids: list[str] = []
    for out in outputs:
        if isinstance(out, str):
            _get(model, out)
            ids.append(out)
        else:
            if model.has_element(out.id):
                raise OperatorError(f"id {out.id} already names an element")
            model = model.with_element(out)
            ids.append(out.id)
    return model, tuple(ids)


def _fresh_id(model: Model, base: str) -> str:
    n = 1
    while model.has_element(f"{base}_{n}"):
        n += 1
    return f"{base}_{n}"


def _quality_input(model: Model, eid: str, op_name: str) -> Element:
    element = _get(model, eid)
    if element.kind not in QUALITY_KINDS:
        raise OperatorError(
            f"{op_name} applies to quality elements; "
            f"{eid} is a {element.kind.display}"
        )
    if not isinstance(element.body, QualityStatement):
        raise OperatorError(
            f"{op_name} applies to quality elements; "
            f"{eid} carries no structured quality statement"
        )
    return element


def _record(
    model: Model,
    op: Operator,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    strength: Strength,
    args=None,
) -> Model:
    return model.with_application(
        OperatorApplication(op, inputs, outputs, strength, args)
    )


# ===== relators =====


def apply_reduce(
    model: Model,
    input_id: str,
    outputs: Sequence[OutputRef],
    strength: Strength,
) -> Model:
    """Refine one element into same-kind parts, plus optional assumptions.

    New elements are added; plain ids reference elements already present.
    """
    element = _get(model, input_id)
    if not outputs:
        raise OperatorError("a reduction needs at least one output")
    for out in outputs:
        kind = _peek_kind(model, out)
        if kind is not Kind.DA and kind is not element.kind:
            oid = out if isinstance(out, str) else out.id
            raise OperatorError(
                f"reduction output {oid} must keep kind {element.kind.display}"
            )
    model, ids = _with_outputs(model, outputs)
    return _record(model, Operator.REDUCE, (input_id,), ids, strength)


def apply_interpret(
    model: Model, input_id: str, output: OutputRef, strength: Strength
) -> Model:
    """Record one element as a reading of another.

    An interpretation either picks the intended meaning (a strengthening)
    or restates the same content in structured form (an equating); it
    cannot weaken. Goals may change kind; other elements keep theirs.
    """
    if strength is Strength.WEAKENING:
        raise OperatorError(
            "an interpretation disambiguates or encodes; it cannot weaken"
        )
    element = _get(model, input_id)
    out_kind = _peek_kind(model, output)
    if element.kind is not Kind.GOAL and out_kind is not element.kind:
        raise OperatorError("interpretation cannot change a non-goal kind")
    model, ids = _with_outputs(model, [output])
    return _record(model, Operator.INTERPRET, (input_id,), ids, strength)


def apply_operationalize(
    model: Model,
    input_id: str,
    outputs: Sequence[OutputRef],
    strength: Strength,
) -> Model:
    """Turn a goal into specification elements and assumptions.

    Kind routing: FG to F/FC/DA, QG to QC/F/FC/DA, CTG to SC/DA, and a
    plain goal only to DAs. When every output is an assumption the result
    holds under any solution, so the recorded strength is a weakening no
    matter what was declared.
    """
    element = _get(model, input_id)
    allowed = _OPERATIONALIZE_TARGETS.get(element.kind)
    if allowed is None:
        raise OperatorError(f"{element.kind.display} cannot be operationalized")
    if not outputs:
        raise OperatorError("an operationalization needs at least one output")
    kinds = []
    for out in outputs:
        kind = _peek_kind(model, out)
        kinds.append(kind)
        if kind not in allowed:
            oid = out if isinstance(out, str) else out.id
            raise OperatorError(
                f"operationalization of {element.kind.display} cannot "
                f"produce {kind.display} ({oid})"
            )
    if all(kind is Kind.DA for kind in kinds):
        strength = Strength.WEAKENING
    model, ids = _with_outputs(model, outputs)
    return _record(model, Operator.OPERATIONALIZE, (input_id,), ids, strength)


def apply_resolve(
    model: Model, input_ids: Sequence[str], outputs: Sequence[OutputRef]
) -> Model:
    """Settle a declared conflict by keeping, replacing, or dropping.

    Outputs may repeat surviving inputs, introduce fresh replacements, or
    be empty; inputs absent from the outputs count as dropped and are
    skipped by fulfillment propagation.
    """
    inputs = tuple(input_ids)
    if len(inputs) < 2:
        raise OperatorError("a resolution takes at least two inputs")
    for eid in inputs:
        _get(model, eid)
    if frozenset(inputs) not in model.conflicts:
        ids = ", ".join(sorted(set(inputs)))
        raise OperatorError(f"no declared conflict matches {{{ids}}}")
    model, out_ids = _with_outputs(model, outputs)
    return _record(model, Operator.RESOLVE, inputs, out_ids, Strength.WEAKENING)


# ===== constructors =====


def apply_focus(
    model: Model,
    input_id: str,
    targets: Sequence[TypingUnion[str, Description]],
    strength: Strength = Strength.WEAKENING,
    *,
    output_ids: Optional[Sequence[str]] = None,
) -> Model:
    """Narrow a quality statement onto named qualities or subject parts.

    A string target widens the quality position, any other target widens
    the subject, each to `original | target`: the widened element is
    entailed by the original, which makes the derivation direction
    checkable instead of an unverifiable renaming.
    """
    element = _quality_input(model, input_id, "focus")
    targets = tuple(targets)
    if not targets:
        raise OperatorError("focus needs at least one target")
    if strength is Strength.STRENGTHENING:
        raise OperatorError(
            "focus cannot strengthen: widening with a target only relaxes"
        )
    if output_ids is not None and len(output_ids) != len(targets):
        raise OperatorError("output_ids must match targets one-to-one")
    body = element.body
    ids: list[str] = []
    for index, target in enumerate(targets):
        if isinstance(target, str):
            new_body = replace(
                body, quality=Union(body.quality, AtomicConcept(target))
            )
        else:
            new_body = replace(body, subject=Union(body.subject, target))
        oid = output_ids[index] if output_ids is not None else _fresh_id(model, input_id)
        if model.has_element(oid):
            raise OperatorError(f"id {oid} already names an element")
        model = model.with_element(Element(oid, element.kind, new_body))
        ids.append(oid)
    return _record(
        model,
        Operator.FOCUS,
        (input_id,),
        tuple(ids),
        strength,
        FocusArgs(targets),
    )


def _ordered(model: Model, narrow: str, wide: str) -> bool:
    return _Derivation(collect_axioms(model)).proves(DLAtomic(narrow), DLAtomic(wide))


def _scaled_interval(
    region: Interval, factor: ScaleFactor, direction: ScaleDirection
) -> Interval:
    low = region.low * factor.low_factor
    high = region.high * factor.high_factor
    if low > high:
        raise OperatorError(f"scaling would empty the region: {low} > {high}")
    if direction is ScaleDirection.DOWN:
        contained = low <= region.low and high >= region.high
    else:
        contained = low >= region.low and high <= region.high
    if not contained:
        raise OperatorError(
            "scaling must enlarge or shrink the region, never shift it"
        )
    return Interval(low, high, region.unit)


def apply_scale(
    model: Model,
    input_id: str,
    factor: ScaleFactor,
    direction: ScaleDirection,
    *,
    output_id: Optional[str] = None,
) -> Model:
    """Enlarge (down) or shrink (up) a quality region.

    A multiplier pair scales an interval's bounds exactly; a region-name
    factor renames a named region, and requires an axiom already ordering
    the two names in the scaled direction. Down-scaling weakens and
    up-scaling strengthens, so the strength is derived, not declared.
    """
    element = _quality_input(model, input_id, "scale")
    if not factor.allows(direction):
        raise OperatorError(
            f"factor ({factor.low_factor}, {factor.high_factor}) "
            f"cannot scale {direction.value}"
        )
    region = element.body.region
    if factor.is_quantitative:
        if not isinstance(region, Interval):
            raise OperatorError("a multiplier factor needs an interval region")
        new_region = _scaled_interval(region, factor, direction)
    else:
        if not isinstance(region, NamedRegion):
            raise OperatorError("a region-name factor needs a named region")
        target = factor.region_name
        if direction is ScaleDirection.DOWN:
            ok = _ordered(model, region.name, target)
        else:
            ok = _ordered(model, target, region.name)
        if not ok:
            raise OperatorError(
                f"no declared ordering links {region.name} and {target} "
                f"for a {direction.value}-scaling"
            )
        new_region = NamedRegion(target, region.qualitative)
    strength = (
        Strength.WEAKENING
        if direction is ScaleDirection.DOWN
        else Strength.STRENGTHENING
    )
    oid = output_id or _fresh_id(model, input_id)
    if model.has_element(oid):
        raise OperatorError(f"id {oid} already names an element")
    model = model.with_element(
        Element(oid, element.kind, replace(element.body, region=new_region))
    )
    return _record(
        model,
        Operator.SCALE,
        (input_id,),
        (oid,),
        strength,
        ScaleArgs(factor, direction),
    )


def apply_deuniversalize(
    model: Model,
    input_id: str,
    var_id: str,
    path: Sequence[str],
    pct: Fraction,
    *,
    output_id: Optional[str] = None,
) -> Model:
    """Relax a quality statement to a fraction of a matched population.

    The path names the population: `inheres_in` relaxes over subjects,
    `observed_by` over observers, and deeper steps descend into subject
    slots. A population already relaxed on the input cannot be relaxed
    again; deriving 80% from 85% would only manufacture trivially weaker
    statements, so the 80% version must come from the original too.
    """
    element = _quality_input(model, input_id, "de-universalization")
    try:
        annotation = UAnnotation(var_id, tuple(path), Fraction(pct))
    except ValueError as exc:
        raise OperatorError(str(exc)) from exc
    body = element.body
    for existing in body.pct_annotations:
        if existing.matched_path == annotation.matched_path:
            raise OperatorError(
                f"{input_id} already relaxes over "
                f"{'.'.join(annotation.matched_path)}; "
                "relax the original statement instead"
            )
    new_body = replace(
        body, pct_annotations=body.pct_annotations + (annotation,)
    )
    oid = output_id or _fresh_id(model, input_id)
    if model.has_element(oid):
        raise OperatorError(f"id {oid} already names an element")
    output = Element(oid, element.kind, new_body)
    try:
        expand_u(output)
    except PathMismatch as exc:
        raise OperatorError(str(exc)) from exc
    model = model.with_element(output)
    return _record(
        model,
        Operator.DEUNIVERSALIZE,
        (input_id,),
        (oid,),
        Strength.WEAKENING,
        DeUniversalizeArgs(annotation),
    )


def apply_observe(
    model: Model,
    input_id: str,
    observer: Description,
    *,
    output_id: Optional[str] = None,
) -> Model:
    """Delegate judgement of a quality statement to an observer.

    The output is always a constraint: attaching who measures makes the
    statement checkable, so a vague named region comes out flagged as
    measurable. Restricting the statement to the observer's verdicts only
    tightens it; an observation is always a strengthening.
    """
    element = _quality_input(model, input_id, "observation")
    body = element.body
    region = body.region
    if isinstance(region, NamedRegion) and region.qualitative:
        region = NamedRegion(region.name, qualitative=False)
    new_body = replace(
        body, region=region, observers=body.observers + (observer,)
    )
    oid = output_id or _fresh_id(model, input_id)
    if model.has_element(oid):
        raise OperatorError(f"id {oid} already names an element")
    model = model.with_element(Element(oid, Kind.QC, new_body))
    return _record(
        model,
        Operator.OBSERVE,
        (input_id,),
        (oid,),
        Strength.STRENGTHENING,
        ObserveArgs(observer),
    )
