"""Element-transforming operations.

Four relators (reduce, interpret, operationalize, resolve) record how
declared elements derive from one another; four constructors (focus, scale,
de-universalize, observe) additionally build the derived element from the
input and the operation's arguments. Every operation returns a new model
value and leaves the input model untouched.
"""

from fractions import Fraction
from typing import Optional, Sequence, Union as TypingUnion

from .model import (
    AtomicConcept,
    Description,
    DeUniversalizeArgs,
    Element,
    Interval,
    Kind,
    Model,
    NamedRegion,
    ObserveArgs,
    Operator,
    OperatorApplication,
    QualityStatement,
    ScaleArgs,
    ScaleDirection,
    ScaleFactor,
    Strength,
    UAnnotation,
    Union,
    _validate_element,
    application_diagnostics,
    replace,
    resolve_error,
    scale_error,
    strength_error,
)
from .reasoner import derivation, scale_order_error


class OperatorError(ValueError):
    """An application that violates an operation's signature.

    Signature violations carry the wording of `validate_model` and of the
    strength audit, which read the same tables in `reqsmith.model`.
    """


OutputRef = TypingUnion[Element, str]


# ===== shared plumbing =====


def _get(model: Model, eid: str) -> Element:
    if not model.has_element(eid):
        raise OperatorError(f"unknown element {eid}")
    return model.element(eid)


def _with_outputs(
    model: Model, outputs: Sequence[OutputRef]
) -> tuple[Model, tuple[str, ...]]:
    """Add element-valued outputs; id-valued ones are checked on recording."""
    ids: list[str] = []
    for out in outputs:
        if isinstance(out, str):
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
    if not isinstance(element.body, QualityStatement):
        raise OperatorError(
            f"{op_name} needs a structured quality statement; {eid} carries none"
        )
    return element


def _record(model: Model, app: OperatorApplication, outputs: Sequence[OutputRef]) -> Model:
    """`model` with `app` recorded, once `app` fits its operator's signature,
    `validate_model` accepts each element among `outputs` (the elements the
    operator adds), and `app` fits its strength rule and, for a resolution,
    a declared conflict. The first rule broken, in that order, is the error."""
    by_id = model.by_id()
    diagnostics = application_diagnostics(app, by_id)
    for out in outputs:
        if isinstance(out, Element):
            diagnostics += _validate_element(out)
    if diagnostics:
        message = diagnostics[0].message
    else:
        message = strength_error(app, by_id) or resolve_error(app, model.conflicts)
    if message is not None:
        raise OperatorError(message)
    return model.with_application(app)


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
    model, ids = _with_outputs(model, outputs)
    return _record(
        model, OperatorApplication(Operator.REDUCE, (input_id,), ids, strength), outputs
    )


def apply_interpret(
    model: Model, input_id: str, output: OutputRef, strength: Strength
) -> Model:
    """Record one element as a reading of another.

    An interpretation either picks the intended meaning (a strengthening)
    or restates the same content in structured form (an equating); it
    cannot weaken. Goals may change kind; other elements keep theirs.
    """
    model, ids = _with_outputs(model, [output])
    return _record(
        model,
        OperatorApplication(Operator.INTERPRET, (input_id,), ids, strength),
        [output],
    )


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
    model, ids = _with_outputs(model, outputs)
    app = OperatorApplication(Operator.OPERATIONALIZE, (input_id,), ids, strength)
    if strength_error(app, model.by_id()) is not None:
        app = replace(app, strength=Strength.WEAKENING)
    return _record(model, app, outputs)


def apply_resolve(
    model: Model, input_ids: Sequence[str], outputs: Sequence[OutputRef]
) -> Model:
    """Settle a declared conflict by keeping, replacing, or dropping.

    Outputs may repeat surviving inputs, introduce fresh replacements, or
    be empty; inputs absent from the outputs count as dropped and are
    skipped by fulfillment propagation.
    """
    model, out_ids = _with_outputs(model, outputs)
    return _record(
        model,
        OperatorApplication(
            Operator.RESOLVE, tuple(input_ids), out_ids, Strength.WEAKENING
        ),
        outputs,
    )


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
    if output_ids is not None and len(output_ids) != len(targets):
        raise OperatorError("output_ids must match targets one-to-one")
    body = element.body
    added: list[Element] = []
    for index, target in enumerate(targets):
        if isinstance(target, str):
            new_body = replace(
                body, quality=Union(body.quality, AtomicConcept(target))
            )
        else:
            new_body = replace(body, subject=Union(body.subject, target))
        oid = output_ids[index] if output_ids is not None else _fresh_id(model, input_id)
        added.append(Element(oid, element.kind, new_body))
        model, _ = _with_outputs(model, added[-1:])
    ids = tuple(out.id for out in added)
    return _record(
        model,
        OperatorApplication(Operator.FOCUS, (input_id,), ids, strength),
        added,
    )


def _scaled_interval(region: Interval, factor: ScaleFactor) -> Interval:
    low, high = region.low * factor.low_factor, region.high * factor.high_factor
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
    strength = (
        Strength.WEAKENING
        if direction is ScaleDirection.DOWN
        else Strength.STRENGTHENING
    )
    oid = output_id or _fresh_id(model, input_id)
    app = OperatorApplication(
        Operator.SCALE, (input_id,), (oid,), strength, ScaleArgs(factor, direction)
    )
    by_id = {input_id: element}
    unscalable = scale_error(app, by_id)
    if unscalable is None and not factor.is_quantitative:
        unscalable = scale_order_error(app, by_id, derivation(model))
    if unscalable is not None:
        raise OperatorError(unscalable)
    region = element.body.region
    if factor.is_quantitative:
        new_region = _scaled_interval(region, factor)
    else:
        new_region = NamedRegion(factor.region_name, region.qualitative)
    output = Element(oid, element.kind, replace(element.body, region=new_region))
    model, _ = _with_outputs(model, [output])
    return _record(model, app, [output])


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
    output = Element(output_id or _fresh_id(model, input_id), element.kind, new_body)
    model, ids = _with_outputs(model, [output])
    return _record(
        model,
        OperatorApplication(
            Operator.DEUNIVERSALIZE,
            (input_id,),
            ids,
            Strength.WEAKENING,
            DeUniversalizeArgs(annotation),
        ),
        [output],
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
    output = Element(output_id or _fresh_id(model, input_id), Kind.QC, new_body)
    model, ids = _with_outputs(model, [output])
    return _record(
        model,
        OperatorApplication(
            Operator.OBSERVE,
            (input_id,),
            ids,
            Strength.STRENGTHENING,
            ObserveArgs(observer),
        ),
        [output],
    )
