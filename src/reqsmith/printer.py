"""The canonical printer's helpers, loaded when `parser.print_model` first runs."""

import re
from fractions import Fraction

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
    MembershipSpec,
    ModifierKind,
    NamedRegion,
    NaturalLanguage,
    Nothing,
    Operator,
    OperatorApplication,
    PointPrototypes,
    Quantity,
    Region,
    RegionExpr,
    ScaleDirection,
    SlotRestriction,
    Subsumption,
    Thing,
    UAnnotation,
    Union,
    World,
    exact_decimal,
    fold,
)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_PREC_DIFFERENCE = 0
_PREC_UNION = 1
_PREC_ADJACENCY = 2
_PREC_POSTFIX = 3


def format_rational(value: Fraction) -> str:
    return exact_decimal(value) or f"{value.numerator}/{value.denominator}"


def format_percent(value: Fraction) -> str:
    scaled = value * 100
    if scaled.denominator == 1:
        return f"{scaled.numerator}%"
    return format_rational(value)


def _format_modifier(modifier) -> str:
    if modifier.kind is ModifierKind.EXACTLY_ONE:
        return ""
    if modifier.kind is ModifierKind.SOME:
        return "SOME "
    if modifier.kind is ModifierKind.ONLY:
        return "ONLY "
    symbol = {
        ModifierKind.AT_MOST: "<=",
        ModifierKind.AT_LEAST: ">=",
        ModifierKind.EXACTLY: "=",
    }[modifier.kind]
    return f"{symbol}{modifier.n} "


def format_region_expr(region: RegionExpr) -> str:
    if isinstance(region, NamedRegion):
        return region.name if region.qualitative else f"{region.name} (measured)"
    if isinstance(region, Interval):
        unit = f" ({region.unit})" if region.unit else ""
        return f"[{format_rational(region.low)}, {format_rational(region.high)}{unit}]"
    parts = []
    for value in region.values:
        parts.append(_quote(value) if isinstance(value, str) else format_rational(value))
    return "{" + ", ".join(parts) + "}"


def format_description(desc: Description) -> str:
    return fold(desc, _format_step)[0]


def _wrap(kid: tuple[str, int], least: int) -> str:
    """A child's text, in parentheses when it binds looser than `least`."""
    text, prec = kid
    return f"({text})" if prec < least else text


def _format_step(desc: Description, kids) -> tuple[str, int]:
    """desc's text and how tightly it binds, from that pair for each child."""
    if isinstance(desc, Thing):
        return "Thing", _PREC_POSTFIX
    if isinstance(desc, Nothing):
        return "Nothing", _PREC_POSTFIX
    if isinstance(desc, AtomicConcept):
        return desc.name, _PREC_POSTFIX
    if isinstance(desc, Enumeration):
        return "{" + ", ".join(desc.ids) + "}", _PREC_POSTFIX
    if isinstance(desc, Region):
        return format_region_expr(desc.expr), _PREC_POSTFIX
    if isinstance(desc, SlotRestriction):
        inner = kids[0][0]
        return f"<{desc.slot}: {_format_modifier(desc.modifier)}{inner}>", _PREC_POSTFIX
    if isinstance(desc, InverseProjection):
        return f"{_wrap(kids[0], _PREC_POSTFIX)}.{desc.slot}", _PREC_POSTFIX
    if isinstance(desc, Intersection):
        right = _wrap(kids[1], _PREC_POSTFIX)
        if right.startswith("["):
            # a `[` after a description may open a strength tag, so the
            # parser reads an interval operand only in parentheses
            right = f"({right})"
        return _wrap(kids[0], _PREC_ADJACENCY) + " " + right, _PREC_ADJACENCY
    if isinstance(desc, Union):
        text = _wrap(kids[0], _PREC_UNION) + " | " + _wrap(kids[1], _PREC_ADJACENCY)
        return text, _PREC_UNION
    if isinstance(desc, Difference):
        text = _wrap(kids[0], _PREC_DIFFERENCE) + " - " + _wrap(kids[1], _PREC_UNION)
        return text, _PREC_DIFFERENCE
    raise TypeError(f"unknown description: {desc!r}")


def _format_annotation(ann: UAnnotation) -> str:
    path = ".".join(ann.matched_path)
    return f"u(?{ann.var_id}, {path}, {format_percent(ann.pct_low)})"


def _format_body(element: Element) -> str:
    body = element.body
    if isinstance(body, NaturalLanguage):
        return _quote(body.text)
    if isinstance(body, FunctionDesc):
        parts = [body.head]
        parts.extend(format_description(s) for s in body.slots)
        return " ".join(parts)
    if isinstance(body, Subsumption):
        return (
            format_description(body.subsumee)
            + " :< "
            + format_description(body.subsumer)
        )
    quality = (
        body.quality.name
        if isinstance(body.quality, AtomicConcept)
        else f"({format_description(body.quality)})"
    )
    text = f"{quality} ({format_description(body.subject)}) :: {format_region_expr(body.region)}"
    for observer in body.observers:
        text += f" <observed_by: {format_description(observer)}>"
    for ann in body.pct_annotations:
        text += " " + _format_annotation(ann)
    return text


def _format_application(app: OperatorApplication) -> str:
    strength = f" [{app.strength.value}]"
    if app.op is Operator.RESOLVE:
        outputs = ", ".join(app.outputs)
        kept = f" {outputs}" if outputs else ""
        return f"resolve {', '.join(app.inputs)} ->{kept}{strength};"
    source = app.inputs[0]
    if app.op is Operator.SCALE:
        args = app.args
        keyword = "scale_up" if args.direction is ScaleDirection.UP else "scale_down"
        if args.factor.is_quantitative:
            factor = (
                f"({format_rational(args.factor.low_factor)}, "
                f"{format_rational(args.factor.high_factor)})"
            )
        else:
            factor = args.factor.region_name
        return f"{keyword} {source} -> {app.outputs[0]} by {factor}{strength};"
    if app.op is Operator.DEUNIVERSALIZE:
        ann = _format_annotation(app.args.annotation)
        return f"deuniv {source} -> {app.outputs[0]} {ann}{strength};"
    if app.op is Operator.OBSERVE:
        observer = format_description(app.args.observer)
        return f"observe {source} -> {app.outputs[0]} by {observer}{strength};"
    keyword = app.op.value
    return f"{keyword} {source} -> {', '.join(app.outputs)}{strength};"


def _format_world(world: World) -> list[str]:
    lines = ["world {"]
    concept_sets: dict[str, list[str]] = {}
    for concept, members in world.concept_extensions.items():
        for member in members:
            concept_sets.setdefault(member, []).append(concept)
    for individual in sorted(world.individuals):
        concepts = sorted(concept_sets.get(individual, []))
        suffix = f" : {', '.join(concepts)}" if concepts else ""
        lines.append(f"  individual {individual}{suffix};")
    for slot in sorted(world.slot_tuples):
        for subject, target in sorted(world.slot_tuples[slot]):
            lines.append(f"  slot {slot}({subject}, {target});")
    for (subject, slot), value in sorted(
        world.data_values.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        if isinstance(value, Quantity):
            rendered = f"{format_rational(value.value)}"
            if value.unit:
                rendered += f" {value.unit}"
        elif isinstance(value, str):
            rendered = value if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", value) else _quote(value)
        else:
            rendered = format_rational(value)
        lines.append(f"  data {slot}({subject}) = {rendered};")
    for record in world.quality_records:
        text = (
            f"  quality {record.quality_id} : {record.quality_concept} "
            f"inheres {record.bearer} value {format_rational(record.value)}"
        )
        if record.unit:
            text += f" {record.unit}"
        if record.observers:
            text += " observed_by {" + ", ".join(sorted(record.observers)) + "}"
        lines.append(text + ";")
    lines.append("}")
    return lines


def _format_spec(spec: MembershipSpec) -> list[str]:
    lines = [f"regions {spec.quality} {{"]
    for region in spec.regions:
        if isinstance(region.prototypes, PointPrototypes):
            values = ", ".join(format_rational(v) for v in region.prototypes.values)
            lines.append(f"  {region.name} = points {{{values}}};")
        else:
            low = format_rational(region.prototypes.a)
            high = format_rational(region.prototypes.b)
            lines.append(f"  {region.name} = interval [{low}, {high}];")
    lines.append("}")
    return lines
