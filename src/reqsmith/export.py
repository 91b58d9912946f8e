"""Serialization for interoperability: ontology text.

`emit_owl` writes a model as an OWL2 functional-style document so external
reasoners can consume it; nothing inside this package reads that output
back. The JSON report, `emit_report`, lives in `findings`.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    ONE_TO_MANY_OPS,
    Model,
    NaturalLanguage,
    Operator,
    QualityStatement,
    exact_decimal,
    fold,
)
from .semantics import (
    DLAnd,
    DLAtomic,
    DLCard,
    DLConcept,
    DLDataRange,
    DLExists,
    DLExistsInverse,
    DLForAll,
    DLNominal,
    DLNot,
    DLNothing,
    DLOr,
    DLThing,
    DL_CHILDREN,
    translate_description,
    translate_element,
)


class NestedUNotExportable(ValueError):
    """Raised when an element stacks several percentage annotations.

    A single relaxation has a direct logical form; relaxations layered on
    an already relaxed statement quantify over the first relaxation and
    fall outside what the exported ontology language can say.
    """


_PREFIXES = (
    "Prefix(:=<http://example.org/requirements#>)",
    "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)",
    "Prefix(rdf:=<http://www.w3.org/1999/02/22-rdf-syntax-ns#>)",
    "Prefix(rdfs:=<http://www.w3.org/2000/01/rdf-schema#>)",
    "Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)",
)

# Fulfillment scaffolding: a Fulfilled_Thing relates to at least one
# Fulfilled_Thing; an ALL_Fulfilled_Thing is one whose every fan-out
# successor is fulfilled. One-to-one operations refine through
# relate_to_one, fan-out operations through relate_to_many; resolutions
# carry no fulfillment reading and get no property.
_SCAFFOLD = (
    "Declaration(Class(:Fulfilled_Thing))",
    "Declaration(Class(:ALL_Fulfilled_Thing))",
    "Declaration(ObjectProperty(:relate_to))",
    "Declaration(ObjectProperty(:relate_to_one))",
    "Declaration(ObjectProperty(:relate_to_many))",
    "Declaration(ObjectProperty(:interpret_to))",
    "Declaration(ObjectProperty(:scale_to))",
    "Declaration(ObjectProperty(:deuniv_to))",
    "Declaration(ObjectProperty(:observe_to))",
    "Declaration(ObjectProperty(:reduce_to))",
    "Declaration(ObjectProperty(:focus_to))",
    "Declaration(ObjectProperty(:operationalize_to))",
    "SubObjectPropertyOf(:relate_to_one :relate_to)",
    "SubObjectPropertyOf(:relate_to_many :relate_to)",
    "SubObjectPropertyOf(:interpret_to :relate_to_one)",
    "SubObjectPropertyOf(:scale_to :relate_to_one)",
    "SubObjectPropertyOf(:deuniv_to :relate_to_one)",
    "SubObjectPropertyOf(:observe_to :relate_to_one)",
    "SubObjectPropertyOf(:reduce_to :relate_to_many)",
    "SubObjectPropertyOf(:focus_to :relate_to_many)",
    "SubObjectPropertyOf(:operationalize_to :relate_to_many)",
    "EquivalentClasses(:Fulfilled_Thing "
    "ObjectSomeValuesFrom(:relate_to :Fulfilled_Thing))",
    "SubClassOf(:ALL_Fulfilled_Thing :Fulfilled_Thing)",
    "EquivalentClasses(:ALL_Fulfilled_Thing "
    "ObjectAllValuesFrom(:relate_to_many :Fulfilled_Thing))",
)


def _decimal_digits(value) -> str:
    """Render a rational as a plain decimal string.

    Exact whenever the denominator divides a power of ten; otherwise a
    fixed 12-place rounding keeps the output deterministic.
    """
    f = Fraction(value)
    exact = exact_decimal(f)
    if exact is not None:
        return exact
    sign = "-" if f < 0 else ""
    digits = str(round(abs(f) * 10**12)).rjust(13, "0")
    text = f"{sign}{digits[:-12]}.{digits[-12:]}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _data_literal(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"^^xsd:string'
    return f'"{_decimal_digits(value)}"^^xsd:decimal'


_FACET_NAMES = {"min": "xsd:minInclusive", "max": "xsd:maxInclusive"}

# A slot holding literal values needs its own property name; reusing the
# object-valued name would make one identifier both kinds of property.
_DATA_PROPERTY_NAMES = {"has_value_in": "has_value"}


def _data_property(slot: str) -> str:
    return _DATA_PROPERTY_NAMES.get(slot, f"{slot}_value")


_CARD_WORDS = {"min": "Min", "max": "Max", "exact": "Exact"}


def _render(c: DLConcept) -> str:
    text, data = fold(c, _render_step, DL_CHILDREN)
    if data:
        raise ValueError("a bare data range cannot stand as a class")
    return text


def _render_step(c: DLConcept, kids) -> tuple[str, bool]:
    """c rendered, and whether that is a data range, from that pair for each
    child. A data value range, and data ranges combined by and, or and not,
    are data ranges; only a restriction's filler may be one."""
    parts = [text for text, _ in kids]
    data = [is_data for _, is_data in kids]
    if isinstance(c, DLDataRange) or (isinstance(c, (DLAnd, DLOr, DLNot)) and all(data)):
        return _render_data_range(c, parts), True
    if isinstance(c, (DLExists, DLForAll, DLCard)):
        kind, slot = ("Data", _data_property(c.slot)) if data[0] else ("Object", c.slot)
        filler = f":{slot} {parts[0]}"
        if isinstance(c, DLCard) and isinstance(c.filler, DLThing):
            filler = f":{slot}"  # a qualified count of Thing is an unqualified one
        if isinstance(c, DLExists):
            return f"{kind}SomeValuesFrom({filler})", False
        if isinstance(c, DLForAll):
            return f"{kind}AllValuesFrom({filler})", False
        return f"{kind}{_CARD_WORDS[c.kind]}Cardinality({c.n} {filler})", False
    if any(data):
        raise ValueError("a bare data range cannot stand as a class")
    if isinstance(c, DLThing):
        return "owl:Thing", False
    if isinstance(c, DLNothing):
        return "owl:Nothing", False
    if isinstance(c, DLAtomic):
        return f":{c.name}", False
    if isinstance(c, DLNominal):
        names = " ".join(f":{i}" for i in c.ids)
        return f"ObjectOneOf({names})", False
    if isinstance(c, DLAnd):
        return f"ObjectIntersectionOf({' '.join(parts)})", False
    if isinstance(c, DLOr):
        return f"ObjectUnionOf({' '.join(parts)})", False
    if isinstance(c, DLNot):
        return f"ObjectComplementOf({parts[0]})", False
    assert isinstance(c, DLExistsInverse)
    return f"ObjectSomeValuesFrom(ObjectInverseOf(:{c.slot}) {parts[0]})", False


def _render_data_range(c: DLConcept, parts: list[str]) -> str:
    """A data range, given its arguments rendered."""
    if isinstance(c, DLDataRange):
        if c.facet == "eq":
            return f"DataOneOf({_data_literal(c.value)})"
        return (
            f"DatatypeRestriction(xsd:decimal {_FACET_NAMES[c.facet]} "
            f"{_data_literal(c.value)})"
        )
    if isinstance(c, DLAnd):
        if all(isinstance(a, DLDataRange) and a.facet != "eq" for a in c.args):
            pairs = " ".join(
                f"{_FACET_NAMES[a.facet]} {_data_literal(a.value)}" for a in c.args
            )
            return f"DatatypeRestriction(xsd:decimal {pairs})"
        return f"DataIntersectionOf({' '.join(parts)})"
    if isinstance(c, DLNot):
        return f"DataComplementOf({parts[0]})"
    assert isinstance(c, DLOr)
    if all(isinstance(a, DLDataRange) and a.facet == "eq" for a in c.args):
        values = " ".join(_data_literal(a.value) for a in c.args)
        return f"DataOneOf({values})"
    return f"DataUnionOf({' '.join(parts)})"


def emit_owl(model: Model) -> str:
    """Write the model as one deterministic functional-style document.

    Element blocks are ordered by element id; within a block the class
    declaration precedes its definition. Element axioms, save those of an
    element a resolution dropped, declared subsumptions, operator edges,
    and fulfillment marks follow as plain axioms.
    """
    for e in model.elements:
        if (
            isinstance(e.body, QualityStatement)
            and len(e.body.pct_annotations) > 1
        ):
            raise NestedUNotExportable(
                f"{e.id} stacks {len(e.body.pct_annotations)} percentage "
                f"annotations; a relaxation of a relaxation has no "
                f"exportable logical form"
            )

    lines = list(_PREFIXES)
    lines.append("")
    lines.append(f"Ontology(<http://example.org/requirements/{model.name}>")
    lines.append("")
    lines.extend(_SCAFFOLD)

    ordered = sorted(model.elements, key=lambda e: e.id)
    dropped = model.dropped_ids()
    subclass_lines: list[str] = []
    if ordered:
        lines.append("")
    for e in ordered:
        lines.append(f"Declaration(Class(:{e.id}))")
        if isinstance(e.body, NaturalLanguage):
            continue
        concept, axioms = translate_element(e)
        lines.append(f"EquivalentClasses(:{e.id} {_render(concept)})")
        if e.id in dropped:
            continue
        for axiom in axioms:
            subclass_lines.append(
                f"SubClassOf({_render(axiom.sub)} {_render(axiom.sup)})"
            )
    for declared in model.axioms:
        subclass_lines.append(
            f"SubClassOf({_render(translate_description(declared.subsumee))} "
            f"{_render(translate_description(declared.subsumer))})"
        )
    if subclass_lines:
        lines.append("")
        lines.extend(subclass_lines)

    edge_lines: list[str] = []
    for app in model.applications:
        if app.op is Operator.RESOLVE:
            continue
        source = app.inputs[0]
        prop = f"{app.op.value}_to"
        for out in app.outputs:
            edge_lines.append(
                f"SubClassOf(:{source} ObjectSomeValuesFrom(:{prop} :{out}))"
            )
        if app.op in ONE_TO_MANY_OPS:
            edge_lines.append(
                f"SubClassOf(:{source} "
                f"ObjectExactCardinality({len(app.outputs)} :{prop}))"
            )
    if edge_lines:
        lines.append("")
        lines.extend(edge_lines)

    if model.fulfilled_marks:
        lines.append("")
        for marked in sorted(model.fulfilled_marks):
            lines.append(f"SubClassOf(:{marked} :Fulfilled_Thing)")

    lines.append(")")
    return "\n".join(lines) + "\n"


def __getattr__(name: str):
    # The report writer lives in `findings`. The benchmark's tracer still
    # finds it here as `export.emit_report`; the lookup loads `findings`,
    # an import of the exporter alone does not.
    if name == "emit_report":
        from .findings import emit_report

        return emit_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
