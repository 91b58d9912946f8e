"""Tests for the core data model: validation, symbols, normalization."""

import copy
import dataclasses
import importlib.util
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from reqsmith import findings as findings_module
from reqsmith import fulfillment as fulfillment_module
from reqsmith import lint as lint_module
from reqsmith import model as model_module
from reqsmith import parser as parser_module
from reqsmith import reasoner as reasoner_module
from reqsmith.export import _decimal_digits
from reqsmith.membership import format_degree
from reqsmith.model import (
    EXACTLY_ONE,
    NOTHING,
    THING,
    AtomicConcept,
    CardinalityModifier,
    Difference,
    Element,
    Enumeration,
    FunctionDesc,
    Intersection,
    Interval,
    IntervalPrototypes,
    InverseProjection,
    Kind,
    MembershipSpec,
    Model,
    ModifierKind,
    NamedRegion,
    NaturalLanguage,
    Operator,
    OperatorApplication,
    PointPrototypes,
    PrototypeRegion,
    QualityStatement,
    Region,
    ScaleFactor,
    SlotRestriction,
    Strength,
    Subsumption,
    UAnnotation,
    Union,
    ValueSet,
    at_least,
    body_descriptions,
    children,
    exact_decimal,
    mentions,
    replace,
    subterms,
    World,
    validate_model,
)
from reqsmith.operators import apply_focus
from reqsmith.parser import parse_model
from reqsmith.printer import format_rational
from reqsmith.reasoner import _norm
from reqsmith import semantics as semantics_module
from reqsmith.semantics import (
    DL_NOTHING,
    DL_THING,
    DLAnd,
    DLAtomic,
    DLCard,
    DLDataRange,
    DLExists,
    DLExistsInverse,
    DLForAll,
    DLNominal,
    DLNot,
    DLOr,
    DLSubClassOf,
    translate_description,
)

A = AtomicConcept
F = Fraction


def slot(name, filler, modifier=EXACTLY_ONE):
    return SlotRestriction(name, modifier, filler)


def goal(eid, text="do something"):
    return Element(eid, Kind.GOAL, NaturalLanguage(text))


# ===== construction invariants =====


def test_enumeration_rejects_duplicates():
    with pytest.raises(ValueError):
        Enumeration(("a", "a"))


# The parser never builds these broken records, but library callers such as
# `operators` and the benchmark's edit chain build records directly.
@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: ValueSet(()), "value set must be non-empty"),
        (lambda: Enumeration(()), "enumeration must be non-empty"),
        (lambda: ScaleFactor(Fraction(2)), "needs both multipliers"),
        (lambda: ScaleFactor(None, Fraction(2)), "needs both multipliers"),
        (lambda: ScaleFactor(Fraction(2), Fraction(3), "Fast"), "not both"),
        (lambda: ScaleFactor(), "needs multipliers or a region name"),
        (lambda: PointPrototypes(()), "prototype point set must be non-empty"),
        (lambda: IntervalPrototypes(Fraction(2), Fraction(2)), "needs a < b"),
    ],
)
def test_records_refuse_empty_or_contradictory_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_model_element_raises_key_error_on_an_unknown_id():
    model = parse_model("model m;\ngoal G1 := \"x\";\n")
    assert model.element("G1").id == "G1"
    with pytest.raises(KeyError):
        model.element("G2")


def test_bounded_modifier_needs_positive_count():
    with pytest.raises(ValueError):
        CardinalityModifier(ModifierKind.AT_LEAST, 0)
    with pytest.raises(ValueError):
        CardinalityModifier(ModifierKind.SOME, 2)


def test_interval_ordering():
    with pytest.raises(ValueError):
        Interval(Fraction(3), Fraction(2))


def test_annotation_bounds():
    with pytest.raises(ValueError):
        UAnnotation("?X", ("inheres_in",), Fraction(0))
    with pytest.raises(ValueError):
        UAnnotation("?X", (), Fraction(1, 2))


# ===== validate_model =====


def test_empty_model_validates():
    assert validate_model(Model()) == []


def test_dangling_application_reference():
    model = Model(
        elements=(goal("G1"),),
        applications=(
            OperatorApplication(
                Operator.REDUCE, ("G1",), ("G9",), Strength.EQUATING
            ),
        ),
    )
    diags = validate_model(model)
    assert len(diags) == 1
    assert diags[0].rule == "dangling-reference"
    assert "G9" in diags[0].message


def test_reduce_arity():
    model = Model(
        elements=(goal("G1"), goal("G2"), goal("G3")),
        applications=(
            OperatorApplication(
                Operator.REDUCE, ("G1", "G2"), ("G3",), Strength.EQUATING
            ),
        ),
    )
    diags = validate_model(model)
    assert [d.rule for d in diags] == ["arity"]


def test_duplicate_ids_flagged():
    model = Model(elements=(goal("G1"), goal("G1")))
    assert any(d.rule == "unique-ids" for d in validate_model(model))


def test_a_region_declared_twice_is_flagged_once_on_its_regions_statement():
    def region(name, low):
        return PrototypeRegion(name, IntervalPrototypes(F(low), F(low + 1)))

    fine = MembershipSpec("Speed", (region("low", 1), region("high", 3)))
    twice = MembershipSpec("Cost", (region("low", 1), region("low", 3), region("low", 5)))
    diags = validate_model(Model(membership_specs=(fine, twice)))
    assert [str(d) for d in diags] == [
        "regions[1]: [unique-regions] quality Cost declares region low more than once"
    ]


def test_qc_needs_measurable_region():
    body = QualityStatement(A("Cost"), A("Product"), NamedRegion("low"))
    model = Model(elements=(Element("QC1", Kind.QC, body),))
    assert any(d.rule == "qc-region" for d in validate_model(model))
    measured = QualityStatement(A("Cost"), A("Product"), NamedRegion("low", False))
    model = Model(elements=(Element("QC1", Kind.QC, measured),))
    assert validate_model(model) == []


def test_kind_body_mismatch():
    model = Model(elements=(Element("F1", Kind.F, Subsumption(A("X"), A("Y"))),))
    assert any(d.rule == "kind-body" for d in validate_model(model))


def test_region_mixing_flagged():
    mixed = Union(A("Fast"), Region(Interval(Fraction(0), Fraction(1))))
    model = Model(elements=(Element("D1", Kind.DA, Subsumption(A("X"), mixed)),))
    assert any(d.rule == "region-mixing" for d in validate_model(model))


def test_regions_combined_with_regions_stay_regions():
    # A union of three regions nests a union of two, which is a region too.
    r1, r2, r3 = (Region(Interval(Fraction(i), Fraction(i + 1))) for i in range(3))
    regions = SlotRestriction("object", EXACTLY_ONE, Union(Union(r1, r2), r3))
    model = Model(elements=(Element("F1", Kind.F, FunctionDesc("Send", (regions,))),))
    assert validate_model(model) == []
    # A concept beside a combination of regions mixes them.
    mixed = Union(A("Fast"), Difference(r1, r2))
    model = Model(elements=(Element("D1", Kind.DA, Subsumption(A("X"), mixed)),))
    assert [d.rule for d in validate_model(model)] == ["region-mixing"]


def test_a_region_where_a_class_is_expected_is_flagged_in_order():
    region = Region(Interval(Fraction(0), Fraction(1)))
    projection = InverseProjection(Intersection(region, region), "r")
    quality = QualityStatement(Union(region, region), projection, NamedRegion("low"))
    model = Model(
        elements=(Element("Q1", Kind.QG, quality),),
        axioms=(Subsumption(region, Difference(region, region)),),
    )
    assert [(d.subject_id, d.message) for d in validate_model(model)] == [
        ("Q1", "the quality is a region, where a class is expected"),
        ("Q1", "the source of .r is a region, where a class is expected"),
        ("axiom[0]", "the left side is a region, where a class is expected"),
        ("axiom[0]", "the right side is a region, where a class is expected"),
    ]
    assert {d.rule for d in validate_model(model)} == {"region-position"}


def test_reserved_slot_flagged():
    desc = slot("reduce_to", A("X"))
    model = Model(elements=(Element("F1", Kind.F, FunctionDesc("Go", (desc,))),))
    assert any(d.rule == "reserved-slot" for d in validate_model(model))


def test_element_diagnostics_keep_their_order():
    region = Region(Interval(Fraction(0), Fraction(1)))
    subject = Intersection(
        Union(slot("pct", A("X")), region),
        InverseProjection(Difference(region, A("Y")), "subsumer"),
    )
    quality = QualityStatement(
        A("Cost"),
        subject,
        NamedRegion("low"),
        observers=(slot("relate_to", A("Z")),),
        pct_annotations=(
            UAnnotation("X", ("inheres_in",), Fraction(1, 2)),
            UAnnotation("Y", ("inheres_in",), Fraction(1, 3)),
        ),
    )
    model = Model(
        elements=(
            Element("QC1", Kind.QC, quality),
            Element(
                "F1", Kind.F, Subsumption(slot("reduce_to", A("X")), Union(A("X"), region))
            ),
        )
    )
    assert [(d.subject_id, d.rule, d.message) for d in validate_model(model)] == [
        ("QC1", "qc-region", "a quality constraint needs a measurable region"),
        ("QC1", "region-mixing", "regions combine only with regions, not with concepts"),
        ("QC1", "reserved-slot", "slot pct is reserved for reasoning"),
        ("QC1", "reserved-slot", "slot subsumer is reserved for reasoning"),
        ("QC1", "region-mixing", "regions combine only with regions, not with concepts"),
        ("QC1", "reserved-slot", "slot relate_to is reserved for reasoning"),
        ("QC1", "pct-paths", "two pct annotations share one path"),
        ("F1", "kind-body", "F cannot carry a subsumption body"),
        ("F1", "reserved-slot", "slot reduce_to is reserved for reasoning"),
        ("F1", "region-mixing", "regions combine only with regions, not with concepts"),
    ]



def test_a_pct_path_written_twice_is_followed_once():
    text = (
        "model m;\nqc Q := Processing_time (System) :: [0, 5 (Sec)]"
        " u(?x, inheres_in.run_of, 90%) u(?y, inheres_in.run_of, 80%);\n"
    )
    assert [d.message for d in parse_model(text)] == [
        "Q: [pct-paths] two pct annotations share one path",
        "Q: [pct-path] no slot 'run_of' found on the annotation path",
    ]

def _reference_validate_descriptions(body, owner):
    """The description checks as they were before the walk kept a stack of
    its own: a `subterms` list per description, read in pre-order. It is
    the reference `_validate_descriptions` must agree with."""
    is_region = model_module._is_region
    diags = []

    def misplaced(position):
        message = f"{position} is a region, where a class is expected"
        diags.append(model_module.ValidationDiagnostic(owner, "region-position", message))

    positions = ()
    if isinstance(body, Subsumption):
        positions = ("the left side", "the right side")
    elif isinstance(body, QualityStatement):
        positions = ("the quality",)
    for index, desc in enumerate(body_descriptions(body)):
        if index < len(positions) and is_region(desc):
            misplaced(positions[index])
        for d in subterms(desc):
            if isinstance(d, (SlotRestriction, InverseProjection)):
                if d.slot in model_module.REASONING_INTERNAL_SLOTS:
                    message = f"slot {d.slot} is reserved for reasoning"
                    diags.append(
                        model_module.ValidationDiagnostic(owner, "reserved-slot", message)
                    )
                if isinstance(d, InverseProjection) and is_region(d.source):
                    misplaced(f"the source of .{d.slot}")
            elif isinstance(d, (Intersection, Union, Difference)):
                if is_region(d.left) != is_region(d.right):
                    message = "regions combine only with regions, not with concepts"
                    diags.append(
                        model_module.ValidationDiagnostic(owner, "region-mixing", message)
                    )
    return diags


_DRAWN_SLOTS = ("s", "r", "pct", "relate_to", "subsumer")
_DRAWN_LEAVES = (
    A("X"),
    A("Y"),
    THING,
    Enumeration(("a", "b")),
    Region(Interval(Fraction(0), Fraction(1))),
    Region(NamedRegion("low")),
)


def _drawn_description(rng, depth):
    """A description over reserved and plain slots, classes and regions."""
    choice = rng.randrange(6) if depth else 5
    if choice < 3:
        combine = (Intersection, Union, Difference)[choice]
        left = _drawn_description(rng, depth - 1)
        return combine(left, _drawn_description(rng, depth - 1))
    if choice == 3:
        return slot(rng.choice(_DRAWN_SLOTS), _drawn_description(rng, depth - 1))
    if choice == 4:
        source = _drawn_description(rng, depth - 1)
        return InverseProjection(source, rng.choice(_DRAWN_SLOTS))
    return rng.choice(_DRAWN_LEAVES)


def test_description_checks_agree_with_the_subterms_walk():
    rng = random.Random(11)

    def draw():
        return _drawn_description(rng, rng.randint(0, 4))

    rules = set()
    for _ in range(3000):
        shape = rng.randrange(3)
        if shape == 0:
            body = Subsumption(draw(), draw())
        elif shape == 1:
            observers = tuple(draw() for _ in range(rng.randrange(3)))
            body = QualityStatement(draw(), draw(), NamedRegion("low"), observers)
        else:
            slots = tuple(slot(rng.choice(_DRAWN_SLOTS), draw()) for _ in range(3))
            body = FunctionDesc("Go", slots[: rng.randrange(4)])
        expected = _reference_validate_descriptions(body, "E1")
        assert model_module._validate_descriptions(body, "E1") == expected
        rules |= {d.rule for d in expected}
    assert rules == {"reserved-slot", "region-mixing", "region-position"}


def test_cyclic_applications_flagged():
    model = Model(
        elements=(goal("G1"), goal("G2")),
        applications=(
            OperatorApplication(Operator.REDUCE, ("G1",), ("G2",), Strength.EQUATING),
            OperatorApplication(Operator.REDUCE, ("G2",), ("G1",), Strength.EQUATING),
        ),
    )
    assert any(d.rule == "acyclic" for d in validate_model(model))


def test_dropped_elements_cannot_be_marked():
    model = Model(
        elements=(goal("G1"), goal("G2")),
        conflicts=(frozenset({"G1", "G2"}),),
        applications=(
            OperatorApplication(Operator.RESOLVE, ("G1", "G2"), ("G2",), Strength.WEAKENING),
        ),
        fulfilled_marks=frozenset({"G1"}),
    )
    assert any(d.rule == "dropped-fulfilled" for d in validate_model(model))


def test_operationalize_routing():
    model = Model(
        elements=(
            Element("CTG1", Kind.CTG, Subsumption(A("Partner"), slot("has", A("Address")))),
            Element("F1", Kind.F, FunctionDesc("Record")),
        ),
        applications=(
            OperatorApplication(
                Operator.OPERATIONALIZE, ("CTG1",), ("F1",), Strength.STRENGTHENING
            ),
        ),
    )
    assert any(d.rule == "kind-routing" for d in validate_model(model))


def _deep_description(levels):
    d = A("Leaf")
    for i in range(levels):
        if i % 3 == 0:
            d = slot("part", d)
        elif i % 3 == 1:
            d = Intersection(A(f"C{i % 7}"), d)
        else:
            d = InverseProjection(d, "via")
    return d


def test_deep_descriptions_validate_and_collect_without_recursion():
    deep = _deep_description(5000)
    model = Model(
        elements=(Element("FC1", Kind.FC, Subsumption(deep, A("Top"))),),
        axioms=(Subsumption(A("Top"), deep),),
    )
    assert validate_model(model) == []
    assert mentions(deep) == {"C0", "C1", "C2", "C3", "C4", "C5", "C6", "Leaf"}


@pytest.mark.parametrize(
    ("source", "messages"),
    [
        (
            'goal G := "x";\n',
            [
                "application[0]: [kind-routing] scaling applies to quality elements",
                "application[0]: [kind-routing] scaled output Q2 must keep its kind",
            ],
        ),
        ("", ["application[0]: [dangling-reference] unknown id G"]),
    ],
    ids=["goal", "unknown"],
)
def test_a_scale_of_no_quality_is_a_routing_diagnostic_not_a_scale_one(source, messages):
    text = f"model m;\n{source}qc Q2 := Cost (S) :: [0, 10];\nscale_up G -> Q2 by (2, 1/2);\n"
    assert [d.message for d in parse_model(text)] == messages


# ===== traversal =====


def _preorder(d):
    """Reference pre-order walk, written recursively and independently."""
    if isinstance(d, (Intersection, Union, Difference)):
        return [d] + _preorder(d.left) + _preorder(d.right)
    if isinstance(d, SlotRestriction):
        return [d] + _preorder(d.filler)
    if isinstance(d, InverseProjection):
        return [d] + _preorder(d.source)
    return [d]


def test_subterms_match_a_recursive_preorder_walk():
    from test_acceptance import _random_description

    rng = random.Random(5)
    for _ in range(300):
        d = _random_description(rng, rng.randint(0, 4))
        walked = subterms(d)
        reference = _preorder(d)
        assert len(walked) == len(reference)
        assert all(a is b for a, b in zip(walked, reference))
    # the leaf, one node per level and one atom per intersection level
    assert len(subterms(_deep_description(5000))) == 1 + 5000 + 1667


def test_children_are_the_direct_operands_left_to_right():
    left, right = A("L"), slot("s", A("R"))
    for cls in (Intersection, Union, Difference):
        assert children(cls(left, right)) == (left, right)
    assert children(right) == (A("R"),)
    assert children(InverseProjection(left, "s")) == (left,)
    for leaf in (A("X"), Enumeration(("i",)), THING, NOTHING, Region(NamedRegion("Fast"))):
        assert children(leaf) == ()


def test_body_descriptions_follow_source_order():
    s1, s2 = slot("actor", A("User")), slot("object", A("Ticket"))
    assert body_descriptions(FunctionDesc("Book", (s1, s2))) == (s1, s2)
    assert body_descriptions(Subsumption(A("X"), A("Y"))) == (A("X"), A("Y"))
    quality = QualityStatement(
        A("Speed"), A("Task"), NamedRegion("Fast"), observers=(A("U"), A("V"))
    )
    assert body_descriptions(quality) == (A("Speed"), A("Task"), A("U"), A("V"))
    assert body_descriptions(NaturalLanguage("prose")) == ()


def test_mentions_collects_atoms_ids_and_named_regions():
    d = Union(
        Intersection(A("X"), slot("s", Region(NamedRegion("Fast")))),
        InverseProjection(
            Difference(Enumeration(("i1", "i2")), Region(Interval(Fraction(0), Fraction(1)))),
            "r",
        ),
    )
    assert mentions(d) == {"X", "Fast", "i1", "i2"}
    assert mentions(THING) == set()


# ===== the normal form of a description =====


def normal(d):
    """The reasoner's normal form of a description, which lint compares."""
    return _norm(translate_description(d))


def test_normalize_thing_identity():
    assert normal(Intersection(A("A"), THING)) == normal(A("A"))


def test_normalize_commutativity():
    left = normal(Intersection(A("B"), A("A")))
    right = normal(Intersection(A("A"), A("B")))
    assert left == right


def test_normalize_self_difference():
    assert normal(Difference(A("Ticket"), A("Ticket"))) == DL_NOTHING


def test_normalize_union_dedup():
    assert normal(Union(A("A"), A("A"))) == normal(A("A"))


def test_normalize_nothing_absorbs():
    assert normal(Intersection(A("A"), NOTHING)) == DL_NOTHING
    assert normal(Union(A("A"), NOTHING)) == normal(A("A"))


@pytest.mark.parametrize(
    "desc",
    [
        A("X"),
        Intersection(Union(A("B"), A("A")), Intersection(A("C"), THING)),
        Difference(Union(A("A"), A("B")), A("A")),
        slot("actor", Union(A("B"), A("A")), at_least(3)),
        Intersection(A("A"), Intersection(A("A"), A("B"))),
    ],
)
def test_normalize_idempotent(desc):
    once = normal(desc)
    assert _norm(once) == once


def test_normalize_nested_flattening():
    deep = Intersection(Intersection(A("C"), A("B")), Intersection(A("A"), A("B")))
    assert normal(deep) == normal(Intersection(A("A"), Intersection(A("B"), A("C"))))


# ===== exact decimals =====

# value, format_rational, OWL literal digits, format_degree
DECIMAL_TABLE = [
    (F(0), "0", "0", "0"),
    (F(3), "3", "3", "3"),
    (F(-3), "-3", "-3", "-3"),
    (F(1, 2), "0.5", "0.5", "0.5"),
    (F(-1, 2), "-0.5", "-0.5", "-0.5"),
    (F(1, 4), "0.25", "0.25", "0.25"),
    (F(-5, 4), "-1.25", "-1.25", "-1.25"),
    (F(1, 3), "1/3", "0.333333333333", "1/3 (~0.3333)"),
    (F(-2, 3), "-2/3", "-0.666666666667", "-2/3 (~-0.6667)"),
    (F(1, 8), "0.125", "0.125", "0.125"),
    (F(123, 1000), "0.123", "0.123", "0.123"),
    (F(7, 25), "0.28", "0.28", "0.28"),
    (F(1, 1024), "0.0009765625", "0.0009765625", "0.0009765625"),
    (F(12345, 100), "123.45", "123.45", "123.45"),
    (F(22, 7), "22/7", "3.142857142857", "22/7 (~3.1429)"),
    (
        1 + F(1, 3 * 10**13),
        "30000000000001/30000000000000",
        "1.0",
        "30000000000001/30000000000000 (~1.0000)",
    ),
    (F(-1, 3 * 10**13), "-1/30000000000000", "-0.0", "-1/30000000000000 (~-0.0000)"),
    (F(2, 3 * 10**13), "1/15000000000000", "0.0", "1/15000000000000 (~0.0000)"),
]


@pytest.mark.parametrize(("value", "rational", "literal", "degree"), DECIMAL_TABLE)
def test_decimal_renderers_agree_on_the_pinned_table(value, rational, literal, degree):
    assert format_rational(value) == rational
    assert _decimal_digits(value) == literal
    assert format_degree(value) == degree
    exact = exact_decimal(value)
    assert exact == (rational if "/" not in rational else None)


# ===== record value semantics =====


def test_a_world_leaves_a_foreign_comparison_to_the_other_operand():
    assert World() == mock.ANY
    assert World() != World(individuals=frozenset({"a"}))


def _bench_models(workdir):
    spec = importlib.util.spec_from_file_location(
        "reqsmith_bench_gen", Path(__file__).parents[1] / "bench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    texts = []
    for name in gen.WORKLOADS:
        work = gen.generate(name, 1, workdir / name)
        texts.extend(text for file, text in sorted(work.files.items()) if file != "one.dsr")
    return texts


def _is_record_class(value) -> bool:
    """Whether `value` is a class that `model._record` made."""
    return isinstance(value, type) and value.__repr__ is model_module._record_repr


def _record_classes(module=model_module, private=False):
    """The record classes `module` defines, by name; the private ones, such
    as the rows of the operator table, only when `private` is set."""
    return sorted(
        (
            value
            for name, value in vars(module).items()
            if _is_record_class(value)
            and value.__module__ == module.__name__
            and (private or not name.startswith("_"))
        ),
        key=lambda cls: cls.__name__,
    )


# The records a command returns rather than reads: results, findings and
# diagnostics.
RESULT_MODULES = (parser_module, reasoner_module, lint_module, findings_module, fulfillment_module)


_ALPHA = DLAtomic("Alpha")

# One record of each logic class, beside the model records the fixtures reach.
LOGIC_RECORDS = {
    type(record): record
    for record in (
        DL_THING,
        DL_NOTHING,
        _ALPHA,
        DLAnd((_ALPHA, DL_THING)),
        DLOr((_ALPHA, DL_THING)),
        DLNot(_ALPHA),
        DLExists("r", _ALPHA),
        DLForAll("r", _ALPHA),
        DLCard("r", "max", 2, DLNominal(("x", "y"))),
        DLExistsInverse("r", _ALPHA),
        DLDataRange("min", F(1, 2), "Sec."),
        DLNominal(("x",)),
        DLSubClassOf(_ALPHA, DLExists("r", DL_NOTHING)),
    )
}


def test_every_logic_class_is_a_record():
    assert set(LOGIC_RECORDS) == set(_record_classes(semantics_module))


def test_result_records_are_records():
    names = {cls.__name__ for module in RESULT_MODULES for cls in _record_classes(module)}
    assert names == {
        "SourceSpan",
        "ParseDiagnostic",
        "SubsumptionVerdict",
        "ConsistencyResult",
        "StrengthDiagnostic",
        "LintConfig",
        "LintFinding",
        "FulfillmentState",
    }


def test_each_record_class_is_made_once_as_a_plain_type():
    # With the collector off, as under `cli.run`, a class built and then
    # thrown away would stay in memory beside the record class.
    script = """
import gc, json
gc.disable()
from reqsmith import model, semantics
made = {}
for value in gc.get_objects():
    if isinstance(value, type) and value.__module__ in (model.__name__, semantics.__name__):
        made.setdefault(value.__module__ + "." + value.__qualname__, []).append(value)
records = {
    name: [type(cls) is type for cls in classes]
    for name, classes in made.items()
    if any(cls.__repr__ is model._record_repr for cls in classes)
}
print(json.dumps(records))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(model_module.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    records = json.loads(run.stdout)
    expected = {
        f"{cls.__module__}.{cls.__qualname__}"
        for module in (model_module, semantics_module)
        for cls in _record_classes(module, private=True)
    }
    assert set(records) == expected
    assert all(plain == [True] for plain in records.values())


def _walk_records(value, found: dict) -> None:
    if _is_record_class(type(value)):
        if id(value) not in found:
            found[id(value)] = value
            for name in type(value).__match_args__:
                _walk_records(getattr(value, name), found)
    elif isinstance(value, (tuple, frozenset)):
        for item in value:
            _walk_records(item, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            _walk_records(key, found)
            _walk_records(item, found)


# The records neither the fixtures nor the bench models reach; a focus
# application's arguments and a validation diagnostic are built apart.
RARE_RECORDS = """model rare;
qc SQ1 := Cost (Service) :: [0, 10];
qc SQ2 := Cost (Service) :: [0, 12];
scale_down SQ1 -> SQ2 by (1, 6/5);
qg OQ1 := Style (UI) :: Simple;
qc OQ2 := Style (UI) :: Simple (measured) <observed_by: Surveyed_user>;
observe OQ1 -> OQ2 by Surveyed_user;
qg RQ1 := Style (User_interface) :: Simple;
qg RQ2 := Style (User_interface) :: Simple u(?X, inheres_in, 80%);
deuniv RQ1 -> RQ2 u(?X, inheres_in, 80%);
qg FQ1 := Security (The_system) :: Good;
qg FQ2 := Security (The_system | The_data_module) :: Good;
focus FQ1 -> FQ2;
func F1 := Act <r: {"1", 1}>;
regions Cost {
  low = points {500, 700};
}
world {
  data duration(c1) = 25 Sec;
  quality pt1 : Processing_time inheres f1 value 25 Sec observed_by {u1};
}
"""


@pytest.fixture(scope="module")
def records_by_class(tmp_path_factory):
    """Every model record reachable from the fixtures, the seed-1 bench
    models and the rare-record model, grouped by class."""
    fixtures = Path(__file__).parent / "fixtures"
    texts = [p.read_text(encoding="utf-8") for p in sorted(fixtures.glob("*.dsr"))]
    texts += _bench_models(tmp_path_factory.mktemp("bench"))
    rare = parse_model(RARE_RECORDS)
    doubled = replace(rare, elements=rare.elements * 2)
    found: dict = {}
    _walk_records(tuple(validate_model(doubled)), found)
    _walk_records(apply_focus(rare, "FQ1", ["Safety", A("The_data_module")]), found)
    for text in texts + [RARE_RECORDS]:
        model = parse_model(text)
        if isinstance(model, Model):
            _walk_records(model, found)
    grouped: dict = {}
    for record in found.values():
        grouped.setdefault(type(record), []).append(record)
    return grouped


_GENERATED: dict = {}  # record class -> the same fields as a plain dataclass


def _as_generated_dataclass(record):
    """`record` as an instance of its class rebuilt by plain
    `dataclass(frozen=True)`, whose methods are generated."""
    cls = type(record)
    names = cls.__match_args__
    if cls not in _GENERATED:
        _GENERATED[cls] = dataclasses.make_dataclass(cls.__qualname__, names, frozen=True)
    return _GENERATED[cls](*[getattr(record, name) for name in names])


def test_model_records_compare_hash_and_print_as_generated_dataclasses(records_by_class):
    assert set(records_by_class) == set(_record_classes())
    other = {cls: group[0] for cls, group in records_by_class.items()}
    for cls, group in records_by_class.items():
        stranger = next(r for c, r in other.items() if c is not cls)
        for a, b in zip(group, group[1:] + group[:1]):
            ref_a, ref_b = _as_generated_dataclass(a), _as_generated_dataclass(b)
            assert repr(a) == repr(ref_a)
            if cls is World:
                continue
            assert (a == b) == (ref_a == ref_b)
            assert (a != b) == (ref_a != ref_b)
            assert a == replace(a) and hash(a) == hash(replace(a))
            assert a != b or hash(a) == hash(b)
            # A record is the tuple of its class name and its fields, and
            # hashes as that tuple; a record of another class is unequal,
            # where the dataclass reference returns NotImplemented.
            fields = tuple(getattr(a, name) for name in cls.__match_args__)
            assert tuple(a) == (cls.__name__, *fields)
            assert hash(a) == hash((cls.__name__, *fields))
            assert a.__eq__(stranger) is False
            assert ref_a.__eq__(_as_generated_dataclass(stranger)) is NotImplemented
    # so records of different classes with equal fields differ
    assert Intersection(A("a"), A("b")) != Union(A("a"), A("b"))
    assert DLAnd((_ALPHA,)) != DLOr((_ALPHA,))


def test_a_world_keeps_its_own_equality_and_a_hash_that_agrees():
    # Empty extension and slot entries are no content.
    padded = World(
        individuals=frozenset({"x"}),
        concept_extensions={"A": frozenset()},
        slot_tuples={"r": frozenset()},
    )
    plain = World(individuals=frozenset({"x"}))
    assert padded == plain
    assert hash(padded) == hash(plain)
    assert padded != World(individuals=frozenset({"y"}))
    # Quality records are sugar for the world they materialize into.
    sugared = parse_model(RARE_RECORDS).world
    assert sugared.quality_records
    assert sugared == sugared.materialize()
    assert hash(sugared) == hash(sugared.materialize())


def test_a_model_with_a_world_hashes():
    fixture = Path(__file__).parent / "fixtures" / "entity_kinds.dsr"
    model = parse_model(fixture.read_text(encoding="utf-8"))
    assert model.world is not None
    assert hash(model) == hash(parse_model(fixture.read_text(encoding="utf-8")))


def _assert_frozen_and_copies(record):
    cls, names = type(record), type(record).__match_args__
    if names:
        same = replace(record, **{names[0]: getattr(record, names[0])})
        assert same == record and same is not record
    for copied in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(copied) is cls
        assert copied == record
    name = names[0] if names else "extra"
    with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
        delattr(record, name)
    assert record == copied


def test_model_records_stay_frozen_and_copy(records_by_class):
    for group in records_by_class.values():
        for record in (group[0], group[-1]):
            _assert_frozen_and_copies(record)


@pytest.mark.parametrize("record", LOGIC_RECORDS.values(), ids=lambda r: type(r).__name__)
def test_logic_records_stay_frozen_and_copy(record):
    _assert_frozen_and_copies(record)


@pytest.mark.parametrize(
    "cls",
    [
        cls
        for module in (model_module, semantics_module, *RESULT_MODULES)
        for cls in _record_classes(module, private=True)
    ],
    ids=lambda cls: cls.__name__,
)
def test_a_record_call_refuses_what_its_fields_do_not_take(cls):
    names = cls.__match_args__
    with pytest.raises(TypeError, match=f"takes {len(names)} arguments but"):
        cls(*range(len(names) + 1))
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(no_such_field=1)


def test_a_record_call_binds_by_position_keyword_and_default():
    some, at_most = ModifierKind.SOME, ModifierKind.AT_MOST
    assert CardinalityModifier(some).n is None
    assert CardinalityModifier(kind=at_most, n=2) == CardinalityModifier(at_most, 2)
    assert CardinalityModifier(at_most, n=2) == CardinalityModifier(at_most, 2)
    with pytest.raises(TypeError, match="missing required argument 'kind'"):
        CardinalityModifier()
    with pytest.raises(TypeError, match="missing required argument 'body'"):
        Element("G1", Kind.GOAL)
    with pytest.raises(TypeError, match="multiple values for argument 'kind'"):
        CardinalityModifier(some, kind=some)
    assert DLDataRange("eq", 5) == DLDataRange(facet="eq", value=5, unit=None)
    assert DLExists("r", filler=_ALPHA) == DLExists(filler=_ALPHA, slot="r")
    with pytest.raises(TypeError, match="DLCard\\(\\) missing required argument 'filler'"):
        DLCard("r", "min", 1)
    with pytest.raises(ValueError, match="cardinalities start at 1"):
        DLCard(slot="r", kind="min", n=0, filler=_ALPHA)


def test_each_world_gets_dicts_of_its_own():
    first, second = World(), World()
    for name in ("concept_extensions", "slot_tuples", "data_values"):
        assert getattr(first, name) == {}
        assert getattr(first, name) is not getattr(second, name)


def test_replace_checks_the_changed_record_again():
    interval = Interval(F(1), F(2))
    assert replace(interval, unit="ms") == Interval(F(1), F(2), "ms")
    with pytest.raises(ValueError) as built:
        Interval(F(3), F(2))
    with pytest.raises(ValueError) as replaced:
        replace(interval, low=F(3))
    assert str(replaced.value) == str(built.value) == "interval low bound exceeds high bound"
    with pytest.raises(TypeError, match="Interval has no field 'middle'"):
        replace(interval, middle=F(0))
