"""Tests for the core data model: validation, symbols, normalization."""

import copy
import dataclasses
import importlib.util
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from reqsmith import model as model_module
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
    InverseProjection,
    Kind,
    Model,
    ModifierKind,
    NamedRegion,
    NaturalLanguage,
    Operator,
    OperatorApplication,
    QualityStatement,
    Region,
    SlotRestriction,
    Strength,
    Subsumption,
    UAnnotation,
    Union,
    at_least,
    body_descriptions,
    children,
    exact_decimal,
    mentions,
    normalize,
    subterms,
    World,
    validate_model,
)
from reqsmith.operators import apply_focus
from reqsmith.parser import format_rational, parse_model

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


# ===== normalize =====


def test_normalize_thing_identity():
    assert normalize(Intersection(A("A"), THING)) == A("A")


def test_normalize_commutativity():
    left = normalize(Intersection(A("B"), A("A")))
    right = normalize(Intersection(A("A"), A("B")))
    assert left == right


def test_normalize_self_difference():
    assert normalize(Difference(A("Ticket"), A("Ticket"))) == NOTHING


def test_normalize_union_dedup():
    assert normalize(Union(A("A"), A("A"))) == A("A")


def test_normalize_nothing_absorbs():
    assert normalize(Intersection(A("A"), NOTHING)) == NOTHING
    assert normalize(Union(A("A"), NOTHING)) == A("A")


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
    once = normalize(desc)
    assert normalize(once) == once


def test_normalize_nested_flattening():
    deep = Intersection(Intersection(A("C"), A("B")), Intersection(A("A"), A("B")))
    assert normalize(deep) == normalize(Intersection(A("A"), Intersection(A("B"), A("C"))))


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


def _walk_records(value, found: dict) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if id(value) not in found:
            found[id(value)] = value
            for f in dataclasses.fields(value):
                _walk_records(getattr(value, f.name), found)
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
    doubled = dataclasses.replace(rare, elements=rare.elements * 2)
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
    names = [f.name for f in dataclasses.fields(cls)]
    if cls not in _GENERATED:
        _GENERATED[cls] = dataclasses.make_dataclass(cls.__qualname__, names, frozen=True)
    return _GENERATED[cls](*[getattr(record, name) for name in names])


def _hash_or_none(value):
    # A model with a world is unhashable, as the world is.
    try:
        return hash(value)
    except TypeError:
        return None


def test_model_records_compare_hash_and_print_as_generated_dataclasses(records_by_class):
    records = {
        value
        for value in vars(model_module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
    }
    assert set(records_by_class) == records
    other = {cls: group[0] for cls, group in records_by_class.items()}
    for cls, group in records_by_class.items():
        stranger = next(r for c, r in other.items() if c is not cls)
        for a, b in zip(group, group[1:] + group[:1]):
            ref_a, ref_b = _as_generated_dataclass(a), _as_generated_dataclass(b)
            assert repr(a) == repr(ref_a)
            if cls is World:
                continue
            assert _hash_or_none(a) == _hash_or_none(ref_a)
            assert (a == b) == (ref_a == ref_b)
            assert (a != b) == (ref_a != ref_b)
            assert a == dataclasses.replace(a)
            assert a.__eq__(stranger) is NotImplemented
            assert ref_a.__eq__(_as_generated_dataclass(stranger)) is NotImplemented


def test_a_world_keeps_its_own_equality_and_no_hash():
    plain = World(individuals=frozenset({"x"}), concept_extensions={"A": frozenset()})
    assert plain == World(individuals=frozenset({"x"}))
    assert World.__hash__ is None
    with pytest.raises(TypeError):
        hash(plain)


def test_model_records_stay_frozen_dataclasses_that_copy(records_by_class):
    for cls, group in records_by_class.items():
        names = [f.name for f in dataclasses.fields(cls)]
        for record in (group[0], group[-1]):
            if names:
                same = dataclasses.replace(record, **{names[0]: getattr(record, names[0])})
                assert same == record and same is not record
            for copied in (
                copy.copy(record),
                copy.deepcopy(record),
                pickle.loads(pickle.dumps(record)),
            ):
                assert type(copied) is cls
                assert copied == record
            name = names[0] if names else "extra"
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
