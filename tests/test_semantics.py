"""Tests for world evaluation and logic translation."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from reqsmith.model import (
    EXACTLY_ONE,
    NOTHING,
    ONLY,
    SOME,
    THING,
    AtomicConcept,
    Difference,
    Element,
    Enumeration,
    FunctionDesc,
    Intersection,
    Interval,
    InverseProjection,
    Kind,
    ModifierKind,
    NamedRegion,
    NaturalLanguage,
    Nothing,
    QualityStatement,
    Quantity,
    Region,
    SlotRestriction,
    Subsumption,
    Thing,
    UAnnotation,
    Union,
    ValueSet,
    World,
    at_least,
    at_most,
    exactly,
    replace,
    validate_model,
)
from reqsmith.parser import parse_description, parse_model
from reqsmith.reasoner import _norm
from reqsmith.semantics import (
    DL_NOTHING,
    DL_THING,
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
    DLSubClassOf,
    DLThing,
    PathMismatch,
    eval_description,
    eval_dl,
    translate_description,
    translate_element,
)

A = AtomicConcept


def world(**kwargs) -> World:
    defaults = dict(
        individuals=frozenset(),
        concept_extensions={},
        slot_tuples={},
        data_values={},
        quality_records=(),
    )
    defaults.update(kwargs)
    defaults["individuals"] = frozenset(defaults["individuals"])
    defaults["concept_extensions"] = {
        k: frozenset(v) for k, v in defaults["concept_extensions"].items()
    }
    defaults["slot_tuples"] = {
        k: frozenset(v) for k, v in defaults["slot_tuples"].items()
    }
    return World(**defaults)


# ---- eval_description ----

ACTIVATE_WORLD = world(
    individuals={"a1", "m1", "d1"},
    concept_extensions={
        "Activate": {"a1"},
        "Manager": {"m1"},
        "Debit_card": {"d1"},
    },
    slot_tuples={"actor": {("a1", "m1")}, "object": {("a1", "d1")}},
)


def test_eval_function_shape_selects_the_run():
    d = Intersection(
        Intersection(
            A("Activate"), SlotRestriction("actor", EXACTLY_ONE, A("Manager"))
        ),
        SlotRestriction("object", EXACTLY_ONE, A("Debit_card")),
    )
    assert eval_description(d, ACTIVATE_WORLD) == frozenset({"a1"})


def test_eval_thing_minus_thing_is_empty():
    assert eval_description(Difference(THING, THING), ACTIVATE_WORLD) == frozenset()


def test_eval_inverse_projection():
    w = world(
        individuals={"c1", "t1"},
        concept_extensions={"Collect_1": {"c1"}},
        slot_tuples={"object": {("c1", "t1")}},
    )
    d = InverseProjection(A("Collect_1"), "object")
    assert eval_description(d, w) == frozenset({"t1"})


def test_eval_missing_names_default_to_empty():
    assert eval_description(A("Unheard_of"), ACTIVATE_WORLD) == frozenset()
    assert (
        eval_description(
            SlotRestriction("nope", SOME, THING), ACTIVATE_WORLD
        )
        == frozenset()
    )


CARD_WORLD = world(
    individuals={"x0", "x1", "x2", "x3", "x4", "t1", "t2", "t3", "u1"},
    concept_extensions={"T": {"t1", "t2", "t3"}},
    slot_tuples={
        "r": {
            ("x1", "t1"),
            ("x2", "t1"),
            ("x2", "t2"),
            ("x3", "t1"),
            ("x3", "t2"),
            ("x3", "t3"),
            ("x4", "u1"),
        }
    },
)


@pytest.mark.parametrize(
    "modifier, expected",
    [
        (EXACTLY_ONE, {"x1"}),
        (SOME, {"x1", "x2", "x3"}),
        (at_most(1), {"x0", "x1", "x4", "t1", "t2", "t3", "u1"}),
        (at_least(2), {"x2", "x3"}),
        (exactly(2), {"x2"}),
        (ONLY, {"x0", "x1", "x2", "x3", "t1", "t2", "t3", "u1"}),
    ],
)
def test_eval_slot_modifiers(modifier, expected):
    d = SlotRestriction("r", modifier, A("T"))
    assert eval_description(d, CARD_WORLD) == frozenset(expected)


def test_only_is_vacuous_without_successors():
    d = SlotRestriction("r", ONLY, NOTHING)
    result = eval_description(d, CARD_WORLD)
    assert "x0" in result and "t1" in result
    assert "x1" not in result


DATA_WORLD = world(
    individuals={"c1", "c2", "c3", "c4", "c5"},
    data_values={
        ("c1", "duration"): Quantity(Fraction(25), "Sec"),
        ("c2", "duration"): Quantity(Fraction(40), "Sec"),
        ("c3", "duration"): Fraction(10),
        ("c5", "duration"): Quantity(Fraction(25), "Min"),
    },
)


def test_eval_interval_filler_with_units():
    d = SlotRestriction(
        "duration", EXACTLY_ONE, Region(Interval(Fraction(0), Fraction(30), "Sec"))
    )
    # unitless values compare numerically; a differing unit never matches
    assert eval_description(d, DATA_WORLD) == frozenset({"c1", "c3"})


def test_eval_only_over_data_is_vacuous_when_absent():
    d = SlotRestriction(
        "duration", ONLY, Region(Interval(Fraction(0), Fraction(30), "Sec"))
    )
    assert eval_description(d, DATA_WORLD) == frozenset({"c1", "c3", "c4"})


def test_eval_value_set_filler():
    d = SlotRestriction(
        "duration", SOME, Region(ValueSet((Fraction(10), Fraction(40))))
    )
    assert eval_description(d, DATA_WORLD) == frozenset({"c2", "c3"})


def test_eval_enumeration_and_region_literal():
    w = world(individuals={"MySQL", "Oracle", "other"})
    assert eval_description(Enumeration(("MySQL", "Oracle", "ghost")), w) == frozenset(
        {"MySQL", "Oracle"}
    )
    assert eval_description(Region(Interval(Fraction(0), Fraction(1))), w) == frozenset()


# ---- translation ----


def test_translate_function_element_golden():
    e = Element(
        "F1",
        Kind.F,
        FunctionDesc(
            "Activate",
            (
                SlotRestriction("actor", EXACTLY_ONE, A("Manager")),
                SlotRestriction("object", EXACTLY_ONE, A("Debit_card")),
            ),
        ),
    )
    concept, axioms = translate_element(e)
    assert concept == DLAnd(
        (
            DLAtomic("Function"),
            DLAtomic("Activate"),
            DLCard("actor", "exact", 1, DLAtomic("Manager")),
            DLCard("object", "exact", 1, DLAtomic("Debit_card")),
        )
    )
    assert axioms == []


def test_translate_quality_constraint_golden():
    e = Element(
        "QC3",
        Kind.QC,
        QualityStatement(
            A("Processing_time"),
            A("File_search"),
            Interval(Fraction(0), Fraction(30), "Sec"),
        ),
    )
    concept, axioms = translate_element(e)
    assert concept == DLAnd(
        (
            DLAtomic("QC"),
            DLAtomic("Processing_time"),
            DLExists("inheres_in", DLAtomic("File_search")),
            DLExists(
                "has_value_in",
                DLAnd(
                    (
                        DLDataRange("min", Fraction(0), "Sec"),
                        DLDataRange("max", Fraction(30), "Sec"),
                    )
                ),
            ),
        )
    )
    assert axioms == []


def test_translate_constraint_axiom_golden():
    e = Element(
        "FC1",
        Kind.FC,
        Subsumption(
            A("Data_table"), SlotRestriction("accessed_by", ONLY, A("Manager"))
        ),
    )
    concept, axioms = translate_element(e)
    assert axioms == [
        DLSubClassOf(
            DLAtomic("Data_table"), DLForAll("accessed_by", DLAtomic("Manager"))
        )
    ]
    assert concept == DLAnd(
        (
            DLAtomic("FC"),
            DLExists("subsumee", DLAtomic("Data_table")),
            DLExists("subsumer", DLForAll("accessed_by", DLAtomic("Manager"))),
        )
    )


def test_translate_min_cardinality():
    d = SlotRestriction("register_for", at_least(3), A("Class"))
    assert translate_description(d) == DLCard(
        "register_for", "min", 3, DLAtomic("Class")
    )


def test_translate_enumeration_as_nominal_union():
    assert translate_description(Enumeration(("E1", "E2"))) == DLOr(
        (DLNominal(("E1",)), DLNominal(("E2",)))
    )
    assert translate_description(Enumeration(("solo",))) == DLNominal(("solo",))


def test_translate_thing_nothing_and_difference():
    assert translate_description(THING) == DL_THING
    assert translate_description(NOTHING) == DL_NOTHING
    assert translate_description(Difference(A("A"), A("B"))) == DLAnd(
        (DLAtomic("A"), DLNot(DLAtomic("B")))
    )


def test_translate_annotated_quality_adds_pct_disjunct():
    body = QualityStatement(
        A("Processing_time"),
        A("File_search"),
        NamedRegion("Fast"),
        pct_annotations=(UAnnotation("X", ("inheres_in",), Fraction(4, 5)),),
    )
    concept, _ = translate_element(Element("QG5", Kind.QG, body))
    pct = DLExists(
        "pct",
        DLAnd(
            (DLDataRange("min", Fraction(4, 5), None), DLDataRange("max", Fraction(1), None))
        ),
    )
    assert concept.args[2] == DLExists(
        "inheres_in", DLOr((DLAtomic("File_search"), pct))
    )


def test_translate_observer_as_exact_one():
    body = QualityStatement(
        A("Style"),
        A("User_interface"),
        NamedRegion("Simple"),
        observers=(A("Surveyed_user"),),
    )
    concept, _ = translate_element(Element("QG", Kind.QG, body))
    assert concept.args[-1] == DLCard(
        "observed_by", "exact", 1, DLAtomic("Surveyed_user")
    )


def test_translate_element_rejects_unstructured():
    with pytest.raises(ValueError):
        translate_element(Element("G", Kind.GOAL, NaturalLanguage("hi")))


def test_translate_is_deterministic():
    e = Element(
        "F1",
        Kind.F,
        FunctionDesc("Send", (SlotRestriction("to", SOME, A("User")),)),
    )
    assert translate_element(e) == translate_element(e)


# ---- grafting percentage annotations ----


def pct_slot(low):
    return SlotRestriction("pct", SOME, Region(Interval(low, Fraction(1))))


def grafted_subject(subject, *annotations):
    """The translated subject of a quality goal on `subject` annotated with
    `annotations`."""
    body = QualityStatement(
        A("Processing_time"), subject, NamedRegion("Fast"), pct_annotations=annotations
    )
    concept, _ = translate_element(Element("QG6", Kind.QG, body))
    return concept.args[2]


def test_translate_grafts_two_annotations_in_declaration_order():
    subject = Intersection(
        A("Run"), SlotRestriction("run_of", EXACTLY_ONE, A("System_function"))
    )
    grafted = grafted_subject(
        subject,
        UAnnotation("F", ("inheres_in", "run_of"), Fraction(4, 5)),
        UAnnotation("Y", ("inheres_in",), Fraction(9, 10)),
    )
    inner = Intersection(
        A("Run"),
        SlotRestriction(
            "run_of",
            EXACTLY_ONE,
            Union(A("System_function"), pct_slot(Fraction(4, 5))),
        ),
    )
    expected = Union(inner, pct_slot(Fraction(9, 10)))
    assert grafted == DLExists("inheres_in", translate_description(expected))


@pytest.mark.parametrize(
    ("first", "second"),
    [("System_function", "Batch"), ("Batch", "System_function")],
)
def test_slot_path_annotation_grafts_at_the_first_matching_restriction(first, second):
    # Two run_of restrictions in the subject: the first in pre-order takes
    # the graft, the second stays as it was.
    def subject(first_filler):
        return Intersection(
            A("Run"),
            Intersection(
                SlotRestriction("run_of", SOME, first_filler),
                SlotRestriction("run_of", SOME, A(second)),
            ),
        )

    grafted = grafted_subject(
        subject(A(first)), UAnnotation("F", ("inheres_in", "run_of"), Fraction(4, 5))
    )
    expected = subject(Union(A(first), pct_slot(Fraction(4, 5))))
    assert grafted == DLExists("inheres_in", translate_description(expected))


# Paths that pass a restriction on another slot, the right side of `|`, `-`
# and adjacency, and an inverse projection; one that ends in several
# observers; and several paths in one body, two of them nested. Each
# element's expected subject and observers, grafted, are written out.
GRAFTED_PATHS = """model paths;
qg P1 := Speed (Run <step: <run_of: Task>>) :: Fast u(?x, inheres_in.run_of, 80%);
qg P2 := Speed (Job | <run_of: Task>) :: Fast u(?x, inheres_in.run_of, 70%);
qg P3 := Speed (Job - <run_of: Task>) :: Fast u(?x, inheres_in.run_of, 60%);
qg P4 := Speed (Job <run_of: Task>) :: Fast u(?x, inheres_in.run_of, 50%);
qg P5 := Speed (<run_of: Task>.owner) :: Fast u(?x, inheres_in.run_of, 40%);
qc P6 := Speed (System) :: [1, 5] <observed_by: <role: Tester>>
  <observed_by: Panel <role: Auditor>> u(?y, observed_by.role, 30%);
qg P7 := Speed (Run <step: <run_of: Task <part: Sub>>>) :: Fast
  u(?x, inheres_in.run_of.part, 90%) u(?y, inheres_in.run_of, 80%) u(?z, inheres_in, 75%);
qc P8 := Speed (Job <run_of: Task> <run_of: Other>) :: [1, 5]
  <observed_by: Tester> <observed_by: Auditor> u(?z, observed_by, 20%) u(?x, inheres_in.run_of, 10%);
"""

EXPECTED_GRAFTS = {
    "P1": ("Run <step: <run_of: Task | <pct: SOME [0.8, 1]>>>", ()),
    "P2": ("Job | <run_of: Task | <pct: SOME [0.7, 1]>>", ()),
    "P3": ("Job - <run_of: Task | <pct: SOME [0.6, 1]>>", ()),
    "P4": ("Job <run_of: Task | <pct: SOME [0.5, 1]>>", ()),
    "P5": ("<run_of: Task | <pct: SOME [0.4, 1]>>.owner", ()),
    "P6": (
        "System",
        ("<role: Tester | <pct: SOME [0.3, 1]>>", "Panel <role: Auditor | <pct: SOME [0.3, 1]>>"),
    ),
    "P7": (
        "Run <step: <run_of: Task <part: Sub | <pct: SOME [0.9, 1]>> | <pct: SOME [0.8, 1]>>>"
        " | <pct: SOME [0.75, 1]>",
        (),
    ),
    "P8": (
        "Job <run_of: Task | <pct: SOME [0.1, 1]>> <run_of: Other>",
        ("Tester | <pct: SOME [0.2, 1]>", "Auditor | <pct: SOME [0.2, 1]>"),
    ),
}


def test_annotation_paths_graft_where_they_end_in_the_body_as_written():
    model = parse_model(GRAFTED_PATHS)
    assert not isinstance(model, list), model
    assert validate_model(model) == []
    for element in model.elements:
        subject, observers = EXPECTED_GRAFTS[element.id]
        written = replace(
            element.body,
            subject=parse_description(subject),
            observers=tuple(map(parse_description, observers)),
            pct_annotations=(),
        )
        expected = translate_element(replace(element, body=written))
        assert translate_element(element) == expected, element.id


def test_a_path_never_follows_a_pct_restriction_another_graft_added():
    # The first annotation grafts a pct restriction onto the subject; the
    # second path, followed in the body as written, finds no pct slot.
    body = QualityStatement(
        A("Processing_time"),
        A("File_search"),
        NamedRegion("Fast"),
        pct_annotations=(
            UAnnotation("X", ("inheres_in",), Fraction(1, 2)),
            UAnnotation("Y", ("inheres_in", "pct"), Fraction(1, 2)),
        ),
    )
    with pytest.raises(PathMismatch, match="no slot 'pct' found on the annotation path"):
        translate_element(Element("QG", Kind.QG, body))


def test_translate_observer_path_without_observers_fails():
    body = QualityStatement(
        A("Style"),
        A("User_interface"),
        NamedRegion("Simple"),
        pct_annotations=(UAnnotation("X", ("observed_by",), Fraction(4, 5)),),
    )
    with pytest.raises(PathMismatch):
        translate_element(Element("QG", Kind.QG, body))


def test_annotation_path_must_exist():
    body = QualityStatement(
        A("Processing_time"),
        A("File_search"),
        Interval(Fraction(0), Fraction(30), "Sec"),
        pct_annotations=(UAnnotation("X", ("inheres_in", "ghost"), Fraction(1, 2)),),
    )
    with pytest.raises(PathMismatch):
        translate_element(Element("Q", Kind.QC, body))


# ---- evaluation agreement between the two views ----


def _random_description(rng: random.Random, depth: int):
    leaves = [
        lambda: A(rng.choice(["A", "B"])),
        lambda: THING,
        lambda: NOTHING,
        lambda: Enumeration(tuple(rng.sample(["i1", "i2", "i3"], rng.randint(1, 2)))),
    ]
    if depth <= 0:
        return rng.choice(leaves)()
    modifiers = [EXACTLY_ONE, SOME, ONLY, at_most(1), at_least(2), exactly(2)]
    branches = [
        lambda: Intersection(
            _random_description(rng, depth - 1), _random_description(rng, depth - 1)
        ),
        lambda: Union(
            _random_description(rng, depth - 1), _random_description(rng, depth - 1)
        ),
        lambda: Difference(
            _random_description(rng, depth - 1), _random_description(rng, depth - 1)
        ),
        lambda: SlotRestriction(
            rng.choice(["r", "s"]),
            rng.choice(modifiers),
            _random_description(rng, depth - 1),
        ),
        lambda: SlotRestriction(
            rng.choice(["r", "s"]),
            rng.choice(modifiers),
            Region(Interval(Fraction(0), Fraction(rng.randint(1, 30)))),
        ),
        lambda: SlotRestriction(
            rng.choice(["r", "s"]),
            rng.choice(modifiers),
            Difference(
                Region(Interval(Fraction(0), Fraction(rng.randint(1, 30)))),
                Region(Interval(Fraction(rng.randint(0, 15)), Fraction(rng.randint(15, 30)))),
            ),
        ),
        lambda: InverseProjection(_random_description(rng, depth - 1), rng.choice(["r", "s"])),
    ]
    return rng.choice(branches + leaves)()


def _random_world(rng: random.Random) -> World:
    names = ["i1", "i2", "i3"][: rng.randint(1, 3)]
    extensions = {
        concept: frozenset(n for n in names if rng.random() < 0.5)
        for concept in ("A", "B")
    }
    tuples = {
        slot: frozenset(
            (x, y) for x in names for y in names if rng.random() < 0.3
        )
        for slot in ("r", "s")
    }
    data = {}
    for name in names:
        for slot in ("r", "s"):
            if rng.random() < 0.4:
                data[(name, slot)] = Fraction(rng.randint(0, 40))
    return world(
        individuals=names,
        concept_extensions=extensions,
        slot_tuples=tuples,
        data_values=data,
    )


def _is_data_filler(d) -> bool:
    if isinstance(d, Region):
        return isinstance(d.expr, (Interval, ValueSet))
    if isinstance(d, (Intersection, Union, Difference)):
        return _is_data_filler(d.left) and _is_data_filler(d.right)
    return False


def _value_member(d, value) -> bool:
    if isinstance(d, Intersection):
        return _value_member(d.left, value) and _value_member(d.right, value)
    if isinstance(d, Union):
        return _value_member(d.left, value) or _value_member(d.right, value)
    if isinstance(d, Difference):
        return _value_member(d.left, value) and not _value_member(d.right, value)
    raw, unit = value, None
    if isinstance(value, Quantity):
        raw, unit = value.value, value.unit
    expr = d.expr
    if isinstance(expr, ValueSet):
        return raw in expr.values
    if isinstance(raw, str) or (expr.unit and unit and expr.unit != unit):
        return False
    return expr.low <= raw <= expr.high


def _member(d, x: str, w: World) -> bool:
    """Pointwise oracle: is `x` in the extension of `d`? Decides one
    individual at a time and counts its successors directly."""
    if isinstance(d, AtomicConcept):
        return x in w.extension(d.name)
    if isinstance(d, Thing):
        return True
    if isinstance(d, (Nothing, Region)):
        return False
    if isinstance(d, Enumeration):
        return x in d.ids
    if isinstance(d, Intersection):
        return _member(d.left, x, w) and _member(d.right, x, w)
    if isinstance(d, Union):
        return _member(d.left, x, w) or _member(d.right, x, w)
    if isinstance(d, Difference):
        return _member(d.left, x, w) and not _member(d.right, x, w)
    if isinstance(d, InverseProjection):
        return any(_member(d.source, s, w) for s, y in w.tuples(d.slot) if y == x)
    assert isinstance(d, SlotRestriction)
    if _is_data_filler(d.filler):
        value = w.data_values.get((x, d.slot))
        total = 0 if value is None else 1
        inside = 1 if total and _value_member(d.filler, value) else 0
    else:
        successors = [y for s, y in w.tuples(d.slot) if s == x]
        total = len(successors)
        inside = sum(1 for y in successors if _member(d.filler, y, w))
    kind, n = d.modifier.kind, d.modifier.n
    if kind is ModifierKind.ONLY:
        return inside == total
    if kind is ModifierKind.SOME:
        return inside >= 1
    if kind is ModifierKind.EXACTLY_ONE:
        return inside == 1
    if kind is ModifierKind.AT_MOST:
        return inside <= n
    if kind is ModifierKind.AT_LEAST:
        return inside >= n
    return inside == n


def _oracle_extension(d, w: World) -> frozenset:
    flat = w.materialize()
    return frozenset(x for x in flat.individuals if _member(d, x, flat))


# Seeded worlds seldom give an individual several successors on one slot,
# so this one is added to exercise counting.
FAN_OUT_WORLD = world(
    individuals={"i1", "i2", "i3"},
    concept_extensions={"A": {"i1"}, "B": {"i2", "i3"}},
    slot_tuples={
        "r": {("i1", "i1"), ("i1", "i2"), ("i1", "i3"), ("i2", "i1"), ("i2", "i3")},
        "s": {("i3", "i1"), ("i3", "i2"), ("i2", "i2")},
    },
    data_values={("i1", "r"): Fraction(4), ("i3", "s"): Fraction(25)},
)


def test_evaluation_agrees_with_a_pointwise_membership_oracle():
    rng = random.Random(20260815)
    worlds = [_random_world(rng) for _ in range(8)] + [FAN_OUT_WORLD]
    for _ in range(250):
        d = _random_description(rng, rng.randint(0, 3))
        concept = translate_description(d)
        for w in worlds:
            expected = _oracle_extension(d, w)
            assert eval_description(d, w) == expected, f"disagreement on {d!r}"
            assert eval_dl(concept, w) == expected, f"disagreement on {d!r}"


def test_a_union_of_regions_filler_reads_as_a_data_range():
    # Both regions test the slot's data value, as in the logic translation.
    d = SlotRestriction(
        "r",
        SOME,
        Union(
            Region(Interval(Fraction(0), Fraction(5))),
            Region(Interval(Fraction(10), Fraction(20))),
        ),
    )
    w = world(individuals={"a", "b"}, data_values={("a", "r"): Fraction(3)})
    assert _oracle_extension(d, w) == frozenset({"a"})
    assert eval_description(d, w) == frozenset({"a"})

def test_a_region_difference_filler_reads_as_a_data_range():
    # 7 lies in [1, 10] - [3, 4] and outside [1, 2] - [3, 4]
    def filler(low, high):
        return Difference(
            Region(Interval(Fraction(low), Fraction(high))),
            Region(Interval(Fraction(3), Fraction(4))),
        )

    w = world(
        individuals={"x"},
        concept_extensions={"A": {"x"}},
        data_values={("x", "object"): Fraction(7)},
    )
    some = SlotRestriction("object", SOME, filler(1, 10))
    only = SlotRestriction("object", ONLY, filler(1, 2))
    assert eval_description(some, w) == frozenset({"x"})
    assert eval_description(only, w) == frozenset()
    assert eval_dl(translate_description(some), w) == frozenset({"x"})
    assert eval_dl(translate_description(only), w) == frozenset()



def test_normalize_preserves_evaluation():
    # Each description is swept beside the spellings that only the
    # complement folds of `_norm` reduce: X - X and X | (Thing - X).
    for seed in (99, 100, 101):
        rng = random.Random(seed)
        worlds = [_random_world(rng) for _ in range(8)]
        for _ in range(400):
            d = _random_description(rng, rng.randint(0, 3))
            for variant in (d, Difference(d, d), Union(d, Difference(THING, d))):
                concept = translate_description(variant)
                normal = _norm(concept)
                assert _norm(normal) == normal, f"_norm is not idempotent on {variant!r}"
                for w in worlds:
                    assert eval_dl(normal, w) == eval_dl(concept, w), (
                        f"_norm changed the meaning of {variant!r}"
                    )


# ===== the concept representation =====

ALPHA, BETA = DLAtomic("Alpha"), DLAtomic("Beta")

EVERY_CONCEPT = [
    DL_THING,
    DL_NOTHING,
    ALPHA,
    DLAnd((ALPHA, BETA)),
    DLOr((ALPHA, BETA)),
    DLNot(ALPHA),
    DLExists("r", ALPHA),
    DLForAll("r", ALPHA),
    DLCard("r", "max", 2, DLNominal(("x", "y"))),
    DLExistsInverse("r", ALPHA),
    DLDataRange("min", Fraction(1, 2), "Sec."),
    DLNominal(("x",)),
    DLSubClassOf(ALPHA, DLExists("r", BETA)),
]


def test_concepts_with_the_same_fields_differ_across_classes():
    restrictions = [DLExists("r", ALPHA), DLForAll("r", ALPHA), DLExistsInverse("r", ALPHA)]
    booleans = [DLAnd((ALPHA, BETA)), DLOr((ALPHA, BETA))]
    for same_fields in (restrictions, booleans, [DL_THING, DL_NOTHING]):
        assert len(set(same_fields)) == len(same_fields)
        assert len({hash(c) for c in same_fields}) == len(same_fields)
    assert DLExists("r", ALPHA) == DLExists("r", DLAtomic("Alpha"))
    assert hash(DLExists("r", ALPHA)) == hash(DLExists("r", DLAtomic("Alpha")))
    assert DLThing() == DL_THING and DLNothing() == DL_NOTHING


def test_a_concept_is_its_class_name_followed_by_its_fields():
    assert DLExists("r", ALPHA) == ("DLExists", "r", ("DLAtomic", "Alpha"))
    card = DLCard("r", "exact", 3, ALPHA)
    assert (card.slot, card.kind, card.n, card.filler) == ("r", "exact", 3, ALPHA)
    assert DLDataRange("eq", 5).unit is None
    assert DLSubClassOf(ALPHA, BETA).sup == BETA
    assert isinstance(ALPHA, DLConcept)
    assert not isinstance(DLSubClassOf(ALPHA, BETA), DLConcept)


def test_concept_fields_cannot_be_assigned():
    card = DLCard("r", "min", 2, ALPHA)
    with pytest.raises(AttributeError):
        card.n = 3
    with pytest.raises(AttributeError):
        card.note = "extra"
    with pytest.raises(AttributeError):
        DLSubClassOf(ALPHA, BETA).sub = BETA
    assert card.n == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DLCard("r", "most", 1, ALPHA), "bad cardinality kind 'most'"),
        (lambda: DLCard("r", "min", 0, ALPHA), "cardinalities start at 1"),
        (lambda: DLDataRange("lt", 3), "bad facet 'lt'"),
    ],
    ids=["card-kind", "card-zero", "facet"],
)
def test_invalid_concepts_are_refused_with_the_same_errors(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_repr_reads_like_a_dataclass():
    assert repr(DL_THING) == "DLThing()"
    assert repr(DLCard("r", "exact", 1, ALPHA)) == (
        "DLCard(slot='r', kind='exact', n=1, filler=DLAtomic(name='Alpha'))"
    )
    assert repr(DLDataRange("min", Fraction(1, 2))) == (
        "DLDataRange(facet='min', value=Fraction(1, 2), unit=None)"
    )
    assert repr(DLAnd((DLNominal(("x",)), DLNot(DL_NOTHING)))) == (
        "DLAnd(args=(DLNominal(ids=('x',)), DLNot(inner=DLNothing())))"
    )
    assert repr(DLSubClassOf(ALPHA, DLExistsInverse("r", BETA))) == (
        "DLSubClassOf(sub=DLAtomic(name='Alpha'), "
        "sup=DLExistsInverse(slot='r', filler=DLAtomic(name='Beta')))"
    )


@pytest.mark.parametrize("concept", EVERY_CONCEPT, ids=lambda c: type(c).__name__)
def test_copies_and_pickles_are_equal_concepts(concept):
    for copied in (
        copy.copy(concept),
        copy.deepcopy(concept),
        pickle.loads(pickle.dumps(concept)),
    ):
        assert copied == concept
        assert type(copied) is type(concept)
        assert hash(copied) == hash(concept)
        assert repr(copied) == repr(concept)

