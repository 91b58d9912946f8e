"""Tests for the eight element-transforming operations: signature checks,
constructed bodies, recorded applications, and entailment directions."""

from fractions import Fraction

import pytest

from reqsmith.model import (
    AtomicConcept,
    Element,
    Enumeration,
    Interval,
    Kind,
    NamedRegion,
    NaturalLanguage,
    Operator,
    QualityStatement,
    ScaleDirection,
    ScaleFactor,
    Strength,
    Union,
    validate_model,
)
from reqsmith.operators import (
    OperatorError,
    apply_deuniversalize,
    apply_focus,
    apply_interpret,
    apply_observe,
    apply_operationalize,
    apply_reduce,
    apply_resolve,
    apply_scale,
)
from reqsmith.parser import parse_description, parse_model, print_model
from reqsmith.reasoner import (
    VerdictStatus,
    check_strength_tags,
    collect_axioms,
    subsumes,
)
from reqsmith.semantics import translate_element


def parsed(text):
    result = parse_model(text)
    assert not isinstance(result, list), result
    return result


def desc(text):
    result = parse_description(text)
    assert not isinstance(result, list), result
    return result


def elem(decl):
    """Build one element from its declaration text."""
    return parsed("model scratch;\n" + decl).elements[0]


def goal(eid, text):
    return Element(eid, Kind.GOAL, NaturalLanguage(text))


def last_app(model):
    return model.applications[-1]


def proven(model, sub_id, sup_id, bound=2):
    axioms = collect_axioms(model)
    sub, _ = translate_element(model.element(sub_id))
    sup, _ = translate_element(model.element(sup_id))
    verdict = subsumes(sub, sup, axioms=axioms, bound=bound)
    return verdict.status is VerdictStatus.PROVEN


def content_proven(model, sub_id, sup_id):
    """Direction check on quality content, with the kind marker held fixed."""
    axioms = collect_axioms(model)
    sub, _ = translate_element(Element("l", Kind.QG, model.element(sub_id).body))
    sup, _ = translate_element(Element("r", Kind.QG, model.element(sup_id).body))
    return subsumes(sub, sup, axioms=axioms, bound=2).status is VerdictStatus.PROVEN


def clean(model):
    assert validate_model(model) == []
    assert check_strength_tags(model) == []


@pytest.fixture(autouse=True)
def every_result_is_valid_and_prints_back(monkeypatch):
    """Every model an operator returns in these tests passes validation, and
    its canonical text parses back to an equal model."""

    def checked(apply):
        def run(*args, **kwargs):
            model = apply(*args, **kwargs)
            assert validate_model(model) == []
            assert parse_model(print_model(model)) == model
            return model

        return run

    for name in [name for name in globals() if name.startswith("apply_")]:
        monkeypatch.setitem(globals(), name, checked(globals()[name]))


# ===== reduce =====

TRIP = parsed(
    """
model trip;
goal G1 := "trip be scheduled";
"""
)


def test_reduce_adds_outputs_and_records_application():
    m = apply_reduce(
        TRIP,
        "G1",
        [goal("G2", "hotel be booked"), goal("G3", "airline ticket be booked")],
        Strength.STRENGTHENING,
    )
    assert {e.id for e in m.elements} == {"G1", "G2", "G3"}
    app = last_app(m)
    assert app.op is Operator.REDUCE
    assert app.inputs == ("G1",)
    assert app.outputs == ("G2", "G3")
    assert app.strength is Strength.STRENGTHENING
    clean(m)


def test_reduce_leaves_the_original_model_untouched():
    before = len(TRIP.elements)
    apply_reduce(TRIP, "G1", [goal("G2", "hotel be booked")], Strength.STRENGTHENING)
    assert len(TRIP.elements) == before
    assert TRIP.applications == ()


def test_reduce_separating_concerns_is_an_equating():
    base = parsed('model t;\ngoal G1 := "collect real time traffic info";\n')
    m = apply_reduce(
        base,
        "G1",
        [
            goal("G2", "traffic info be collected"),
            goal("G3", "collected traffic info be in real time"),
        ],
        Strength.EQUATING,
    )
    assert last_app(m).strength is Strength.EQUATING
    clean(m)


def test_reduce_may_add_domain_assumptions():
    base = parsed('model pay;\ngoal G1 := "pay for the book online";\n')
    m = apply_reduce(
        base,
        "G1",
        [
            goal("G2", "pay with credit card"),
            Element(
                "DA3",
                Kind.DA,
                NaturalLanguage("having a credit card with enough credits"),
            ),
        ],
        Strength.STRENGTHENING,
    )
    assert m.element("DA3").kind is Kind.DA
    clean(m)


def test_reduce_rejects_cross_kind_outputs():
    base = parsed("model b;\nfg FG1 := Ticket :< Booked;\n")
    with pytest.raises(OperatorError, match="keep"):
        apply_reduce(
            base,
            "FG1",
            [elem("func F2 := Book <object: Ticket>;")],
            Strength.STRENGTHENING,
        )


def test_reduce_rejects_empty_outputs():
    with pytest.raises(OperatorError, match="at least one output"):
        apply_reduce(TRIP, "G1", [], Strength.EQUATING)


def test_reduce_rejects_unknown_input():
    with pytest.raises(OperatorError, match="G9"):
        apply_reduce(TRIP, "G9", [goal("G2", "x")], Strength.EQUATING)


def test_reduce_rejects_colliding_output_ids():
    with pytest.raises(OperatorError, match="G1"):
        apply_reduce(TRIP, "G1", [goal("G1", "again")], Strength.EQUATING)


def test_reduce_accepts_existing_elements_by_id():
    base = parsed(
        """
model t;
goal G1 := "trip be scheduled";
goal G2 := "hotel be booked";
"""
    )
    m = apply_reduce(base, "G1", ["G2"], Strength.STRENGTHENING)
    assert last_app(m).outputs == ("G2",)
    assert len(m.elements) == 2


BOOKING = parsed(
    """
model booking;
axiom Airline_ticket :< Ticket;
func F1 := Book <object: Ticket>;
"""
)


def test_reduce_slot_specialization_is_a_clean_strengthening():
    m = apply_reduce(
        BOOKING,
        "F1",
        [elem("func F1p := Book <object: Airline_ticket>;")],
        Strength.STRENGTHENING,
    )
    clean(m)
    assert proven(m, "F1p", "F1")


def test_reduce_slot_addition_is_a_clean_strengthening():
    m = apply_reduce(
        BOOKING,
        "F1",
        [elem("func F2 := Book <object: Ticket> <means: Credit_card>;")],
        Strength.STRENGTHENING,
    )
    clean(m)
    assert proven(m, "F2", "F1")


# ===== interpret =====


def test_interpret_encodes_a_goal_into_a_functional_goal():
    base = parsed('model n;\ngoal G1 := "notify users with email";\n')
    m = apply_interpret(
        base,
        "G1",
        elem("fg FG2 := User :< Notified <means: Email>;"),
        Strength.STRENGTHENING,
    )
    app = last_app(m)
    assert app.op is Operator.INTERPRET
    assert app.outputs == ("FG2",)
    assert m.element("FG2").kind is Kind.FG
    clean(m)


def test_interpret_keeps_a_non_goal_kind():
    base = parsed('model f;\nfunc F1 := "send the report somehow";\n')
    m = apply_interpret(
        base,
        "F1",
        elem("func F2 := Send <object: Report>;"),
        Strength.EQUATING,
    )
    assert m.element("F2").kind is Kind.F
    clean(m)


def test_interpret_rejects_weakening():
    base = parsed('model n;\ngoal G1 := "notify users with email";\n')
    with pytest.raises(OperatorError, match="weaken"):
        apply_interpret(
            base,
            "G1",
            elem("fg FG2 := User :< Notified;"),
            Strength.WEAKENING,
        )


def test_interpret_rejects_kind_changes_on_non_goals():
    base = parsed('model f;\nfunc F1 := "send the report";\n')
    with pytest.raises(OperatorError, match="kind"):
        apply_interpret(
            base, "F1", elem("fg FG2 := Report :< Sent;"), Strength.EQUATING
        )


# ===== operationalize =====


def test_operationalize_fg_to_function_and_assumption():
    base = parsed("model pay;\nfg FG1 := Products :< Paid;\n")
    m = apply_operationalize(
        base,
        "FG1",
        [
            elem("func F2 := Pay <object: Product> <means: Credit_card>;"),
            elem("da DA3 := Credit_card :< Having_enough_credit;"),
        ],
        Strength.STRENGTHENING,
    )
    app = last_app(m)
    assert app.op is Operator.OPERATIONALIZE
    assert app.outputs == ("F2", "DA3")
    assert app.strength is Strength.STRENGTHENING
    clean(m)


def test_operationalize_qg_to_qc():
    base = parsed("model speed;\nqg QG1 := Processing_time (File_search) :: Fast;\n")
    m = apply_operationalize(
        base,
        "QG1",
        [elem("qc QC2 := Processing_time (File_search) :: [0, 30 (Sec.)];")],
        Strength.STRENGTHENING,
    )
    assert m.element("QC2").kind is Kind.QC
    assert validate_model(m) == []


def test_operationalize_rejects_bad_routing():
    base = parsed("model s;\nctg CTG1 := Student :< <has_id: String>;\n")
    with pytest.raises(OperatorError, match="cannot produce"):
        apply_operationalize(
            base,
            "CTG1",
            [elem("func F2 := Store <object: Student_record>;")],
            Strength.STRENGTHENING,
        )


def test_operationalize_rejects_non_goal_inputs():
    base = parsed("model b;\nfunc F1 := Book <object: Ticket>;\n")
    with pytest.raises(OperatorError, match="operationalized"):
        apply_operationalize(
            base, "F1", [elem("da DA2 := Ticket :< Bookable;")], Strength.WEAKENING
        )


def test_operationalize_to_assumptions_only_is_forced_weakening():
    base = parsed('model a;\ngoal G1 := "rely on the network being up";\n')
    m = apply_operationalize(
        base,
        "G1",
        [elem("da DA2 := Network :< Available;")],
        Strength.STRENGTHENING,
    )
    assert last_app(m).strength is Strength.WEAKENING
    clean(m)


# ===== focus =====

SECURITY = parsed("model sec;\nqg QG41 := Security ({the_system}) :: Good;\n")


def test_focus_widens_the_subject_with_the_target():
    m = apply_focus(SECURITY, "QG41", [Enumeration(("the_data_module",))])
    out = m.element("QG41_1")
    assert out.kind is Kind.QG
    assert out.body.subject == Union(
        Enumeration(("the_system",)), Enumeration(("the_data_module",))
    )
    assert out.body.quality == AtomicConcept("Security")
    app = last_app(m)
    assert app.op is Operator.FOCUS
    assert app.strength is Strength.WEAKENING
    clean(m)


def test_focus_direction_is_derivable_from_the_widened_subject():
    m = apply_focus(SECURITY, "QG41", [Enumeration(("the_data_module",))])
    assert proven(m, "QG41", "QG41_1")
    assert not proven(m, "QG41_1", "QG41")


def test_focus_by_quality_types_yields_one_output_per_target():
    base = parsed("model u;\nqg QG1 := Usability ({the_product}) :: Good;\n")
    m = apply_focus(base, "QG1", ["Learnability", "Operability"])
    app = last_app(m)
    assert app.outputs == ("QG1_1", "QG1_2")
    first = m.element("QG1_1").body
    assert first.quality == Union(
        AtomicConcept("Usability"), AtomicConcept("Learnability")
    )
    assert first.subject == Enumeration(("the_product",))
    second = m.element("QG1_2").body
    assert second.quality == Union(
        AtomicConcept("Usability"), AtomicConcept("Operability")
    )
    clean(m)


def test_focus_accepts_explicit_output_ids():
    m = apply_focus(
        SECURITY,
        "QG41",
        [Enumeration(("the_data_module",))],
        output_ids=["QG42"],
    )
    assert m.element("QG42").kind is Kind.QG


def test_focus_rejects_non_quality_inputs():
    with pytest.raises(OperatorError, match="quality"):
        apply_focus(TRIP, "G1", ["Learnability"])


def test_focus_rejects_empty_targets():
    with pytest.raises(OperatorError, match="target"):
        apply_focus(SECURITY, "QG41", [])


def test_focus_rejects_an_unknown_input():
    with pytest.raises(OperatorError, match="unknown element QG9"):
        apply_focus(SECURITY, "QG9", ["Learnability"])


@pytest.mark.parametrize("output_ids", [[], ["QG42", "QG43"]])
def test_focus_rejects_output_ids_that_do_not_match_its_targets(output_ids):
    with pytest.raises(OperatorError, match="one-to-one"):
        apply_focus(SECURITY, "QG41", ["Learnability"], output_ids=output_ids)


def test_focus_rejects_strengthening():
    with pytest.raises(OperatorError, match="strengthen"):
        apply_focus(
            SECURITY,
            "QG41",
            [Enumeration(("the_data_module",))],
            Strength.STRENGTHENING,
        )


# ===== scale =====

SPEED = parsed(
    "model sp;\nqc QC1 := Processing_time (File_search) :: [0, 30 (Sec.)];\n"
)


def test_scale_down_multiplies_the_bounds():
    m = apply_scale(
        SPEED,
        "QC1",
        ScaleFactor(low_factor=Fraction(1), high_factor=Fraction(6, 5)),
        ScaleDirection.DOWN,
    )
    out = m.element("QC1_1")
    assert out.body.region == Interval(Fraction(0), Fraction(36), "Sec")
    app = last_app(m)
    assert app.op is Operator.SCALE
    assert app.strength is Strength.WEAKENING
    clean(m)
    assert proven(m, "QC1", "QC1_1")


def test_scale_up_shrinks_and_strengthens():
    m = apply_scale(
        SPEED,
        "QC1",
        ScaleFactor(low_factor=Fraction(1), high_factor=Fraction(5, 6)),
        ScaleDirection.UP,
    )
    out = m.element("QC1_1")
    assert out.body.region == Interval(Fraction(0), Fraction(25), "Sec")
    assert last_app(m).strength is Strength.STRENGTHENING
    clean(m)
    assert proven(m, "QC1_1", "QC1")


def test_scale_down_then_reciprocal_up_restores_the_region():
    down = apply_scale(
        SPEED,
        "QC1",
        ScaleFactor(low_factor=Fraction(1), high_factor=Fraction(6, 5)),
        ScaleDirection.DOWN,
    )
    both = apply_scale(
        down,
        "QC1_1",
        ScaleFactor(low_factor=Fraction(1), high_factor=Fraction(5, 6)),
        ScaleDirection.UP,
    )
    assert both.element("QC1_1_1").body.region == SPEED.element("QC1").body.region


def test_scale_identity_factor_is_legal_in_either_direction():
    for direction in (ScaleDirection.DOWN, ScaleDirection.UP):
        m = apply_scale(
            SPEED,
            "QC1",
            ScaleFactor(low_factor=Fraction(1), high_factor=Fraction(1)),
            direction,
        )
        assert m.element("QC1_1").body.region == SPEED.element("QC1").body.region


def test_scale_rejects_factor_direction_mismatch():
    with pytest.raises(OperatorError, match="up"):
        apply_scale(
            SPEED,
            "QC1",
            ScaleFactor(low_factor=Fraction(1), high_factor=Fraction(6, 5)),
            ScaleDirection.UP,
        )


def test_scale_rejects_shifts_past_containment():
    base = parsed("model t;\nqc QC1 := Temperature (Server_room) :: [-10, 20];\n")
    with pytest.raises(OperatorError, match="shift"):
        apply_scale(
            base,
            "QC1",
            ScaleFactor(low_factor=Fraction(1, 2), high_factor=Fraction(1)),
            ScaleDirection.DOWN,
        )


def test_scale_rejects_factors_that_empty_the_region():
    base = parsed("model t;\nqc QC1 := Delay (Queue) :: [10, 20];\n")
    with pytest.raises(OperatorError, match="empt"):
        apply_scale(
            base,
            "QC1",
            ScaleFactor(low_factor=Fraction(3), high_factor=Fraction(1)),
            ScaleDirection.UP,
        )


QUALITATIVE = parsed(
    """
model q;
axiom Very_fast :< Fast;
axiom Fast :< Nearly_fast;
qg QG21 := Processing_time (File_search) :: Fast;
"""
)


def test_scale_down_renames_to_the_wider_region():
    m = apply_scale(
        QUALITATIVE, "QG21", ScaleFactor(region_name="Nearly_fast"), ScaleDirection.DOWN
    )
    out = m.element("QG21_1")
    assert out.body.region == NamedRegion("Nearly_fast")
    assert last_app(m).strength is Strength.WEAKENING
    clean(m)
    assert proven(m, "QG21", "QG21_1")


def test_scale_up_renames_to_the_narrower_region():
    m = apply_scale(
        QUALITATIVE, "QG21", ScaleFactor(region_name="Very_fast"), ScaleDirection.UP
    )
    assert m.element("QG21_1").body.region == NamedRegion("Very_fast")
    assert last_app(m).strength is Strength.STRENGTHENING
    clean(m)


def test_scale_requires_a_declared_region_ordering():
    base = parsed("model q;\nqg QG1 := Processing_time (File_search) :: Fast;\n")
    with pytest.raises(OperatorError, match="ordering"):
        apply_scale(
            base, "QG1", ScaleFactor(region_name="Nearly_fast"), ScaleDirection.DOWN
        )


def test_scale_pairs_factor_style_with_region_style():
    with pytest.raises(OperatorError, match="interval"):
        apply_scale(
            QUALITATIVE,
            "QG21",
            ScaleFactor(low_factor=Fraction(1), high_factor=Fraction(2)),
            ScaleDirection.DOWN,
        )
    with pytest.raises(OperatorError, match="named"):
        apply_scale(
            SPEED, "QC1", ScaleFactor(region_name="Slow"), ScaleDirection.DOWN
        )


# ===== deuniversalize =====


def test_deuniversalize_appends_one_annotation():
    base = parsed("model d;\nqg QG31 := Processing_time (File_search) :: Fast;\n")
    m = apply_deuniversalize(base, "QG31", "X", ["inheres_in"], Fraction(4, 5))
    out = m.element("QG31_1")
    anns = out.body.pct_annotations
    assert len(anns) == 1
    assert anns[0].var_id == "X"
    assert anns[0].matched_path == ("inheres_in",)
    assert anns[0].pct_low == Fraction(4, 5)
    assert last_app(m).strength is Strength.WEAKENING
    clean(m)


def test_deuniversalize_weakens_and_never_strengthens():
    base = parsed("model d;\nqg QG31 := Processing_time (File_search) :: Fast;\n")
    m = apply_deuniversalize(base, "QG31", "X", ["inheres_in"], Fraction(4, 5))
    assert proven(m, "QG31", "QG31_1")
    assert not proven(m, "QG31_1", "QG31")


def test_deuniversalize_nests_over_distinct_paths():
    base = parsed(
        "model d;\nqg QG41 := Processing_time"
        " (Run <run_of: System_function>) :: Fast;\n"
    )
    m = apply_deuniversalize(
        base, "QG41", "F", ["inheres_in", "run_of"], Fraction(4, 5)
    )
    m = apply_deuniversalize(m, "QG41_1", "Y", ["inheres_in"], Fraction(9, 10))
    paths = [a.matched_path for a in m.element("QG41_1_1").body.pct_annotations]
    assert paths == [("inheres_in", "run_of"), ("inheres_in",)]
    clean(m)


def test_deuniversalize_rejects_repeats_on_one_path():
    base = parsed("model d;\nqg QG1 := Processing_time (File_search) :: Fast;\n")
    m = apply_deuniversalize(base, "QG1", "X", ["inheres_in"], Fraction(17, 20))
    with pytest.raises(OperatorError, match="already relax"):
        apply_deuniversalize(m, "QG1_1", "X", ["inheres_in"], Fraction(4, 5))


def test_deuniversalize_allows_alternatives_from_the_original():
    base = parsed("model d;\nqg QG1 := Processing_time (File_search) :: Fast;\n")
    m = apply_deuniversalize(base, "QG1", "X", ["inheres_in"], Fraction(17, 20))
    m = apply_deuniversalize(m, "QG1", "X", ["inheres_in"], Fraction(4, 5))
    assert m.element("QG1_1").body.pct_annotations[0].pct_low == Fraction(17, 20)
    assert m.element("QG1_2").body.pct_annotations[0].pct_low == Fraction(4, 5)
    clean(m)


def test_deuniversalize_rejects_paths_missing_from_the_subject():
    base = parsed("model d;\nqg QG1 := Processing_time (File_search) :: Fast;\n")
    with pytest.raises(OperatorError, match="run_of"):
        apply_deuniversalize(
            base, "QG1", "X", ["inheres_in", "run_of"], Fraction(4, 5)
        )


def test_deuniversalize_rejects_unknown_path_roots():
    base = parsed("model d;\nqg QG1 := Processing_time (File_search) :: Fast;\n")
    with pytest.raises(OperatorError, match="exhibited_by"):
        apply_deuniversalize(base, "QG1", "X", ["exhibited_by"], Fraction(4, 5))


def test_deuniversalize_over_observers_requires_observers():
    base = parsed("model d;\nqg QG1 := Style ({the_interface}) :: Simple;\n")
    with pytest.raises(OperatorError, match="observer"):
        apply_deuniversalize(base, "QG1", "O", ["observed_by"], Fraction(4, 5))
    observed = apply_observe(base, "QG1", AtomicConcept("Surveyed_user"))
    m = apply_deuniversalize(observed, "QG1_1", "O", ["observed_by"], Fraction(4, 5))
    assert m.element("QG1_1_1").body.pct_annotations[0].matched_path == (
        "observed_by",
    )
    clean(m)


def test_deuniversalize_rejects_out_of_range_percentages():
    base = parsed("model d;\nqg QG1 := Processing_time (File_search) :: Fast;\n")
    for pct in (Fraction(0), Fraction(6, 5)):
        with pytest.raises(OperatorError, match="pct"):
            apply_deuniversalize(base, "QG1", "X", ["inheres_in"], pct)


def test_deuniversalize_applies_only_to_quality_elements():
    with pytest.raises(OperatorError, match="quality"):
        apply_deuniversalize(BOOKING, "F1", "X", ["inheres_in"], Fraction(4, 5))


# ===== observe =====


def test_observe_appends_an_observer_and_builds_a_constraint():
    base = parsed("model o;\nqg QG51 := Style ({the_interface}) :: Simple;\n")
    m = apply_observe(base, "QG51", AtomicConcept("Surveyed_user"))
    out = m.element("QG51_1")
    assert out.kind is Kind.QC
    assert out.body.observers == (AtomicConcept("Surveyed_user"),)
    assert out.body.region == NamedRegion("Simple", qualitative=False)
    app = last_app(m)
    assert app.op is Operator.OBSERVE
    assert app.strength is Strength.STRENGTHENING
    clean(m)


def test_observe_output_is_provably_below_the_input():
    base = parsed("model o;\nqg QG51 := Style ({the_interface}) :: Simple;\n")
    m = apply_observe(base, "QG51", AtomicConcept("Surveyed_user"))
    assert content_proven(m, "QG51_1", "QG51")
    assert not content_proven(m, "QG51", "QG51_1")


def test_observe_instruments_a_measured_constraint():
    m = apply_observe(SPEED, "QC1", AtomicConcept("Stopwatch"))
    out = m.element("QC1_1")
    assert out.kind is Kind.QC
    assert out.body.region == Interval(Fraction(0), Fraction(30), "Sec")
    assert out.body.observers == (AtomicConcept("Stopwatch"),)
    clean(m)


def test_observe_stacks_observers():
    base = parsed("model o;\nqg QG51 := Style ({the_interface}) :: Simple;\n")
    m = apply_observe(base, "QG51", AtomicConcept("Surveyed_user"))
    m = apply_observe(m, "QG51_1", AtomicConcept("Expert_panel"))
    assert m.element("QG51_1_1").body.observers == (
        AtomicConcept("Surveyed_user"),
        AtomicConcept("Expert_panel"),
    )
    clean(m)


def test_observe_rejects_non_quality_inputs():
    with pytest.raises(OperatorError, match="quality"):
        apply_observe(BOOKING, "F1", AtomicConcept("Stopwatch"))


# ===== added elements pass validation =====

OBSERVED = parsed(
    "model o;\nqg Q1 := Speed (System) :: Fast <observed_by: <role: Tester>>"
    " u(?x, observed_by.role, 50%);\n"
)
PLAIN = parsed("model o;\nqg Q1 := Speed (System) :: Fast;\n")


@pytest.mark.parametrize(
    ("apply", "message"),
    [
        (
            lambda: apply_observe(OBSERVED, "Q1", AtomicConcept("Auditor")),
            "no slot 'role' found on the annotation path",
        ),
        (
            lambda: apply_observe(PLAIN, "Q1", desc("<pct: SOME X>")),
            "slot pct is reserved for reasoning",
        ),
        (
            lambda: apply_focus(PLAIN, "Q1", [desc("[1, 2]")]),
            "regions combine only with regions, not with concepts",
        ),
    ],
    ids=["observer-off-the-path", "reserved-slot", "region-mixing"],
)
def test_operators_refuse_an_element_the_validator_rejects(apply, message):
    with pytest.raises(OperatorError) as caught:
        apply()
    assert str(caught.value) == message


# ===== resolve =====

CONFLICTED = parsed(
    """
model c;
goal G1 := "use digital certificate";
goal G2 := "good usability";
conflict {G1, G2};
"""
)


def test_resolve_drops_the_losing_requirement():
    m = apply_resolve(CONFLICTED, ["G1", "G2"], ["G2"])
    assert m.dropped_ids() == {"G1"}
    app = last_app(m)
    assert app.op is Operator.RESOLVE
    assert app.strength is Strength.WEAKENING
    clean(m)


def test_resolve_keeps_one_side_and_adds_a_weakened_copy():
    m = apply_resolve(
        CONFLICTED, ["G1", "G2"], ["G1", goal("G2p", "acceptable usability")]
    )
    assert m.dropped_ids() == {"G2"}
    assert m.has_element("G2p")
    clean(m)


def test_resolve_may_drop_everything():
    m = apply_resolve(CONFLICTED, ["G1", "G2"], [])
    assert m.dropped_ids() == {"G1", "G2"}
    clean(m)


def test_resolve_requires_a_declared_conflict():
    base = parsed('model c;\ngoal G1 := "a";\ngoal G2 := "b";\n')
    with pytest.raises(OperatorError, match="conflict"):
        apply_resolve(base, ["G1", "G2"], ["G2"])


def test_resolve_requires_the_exact_conflict_set():
    base = parsed(
        """
model c;
goal G1 := "a";
goal G2 := "b";
goal G3 := "c";
conflict {G1, G2, G3};
"""
    )
    with pytest.raises(OperatorError, match="conflict"):
        apply_resolve(base, ["G1", "G2"], ["G2"])


def test_resolve_requires_two_inputs():
    with pytest.raises(OperatorError, match="two"):
        apply_resolve(CONFLICTED, ["G1"], [])


# ===== chained walkthrough =====


def test_chained_refinement_stays_valid_and_tag_clean():
    m = parsed(
        """
model store;
axiom Airline_ticket :< Ticket;
goal G0 := "sell trips online";
fg FG1 := Ticket :< Booked;
"""
    )
    m = apply_interpret(
        m, "G0", elem('goal G0e := "trips be sold through the site";'),
        Strength.EQUATING,
    )
    m = apply_operationalize(
        m,
        "FG1",
        [
            elem("func F2 := Book <object: Ticket>;"),
            elem("da DA3 := Payment_provider :< Reachable;"),
        ],
        Strength.STRENGTHENING,
    )
    m = apply_reduce(
        m,
        "F2",
        [elem("func F3 := Book <object: Airline_ticket>;")],
        Strength.STRENGTHENING,
    )
    clean(m)
    ids = {e.id for e in m.elements}
    assert {"G0", "G0e", "FG1", "F2", "DA3", "F3"} <= ids
    assert len(m.applications) == 3
