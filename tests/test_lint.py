"""Tests for the issue-taxonomy checks."""

import random
from fractions import Fraction

import pytest

from reqsmith import model as model_module
from reqsmith import reasoner
from reqsmith.lint import (
    Issue,
    LintConfig,
    LintFinding,
    lint_model,
    parse_config,
)
from reqsmith.model import (
    AtomicConcept,
    FunctionDesc,
    Intersection,
    Nothing,
    Strength,
    Subsumption,
    body_descriptions,
    mentions,
)
from reqsmith.operators import (
    apply_deuniversalize,
    apply_observe,
    apply_reduce,
    apply_resolve,
)
from reqsmith.parser import parse_model, print_model
from reqsmith.semantics import DLAtomic


def parsed(text):
    result = parse_model(text)
    assert not isinstance(result, list), result
    return result


def elem(decl):
    return parsed("model scratch;\n" + decl).elements[0]


def findings(model, issue=None, config=None):
    found = lint_model(model) if config is None else lint_model(model, config)
    if issue is None:
        return found
    return [f for f in found if f.issue is issue]


# ===== unsatisfiable risk =====

TASKS = parsed("model t;\nqc QC1 := Processing_time (Tasks) :: [0, 5 (Sec.)];\n")


def test_whole_class_subject_is_an_unsatisfiable_risk():
    hits = findings(TASKS, Issue.UNSATISFIABLE)
    assert [f.element_id for f in hits] == ["QC1"]
    assert hits[0].suggested_operator == "deuniv"


def test_a_universal_subject_name_is_an_unsatisfiable_risk():
    m = parsed("model t;\nqg Q1 := Speed (All_users) :: Fast;\n")
    hits = findings(m, Issue.UNSATISFIABLE)
    assert [(f.element_id, f.detail) for f in hits] == [
        ("Q1", "the subject names a universal (all); relax it to a fraction of the population")
    ]
    assert hits[0].suggested_operator == "deuniv"


def test_universal_wording_is_an_unsatisfiable_risk():
    m = parsed('model t;\nqg QG1 := "all tasks shall finish within 5 seconds";\n')
    hits = findings(m, Issue.UNSATISFIABLE)
    assert [f.element_id for f in hits] == ["QG1"]
    assert "all" in hits[0].detail


def test_individual_subjects_carry_no_universal_risk():
    m = parsed("model t;\nqg QG1 := Security ({the_system}) :: Good;\n")
    assert findings(m, Issue.UNSATISFIABLE) == []


def test_an_existing_relaxation_silences_the_risk():
    m = parsed(
        "model t;\n"
        "qc QC1 := Processing_time (Tasks) :: [0, 5 (Sec.)] u(?X, inheres_in, 90%);\n"
    )
    assert findings(m, Issue.UNSATISFIABLE) == []


def test_relaxing_removes_the_risk_finding():
    assert findings(TASKS, Issue.UNSATISFIABLE) != []
    relaxed = apply_deuniversalize(TASKS, "QC1", "X", ["inheres_in"], Fraction(9, 10))
    assert findings(relaxed, Issue.UNSATISFIABLE) == []


# ===== unverifiable =====

VAGUE = parsed("model v;\nqg QG1 := Processing_time (File_search) :: Fast;\n")


def test_vague_region_without_successor_is_unverifiable():
    hits = findings(VAGUE, Issue.UNVERIFIABLE)
    assert [f.element_id for f in hits] == ["QG1"]
    assert "Fast" in hits[0].detail
    assert hits[0].suggested_operator == "observe"


def test_interval_regions_are_verifiable():
    assert findings(TASKS, Issue.UNVERIFIABLE) == []


def test_observing_removes_the_unverifiable_finding():
    observed = apply_observe(VAGUE, "QG1", AtomicConcept("Surveyed_user"))
    assert findings(observed, Issue.UNVERIFIABLE) == []


def test_an_operationalize_successor_counts_as_verifiable():
    m = parsed(
        """
model v;
qg QG1 := Processing_time (File_search) :: Fast;
qc QC2 := Processing_time (File_search) :: [0, 30 (Sec.)];
operationalize QG1 -> QC2 [strengthen];
"""
    )
    assert findings(m, Issue.UNVERIFIABLE) == []


# ===== incomplete =====


def test_missing_slots_ask_pointed_questions():
    m = parsed("model s;\nfunc F2 := Send <object: Meeting_notification>;\n")
    hits = findings(m, Issue.INCOMPLETE)
    assert [f.element_id for f in hits] == ["F2"]
    assert "Who will send?" in hits[0].detail
    assert "Send to whom?" in hits[0].detail
    assert hits[0].suggested_operator == "reduce"


def test_fully_slotted_functions_are_complete():
    m = parsed(
        "model s;\n"
        "func F1 := Send <actor: Organizer> <object: Meeting_notification>"
        " <target: Participant>;\n"
        "func F2 := Book <actor: User> <object: Ticket>;\n"
    )
    assert findings(m, Issue.INCOMPLETE) == []


def test_refining_removes_the_incomplete_finding():
    m = parsed("model s;\nfunc F2 := Send <object: Meeting_notification>;\n")
    refined = apply_reduce(
        m,
        "F2",
        [
            elem(
                "func F3 := Send <actor: Organizer> <object: Meeting_notification>"
                " <target: Participant>;"
            )
        ],
        Strength.STRENGTHENING,
    )
    assert findings(refined, Issue.INCOMPLETE) == []


def test_parse_config_skips_blanks_and_comments_unquotes_and_casefolds():
    config = parse_config(
        '\n# lexicon, without an equals sign\n   \n'
        'universal_tokens = "ALL", Every\n'
        'required_slots = "object", Actor\n'
    )
    assert config.universal_tokens == frozenset({"all", "every"})
    assert config.required_slots == ("object", "Actor")


def test_parse_config_refuses_a_line_without_equals():
    with pytest.raises(ValueError, match="line 2: expected key = values"):
        parse_config("required_slots = object\nrequired_slots object\n")


def test_required_slot_profiles_come_from_config():
    m = parsed("model s;\nfunc F1 := Send <object: Report>;\n")
    lax = LintConfig(required_slots=("object",), communicative_heads=frozenset())
    assert findings(m, Issue.INCOMPLETE, config=lax) == []


# ===== redundant and unmodifiable =====


def test_identical_bodies_are_redundant():
    m = parsed(
        "model r;\nfg FG1 := Ticket :< Booked;\nfg FG2 := Ticket :< Booked;\n"
    )
    hits = findings(m, Issue.REDUNDANT)
    assert [f.element_id for f in hits] == ["FG2"]
    assert "FG1" in hits[0].detail


def test_redundancy_sees_through_surface_order():
    m = parsed(
        "model r;\n"
        "fg FG1 := (Alpha Beta) :< Collected;\n"
        "fg FG2 := (Beta Alpha) :< Collected;\n"
    )
    assert [f.element_id for f in findings(m, Issue.REDUNDANT)] == ["FG2"]


def test_redundancy_compares_records_without_printing_them(monkeypatch):
    m = parsed(
        "model r;\n"
        "func F1 := Book <actor: User> <object: Ticket>;\n"
        "func F2 := Book <object: Ticket> <actor: User>;\n"
        "func F3 := Book <object: Ticket> <object: Ticket> <actor: User>;\n"
        "fg FG1 := (Alpha Beta) :< Collected;\n"
        "fg FG2 := (Beta Alpha) :< Collected;\n"
        "qg QG1 := Cost ({s}) :: [1, 2] <observed_by: A> <observed_by: B>;\n"
        "qg QG2 := Cost ({s}) :: [1, 2] <observed_by: B> <observed_by: A>;\n"
        "qg QG3 := Cost ({s}) :: [1, 2] <observed_by: A> <observed_by: A>;\n"
    )

    def refuse(self):
        raise AssertionError(f"lint printed a {type(self).__name__}")

    for value in vars(model_module).values():
        if getattr(value, "__repr__", None) is model_module._record_repr:
            monkeypatch.setattr(value, "__repr__", refuse)
    hits = findings(m, Issue.REDUNDANT)
    assert [(f.element_id, f.detail.split()[1]) for f in hits] == [
        ("F2", "F1"),
        ("FG2", "FG1"),
        ("QG2", "QG1"),
    ]


def test_redundancy_folds_a_concept_minus_itself_to_nothing():
    m = parsed(
        "model r;\n"
        "fg FG1 := (Ticket - Ticket) :< Booked;\n"
        "fg FG2 := Nothing :< Booked;\n"
        "fg FG3 := ((Alpha Beta) - (Beta Alpha)) :< Booked;\n"
    )
    assert [f.element_id for f in findings(m, Issue.REDUNDANT)] == ["FG2", "FG3"]


def test_redundancy_identifies_equivalent_spellings():
    m = parsed(
        "model r;\n"
        "fg FG1 := {a, b} :< Booked;\n"
        "fg FG2 := {b, a} :< Booked;\n"
        "func F1 := Book <object: SOME Ticket>;\n"
        "func F2 := Book <object: >=1 Ticket>;\n"
    )
    hits = findings(m, Issue.REDUNDANT)
    assert [(f.element_id, f.detail.split()[1]) for f in hits] == [
        ("FG2", "FG1"),
        ("F2", "F1"),
    ]


def test_redundancy_keeps_the_least_id_whatever_the_order():
    m = parsed(
        "model r;\nfg FG3 := T :< B;\nfg FG1 := T :< B;\nfg FG2 := T :< B;\n"
    )
    hits = findings(m, Issue.REDUNDANT)
    assert [(f.element_id, f.detail.split()[1]) for f in hits] == [
        ("FG3", "FG1"),
        ("FG2", "FG1"),
    ]


def test_same_body_under_different_kinds_is_not_redundant():
    m = parsed(
        "model r;\nfg FG1 := Ticket :< Booked;\nda DA1 := Ticket :< Booked;\n"
    )
    assert findings(m, Issue.REDUNDANT) == []


def test_conjoined_concerns_are_unmodifiable():
    m = parsed(
        'model g;\ngoal G1 := "collect traffic info and reduce operation cost";\n'
    )
    hits = findings(m, Issue.UNMODIFIABLE)
    assert [f.element_id for f in hits] == ["G1"]
    assert hits[0].suggested_operator == "reduce"


def test_single_concern_text_is_modifiable():
    m = parsed('model g;\ngoal G1 := "collect real time traffic info";\n')
    assert findings(m, Issue.UNMODIFIABLE) == []


# ===== inconsistent =====


def test_world_clashes_are_reported():
    m = parsed(
        """
model w;
axiom Hot Cold :< Nothing;
world {
individual x1 : Hot, Cold;
}
"""
    )
    hits = findings(m, Issue.INCONSISTENT)
    assert hits
    assert all(f.element_id == "world" for f in hits)
    assert any("x1" in f.detail for f in hits)


def test_terms_under_disjoint_classes_are_reported():
    m = parsed(
        """
model u;
axiom Information_entity Real_world_entity :< Nothing;
da DA1 := User :< Information_entity;
da DA2 := User :< Real_world_entity;
"""
    )
    hits = findings(m, Issue.INCONSISTENT)
    assert len(hits) == 1
    assert hits[0].element_id == "DA1"
    assert "User" in hits[0].detail
    assert "Information_entity" in hits[0].detail
    assert hits[0].suggested_operator == "interpret"


def test_disjointness_alone_is_not_a_clash():
    m = parsed(
        """
model u;
axiom Information_entity Real_world_entity :< Nothing;
da DA1 := User :< Information_entity;
"""
    )
    assert findings(m, Issue.INCONSISTENT) == []


def test_a_disjoint_term_is_named_by_the_least_id_that_mentions_it():
    # a quality's named region mentions its name too
    text = (
        "model g;\naxiom A B :< Nothing;\naxiom Fast :< A;\naxiom Fast :< B;\n"
        "qg QG2 := Speed (Car) :: Fast;\nqg QG1 := Speed (Bus) :: Fast;\n"
    )
    hits = findings(parsed(text), Issue.INCONSISTENT)
    assert [(f.element_id, f.detail) for f in hits] == [
        (
            "QG1",
            "term Fast falls under A and B, which are declared disjoint; "
            "the two uses need distinct names",
        )
    ]


def test_nary_disjointness_needs_a_term_under_every_atom():
    # A B C :< Nothing empties only the three-way intersection; A and B may meet
    text = "model u;\naxiom A B C :< Nothing;\naxiom T :< A;\naxiom T :< B;\n"
    assert findings(parsed(text), Issue.INCONSISTENT) == []
    hits = findings(parsed(text + "axiom T :< C;\n"), Issue.INCONSISTENT)
    assert [(f.element_id, f.detail) for f in hits] == [
        (
            "model",
            "term T falls under A, B and C, which are declared disjoint; "
            "the 3 uses need distinct names",
        )
    ]


@pytest.mark.parametrize(
    "axioms",
    [
        "axiom T :< A B;\n",
        "axiom T :< B;\naxiom T :< <r: X>;\naxiom <r: X> :< A;\n",
    ],
    ids=["intersection", "restriction"],
)
def test_a_term_reaches_a_disjoint_group_through_a_non_atomic_axiom(axioms):
    # the atom-to-atom closure lint used to keep missed both
    text = "model u;\naxiom A B :< Nothing;\n" + axioms
    hits = findings(parsed(text), Issue.INCONSISTENT)
    assert [(f.element_id, f.detail) for f in hits] == [
        (
            "model",
            "term T falls under A and B, which are declared disjoint; "
            "the two uses need distinct names",
        )
    ]


def test_an_empty_term_is_named_under_the_group_its_declarations_reach():
    # K3 is under K0, K2 and K3, so it is empty and under K0, K1 and K5 too
    text = (
        "model g;\nfg F1 := K3 :< K2;\nfg F2 := K2 :< K4;\nfg F3 := K4 :< K0;\n"
        "axiom K0 K2 K3 :< Nothing;\naxiom K0 K5 K1 :< Nothing;\n"
    )
    hits = findings(parsed(text), Issue.INCONSISTENT)
    assert [(f.element_id, f.detail) for f in hits] == [
        (
            "F1",
            "term K3 falls under K0, K2 and K3, which are declared disjoint; "
            "the 3 uses need distinct names",
        )
    ]


def test_a_term_emptied_outside_every_group_is_named_under_the_first():
    text = "model u;\naxiom C D :< Nothing;\naxiom A B :< Nothing;\naxiom T :< E;\naxiom E :< Nothing;\n"
    hits = findings(parsed(text), Issue.INCONSISTENT)
    assert [(f.element_id, f.detail) for f in hits] == [
        (
            "model",
            "term E falls under A and B, which are declared disjoint; "
            "the two uses need distinct names",
        ),
        (
            "model",
            "term T falls under A and B, which are declared disjoint; "
            "the two uses need distinct names",
        ),
    ]


def test_a_term_emptied_by_an_atomic_axiom_falls_under_the_disjoint_group():
    # X :< Nothing empties X, and T with it, though neither meets A or B
    text = "model u;\naxiom A B :< Nothing;\nfg F1 := T :< X;\naxiom X :< Nothing;\n"
    hits = findings(parsed(text), Issue.INCONSISTENT)
    assert [(f.element_id, f.detail) for f in hits] == [
        (
            "F1",
            f"term {term} falls under A and B, which are declared disjoint; "
            "the two uses need distinct names",
        )
        for term in ("T", "X")
    ]


def test_only_an_atom_that_is_a_whole_left_side_is_a_term():
    # A | B :< Nothing empties A and B, but neither is a whole left side;
    # T, the left side of T :< A, is the one term named
    text = "model u;\naxiom C D :< Nothing;\naxiom A | B :< Nothing;\naxiom T :< A;\n"
    hits = findings(parsed(text), Issue.INCONSISTENT)
    assert [(f.element_id, f.detail) for f in hits] == [
        (
            "model",
            "term T falls under C and D, which are declared disjoint; "
            "the two uses need distinct names",
        )
    ]


def test_a_resolution_drops_the_axioms_of_its_dropped_element():
    text = """
model u;
axiom Information_entity Real_world_entity :< Nothing;
da DA1 := User :< Information_entity;
da DA2 := User :< Real_world_entity;
da DA3 := User :< Person;
conflict {DA1, DA3};
"""
    assert len(findings(parsed(text), Issue.INCONSISTENT)) == 1
    resolved = parsed(text + "resolve DA1, DA3 -> DA3;\n")
    assert findings(resolved, Issue.INCONSISTENT) == []


def test_lint_collects_the_axioms_once(monkeypatch):
    calls = []
    real = reasoner.collect_axioms
    monkeypatch.setattr(reasoner, "collect_axioms", lambda m: calls.append(m) or real(m))
    text = "model u;\naxiom A B :< Nothing;\naxiom T :< A B;\n"
    assert len(findings(parsed(text), Issue.INCONSISTENT)) == 1
    assert len(calls) == 1


def test_lint_without_a_disjointness_axiom_indexes_no_axiom():
    # lint reads the derivation's axioms; only a proof needs its index
    m = parsed("model u;\naxiom A :< B;\nda DA1 := User :< A;\n")
    lint_model(m)
    assert reasoner.derivation(m).watch is None
    assert reasoner.derivation(m).proves(DLAtomic("A"), DLAtomic("B"))
    assert reasoner.derivation(m).watch is not None


def _reference_disjointness(model):
    """Disjointness findings as (element id, detail), by the atom-to-atom
    closure lint kept before it asked the shared derivation. It reads only
    axioms between atoms and atom sets declared empty, so it is a reference
    for models without other axioms."""

    def atoms_of(d):
        if isinstance(d, AtomicConcept):
            return {d.name}
        if isinstance(d, Intersection):
            left, right = atoms_of(d.left), atoms_of(d.right)
            if left and right:
                return left | right
        return set()

    dropped = model.dropped_ids()
    live = [e for e in model.elements if e.id not in dropped]
    supers, disjoint = {}, set()
    bodies = [(a.subsumee, a.subsumer) for a in model.axioms] + [
        (e.body.subsumee, e.body.subsumer) for e in live if isinstance(e.body, Subsumption)
    ]
    for sub, sup in bodies:
        if isinstance(sup, Nothing):
            if len(atoms_of(sub)) > 1:
                disjoint.add(frozenset(atoms_of(sub)))
        elif isinstance(sub, AtomicConcept) and isinstance(sup, AtomicConcept):
            supers.setdefault(sub.name, set()).add(sup.name)

    def ancestors(name):
        seen, stack = set(), [name]
        while stack:
            for parent in supers.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    mentioned_by = {}
    for e in live:
        names = set().union(*map(mentions, body_descriptions(e.body)))
        if isinstance(e.body, FunctionDesc):
            names.add(e.body.head)
        for name in names:
            mentioned_by[name] = min(mentioned_by.get(name, e.id), e.id)
    out = []
    for term in sorted(supers) if disjoint else ():
        for group in sorted(disjoint, key=sorted):
            if group <= ancestors(term) | {term}:
                *rest, last = sorted(group)
                count = "two" if len(group) == 2 else len(group)
                detail = (
                    f"term {term} falls under {', '.join(rest)} and {last}, which are "
                    f"declared disjoint; the {count} uses need distinct names"
                )
                out.append((mentioned_by.get(term, "model"), detail))
                break
    return out


def _atom_only_model(rng):
    atoms = [f"K{i}" for i in range(7)]
    lines = ["model g;"]
    for i in range(rng.randint(3, 12)):
        sub, sup = rng.choice(atoms), rng.choice(atoms)
        if rng.random() < 0.5:
            lines.append(f"axiom {sub} :< {sup};")
        else:
            lines.append(f"da DA{i} := {sub} :< {sup};")
    for _ in range(rng.choice((1, 1, 2, 3))):
        lines.append(f"axiom {' '.join(rng.sample(atoms, rng.randint(2, 3)))} :< Nothing;")
    for i in range(rng.randint(0, 3)):
        lines.append(f"func F{i} := Act <object: {rng.choice(atoms)}>;")
    das = [line.split()[1] for line in lines if line.startswith("da ")]
    if len(das) >= 2 and rng.random() < 0.5:
        pair = ", ".join(rng.sample(das, 2))
        lines += [f"conflict {{{pair}}};", f"resolve {pair} -> {pair.split(', ')[1]};"]
    rng.shuffle(lines[1:])
    return parsed("\n".join(lines) + "\n")


def test_atom_only_models_agree_with_the_reference_closure():
    # A term under a whole group is empty, so the derivation files it under
    # every group; lint names the first group the term reaches without the
    # `:< Nothing` axioms, and the closure the first group among the term's
    # ancestors, which is the same group.
    rng = random.Random(2024)
    found = several = 0
    for _ in range(300):
        model = _atom_only_model(rng)
        expected = _reference_disjointness(model)
        hits = [
            (f.element_id, f.detail)
            for f in findings(model, Issue.INCONSISTENT)
            if f.element_id != "world"
        ]
        assert hits == expected, print_model(model)
        found += len(hits)
        if sum(isinstance(a.subsumer, Nothing) for a in model.axioms) > 1:
            several += len(hits)
    assert found >= 100
    assert several >= 30


# ===== ambiguous =====


def test_attachment_words_are_ambiguous():
    m = parsed('model a;\ngoal G1 := "notify users with email";\n')
    hits = findings(m, Issue.AMBIGUOUS)
    assert [f.element_id for f in hits] == ["G1"]
    assert hits[0].suggested_operator == "interpret"


def test_beneficiary_attachment_is_ambiguous():
    m = parsed('model a;\ngoal G1 := "download contact information for client";\n')
    assert [f.element_id for f in findings(m, Issue.AMBIGUOUS)] == ["G1"]


def test_double_reading_fillers_need_declared_vocabularies():
    m = parsed("model a;\nfunc F1 := Render <object: Color>;\n")
    assert findings(m, Issue.AMBIGUOUS) == []
    overlap = LintConfig(
        entity_terms=frozenset({"color"}), quality_terms=frozenset({"color"})
    )
    hits = findings(m, Issue.AMBIGUOUS, config=overlap)
    assert [f.element_id for f in hits] == ["F1"]
    assert "Color" in hits[0].detail


def test_the_first_nested_double_reading_filler_is_reported():
    m = parsed(
        "model a;\n"
        "func F1 := Render <object: <part: Color> - <part: Shade>> <means: Hue>;\n"
    )
    terms = frozenset({"color", "shade", "hue"})
    hits = findings(
        m, Issue.AMBIGUOUS, config=LintConfig(entity_terms=terms, quality_terms=terms)
    )
    assert [f.detail for f in hits] == [
        "slot part filler Color reads as both an entity and a quality; pick one reading"
    ]


# ===== shared behavior =====


def test_dropped_elements_are_not_linted():
    m = parsed(
        """
model d;
qg QG1 := Processing_time (Tasks) :: Fast;
qg QG2 := Processing_time (Tasks) :: [0, 5 (Sec.)];
conflict {QG1, QG2};
"""
    )
    assert findings(m, Issue.UNVERIFIABLE) != []
    resolved = apply_resolve(m, ["QG1", "QG2"], ["QG2"])
    assert findings(resolved, Issue.UNVERIFIABLE) == []
    assert all(f.element_id != "QG1" for f in lint_model(resolved))


def test_clean_model_has_no_findings():
    m = parsed(
        "model ok;\nfunc F1 := Book <actor: User> <object: Ticket>;\n"
    )
    assert lint_model(m) == []


def test_lint_is_deterministic():
    m = parsed(
        """
model mix;
qg QG1 := Processing_time (Tasks) :: Fast;
func F2 := Send <object: Report>;
goal G3 := "notify users with email";
"""
    )
    assert lint_model(m) == lint_model(m)


def test_findings_only_suggest_real_operators():
    with pytest.raises(ValueError, match="operator"):
        LintFinding("E1", Issue.AMBIGUOUS, "detail", "rewrite")
    finding = LintFinding("E1", Issue.AMBIGUOUS, "detail", suggested_operator="reduce")
    with pytest.raises(ValueError, match="operator"):
        model_module.replace(finding, suggested_operator="rewrite")
    assert model_module.replace(finding, detail="other").detail == "other"
    # a finding is a record: its class name leads its fields
    assert tuple(finding) == ("LintFinding", "E1", Issue.AMBIGUOUS, "detail", "reduce")
    assert finding != ("E1", Issue.AMBIGUOUS, "detail", "reduce")
