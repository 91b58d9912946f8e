"""Tests for the ontology serializer and the JSON report writer."""

import json
import re

import pytest

from reqsmith.export import NestedUNotExportable, emit_owl, emit_report
from reqsmith.lint import Issue, LintFinding
from reqsmith.parser import parse_model
from reqsmith.reasoner import SubsumptionVerdict, VerdictStatus, propagate_fulfillment


def parsed(text):
    result = parse_model(text)
    assert not isinstance(result, list), result
    return result


# ===== a small grammar-level checker for functional-style syntax =====

_TOKEN = re.compile(
    r'"[^"]*"\^\^[A-Za-z]\w*:\w+'
    r"|<[^<>\s]*>"
    r"|[A-Za-z]\w*\("
    r"|\)"
    r"|[A-Za-z]*:="
    r"|[A-Za-z]*:[\w.\-]+"
    r"|\d+"
)

_HEADS = frozenset(
    {
        "Prefix",
        "Ontology",
        "Declaration",
        "Class",
        "ObjectProperty",
        "DataProperty",
        "EquivalentClasses",
        "SubClassOf",
        "SubObjectPropertyOf",
        "ObjectIntersectionOf",
        "ObjectUnionOf",
        "ObjectComplementOf",
        "ObjectSomeValuesFrom",
        "ObjectAllValuesFrom",
        "ObjectOneOf",
        "ObjectInverseOf",
        "ObjectMinCardinality",
        "ObjectMaxCardinality",
        "ObjectExactCardinality",
        "DataSomeValuesFrom",
        "DataAllValuesFrom",
        "DataMinCardinality",
        "DataMaxCardinality",
        "DataExactCardinality",
        "DatatypeRestriction",
        "DataOneOf",
        "DataIntersectionOf",
        "DataUnionOf",
        "DataComplementOf",
    }
)


def assert_valid_functional_syntax(text):
    """Check token shapes, construct names, and parenthesis nesting."""
    leftover = _TOKEN.sub("", text)
    assert not leftover.strip(), f"stray characters: {leftover.strip()[:60]!r}"
    stack = []
    for token in _TOKEN.findall(text):
        if token.endswith("(") and len(token) > 1:
            head = token[:-1]
            assert head in _HEADS, f"unknown construct {head}"
            stack.append(head)
        elif token == ")":
            assert stack, "closing parenthesis without an open form"
            stack.pop()
    assert not stack, f"unclosed forms: {stack}"
    assert text.count("Ontology(") == 1
    assert text.startswith("Prefix(")


# ===== ontology structure =====


def test_empty_model_is_header_and_scaffolding_only():
    text = emit_owl(parsed("model empty;\n"))
    assert_valid_functional_syntax(text)
    assert (
        "EquivalentClasses(:Fulfilled_Thing "
        "ObjectSomeValuesFrom(:relate_to :Fulfilled_Thing))" in text
    )
    assert "SubClassOf(:ALL_Fulfilled_Thing :Fulfilled_Thing)" in text
    assert (
        "EquivalentClasses(:ALL_Fulfilled_Thing "
        "ObjectAllValuesFrom(:relate_to_many :Fulfilled_Thing))" in text
    )
    assert "SubObjectPropertyOf(:relate_to_one :relate_to)" in text
    assert "SubObjectPropertyOf(:relate_to_many :relate_to)" in text
    assert "SubObjectPropertyOf(:interpret_to :relate_to_one)" in text
    assert "SubObjectPropertyOf(:reduce_to :relate_to_many)" in text
    assert "SubObjectPropertyOf(:operationalize_to :relate_to_many)" in text
    assert not re.search(
        r"Declaration\(Class\(:(?!Fulfilled_Thing|ALL_Fulfilled_Thing)", text
    )


def test_function_renders_as_an_intersection():
    m = parsed(
        "model b;\nfunc F1 := Activate <actor: Manager> <object: Debit_card>;\n"
    )
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert "Declaration(Class(:F1))" in text
    assert (
        "EquivalentClasses(:F1 ObjectIntersectionOf(:Function :Activate "
        "ObjectExactCardinality(1 :actor :Manager) "
        "ObjectExactCardinality(1 :object :Debit_card)))" in text
    )


def test_interval_renders_as_a_datatype_restriction():
    m = parsed("model q;\nqc QC3 := Processing_time (File_search) :: [0, 30 (Sec.)];\n")
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert "ObjectSomeValuesFrom(:inheres_in :File_search)" in text
    assert (
        "DataSomeValuesFrom(:has_value DatatypeRestriction(xsd:decimal "
        'xsd:minInclusive "0"^^xsd:decimal '
        'xsd:maxInclusive "30"^^xsd:decimal))' in text
    )


def test_named_region_stays_an_object_restriction():
    m = parsed("model q;\nqg QG1 := Style ({the_interface}) :: Simple;\n")
    text = emit_owl(m)
    assert "ObjectSomeValuesFrom(:has_value_in :Simple)" in text
    assert "ObjectSomeValuesFrom(:inheres_in ObjectOneOf(:the_interface))" in text


def test_subsumption_bodies_emit_axioms():
    m = parsed("model c;\nfc FC1 := Data_table :< <accessed_by: ONLY Manager>;\n")
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert (
        "SubClassOf(:Data_table ObjectAllValuesFrom(:accessed_by :Manager))" in text
    )


def test_standalone_axioms_are_exported():
    m = parsed("model a;\naxiom Airline_ticket :< Ticket;\n")
    assert "SubClassOf(:Airline_ticket :Ticket)" in emit_owl(m)


def test_difference_renders_as_complement_within_intersection():
    m = parsed("model d;\nda DA1 := (User - Guest) :< Member;\n")
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert (
        "SubClassOf(ObjectIntersectionOf(:User ObjectComplementOf(:Guest)) "
        ":Member)" in text
    )


def test_region_difference_renders_as_a_data_complement():
    m = parsed("model d;\nfunc F := Send <object: [1, 2] - [3, 4]>;\n")
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert (
        "DataExactCardinality(1 :object_value DataIntersectionOf("
        'DatatypeRestriction(xsd:decimal xsd:minInclusive "1"^^xsd:decimal '
        'xsd:maxInclusive "2"^^xsd:decimal) '
        'DataComplementOf(DatatypeRestriction(xsd:decimal xsd:minInclusive "3"^^xsd:decimal '
        'xsd:maxInclusive "4"^^xsd:decimal))))' in text
    )


def test_inverse_projection_renders_via_object_inverse():
    m = parsed("model i;\nda DA1 := Collect_1.object :< Traffic_info;\n")
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert (
        "SubClassOf(ObjectSomeValuesFrom(ObjectInverseOf(:object) :Collect_1) "
        ":Traffic_info)" in text
    )


def test_unstructured_elements_are_declared_but_not_defined():
    text = emit_owl(parsed('model n;\ngoal G1 := "collect traffic info";\n'))
    assert "Declaration(Class(:G1))" in text
    assert "EquivalentClasses(:G1" not in text


def test_one_to_one_edges_have_no_cardinality():
    m = parsed(
        'model e;\ngoal G1 := "a";\ngoal G2 := "b";\ninterpret G1 -> G2 [strengthen];\n'
    )
    text = emit_owl(m)
    assert "SubClassOf(:G1 ObjectSomeValuesFrom(:interpret_to :G2))" in text
    assert "Cardinality" not in text.split("interpret_to :G2))")[1]


def test_one_to_many_edges_carry_an_exact_cardinality():
    m = parsed(
        'model e;\ngoal G1 := "a";\ngoal G2 := "b";\ngoal G3 := "c";\n'
        "reduce G1 -> G2, G3 [strengthen];\n"
    )
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert "SubClassOf(:G1 ObjectSomeValuesFrom(:reduce_to :G2))" in text
    assert "SubClassOf(:G1 ObjectSomeValuesFrom(:reduce_to :G3))" in text
    assert "SubClassOf(:G1 ObjectExactCardinality(2 :reduce_to))" in text


def test_resolutions_leave_no_edges():
    m = parsed(
        'model r;\ngoal G1 := "a";\ngoal G2 := "b";\nconflict {G1, G2};\n'
        "resolve G1, G2 -> G2;\n"
    )
    assert "resolve" not in emit_owl(m)


def test_fulfilled_marks_become_subclass_axioms():
    m = parsed('model f;\ngoal G1 := "a";\nfulfilled G1;\n')
    assert "SubClassOf(:G1 :Fulfilled_Thing)" in emit_owl(m)


def test_percentage_annotations_survive_as_pct_alternatives():
    m = parsed(
        "model u;\n"
        "qc QC1 := Processing_time (File_search) :: [0, 30 (Sec.)]"
        " u(?X, inheres_in, 80%);\n"
    )
    text = emit_owl(m)
    assert_valid_functional_syntax(text)
    assert "ObjectUnionOf(:File_search " in text
    assert (
        'DataSomeValuesFrom(:pct_value DatatypeRestriction(xsd:decimal '
        'xsd:minInclusive "0.8"^^xsd:decimal '
        'xsd:maxInclusive "1"^^xsd:decimal))' in text
    )


def test_stacked_annotations_are_not_exportable():
    m = parsed(
        "model u;\n"
        "qg QG1 := Response_time (Run <run_of: System_function>) :: Fast"
        " u(?X, inheres_in.run_of, 80%) u(?Y, inheres_in, 90%);\n"
    )
    with pytest.raises(NestedUNotExportable, match="QG1"):
        emit_owl(m)


def test_output_is_deterministic():
    text = (
        "model b;\n"
        "fg G1 := Ticket :< Booked;\n"
        "func F2 := Book <object: Ticket>;\n"
        "operationalize G1 -> F2 [strengthen];\n"
        "fulfilled F2;\n"
    )
    assert emit_owl(parsed(text)) == emit_owl(parsed(text))


def test_element_blocks_are_ordered_by_id():
    m = parsed('model o;\ngoal G2 := "b";\ngoal G1 := "a";\n')
    text = emit_owl(m)
    assert text.index("Declaration(Class(:G1))") < text.index(
        "Declaration(Class(:G2))"
    )


# ===== JSON reports =====


def test_empty_report_matches_the_schema_skeleton():
    report = emit_report([], {}, [])
    assert json.loads(report) == {
        "version": 1,
        "findings": [],
        "fulfillment": {},
        "subsumptions": [],
    }


def test_findings_serialize_all_fields():
    finding = LintFinding("F2", Issue.INCOMPLETE, "Who will send?", "reduce")
    data = json.loads(emit_report([finding], {}, []))
    assert data["findings"] == [
        {
            "element": "F2",
            "issue": "incomplete",
            "detail": "Who will send?",
            "suggestion": "reduce",
            "span": None,
        }
    ]


def test_fulfillment_states_serialize_by_id():
    m = parsed(
        "model booking;\n"
        "fg G1 := Ticket :< Booked;\n"
        "func F2 := Book <object: Ticket>;\n"
        "func F3 := Book <object: Airline_ticket> <means: Credit_card>;\n"
        "func F4 := Book <object: Bus_ticket> <means: Cash>;\n"
        "operationalize G1 -> F2 [strengthen];\n"
        "reduce F2 -> F3, F4 [strengthen];\n"
        "fulfilled F3, F4;\n"
    )
    state = propagate_fulfillment(m)
    data = json.loads(emit_report([], state.states, []))
    assert data["fulfillment"] == {
        "G1": "fulfilled",
        "F2": "fulfilled",
        "F3": "fulfilled",
        "F4": "fulfilled",
    }


def test_subsumption_verdicts_serialize_as_triples():
    verdict = SubsumptionVerdict(VerdictStatus.PROVEN, method="structural")
    data = json.loads(emit_report([], {}, [("QC1", "QG1", verdict)]))
    assert data["subsumptions"] == [
        {"sub": "QC1", "sup": "QG1", "status": "proven", "method": "structural"}
    ]


def test_reports_round_trip_and_stay_stable():
    finding = LintFinding("G1", Issue.AMBIGUOUS, "with attaches two ways", "interpret")
    args = ([finding], {"G1": "unknown"}, [])
    assert emit_report(*args) == emit_report(*args)
    assert json.loads(emit_report(*args))["version"] == 1
