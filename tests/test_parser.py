"""Tests for the textual model format: lexer, parser, and printer."""

import importlib.util
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from reqsmith import parser as parser_module
from reqsmith.model import (
    EXACTLY_ONE,
    NOTHING,
    ONLY,
    SOME,
    THING,
    AtomicConcept,
    Description,
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
    NamedRegion,
    NaturalLanguage,
    Operator,
    OperatorApplication,
    PointPrototypes,
    PrototypeRegion,
    QualityStatement,
    Quantity,
    Region,
    ScaleDirection,
    SlotRestriction,
    Strength,
    Subsumption,
    UAnnotation,
    Union,
    ValueSet,
    at_least,
    at_most,
    exactly,
)
from reqsmith.parser import (
    ParseDiagnostic,
    parse_description,
    parse_model,
    print_model,
    token_positions,
    tokenize,
    _is_id,
    _is_num,
    _is_str,
)
from reqsmith.printer import format_description, format_rational

ROOT = Path(__file__).resolve().parents[1]


def parsed(text):
    result = parse_model(text)
    assert isinstance(result, Model), f"expected a model, got: {result}"
    return result


def failed(text):
    result = parse_model(text)
    assert isinstance(result, list) and result, "expected diagnostics"
    return result


def desc(text):
    result = parse_description(text)
    assert not isinstance(result, list), f"expected a description, got: {result}"
    return result


# ---- descriptions ----


def test_atomic_and_constants():
    assert desc("Manager") == AtomicConcept("Manager")
    assert desc("Thing") is THING
    assert desc("Nothing") is NOTHING


def test_adjacency_binds_tighter_than_union():
    parsed_desc = desc("Function Activate | Backup")
    assert parsed_desc == Union(
        Intersection(AtomicConcept("Function"), AtomicConcept("Activate")),
        AtomicConcept("Backup"),
    )


def test_difference_is_left_associative_and_loosest():
    assert desc("A - B - C") == Difference(
        Difference(AtomicConcept("A"), AtomicConcept("B")), AtomicConcept("C")
    )
    assert desc("A - B | C") == Difference(
        AtomicConcept("A"), Union(AtomicConcept("B"), AtomicConcept("C"))
    )


def test_parenthesized_grouping():
    assert desc("(A | B) C") == Intersection(
        Union(AtomicConcept("A"), AtomicConcept("B")), AtomicConcept("C")
    )


def test_slot_restriction_default_modifier():
    assert desc("<actor: Manager>") == SlotRestriction(
        "actor", EXACTLY_ONE, AtomicConcept("Manager")
    )


@pytest.mark.parametrize(
    "text, modifier",
    [
        ("<obj: SOME Ticket>", SOME),
        ("<obj: ONLY Ticket>", ONLY),
        ("<obj: <=2 Ticket>", at_most(2)),
        ("<obj: >=3 Ticket>", at_least(3)),
        ("<obj: =1 Ticket>", exactly(1)),
    ],
)
def test_slot_restriction_modifiers(text, modifier):
    assert desc(text) == SlotRestriction("obj", modifier, AtomicConcept("Ticket"))


def test_nested_slot_restrictions():
    parsed_desc = desc("Send <object: Report <about: Incident>>")
    inner = Intersection(
        AtomicConcept("Report"),
        SlotRestriction("about", EXACTLY_ONE, AtomicConcept("Incident")),
    )
    assert parsed_desc == Intersection(
        AtomicConcept("Send"), SlotRestriction("object", EXACTLY_ONE, inner)
    )


def test_enumeration_and_value_set():
    assert desc("{MySQL, Oracle}") == Enumeration(("MySQL", "Oracle"))
    assert desc("{500, 700}") == Region(ValueSet((Fraction(500), Fraction(700))))


def test_inverse_projection_chain_and_grouping():
    assert desc("Collect_1.object") == InverseProjection(
        AtomicConcept("Collect_1"), "object"
    )
    assert desc("A.s.t") == InverseProjection(
        InverseProjection(AtomicConcept("A"), "s"), "t"
    )
    assert desc("(A | B).s") == InverseProjection(
        Union(AtomicConcept("A"), AtomicConcept("B")), "s"
    )


def test_interval_region_in_filler_position():
    parsed_desc = desc("<age: [20, 65]>")
    assert parsed_desc == SlotRestriction(
        "age", EXACTLY_ONE, Region(Interval(Fraction(20), Fraction(65)))
    )


def test_description_diagnostics_for_trailing_input():
    result = parse_description("Manager |")
    assert isinstance(result, list) and result


# ---- element statements ----


def test_quality_element_with_unit_interval():
    model = parsed("qc QC_1 := Processing_time (File_search) :: [0, 30 (Sec.)];")
    element = model.element("QC_1")
    assert element.kind is Kind.QC
    body = element.body
    assert body == QualityStatement(
        AtomicConcept("Processing_time"),
        AtomicConcept("File_search"),
        Interval(Fraction(0), Fraction(30), "Sec"),
    )


def test_function_element_with_two_slots():
    model = parsed("func F1 := Activate <actor: Manager> <object: Debit_card>;")
    body = model.element("F1").body
    assert body == FunctionDesc(
        "Activate",
        (
            SlotRestriction("actor", EXACTLY_ONE, AtomicConcept("Manager")),
            SlotRestriction("object", EXACTLY_ONE, AtomicConcept("Debit_card")),
        ),
    )


def test_unbalanced_subject_paren_reports_expected_token():
    result = parse_model("qg QG_9 := Style ({the_interface} :: Simple;")
    assert isinstance(result, list)
    diag = result[0]
    assert "')'" in (diag.expected or "") or "')'" in diag.message
    assert diag.span.line == 1
    # the offending token is the `::` after the unclosed subject
    assert diag.span.column == 35


def test_natural_language_bodies_allowed_for_any_kind():
    model = parsed('goal G1 := "support the business";\nqg QG2 := "be fast";')
    assert model.element("G1").body == NaturalLanguage("support the business")
    assert model.element("QG2").body == NaturalLanguage("be fast")


def test_subsumption_body():
    model = parsed("fg FG4 := Traffic_info :< Collected;")
    assert model.element("FG4").body == Subsumption(
        AtomicConcept("Traffic_info"), AtomicConcept("Collected")
    )


def test_goal_with_quality_body_via_lookahead():
    model = parsed("goal G1 := Style ({the_interface}) :: Simple;")
    body = model.element("G1").body
    assert isinstance(body, QualityStatement)
    assert body.region == NamedRegion("Simple")


def test_quality_with_observer_and_annotation():
    model = parsed(
        "qg QG5 := Style ({the_interface}) :: Simple"
        " <observed_by: Surveyed_user> u(?X, observed_by, 80%);"
    )
    body = model.element("QG5").body
    assert body.observers == (AtomicConcept("Surveyed_user"),)
    assert body.pct_annotations == (
        UAnnotation("X", ("observed_by",), Fraction(4, 5)),
    )


def test_measured_region_marker():
    model = parsed("qc QC2 := Speed (Car) :: Fast (measured);")
    assert model.element("QC2").body.region == NamedRegion("Fast", qualitative=False)


def test_at_most_region_sugar():
    model = parsed("qc QC3 := Cost (Service) :: <= 30;")
    assert model.element("QC3").body.region == Interval(Fraction(0), Fraction(30))


# ---- operator statements ----


def test_reduce_requires_strength_tag():
    text = 'goal G0 := "root";\ngoal G1 := "a";\nreduce G0 -> G1;'
    assert isinstance(parse_model(text), list)
    model = parsed('goal G0 := "root";\ngoal G1 := "a";\nreduce G0 -> G1 [equate];')
    app = model.applications[0]
    assert app.op is Operator.REDUCE
    assert app.strength is Strength.EQUATING
    assert app.inputs == ("G0",) and app.outputs == ("G1",)


def test_focus_defaults_to_weaken():
    model = parsed(
        "qg A := Style (UI Widget) :: Simple;\n"
        "qg B := Style (UI) :: Simple;\n"
        "focus A -> B;"
    )
    assert model.applications[0].strength is Strength.WEAKENING


def test_scale_statement_directions_and_factor():
    model = parsed(
        "qc Q1 := Cost (S) :: [0, 10];\n"
        "qc Q2 := Cost (S) :: [0, 12];\n"
        "scale_down Q1 -> Q2 by (1, 6/5);"
    )
    app = model.applications[0]
    assert app.op is Operator.SCALE
    assert app.args.direction is ScaleDirection.DOWN
    assert app.args.factor.low_factor == 1
    assert app.args.factor.high_factor == Fraction(6, 5)
    assert app.strength is Strength.WEAKENING


def test_scale_by_named_region():
    model = parsed(
        "qg Q1 := Speed (S) :: Fast;\n"
        "qg Q2 := Speed (S) :: Nearly_fast;\n"
        "scale_down Q1 -> Q2 by Nearly_fast;"
    )
    factor = model.applications[0].args.factor
    assert factor.region_name == "Nearly_fast"
    assert not factor.is_quantitative


def test_deuniv_statement_with_percent():
    model = parsed(
        "qg Q1 := Style (User_interface) :: Simple;\n"
        "qg Q2 := Style (User_interface) :: Simple u(?X, inheres_in, 80%);\n"
        "deuniv Q1 -> Q2 u(?X, inheres_in, 80%);"
    )
    app = model.applications[0]
    assert app.op is Operator.DEUNIVERSALIZE
    assert app.args.annotation == UAnnotation("X", ("inheres_in",), Fraction(4, 5))
    assert app.strength is Strength.WEAKENING


def test_observe_statement():
    model = parsed(
        "qg Q1 := Style (UI) :: Simple;\n"
        "qc Q2 := Style (UI) :: Simple (measured) <observed_by: Surveyed_user>;\n"
        "observe Q1 -> Q2 by Surveyed_user;"
    )
    app = model.applications[0]
    assert app.op is Operator.OBSERVE
    assert app.args.observer == AtomicConcept("Surveyed_user")
    assert app.strength is Strength.STRENGTHENING


def test_resolve_with_and_without_survivors():
    base = (
        'goal A := "a";\ngoal B := "b";\ngoal C := "c";\n'
        "conflict {A, B};\n"
    )
    model = parsed(base + "resolve A, B -> C;")
    app = model.applications[0]
    assert app.inputs == ("A", "B") and app.outputs == ("C",)
    model = parsed(base + "resolve A, B ->;")
    assert model.applications[0].outputs == ()


def test_operationalize_fanout_statement():
    model = parsed(
        "fg FG4 := Traffic_info :< Collected;\n"
        "func F5 := Collect <actor: {the_system}>;\n"
        "da DA6 := Fixed_sensor :< Installed;\n"
        "operationalize FG4 -> F5, DA6 [equate];"
    )
    app = model.applications[0]
    assert app.op is Operator.OPERATIONALIZE
    assert app.outputs == ("F5", "DA6")


# ---- other statements ----


def test_conflict_and_fulfilled_statements():
    model = parsed(
        'goal A := "a";\ngoal B := "b";\nconflict {A, B};\nfulfilled A;'
    )
    assert model.conflicts == (frozenset({"A", "B"}),)
    assert model.fulfilled_marks == frozenset({"A"})


def test_axiom_statement():
    model = parsed("axiom Airline_ticket :< Ticket;")
    assert model.axioms == (
        Subsumption(AtomicConcept("Airline_ticket"), AtomicConcept("Ticket")),
    )


def test_world_block_round_trips_through_records():
    model = parsed(
        "world {\n"
        "  individual f1 : File_search;\n"
        "  slot object(c1, f1);\n"
        "  data duration(c1) = 25 Sec;\n"
        "  quality pt1 : Processing_time inheres f1 value 25 Sec observed_by {u1};\n"
        "}\n"
    )
    world = model.world
    assert world is not None
    assert "f1" in world.individuals and "c1" in world.individuals
    assert world.data_values[("c1", "duration")] == Quantity(Fraction(25), "Sec")
    record = world.quality_records[0]
    assert record.bearer == "f1" and record.observers == frozenset({"u1"})
    flat = world.materialize()
    assert "pt1" in flat.individuals
    assert ("pt1", "f1") in flat.tuples("inheres_in")


def test_regions_block():
    model = parsed(
        "regions Cost {\n"
        "  low = points {500, 700};\n"
        "  medium = interval [800, 1000];\n"
        "}\n"
    )
    spec = model.membership_specs[0]
    assert spec.quality == "Cost"
    assert spec.regions[0] == PrototypeRegion(
        "low", PointPrototypes((Fraction(500), Fraction(700)))
    )
    assert spec.regions[1] == PrototypeRegion(
        "medium", IntervalPrototypes(Fraction(800), Fraction(1000))
    )


def test_model_name_statement():
    assert parsed("model Traffic;").name == "Traffic"


def test_comments_are_ignored():
    model = parsed('// header\ngoal G := "x"; // trailing\n')
    assert model.has_element("G")


# ---- diagnostics and recovery ----


def test_multiple_errors_recovered_per_statement():
    result = failed(
        'goal G1 := ;\ngoal G2 := "ok";\nfunc F1 := <bad;\n'
    )
    assert len(result) >= 2
    assert all(isinstance(d, ParseDiagnostic) for d in result)


def test_unknown_statement_keyword():
    result = failed("frobnicate X -> Y;")
    assert "frobnicate" in result[0].message


def test_validation_failures_surface_as_diagnostics_with_spans():
    result = failed('goal G := "a";\ngoal G := "b";')
    assert any("G" in d.message for d in result)
    assert result[0].span.line == 2

    result = failed('goal G := "a";\nreduce G -> Missing [equate];')
    assert any("Missing" in d.message for d in result)


def test_diagnostic_cap():
    text = "\n".join("goal := ;" for _ in range(50))
    result = failed(text)
    assert len(result) <= 20


def test_unterminated_string_is_an_error():
    failed('goal G := "oops;')


# ---- lexer ----

# The lexer before tokens became one match each: whitespace runs and
# comments were matches of their own, and every match built its span. It is
# the reference the single-pass lexer must agree with, token for token.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*)
    | (?P<number>\d+\.\d+|\d+/\d+|\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<punct>:=|:<|::|<=|>=|->|[;,{}()\[\]<>:=|\-.?%])
    """,
    re.VERBOSE,
)
_REFERENCE_TYPES = {"number": "num", "ident": "id", "string": "str", "punct": "punct"}


def reference_tokenize(text):
    """(type, value, offset, line, column) per token; (offset, line, column,
    message) per diagnostic."""
    tokens, diagnostics = [], []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        column = pos - line_start + 1
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            message = f"unexpected character {text[pos]!r}"
            diagnostics.append((pos, line, column, message))
            pos += 1
            continue
        lexeme = match.group(0)
        if match.lastgroup in _REFERENCE_TYPES:
            tokens.append((_REFERENCE_TYPES[match.lastgroup], lexeme, pos, line, column))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = pos + lexeme.rindex("\n") + 1
        pos = match.end()
    tokens.append(("eof", "", pos, line, pos - line_start + 1))
    return tokens, diagnostics


def lexeme_kind(lexeme):
    """The kind the parser reads off a lexeme, in the reference's names."""
    if not lexeme:
        return "eof"
    for kind, test in (("str", _is_str), ("num", _is_num), ("id", _is_id)):
        if test(lexeme):
            return kind
    return "punct"


def lexed(text, file="lexed.dsr"):
    """`tokenize` and the positions pass, in the reference's terms."""
    tokens, diagnostics = tokenize(text, file)
    positions = token_positions(text)
    assert len(positions) == len(tokens)
    rows = [
        (lexeme_kind(lexeme), lexeme, offset, line, column)
        for lexeme, (line, column, offset) in zip(tokens, positions)
    ]
    diags = []
    for diag in diagnostics:
        assert (diag.span.file, diag.severity, diag.expected) == (file, "error", None)
        diags.append((diag.span.offset, diag.span.line, diag.span.column, diag.message))
    return rows, diags


def _bench_models():
    """Every model file the benchmark generator writes, for two seeds."""
    spec = importlib.util.spec_from_file_location("reqsmith_bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
        return [
            text
            for name in gen.WORKLOADS
            for seed in (1, 2)
            for text in gen.generate(name, seed, ROOT / "unused").files.values()
        ]
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "tests" / "fixtures").glob("*.dsr")), ids=lambda p: p.name
)
def test_lexer_agrees_with_the_reference_on_fixtures(path):
    text = path.read_text(encoding="utf-8")
    assert lexed(text) == reference_tokenize(text)


def test_lexer_agrees_with_the_reference_on_generated_models():
    models = _bench_models()
    assert len(models) >= 16
    for text in models:
        assert lexed(text) == reference_tokenize(text)


_LEXER_PIECES = (
    # tokens
    "A", "Thing", "x_1'", "SOME", "ONLY", "_", "12", "3.5", "1/2", "007", "4.",
    # a non-ASCII decimal digit (Arabic-Indic three), a zero denominator
    "\u0663", "3/0",
    ":=", ":<", "::", "<=", ">=", "->", ";", ",", "{", "}", "(", ")", "[", "]",
    "<", ">", ":", "=", "|", "-", ".", "?", "%",
    '"ab"', '"a\\"b"', '"a\\\\"', '""',
    # unterminated strings, strings broken by a newline
    '"oops', '"a\nb"', '"\\',
    # comments, whitespace, blank lines
    "// note", "//", "/", " ", "  ", "\t", "\n", "\n\n", "\r\n", "\x0b", "\xa0",
    # characters outside the token alphabet
    "$", "@", "#", "!", "&", "~", "^", "\\", "\x00", "\u00e9", "\u2028",
)


def test_lexer_agrees_with_the_reference_on_random_text():
    for seed in range(400):
        rng = random.Random(seed)
        text = "".join(rng.choice(_LEXER_PIECES) for _ in range(rng.randrange(60)))
        assert lexed(text) == reference_tokenize(text), repr(text)


# Statement keywords, so that drawn text reaches past the first statement.
_KEYWORD_PIECES = (
    "model", "goal", "fg", "qg", "qc", "func", "da", "axiom", "reduce",
    "interpret", "focus", "scale_up", "deuniv", "resolve", "observe", "by",
    "conflict", "fulfilled", "world", "individual", "slot", "data", "quality",
    "inheres", "value", "observed_by", "regions", "points", "interval", "u",
    "[weaken]", "[strengthen]", "(measured)",
)


# Openings that put the drawn pieces inside a statement or a value.
_OPENINGS = (
    "", "{", "[0, ", "<s: ", "qg Q := S (T) :: ", "axiom A :< ", "world { ",
    "regions R { r = ", "scale_up Q -> P by (1, ",
)


def _is_result(result, kind):
    if isinstance(result, kind):
        return True
    return (
        isinstance(result, list)
        and result
        and all(isinstance(d, ParseDiagnostic) for d in result)
    )


def test_drawn_text_lexes_like_the_reference_and_parses_without_raising():
    hypothesis = pytest.importorskip("hypothesis")
    strategies = hypothesis.strategies
    pieces = strategies.lists(
        strategies.sampled_from(_LEXER_PIECES + _KEYWORD_PIECES), max_size=80
    )

    @hypothesis.settings(
        max_examples=400, deadline=None, database=None, derandomize=True
    )
    @hypothesis.given(strategies.sampled_from(_OPENINGS), pieces)
    def check(opening, drawn):
        text = opening + "".join(drawn)
        assert lexed(text) == reference_tokenize(text)
        assert _is_result(parse_model(text), Model)
        assert _is_result(parse_description(text), Description)

    check()


_FIXTURE_TOKENS = [
    tokenize(path.read_text(encoding="utf-8"), path.name)[0][:-1]
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.dsr"))
]


def _mutate(tokens, edits):
    """`tokens` after each (operation, i, j) edit, indices taken modulo the
    current length: delete token i, repeat it, overwrite it with token j, or
    swap it with token j."""
    tokens = list(tokens)
    for operation, i, j in edits:
        if not tokens:
            break
        i, j = i % len(tokens), j % len(tokens)
        if operation == "delete":
            del tokens[i]
        elif operation == "repeat":
            tokens.insert(i, tokens[i])
        elif operation == "overwrite":
            tokens[i] = tokens[j]
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


def test_token_mutations_of_the_fixtures_parse_without_raising():
    hypothesis = pytest.importorskip("hypothesis")
    strategies = hypothesis.strategies
    index = strategies.integers(0, 10_000)
    edit = strategies.tuples(
        strategies.sampled_from(["delete", "repeat", "overwrite", "swap"]), index, index
    )

    @hypothesis.settings(
        max_examples=400, deadline=None, database=None, derandomize=True
    )
    @hypothesis.given(
        strategies.sampled_from(_FIXTURE_TOKENS),
        strategies.lists(edit, min_size=1, max_size=4),
    )
    def check(tokens, edits):
        text = " ".join(_mutate(tokens, edits))
        assert _is_result(parse_model(text), Model)
        assert _is_result(parse_description(text), Description)

    check()


def test_bad_character_deep_in_a_large_model_reports_its_line_and_column():
    text = max(_bench_models(), key=len)
    lines = text.split("\n")
    assert len(lines) > 1200
    row = lines[1199]
    column = len(row) - len(row.lstrip()) + 1
    lines[1199] = row[: column - 1] + "$" + row[column - 1 :]
    result = failed("\n".join(lines))
    assert [str(d) for d in result] == [f"<input>:1200:{column}: error: unexpected character '$'"]


def _count_position_passes(monkeypatch):
    calls = []
    real = parser_module._placed

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(parser_module, "_placed", counted)
    return calls


def test_valid_models_parse_without_the_positions_pass(monkeypatch):
    calls = _count_position_passes(monkeypatch)
    for text in _bench_models():
        assert isinstance(parse_model(text), Model)
    desc("A | <s: SOME B> - {x, y}")
    assert calls == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("goal G := A :< ;", "expected a description"),
        ("goal G := A :< B;\ngoal G := C :< D;", "[unique-ids] duplicate element id"),
        ("fulfilled X;\nfulfilled Y;", "[dangling-reference] unknown id X"),
    ],
)
def test_a_diagnostic_places_the_tokens_once(monkeypatch, text, message):
    calls = _count_position_passes(monkeypatch)
    result = failed(text)
    assert message in str(result[0])
    assert len(calls) == 1


# ---- printing and round-trips ----


def test_print_function_element_exact():
    model = parsed("func F1 := Activate <actor: Manager> <object: Debit_card>;")
    assert (
        print_model(model)
        == "func F1 := Activate <actor: Manager> <object: Debit_card>;\n"
    )


def test_print_preserves_percent_rendering():
    model = parsed("qg Q := Style (UI) :: Simple u(?X, inheres_in, 80%);")
    assert "u(?X, inheres_in, 80%)" in print_model(model)


def test_format_rational_cases():
    assert format_rational(Fraction(30)) == "30"
    assert format_rational(Fraction(6, 5)) == "1.2"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-3, 4)) == "-0.75"


def test_format_description_parenthesizes_only_when_needed():
    inner = Union(AtomicConcept("A"), AtomicConcept("B"))
    assert format_description(Intersection(inner, AtomicConcept("C"))) == "(A | B) C"
    assert format_description(Union(inner, AtomicConcept("C"))) == "A | B | C"
    # no parens needed: the right-hand side of `-` reparses as the full union
    diff = Difference(AtomicConcept("A"), inner)
    rendered = format_description(diff)
    assert rendered == "A - A | B"
    assert desc(rendered) == diff


ROUND_TRIP_SAMPLES = [
    'model M;\ngoal G0 := "collect traffic data";',
    "qc QC_1 := Processing_time (File_search) :: [0, 30 (Sec.)];",
    "func F1 := Activate <actor: Manager> <object: Debit_card>;",
    "fg FG_1 := User <status: Registered> :< Notified <means: Email>;",
    "qg QG5 := Style ({the_interface}) :: Simple <observed_by: Surveyed_user>"
    " u(?X, observed_by, 80%);",
    'goal A := "a";\ngoal B := "b";\nconflict {A, B};\nresolve A, B ->;',
    "qc Q1 := Cost (S) :: [0, 10];\nqc Q2 := Cost (S) :: [0, 12];\n"
    "scale_down Q1 -> Q2 by (1, 6/5);",
    "axiom Airline_ticket :< Ticket;\naxiom Fast :< Speed_region;",
    "regions Cost {\n  low = points {500, 700};\n  high = interval [1200, 1500];\n}",
    "world {\n  individual m1 : Manager;\n  slot actor(c1, m1);\n}",
    "func F2 := Book <object: <=2 Airline_ticket - Charter>;",
    "axiom (A | B).s - C :< Thing <p: SOME (A B)>;",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SAMPLES)
def test_parse_print_parse_is_identity(text):
    first = parse_model(text)
    assert isinstance(first, Model), f"sample failed to parse: {first}"
    printed = print_model(first)
    second = parse_model(printed)
    assert isinstance(second, Model), f"printed form failed to parse: {second}\n{printed}"
    assert second == first
    assert print_model(second) == printed


def test_print_model_on_programmatic_model():
    model = Model(
        elements=(
            Element("G1", Kind.GOAL, NaturalLanguage('say "hi"')),
            Element(
                "F1",
                Kind.F,
                FunctionDesc(
                    "Send", (SlotRestriction("actor", SOME, AtomicConcept("User")),)
                ),
            ),
        ),
        applications=(
            OperatorApplication(
                Operator.INTERPRET, ("G1",), ("F1",), Strength.EQUATING
            ),
        ),
        membership_specs=(
            MembershipSpec(
                "Cost", (PrototypeRegion("low", PointPrototypes((Fraction(1, 2),))),)
            ),
        ),
    )
    printed = print_model(model)
    reparsed = parse_model(printed)
    assert reparsed == model
