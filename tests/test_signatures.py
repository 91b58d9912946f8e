"""Tests for the operator signatures: the kind routing and strength rules that
validation, the strength audit and the operators all read from one table."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from reqsmith.model import (
    AtomicConcept,
    Element,
    Interval,
    Kind,
    Model,
    NamedRegion,
    NaturalLanguage,
    Operator,
    OperatorApplication,
    QualityStatement,
    ScaleArgs,
    ScaleDirection,
    ScaleFactor,
    Strength,
    Union,
    replace,
    validate_model,
)
from reqsmith.operators import (
    OperatorError,
    apply_focus,
    apply_interpret,
    apply_operationalize,
    apply_reduce,
    apply_resolve,
    apply_scale,
)
from reqsmith.cli import main
from reqsmith.reasoner import check_strength_tags

# ===== the pinned sweep =====

# One element of each kind, plus an id that names no element.
SWEEP_ELEMENTS = tuple(Element(f"E_{k.value}", k, NaturalLanguage("x")) for k in Kind)
SWEEP_IDS = tuple(e.id for e in SWEEP_ELEMENTS) + ("X",)
SWEEP_LISTS = [ids for n in range(3) for ids in itertools.product(SWEEP_IDS, repeat=n)]

# sha256 of `_sweep_text(op, parent_view=True)` per operator, recorded
# before validation, the audit and the operators were moved onto one
# signature table. Each sweep has 111 x 111 applications.
PINNED_SWEEP = {
    Operator.REDUCE: "fbe09511b4362c781cc792697723b8d8d5d7ba64a162b40fadc7a2a80ab0e00b",
    Operator.INTERPRET: "47d5aed011a47ea00b3f17dd1dbd4429badd83a3da79421096ff207675963c04",
    Operator.FOCUS: "2698653fd07c41f8be3e9834054591ee82448e103c3fee07606f6c00cef63a2a",
    Operator.SCALE: "7a68930ea36090f5712f12edd7a581e403539930e546e29364309e1501922087",
    Operator.DEUNIVERSALIZE: "9f60cb15da2731553e55b661191a66a02287edd8524689b1c6f818ceb4d91570",
    Operator.RESOLVE: "b4cf2bb75c8d34356d2e2fa9be3d65a98c82e857e01d14c041ef4e92a9864605",
    Operator.OPERATIONALIZE: "aad084de122d86ae55288fc45e01bbad4b9301d6dabe94beb51b712e954c1b9d",
    Operator.OBSERVE: "613033307a1b6d6cf889c083b1d5319febc7c99745fb99fe5839d852d27df398",
}


def _application_diagnostics(applications):
    """Each application's signature diagnostics, as `[rule] message` lines.

    The sweep declares no conflicts, so every well-formed resolution also
    gets the model-level `resolve-conflict` diagnostic, which the sweep
    leaves out; `test_resolution_needs_a_declared_conflict` covers it.
    """
    model = Model("sweep", SWEEP_ELEMENTS, tuple(applications))
    lines = {f"application[{i}]": [] for i in range(len(applications))}
    for d in validate_model(model):
        if d.subject_id in lines and d.rule != "resolve-conflict":
            lines[d.subject_id].append(f"[{d.rule}] {d.message}")
    return list(lines.values())


def _parent_interpret_view(app, diags):
    """An interpretation's diagnostics as they read before the table.

    The one intended change: interpret used to route only its first output,
    so two misrouted outputs gave one kind-routing diagnostic, and a
    misrouted second output none. It now routes every output, like the
    other operators. Only two-output interpretations differ, which are
    already an arity error and which the parser cannot produce.
    """
    if len(app.outputs) < 2:
        return diags
    first_only = OperatorApplication(app.op, app.inputs, app.outputs[:1], app.strength)
    (routed,) = _application_diagnostics([first_only])
    own = [d for d in diags if not d.startswith("[kind-routing]")]
    if any(d.startswith("[dangling-reference]") for d in own):
        return own
    return own + [d for d in routed if d.startswith("[kind-routing]")]


def _sweep_text(op, parent_view=False):
    applications = [
        OperatorApplication(op, inputs, outputs, Strength.EQUATING)
        for inputs in SWEEP_LISTS
        for outputs in SWEEP_LISTS
    ]
    lines = []
    for app, diags in zip(applications, _application_diagnostics(applications)):
        if parent_view and op is Operator.INTERPRET:
            diags = _parent_interpret_view(app, diags)
        lines.append(f"{','.join(app.inputs)}->{','.join(app.outputs)}: {' | '.join(diags)}")
    return "\n".join(lines)


@pytest.mark.parametrize("op", list(Operator), ids=lambda op: op.value)
def test_signature_diagnostics_match_the_pinned_sweep(op):
    text = _sweep_text(op, parent_view=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SWEEP[op]


def test_interpret_routes_every_output():
    app = OperatorApplication(
        Operator.INTERPRET, ("E_fc",), ("E_fc", "E_sc", "E_fg"), Strength.EQUATING
    )
    assert _application_diagnostics([app]) == [
        [
            "[arity] interpret produces exactly one output",
            "[kind-routing] interpretation cannot change a non-goal kind",
            "[kind-routing] interpretation cannot change a non-goal kind",
        ]
    ]


# ===== the library agrees with validation =====


def _quality_element(eid, kind):
    body = QualityStatement(AtomicConcept("Speed"), AtomicConcept("Task"), NamedRegion("Fast"))
    return Element(eid, kind, body)


def _apply(op, base, output):
    if op is Operator.REDUCE:
        return apply_reduce(base, "IN", [output], Strength.EQUATING)
    if op is Operator.INTERPRET:
        return apply_interpret(base, "IN", output, Strength.EQUATING)
    if op is Operator.OPERATIONALIZE:
        return apply_operationalize(base, "IN", [output], Strength.EQUATING)
    return apply_focus(base, "IN", ["Latency"], Strength.EQUATING, output_ids=["OUT"])


AGREEMENT_CASES = [
    (op, source, target)
    for op in (Operator.REDUCE, Operator.INTERPRET, Operator.OPERATIONALIZE, Operator.FOCUS)
    for source in Kind
    for target in Kind
    if op is not Operator.FOCUS or target is source
]


@pytest.mark.parametrize(
    "op, source, target",
    AGREEMENT_CASES,
    ids=[f"{op.value}-{s.value}-{t.value}" for op, s, t in AGREEMENT_CASES],
)
def test_operators_raise_exactly_when_validation_reports(op, source, target):
    if op is Operator.FOCUS:
        inp = _quality_element("IN", source)
        # the element focus adds: the input with its quality widened
        widened = replace(inp.body, quality=Union(inp.body.quality, AtomicConcept("Latency")))
        out = Element("OUT", target, widened)
    else:
        inp = Element("IN", source, NaturalLanguage("in"))
        out = Element("OUT", target, NaturalLanguage("out"))
    app = OperatorApplication(op, ("IN",), ("OUT",), Strength.EQUATING)
    # the application's own diagnostics first, then those of the added element
    diagnostics = validate_model(Model("m", (inp, out), (app,)))
    expected = [d.message for d in diagnostics if d.subject_id == "application[0]"]
    expected = expected or [d.message for d in diagnostics if d.subject_id == "OUT"]
    base = Model("m", (inp,))
    if expected:
        with pytest.raises(OperatorError) as caught:
            _apply(op, base, out)
        assert str(caught.value) == expected[0]
    else:
        assert _apply(op, base, out).applications[-1].outputs == ("OUT",)


# ===== strength rules =====


@pytest.mark.parametrize(
    "op, strength, legal",
    [
        (Operator.INTERPRET, Strength.STRENGTHENING, True),
        (Operator.INTERPRET, Strength.WEAKENING, False),
        (Operator.INTERPRET, Strength.EQUATING, True),
        (Operator.FOCUS, Strength.STRENGTHENING, False),
        (Operator.FOCUS, Strength.WEAKENING, True),
        (Operator.FOCUS, Strength.EQUATING, True),
    ],
    ids=lambda v: getattr(v, "value", str(v)),
)
def test_operators_reject_exactly_the_tags_the_audit_flags(op, strength, legal):
    inp, out = _quality_element("IN", Kind.QG), _quality_element("OUT", Kind.QG)
    app = OperatorApplication(op, ("IN",), ("OUT",), strength)
    audit = [d.message for d in check_strength_tags(Model("m", (inp, out), (app,)))]
    base = Model("m", (inp,))
    if op is Operator.FOCUS:
        run = lambda: apply_focus(base, "IN", ["Latency"], strength, output_ids=["OUT"])
    else:
        run = lambda: apply_interpret(base, "IN", out, strength)
    if legal:
        assert audit == []
        assert run().applications[-1].strength is strength
    else:
        assert len(audit) == 1 and f"cannot be tagged {strength.value}" in audit[0]
        with pytest.raises(OperatorError) as caught:
            run()
        assert str(caught.value) == audit[0]


@pytest.mark.parametrize("strength", list(Strength), ids=lambda s: s.value)
def test_operationalizing_into_assumptions_only_is_a_weakening(strength):
    goal = Element("G1", Kind.FG, NaturalLanguage("tickets are booked"))
    assumption = Element("DA1", Kind.DA, NaturalLanguage("sensors are installed"))
    app = OperatorApplication(Operator.OPERATIONALIZE, ("G1",), ("DA1",), strength)
    audit = [d.message for d in check_strength_tags(Model("m", (goal, assumption), (app,)))]
    if strength is Strength.WEAKENING:
        assert audit == []
    else:
        assert audit == [
            f"operationalize cannot be tagged {strength.value}: "
            "operationalizing into assumptions only always weakens"
        ]
    # the operator records the only legal tag instead of refusing
    m = apply_operationalize(Model("m", (goal,)), "G1", [assumption], strength)
    assert m.applications[-1].strength is Strength.WEAKENING
    assert check_strength_tags(m) == []


# ===== resolutions and declared conflicts =====


@pytest.mark.parametrize(
    "conflicts, inputs, expected",
    [
        ((), ("G1", "G2"), "no declared conflict matches {G1, G2}"),
        ((frozenset({"G1", "G3"}),), ("G2", "G1"), "no declared conflict matches {G1, G2}"),
        ((frozenset({"G1", "G2", "G3"}),), ("G1", "G2"), "no declared conflict matches {G1, G2}"),
        ((frozenset({"G1", "G2"}),), ("G2", "G1"), None),
    ],
)
def test_resolution_needs_a_declared_conflict(conflicts, inputs, expected):
    goals = tuple(Element(f"G{i}", Kind.GOAL, NaturalLanguage(f"g{i}")) for i in (1, 2, 3))
    base = Model("m", goals, conflicts=conflicts)
    app = OperatorApplication(Operator.RESOLVE, inputs, ("G2",), Strength.WEAKENING)
    problems = validate_model(replace(base, applications=(app,)))
    if expected is None:
        assert problems == []
        assert apply_resolve(base, inputs, ["G2"]).applications == (app,)
    else:
        assert [str(d) for d in problems] == [f"application[0]: [resolve-conflict] {expected}"]
        with pytest.raises(OperatorError) as caught:
            apply_resolve(base, inputs, ["G2"])
        assert str(caught.value) == expected


def test_a_malformed_resolution_reports_only_its_signature():
    goal = Element("G1", Kind.GOAL, NaturalLanguage("g1"))
    app = OperatorApplication(Operator.RESOLVE, ("G1",), (), Strength.WEAKENING)
    problems = validate_model(Model("m", (goal,), (app,)))
    assert [d.rule for d in problems] == ["arity"]


# ===== scale factors and their direction =====

HALF, ONE, TWO = Fraction(1, 2), Fraction(1), Fraction(2)
SCALE_CASES = [
    (low, high, direction)
    for low in (HALF, ONE, TWO)
    for high in (HALF, ONE, TWO)
    for direction in ScaleDirection
]


@pytest.mark.parametrize(
    "low, high, direction",
    SCALE_CASES,
    ids=[f"{low}-{high}-{d.value}" for low, high, d in SCALE_CASES],
)
def test_apply_scale_raises_exactly_when_validation_reports_the_factor(low, high, direction):
    # [0, 30] scales without shifting or emptying under every factor that
    # fits the direction, so the factor rule is the only one that can fail
    region = Interval(Fraction(0), Fraction(30))
    body = QualityStatement(AtomicConcept("Processing_time"), AtomicConcept("Search"), region)
    inp, out = Element("IN", Kind.QC, body), Element("OUT", Kind.QC, body)
    factor = ScaleFactor(low_factor=low, high_factor=high)
    strength = Strength.WEAKENING if direction is ScaleDirection.DOWN else Strength.STRENGTHENING
    app = OperatorApplication(
        Operator.SCALE, ("IN",), ("OUT",), strength, ScaleArgs(factor, direction)
    )
    problems = [str(d) for d in validate_model(Model("m", (inp, out), (app,)))]
    allowed = low <= 1 <= high if direction is ScaleDirection.DOWN else low >= 1 >= high
    base = Model("m", (inp,))
    if allowed:
        assert problems == []
        assert apply_scale(base, "IN", factor, direction, output_id="OUT").applications == (app,)
    else:
        message = f"factor ({low}, {high}) cannot scale {direction.value}"
        assert problems == [f"application[0]: [scale-factor] {message}"]
        with pytest.raises(OperatorError) as caught:
            apply_scale(base, "IN", factor, direction, output_id="OUT")
        assert str(caught.value) == message


def test_a_factor_that_cannot_scale_up_is_a_spanned_validation_error(tmp_path, capsys):
    path = tmp_path / "scale.dsr"
    path.write_text(
        "model m;\n"
        "qc QC1 := Processing_time (File_search) :: [0, 30 (Sec)];\n"
        "qc QC2 := Processing_time (File_search) :: [0, 60 (Sec)];\n"
        "  scale_up QC1 -> QC2 by (1, 2);\n"
    )
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:4:3: error: application[0]: [scale-factor] factor (1, 2) cannot scale up\n"
    )


@pytest.mark.parametrize(
    ("region", "factor", "message"),
    [
        (
            NamedRegion("Fast"),
            ScaleFactor(low_factor=Fraction(2), high_factor=Fraction(1)),
            "a multiplier factor needs an interval region",
        ),
        (
            Interval(Fraction(0), Fraction(30)),
            ScaleFactor(region_name="Slow"),
            "a region-name factor needs a named region",
        ),
        (
            Interval(Fraction(1), Fraction(2)),
            ScaleFactor(low_factor=Fraction(3), high_factor=Fraction(1, 2)),
            "scaling would empty the region: 3 > 1",
        ),
        (
            Interval(Fraction(-4), Fraction(2)),
            ScaleFactor(low_factor=Fraction(2), high_factor=Fraction(1)),
            "scaling must enlarge or shrink the region, never shift it",
        ),
    ],
    ids=["multiplier-on-named", "name-on-interval", "emptied", "shifted"],
)
def test_a_factor_that_does_not_fit_the_region_fails_validation_and_apply_scale(
    region, factor, message
):
    body = QualityStatement(AtomicConcept("Cost"), AtomicConcept("X"), region)
    inp, out = Element("IN", Kind.QG, body), Element("OUT", Kind.QG, body)
    app = OperatorApplication(
        Operator.SCALE,
        ("IN",),
        ("OUT",),
        Strength.STRENGTHENING,
        ScaleArgs(factor, ScaleDirection.UP),
    )
    problems = [str(d) for d in validate_model(Model("m", (inp, out), (app,)))]
    assert problems == [f"application[0]: [scale-factor] {message}"]
    with pytest.raises(OperatorError) as caught:
        apply_scale(Model("m", (inp,)), "IN", factor, ScaleDirection.UP, output_id="OUT")
    assert str(caught.value) == message


def test_a_multiplier_on_a_named_region_is_a_spanned_validation_error(tmp_path, capsys):
    path = tmp_path / "scale.dsr"
    path.write_text(
        "model m;\n"
        "qg Q := Cost (X) :: Fast;\n"
        "qg Q2 := Cost (X) :: Slow;\n"
        "scale_up Q -> Q2 by (2, 1);\n"
    )
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:4:1: error: application[0]: [scale-factor] "
        "a multiplier factor needs an interval region\n"
    )
