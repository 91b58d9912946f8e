"""Whole-package checks tying the modules together.

Each test here pins one shipped guarantee: the worked numeric examples,
the translation goldens, randomized soundness sweeps against brute-force
evaluation, fulfillment walkthroughs, and the parser round-trip contract.
"""

import ast
import importlib.util
import math
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import reqsmith
from reqsmith.export import _render, emit_owl
from reqsmith.membership import (
    format_degree,
    membership_intervals,
    membership_points,
)
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
    IntervalPrototypes,
    InverseProjection,
    Kind,
    Model,
    NamedRegion,
    NaturalLanguage,
    Operator,
    PointPrototypes,
    PrototypeRegion,
    QualityStatement,
    SlotRestriction,
    Subsumption,
    UAnnotation,
    Union,
    ValueSet,
    World,
    at_least,
    at_most,
    replace,
)
from reqsmith.operators import apply_scale
from reqsmith.parser import parse_model, print_model
from reqsmith.printer import format_description
from reqsmith.reasoner import (
    ConsistencyStatus,
    FulfillmentStatus,
    VerdictStatus,
    _norm,
    check_consistency,
    check_strength_tags,
    propagate_fulfillment,
    subsumes,
)
from reqsmith.saturation import _dl_repr, _negate, _nnf
from reqsmith.semantics import (
    DLAnd,
    DLAtomic,
    DLCard,
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
    DL_NOTHING,
    DL_THING,
    eval_description,
    eval_dl,
    translate_description,
    translate_element,
)

F = Fraction
A = AtomicConcept
FIXTURES = Path(__file__).parent / "fixtures"


def parsed(text, file="<test>"):
    model = parse_model(text, file=file)
    assert isinstance(model, Model), f"fixture failed to parse: {model}"
    return model


def iregion(name, a, b):
    return PrototypeRegion(name, IntervalPrototypes(F(a), F(b)))


def pregion(name, *values):
    return PrototypeRegion(name, PointPrototypes(tuple(F(v) for v in values)))


COST_INTERVALS = (
    iregion("low", 500, 700),
    iregion("medium", 800, 1000),
    iregion("high", 1200, 1500),
)

COST_POINTS = (
    pregion("low", 500, 700),
    pregion("medium", 800, 1000),
    pregion("high", 1200, 1500),
)


# ---- worked membership numbers ----


def test_interval_membership_worked_values_within_ten_ms():
    membership_intervals(F(740), COST_INTERVALS)  # warm-up
    start = time.perf_counter()
    degrees = membership_intervals(F(740), COST_INTERVALS)
    elapsed = time.perf_counter() - start
    assert degrees == {"low": F("0.595"), "medium": F("0.405"), "high": F(0)}
    assert format_degree(degrees["low"]) == "0.595"
    assert format_degree(degrees["medium"]) == "0.405"
    assert format_degree(degrees["high"]) == "0"
    assert elapsed < 0.010


def test_point_membership_worked_value_within_ten_ms():
    membership_points(F(740), COST_POINTS)  # warm-up
    start = time.perf_counter()
    degrees = membership_points(F(740), COST_POINTS)
    elapsed = time.perf_counter() - start
    assert degrees["low"] == F(6, 8)
    assert degrees["medium"] == F(2, 8)
    assert degrees["high"] == F(0)
    assert format_degree(degrees["low"]) == "0.75"
    assert elapsed < 0.010


# ---- pair measure vs. an independent grid discretization ----


def _grid_degree(p, a, b, c, d, n=1000):
    """Fraction of the n-by-n midpoint grid over [a, b] x [c, d] whose
    cell centers lie above the line x + y = 2p, counted exactly."""
    a, b, c, d, p = F(a), F(b), F(c), F(d), F(p)
    sx = (b - a) / n
    sy = (d - c) / n
    total = 0
    for i in range(n):
        x = a + (2 * i + 1) * sx / 2
        q = (2 * p - x - c) / sy - F(1, 2)
        total += n if q < 0 else max(0, n - (math.floor(q) + 1))
    return F(total, n * n)


def test_pair_measure_grid_agreement_continuity_and_unit_sum():
    # one-million-cell grid agreement at 100 sampled positions
    rng = random.Random(3)
    pairs = (
        (500, 700, 800, 1000, 4800, 7200),
        (0, 10, 20, 50, 40, 280),
    )
    for a, b, c, d, lo, hi in pairs:
        family = (iregion("r1", a, b), iregion("r2", c, d))
        for _ in range(50):
            p = F(rng.randint(lo, hi), 8)
            d1, d2 = membership_intervals(p, family).values()
            assert d1 + d2 == 1
            assert abs(d1 - _grid_degree(p, a, b, c, d)) <= F(1, 1000)

    # degrees are continuous at every breakpoint t1..t4 of each adjacent pair:
    # |deg(t +- eps) - deg(t)| <= K eps, where K = 2 / (narrowest prototype
    # width) bounds the slope of the pair measure
    families = (
        COST_INTERVALS,
        (iregion("small", 0, 10), iregion("mid", 20, 50), iregion("large", 60, 100)),
    )
    eps = F(1, 10**6)
    for family in families:
        bounds = [(r.prototypes.a, r.prototypes.b) for r in family]
        slope = 2 / min(b - a for a, b in bounds)
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            for t in ((a + c) / 2, (b + c) / 2, (a + d) / 2, (b + d) / 2):
                at = membership_intervals(t, family)
                for p in (t - eps, t + eps):
                    near = membership_intervals(p, family)
                    assert all(abs(near[name] - at[name]) <= slope * eps for name in at)

    # degrees over a full family always sum to one
    rng = random.Random(1000)
    for _ in range(1000):
        p = F(rng.randint(0, 16000), 8)
        assert sum(membership_intervals(p, COST_INTERVALS).values()) == 1


# ---- translation goldens ----


def test_translation_goldens_for_function_quality_and_constraint():
    activate = Element(
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
    concept, axioms = translate_element(activate)
    assert axioms == []
    assert concept == DLAnd(
        (
            DLAtomic("Function"),
            DLAtomic("Activate"),
            DLCard("actor", "exact", 1, DLAtomic("Manager")),
            DLCard("object", "exact", 1, DLAtomic("Debit_card")),
        )
    )

    bounded = Element(
        "QC3",
        Kind.QC,
        QualityStatement(
            A("Processing_time"),
            A("File_search"),
            Interval(F(0), F(30), "Sec"),
        ),
    )
    concept, axioms = translate_element(bounded)
    assert axioms == []
    assert concept == DLAnd(
        (
            DLAtomic("QC"),
            DLAtomic("Processing_time"),
            DLExists("inheres_in", DLAtomic("File_search")),
            DLExists(
                "has_value_in",
                DLAnd(
                    (
                        DLDataRange("min", F(0), "Sec"),
                        DLDataRange("max", F(30), "Sec"),
                    )
                ),
            ),
        )
    )

    guarded = Element(
        "FC1",
        Kind.FC,
        Subsumption(A("Data_table"), SlotRestriction("accessed_by", ONLY, A("Manager"))),
    )
    _, axioms = translate_element(guarded)
    assert axioms == [
        DLSubClassOf(
            DLAtomic("Data_table"), DLForAll("accessed_by", DLAtomic("Manager"))
        )
    ]


# ---- structural proofs are sound for brute-force evaluation ----


def _random_modifier(rng):
    pick = rng.randrange(5)
    if pick == 0:
        return SOME
    if pick == 1:
        return ONLY
    if pick == 2:
        return EXACTLY_ONE
    if pick == 3:
        return at_least(rng.randint(1, 2))
    return at_most(rng.randint(1, 2))


def _random_description(rng, depth):
    options = ["atom", "atom", "enum", "thing", "nothing"]
    if depth > 0:
        options += ["and", "or", "diff", "slot", "slot", "inv"]
    pick = rng.choice(options)
    if pick == "atom":
        return A(rng.choice(("Alpha", "Beta")))
    if pick == "enum":
        return Enumeration(frozenset(rng.sample(("i1", "i2"), rng.randint(1, 2))))
    if pick == "thing":
        return THING
    if pick == "nothing":
        return NOTHING
    if pick == "slot":
        return SlotRestriction(
            rng.choice(("r", "s")), _random_modifier(rng), _random_description(rng, depth - 1)
        )
    if pick == "inv":
        return InverseProjection(_random_description(rng, depth - 1), rng.choice(("r", "s")))
    left = _random_description(rng, depth - 1)
    right = _random_description(rng, depth - 1)
    return {"and": Intersection, "or": Union, "diff": Difference}[pick](left, right)


def _random_world(rng):
    pool = rng.sample(("i1", "i2", "w1", "w2"), rng.randint(0, 4))
    extensions = {
        concept: frozenset(x for x in pool if rng.random() < 0.5)
        for concept in ("Alpha", "Beta")
    }
    tuples = {
        slot: frozenset((x, y) for x in pool for y in pool if rng.random() < 0.25)
        for slot in ("r", "s")
    }
    return World(
        individuals=frozenset(pool),
        concept_extensions=extensions,
        slot_tuples=tuples,
    )


def test_structural_proofs_sound_against_brute_force_evaluation():
    rng = random.Random(91542)
    start = time.perf_counter()
    verdicts = Counter()
    for _ in range(10_000):
        sub = _random_description(rng, rng.randint(0, 3))
        sup = _random_description(rng, rng.randint(0, 3))
        world = _random_world(rng)
        sub_dl, sup_dl = translate_description(sub), translate_description(sup)
        verdict = subsumes(sub_dl, sup_dl, bound=1)
        verdicts[verdict.status] += 1
        if verdict.status is VerdictStatus.PROVEN:
            assert eval_description(sub, world) <= eval_description(sup, world), (
                sub,
                sup,
                world,
            )
        elif verdict.status is VerdictStatus.REFUTED:
            witness = verdict.witness
            assert eval_dl(sub_dl, witness) - eval_dl(sup_dl, witness), (sub, sup)
    elapsed = time.perf_counter() - start
    # The counts are pinned, so a run under another hash seed shows that the
    # verdicts do not depend on it. The bounded search that the world
    # builder replaced refuted 5,855 of these pairs and left 670 unknown.
    assert verdicts[VerdictStatus.PROVEN] == 3475
    assert verdicts[VerdictStatus.REFUTED] == 6155
    assert verdicts[VerdictStatus.UNKNOWN] == 370
    assert elapsed < 60.0


def _reference_key(c):
    """The key `_norm` orders and dedupes by, as the recursive function
    computed it before it became a step of `model.fold`."""
    if isinstance(c, DLAtomic):
        return ("atomic", c.name)
    if isinstance(c, DLThing):
        return ("thing",)
    if isinstance(c, DLNothing):
        return ("nothing",)
    if isinstance(c, DLNominal):
        return ("nominal", c.ids)
    if isinstance(c, DLDataRange):
        return ("data", c.facet, str(c.value), isinstance(c.value, str), c.unit or "")
    if isinstance(c, DLNot):
        return ("not", _reference_key(c.inner))
    if isinstance(c, DLAnd):
        return ("and", tuple(_reference_key(a) for a in c.args))
    if isinstance(c, DLOr):
        return ("or", tuple(_reference_key(a) for a in c.args))
    if isinstance(c, DLForAll):
        return ("all", c.slot, _reference_key(c.filler))
    if isinstance(c, DLExistsInverse):
        return ("inv", c.slot, _reference_key(c.filler))
    assert isinstance(c, DLCard)
    return ("card", c.slot, c.kind, c.n, _reference_key(c.filler))


def _reference_norm(c):
    """`reasoner._norm` as it was before it became a step of `model.fold`:
    each level of a run of ands, or of ors, is normalized on its own, then
    flattened, deduped and sorted again by the level above. `_norm` now
    reads a whole run as one node's children; it must agree with this."""
    if isinstance(c, DLExists):
        return DLCard(c.slot, "min", 1, _reference_norm(c.filler))
    if isinstance(c, DLCard):
        filler = _reference_norm(c.filler)
        return c if filler is c.filler else DLCard(c.slot, c.kind, c.n, filler)
    if isinstance(c, DLForAll):
        filler = _reference_norm(c.filler)
        return c if filler is c.filler else DLForAll(c.slot, filler)
    if isinstance(c, DLExistsInverse):
        filler = _reference_norm(c.filler)
        if isinstance(filler, DLNothing):
            return DL_NOTHING
        return DLExistsInverse(c.slot, filler)
    if isinstance(c, DLNot):
        inner = _reference_norm(c.inner)
        if isinstance(inner, DLNot):
            return inner.inner
        if isinstance(inner, DLThing):
            return DL_NOTHING
        if isinstance(inner, DLNothing):
            return DL_THING
        return DLNot(inner)
    if isinstance(c, (DLAnd, DLOr)):
        flat = []
        for arg in c.args:
            normed = _reference_norm(arg)
            if isinstance(normed, type(c)):
                flat.extend(normed.args)
            else:
                flat.append(normed)
        if isinstance(c, DLAnd):
            flat = [a for a in flat if not isinstance(a, DLThing)]
            if any(isinstance(a, DLNothing) for a in flat):
                return DL_NOTHING
            if not flat:
                return DL_THING
        else:
            flat = [a for a in flat if not isinstance(a, DLNothing)]
            if any(isinstance(a, DLThing) for a in flat):
                return DL_THING
            if not flat:
                return DL_NOTHING
        negated = [a.inner for a in flat if isinstance(a, DLNot)]
        if negated:
            present = set(flat)
            for inner in negated:
                if inner in present or (
                    isinstance(inner, type(c)) and present.issuperset(inner.args)
                ):
                    return DL_NOTHING if isinstance(c, DLAnd) else DL_THING
        unique = {}
        for arg in flat:
            unique.setdefault(_reference_key(arg), arg)
        ordered = tuple(unique[k] for k in sorted(unique))
        if len(ordered) == 1:
            return ordered[0]
        return DLAnd(ordered) if isinstance(c, DLAnd) else DLOr(ordered)
    return c


def _bench_model_texts(seeds):
    """Every model file the benchmark generator writes, for each seed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("reqsmith_bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
        return [
            text
            for name in gen.WORKLOADS
            for seed in seeds
            for text in gen.generate(name, seed, Path("unused")).files.values()
        ]
    finally:
        del sys.modules[spec.name]


def _normalized_concepts(model):
    """The concepts the reasoner normalizes for `model`: the sides of its
    axioms, and the logical image and axioms of each structured element."""
    concepts = []
    for axiom in model.axioms:
        concepts += [translate_description(axiom.subsumee), translate_description(axiom.subsumer)]
    for element in model.elements:
        if not isinstance(element.body, NaturalLanguage):
            concept, axioms = translate_element(element)
            concepts += [concept, *(side for ax in axioms for side in (ax.sub, ax.sup))]
    return concepts


def test_norm_agrees_with_its_recursive_reference():
    rng = random.Random(91542)
    concepts = []
    for _ in range(10_000):  # the draws of the soundness sweep above
        concepts.append(translate_description(_random_description(rng, rng.randint(0, 3))))
        concepts.append(translate_description(_random_description(rng, rng.randint(0, 3))))
        _random_world(rng)
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.dsr"))]
    models = [parse_model(text) for text in texts + _bench_model_texts(range(1, 6))]
    assert sum(isinstance(model, Model) for model in models) >= 45
    for model in models:
        if isinstance(model, Model):
            concepts += _normalized_concepts(model)
    for c in concepts:
        assert _norm(c) == _reference_norm(c), c


def test_every_term_function_takes_a_description_ten_thousand_levels_deep():
    # at the default recursion limit: each is a step of one fold that keeps
    # its own stack
    d = A("A")
    for _ in range(10_000):
        d = SlotRestriction("r", SOME, d)
    concept = translate_description(d)
    normal = _norm(concept)
    assert normal.kind == "min" and normal.filler.kind == "min"
    assert format_description(d) == "<r: SOME " * 10_000 + "A" + ">" * 10_000
    assert _render(concept) == "ObjectSomeValuesFrom(:r " * 10_000 + ":A" + ")" * 10_000
    ring = World(
        individuals=frozenset({"a", "b"}),
        concept_extensions={"A": frozenset({"b"})},
        slot_tuples={"r": frozenset({("a", "b"), ("b", "a")})},
    )
    assert eval_dl(concept, ring) == frozenset({"a" if 10_000 % 2 else "b"})
    assert _dl_repr(normal) == ">=1 r." * 10_000 + "A"
    assert _dl_repr(_nnf(normal)) == _dl_repr(normal)
    assert _dl_repr(_negate(normal)) == "only r." * 10_000 + "not A"


_PROOF_ATOMS = ("A", "B", "C")
_PROOF_PEOPLE = ("w1", "w2", "w3")
# strings and numbers that print alike, so value sets can mix them
_PROOF_VALUES = ("1", F(1))


def _narrowed(c, pick):
    """c with each value set cut down to the values `pick` keeps of it."""
    if isinstance(c, DLOr) and all(isinstance(a, DLDataRange) for a in c.args):
        return DLOr(pick(c.args))
    if isinstance(c, (DLAnd, DLOr)):
        return type(c)(tuple(_narrowed(a, pick) for a in c.args))
    if isinstance(c, DLNot):
        return DLNot(_narrowed(c.inner, pick))
    if isinstance(c, (DLExists, DLForAll)):
        return type(c)(c.slot, _narrowed(c.filler, pick))
    if isinstance(c, DLCard):
        return DLCard(c.slot, c.kind, c.n, _narrowed(c.filler, pick))
    return c


def test_proofs_hold_on_every_world_that_satisfies_the_axioms():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.lists(st.sampled_from(_PROOF_VALUES), min_size=1, unique=True)
    data = values.map(lambda vs: DLOr(tuple(DLDataRange("eq", v, None) for v in vs)))
    kinds = st.sampled_from(("min", "max", "exact"))
    leaves = st.one_of(
        st.sampled_from(_PROOF_ATOMS).map(DLAtomic),
        data.map(lambda f: DLExists("d", f)),
        data.map(lambda f: DLForAll("d", f)),
        st.builds(lambda k, f: DLCard("d", k, 1, f), kinds, data),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(DLAnd),
            st.tuples(inner, inner).map(DLOr),
            inner.map(DLNot),
            inner.map(lambda c: DLExists("r", c)),
            inner.map(lambda c: DLForAll("r", c)),
            st.builds(
                lambda k, n, c: DLCard("r", k, n, c), kinds, st.integers(1, 2), inner
            ),
        )

    concepts = st.recursive(leaves, extend, max_leaves=4)
    groups = st.lists(st.sampled_from(_PROOF_ATOMS), min_size=2, max_size=3, unique=True)
    disjoint = groups.map(
        lambda names: DLSubClassOf(DLAnd(tuple(map(DLAtomic, names))), DL_NOTHING)
    )
    axioms = st.lists(
        st.one_of(disjoint, st.builds(DLSubClassOf, concepts, concepts)), max_size=4
    )
    people = st.sampled_from(_PROOF_PEOPLE)
    worlds = st.builds(
        lambda ext, r, d: World(
            individuals=frozenset(_PROOF_PEOPLE),
            concept_extensions=ext,
            slot_tuples={"r": r},
            data_values=d,
        ),
        st.fixed_dictionaries({a: st.frozensets(people) for a in _PROOF_ATOMS}),
        st.frozensets(st.tuples(people, people)),
        st.dictionaries(st.tuples(people, st.just("d")), st.sampled_from(_PROOF_VALUES)),
    )

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(concepts, axioms, worlds, st.booleans(), st.data())
    def check(sub, drawn, world, narrow, data):
        def some(args):
            kept = st.lists(st.sampled_from(args), min_size=1, unique=True)
            return tuple(data.draw(kept))

        # the second concept is a near copy of the first, or a fresh one
        sup = _narrowed(sub, some) if narrow else data.draw(concepts)
        # the world is a model of the axioms it satisfies
        held = [ax for ax in drawn if eval_dl(ax.sub, world) <= eval_dl(ax.sup, world)]
        for left, right in ((sub, sup), (sup, sub)):
            verdict = subsumes(left, right, held, bound=1)
            if verdict.status is VerdictStatus.PROVEN:
                assert eval_dl(left, world) <= eval_dl(right, world)
            elif verdict.status is VerdictStatus.REFUTED:
                witness = verdict.witness
                for ax in held:
                    assert eval_dl(ax.sub, witness) <= eval_dl(ax.sup, witness)
                assert eval_dl(left, witness) - eval_dl(right, witness)

    check()


# ---- percentage relaxation is monotone ----


def test_percentage_relaxation_is_monotone():
    rng = random.Random(6)
    subjects = (
        A("File_search"),
        A("Run"),
        Enumeration(frozenset({"the_system"})),
        Intersection(A("Run"), SlotRestriction("run_of", SOME, A("System_function"))),
    )
    regions = (
        NamedRegion("Fast"),
        NamedRegion("Good"),
        Interval(F(0), F(30), "Sec"),
        ValueSet((F(1), F(2))),
    )
    for i in range(50):
        kind = rng.choice((Kind.QG, Kind.QC))
        quality = A(rng.choice(("Speed", "Accuracy", "Cost", "Style")))
        subject = rng.choice(subjects)
        region = rng.choice(regions)
        hi = rng.randint(2, 99)
        stricter_pct = F(hi, 100)
        looser_pct = F(rng.randint(1, hi - 1), 100)

        def relaxed(pct):
            body = QualityStatement(
                quality,
                subject,
                region,
                (),
                (UAnnotation("X", ("inheres_in",), pct),),
            )
            return translate_element(Element(f"Q{i}", kind, body))[0]

        verdict = subsumes(relaxed(stricter_pct), relaxed(looser_pct), bound=1)
        assert verdict.status is VerdictStatus.PROVEN, (
            quality,
            subject,
            region,
            stricter_pct,
            looser_pct,
        )


# ---- fulfillment propagation ----

PARTIAL_BOOKING = """
model booking;
fg G1 := Ticket :< Booked;
func F2 := Book <object: Ticket>;
func F3 := Book <object: Airline_ticket> <means: Credit_card>;
func F4 := Book <object: Bus_ticket> <means: Cash>;
operationalize G1 -> F2 [strengthen];
reduce F2 -> F3, F4 [strengthen];
fulfilled F3;
"""

WIDE_FAN_OUT = """
model approx;
fg G := Service :< Provided;
func F1 := Provide <object: Service_a>;
func F2 := Provide <object: Service_b>;
func F3 := Provide <object: Service_c>;
func F4 := Provide <object: Service_d>;
operationalize G -> F1, F2, F3, F4 [strengthen];
fulfilled F1, F2, F3;
"""


def test_fulfillment_propagation_exact_states():
    FULFILLED = FulfillmentStatus.FULFILLED
    UNKNOWN = FulfillmentStatus.UNKNOWN

    complete = parsed((FIXTURES / "booking.dsr").read_text())
    assert propagate_fulfillment(complete).states == {
        "G1": FULFILLED,
        "F2": FULFILLED,
        "F3": FULFILLED,
        "F4": FULFILLED,
    }

    partial = parsed(PARTIAL_BOOKING)
    assert propagate_fulfillment(partial).states == {
        "G1": UNKNOWN,
        "F2": UNKNOWN,
        "F3": FULFILLED,
        "F4": UNKNOWN,
    }

    wide = parsed(WIDE_FAN_OUT)
    assert propagate_fulfillment(wide).states["G"] is UNKNOWN
    assert propagate_fulfillment(wide, threshold=3).states == {
        "G": FULFILLED,
        "F1": FULFILLED,
        "F2": FULFILLED,
        "F3": FULFILLED,
        "F4": UNKNOWN,
    }


# ---- consistency walkthroughs ----


def _without_disjointness(text):
    return "\n".join(l for l in text.splitlines() if ":< Nothing" not in l)


def test_consistency_walkthroughs_hinge_on_disjointness():
    cases = (
        ("nursing.dsr", ("Authorized", "Unauthorized")),
        ("entity_kinds.dsr", ("Information_entity", "Real_world_entity")),
    )
    for name, disjoint_pair in cases:
        text = (FIXTURES / name).read_text()
        clash = check_consistency(parsed(text))
        assert clash.status is ConsistencyStatus.INCONSISTENT
        joined = " ".join(clash.explanation)
        assert "Nothing" in joined
        for concept in disjoint_pair:
            assert concept in joined

        repaired = check_consistency(parsed(_without_disjointness(text)))
        assert repaired.status is ConsistencyStatus.CONSISTENT


# ---- parser and printer agree ----

_NL_WORDS = (
    "collect", "real", "time", "traffic", "info", "support", "road",
    "control", "reduce", "operation", "cost", "meetings", "be",
    "scheduled", "conveniently", "tickets", "booked",
)
_ATOMS = (
    "Ticket", "Airline_ticket", "Manager", "User", "Meeting", "Sensor",
    "Service", "Database", "Registered", "Notified",
)
_SLOTS = ("actor", "object", "means", "target", "status")
_INDS = ("m1", "m2", "the_system")


def _leaf(rng):
    roll = rng.randrange(6)
    if roll == 0:
        return "{" + ", ".join(sorted(rng.sample(_INDS, rng.randint(1, 2)))) + "}"
    if roll == 1:
        return "Thing"
    return rng.choice(_ATOMS)


def _modifier_text(rng):
    return rng.choice(("", "", "SOME ", "ONLY ", "<=2 ", ">=3 ", "=1 "))


def _region_leaf(rng):
    if rng.random() < 0.5:
        low = rng.randrange(10)
        return f"[{low}, {low + rng.randrange(10)}]"
    return "{" + ", ".join(map(str, sorted(rng.sample(range(10), rng.randint(1, 2))))) + "}"


def _region_text(rng):
    """A data filler: an interval, a value set, or two of them joined by
    `|`, `-` or adjacency; an adjacency's right operand is written in
    parentheses, as one that starts with `[` must be."""
    left = _region_leaf(rng)
    roll = rng.randrange(4)
    if roll == 0:
        return left
    right = _region_leaf(rng)
    return f"{left} ({right})" if roll == 3 else f"{left} {'|-'[roll - 1]} {right}"


def _filler_text(rng, depth):
    return _region_text(rng) if rng.random() < 0.2 else _desc_text(rng, depth)


def _desc_text(rng, depth):
    if depth <= 0:
        return _leaf(rng)
    roll = rng.randrange(7)
    if roll == 0:
        return f"({_leaf(rng)} {_leaf(rng)})"
    if roll == 1:
        return f"({_leaf(rng)} | {_leaf(rng)})"
    if roll == 2:
        return f"{_leaf(rng)} - {rng.choice(_ATOMS)}"
    if roll == 3:
        return f"<{rng.choice(_SLOTS)}: {_modifier_text(rng)}{_filler_text(rng, depth - 1)}>"
    if roll == 4:
        return f"({rng.choice(_ATOMS)} | {rng.choice(_ATOMS)}).{rng.choice(_SLOTS)}"
    return _leaf(rng)


def _side_text(rng):
    if rng.random() < 0.3:
        return _desc_text(rng, 2)
    parts = [rng.choice(_ATOMS)]
    for _ in range(rng.randrange(3)):
        parts.append(f"<{rng.choice(_SLOTS)}: {_modifier_text(rng)}{_filler_text(rng, 1)}>")
    return " ".join(parts)


def _quality_line(rng, keyword, eid):
    quality = rng.choice(("Speed", "Cost", "Accuracy", "Style"))
    subject = rng.choice((rng.choice(_ATOMS), "{the_system}", _desc_text(rng, 1)))
    if keyword == "qg":
        region = rng.choice(("Fast", "Low", "High", "Simple"))
    else:
        region = rng.choice(
            (
                "[0, 30 (Sec.)]",
                "[500, 700]",
                "<= 45",
                "{10, 20}",
                '{"red", "green"}',
                "Fast (measured)",
            )
        )
    observers = " <observed_by: Surveyed_user>" if rng.random() < 0.3 else ""
    annotation = ""
    if rng.random() < 0.3:
        annotation = f" u(?X, inheres_in, {rng.choice((60, 80, 90))}%)"
    return f"{keyword} {eid} := {quality} ({subject}) :: {region}{observers}{annotation};"


def _random_model_text(rng, index):
    lines = [f"model M{index};"]
    for _ in range(rng.randrange(3)):
        lines.append(f"axiom {_side_text(rng)} :< {_side_text(rng)};")
    goals = [f"G{i}" for i in range(rng.randint(1, 3))]
    for gid in goals:
        words = " ".join(rng.choice(_NL_WORDS) for _ in range(rng.randint(2, 5)))
        lines.append(f'goal {gid} := "{words}";')
    funcs = []
    for i in range(rng.randrange(3)):
        fid = f"F{i}"
        funcs.append(fid)
        slots = " ".join(
            f"<{s}: {_modifier_text(rng)}{_filler_text(rng, 1)}>"
            for s in rng.sample(_SLOTS, rng.randint(1, 2))
        )
        lines.append(f"func {fid} := {rng.choice(('Book', 'Send', 'Collect'))} {slots};")
    layered = []
    for keyword in ("fg", "fc", "ctg", "sc", "da"):
        for i in range(rng.randrange(2)):
            eid = f"{keyword.upper()}{i}"
            layered.append((keyword, eid))
            lines.append(f"{keyword} {eid} := {_side_text(rng)} :< {_side_text(rng)};")
    for keyword, i in (("qg", 0), ("qc", 1)):
        if rng.random() < 0.6:
            lines.append(_quality_line(rng, keyword, f"Q{i}"))

    # operator statements run over dedicated elements so kinds always line up
    if rng.random() < 0.5 and len(goals) >= 3:
        lines.append(f"reduce {goals[0]} -> {goals[1]}, {goals[2]} [equate];")
    refinements = [eid for keyword, eid in layered if keyword == "fg"]
    assumptions = [eid for keyword, eid in layered if keyword == "da"]
    if rng.random() < 0.5 and refinements:
        lines.append(f"interpret {goals[-1]} -> {refinements[0]} [equate];")
    if rng.random() < 0.5 and refinements and funcs:
        outputs = ", ".join(funcs[:1] + assumptions[:1])
        lines.append(f"operationalize {refinements[0]} -> {outputs} [strengthen];")
    if rng.random() < 0.4:
        lines.append("qc SQ1 := Cost (Service) :: [0, 10];")
        lines.append("qc SQ2 := Cost (Service) :: [0, 12];")
        lines.append("scale_down SQ1 -> SQ2 by (1, 6/5);")
    if rng.random() < 0.4:
        lines.append("qg OQ1 := Style (UI) :: Simple;")
        lines.append(
            "qc OQ2 := Style (UI) :: Simple (measured) <observed_by: Surveyed_user>;"
        )
        lines.append("observe OQ1 -> OQ2 by Surveyed_user;")
    if rng.random() < 0.4:
        lines.append("qg RQ1 := Style (User_interface) :: Simple;")
        lines.append(
            "qg RQ2 := Style (User_interface) :: Simple u(?X, inheres_in, 80%);"
        )
        lines.append("deuniv RQ1 -> RQ2 u(?X, inheres_in, 80%);")
    if rng.random() < 0.4:
        lines.append("qg FQ1 := Security (The_system) :: Good;")
        lines.append("qg FQ2 := Security (The_system | The_data_module) :: Good;")
        lines.append("focus FQ1 -> FQ2;")
    if rng.random() < 0.4:
        lines.append('goal CA := "keep data locally";')
        lines.append('goal CB := "store data in the cloud";')
        lines.append("conflict {CA, CB};")
        lines.append("resolve CA, CB -> CA;")
    if rng.random() < 0.4 and funcs:
        lines.append(f"fulfilled {funcs[0]};")
    if rng.random() < 0.4:
        lines.append(f"regions {rng.choice(('Cost', 'Speed'))} {{")
        # one prototype style per block: validation refuses a mixed one
        if rng.random() < 0.5:
            lines += ["  low = points {500, 700};", "  high = points {1200, 1500};"]
        else:
            lines += ["  low = interval [500, 700];", "  high = interval [1200, 1500];"]
        lines.append("}")
    if rng.random() < 0.4:
        lines.append("world {")
        lines.append(f"  individual w1 : {rng.choice(_ATOMS)}, {rng.choice(_ATOMS)};")
        lines.append("  individual w2;")
        lines.append(f"  slot {rng.choice(_SLOTS)}(w1, w2);")
        if rng.random() < 0.5:
            lines.append("  data duration(w1) = 25 Sec;")
        if rng.random() < 0.5:
            lines.append('  data label(w2) = "red";')
        if rng.random() < 0.5:
            lines.append("  quality wq1 : Speed inheres w1 value 10 Sec observed_by {w2};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def test_scale_applications_that_check_accepts_replay_through_apply_scale():
    rng = random.Random(7)
    replayed = 0
    for index in range(200):
        model = parse_model(_random_model_text(rng, index))
        # `check` exits 0 on a model that parses with no audit finding and
        # no world clash
        if isinstance(model, list) or check_strength_tags(model):
            continue
        if check_consistency(model).status is ConsistencyStatus.INCONSISTENT:
            continue
        for app in model.applications:
            if app.op is not Operator.SCALE:
                continue
            (output,) = app.outputs
            before = replace(
                model,
                elements=tuple(e for e in model.elements if e.id != output),
                applications=(),
            )
            args = app.args
            rebuilt = apply_scale(
                before, app.inputs[0], args.factor, args.direction, output_id=output
            )
            assert rebuilt.element(output) == model.element(output)
            replayed += 1
    assert replayed == 84


def test_parse_print_identity_on_generated_and_stock_models():
    rng = random.Random(200)
    for index in range(200):
        first = parsed(_random_model_text(rng, index))
        printed = print_model(first)
        second = parsed(printed)
        assert second == first
        assert print_model(second) == printed
        emit_owl(first)

    for path in sorted(FIXTURES.glob("*.dsr")):
        if path.name == "syntax_error.dsr":
            continue
        first = parsed(path.read_text(), file=path.name)
        printed = print_model(first)
        assert parsed(printed) == first

    diagnostics = parse_model(
        (FIXTURES / "syntax_error.dsr").read_text(), file="syntax_error.dsr"
    )
    assert isinstance(diagnostics, list) and diagnostics
    report = diagnostics[0]
    assert report.span.line == 2
    assert report.span.column == 9
    assert str(report).startswith("syntax_error.dsr:2:9:")


# ---- worked operator applications and their inverted mutants ----

_WORKED_APPLICATIONS = (
    (
        "model booking;\n"
        "axiom Airline_ticket :< Ticket;\n"
        "axiom Bus_ticket :< Ticket;\n"
        "func F2 := Book <object: Ticket>;\n"
        "func F3 := Book <object: Airline_ticket> <means: Credit_card>;\n"
        "func F4 := Book <object: Bus_ticket> <means: Cash>;\n"
        "reduce F2 -> F3, F4 [TAG];\n",
        "strengthen",
        "weaken",
    ),
    (
        "model scaling_words;\n"
        "axiom Fast :< Nearly_fast;\n"
        "qg QG1 := Speed (File_search) :: Fast;\n"
        "qg QG2 := Speed (File_search) :: Nearly_fast;\n"
        "scale_down QG1 -> QG2 by Nearly_fast [TAG];\n",
        "weaken",
        "strengthen",
    ),
    (
        "model scaling_numbers;\n"
        "qc QC1 := Processing_time (File_search) :: [0, 30 (Sec.)];\n"
        "qc QC2 := Processing_time (File_search) :: [0, 36 (Sec.)];\n"
        "scale_down QC1 -> QC2 by (1, 6/5) [TAG];\n",
        "weaken",
        "strengthen",
    ),
    (
        "model observing;\n"
        "qg QG5 := Style ({the_interface}) :: Simple;\n"
        "qc QC5 := Style ({the_interface}) :: Simple (measured)"
        " <observed_by: Surveyed_user>;\n"
        "observe QG5 -> QC5 by Surveyed_user [TAG];\n",
        "strengthen",
        "weaken",
    ),
    (
        "model relaxing;\n"
        "qg QG3 := Response_time (System_function) :: Fast;\n"
        "qg QG3a := Response_time (System_function) :: Fast"
        " u(?X, inheres_in, 80%);\n"
        "deuniv QG3 -> QG3a u(?X, inheres_in, 80%) [TAG];\n",
        "weaken",
        "strengthen",
    ),
    (
        "model focusing;\n"
        "qg QG4 := Security ({the_system}) :: Good;\n"
        "qg QG4a := Security ({the_system, the_data_module}) :: Good;\n"
        "focus QG4 -> QG4a [TAG];\n",
        "weaken",
        "strengthen",
    ),
)


def test_worked_operator_applications_and_inverted_mutants():
    for template, declared, inverted in _WORKED_APPLICATIONS:
        clean = check_strength_tags(parsed(template.replace("TAG", declared)))
        assert clean == [], (template, clean)

        flags = check_strength_tags(parsed(template.replace("TAG", inverted)))
        assert len(flags) == 1, (template, flags)
        assert flags[0].application_index == 0


# ---- package layout ----

PACKAGE = Path(reqsmith.__file__).parent

# Names a module imports only to offer them from its own namespace.
REEXPORTS = {
    "reasoner": {"FulfillmentState", "FulfillmentStatus", "propagate_fulfillment"}
}


def test_the_readme_modules_table_lists_each_module_once():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `reqsmith\.(\w+)` \|", section, re.MULTILINE)
    modules = [p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def test_the_package_docstring_names_each_module_once():
    named = re.findall(r"\(`(\w+)`\)", reqsmith.__doc__)
    modules = [p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    assert sorted(named) == sorted(modules)


def test_no_module_has_an_unused_module_level_import():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names = imported - used - REEXPORTS.get(path.stem, set())
        if names:
            unused[path.stem] = sorted(names)
    assert unused == {}
