"""Tests for subsumption verdicts, consistency checking, interrelation
queries, strength tag auditing, and fulfillment propagation."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from reqsmith.model import (
    NOTHING,
    THING,
    ONE_TO_ONE_OPS,
    AtomicConcept,
    Difference,
    Element,
    Enumeration,
    EXACTLY_ONE,
    FunctionDesc,
    Intersection,
    Interval,
    InverseProjection,
    Kind,
    Model,
    NaturalLanguage,
    ONLY,
    Operator,
    OperatorApplication,
    QualityStatement,
    Region,
    SOME,
    ScaleDirection,
    ScaleFactor,
    SlotRestriction,
    Strength,
    Subsumption,
    Union,
    World,
    at_least,
    at_most,
    exactly,
    replace,
)
from reqsmith import reasoner, saturation, semantics
from reqsmith.cli import main
from reqsmith.lint import lint_model
from reqsmith.operators import OperatorError, apply_scale
from reqsmith.parser import parse_description, parse_model
from reqsmith.reasoner import (
    ConsistencyResult,
    ConsistencyStatus,
    FulfillmentStatus,
    VerdictStatus,
    check_consistency,
    check_strength_tags,
    collect_axioms,
    propagate_fulfillment,
    query,
    subsumes,
)
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
    eval_dl,
    translate_description,
    translate_element,
)


def A(name):
    return AtomicConcept(name)


def parsed(text):
    result = parse_model(text)
    assert not isinstance(result, list), result
    return result


def desc(text):
    result = parse_description(text)
    assert not isinstance(result, list), result
    return result


def dl(text):
    return translate_description(desc(text))


def concept_of(model, element_id):
    concept, _ = translate_element(model.by_id()[element_id])
    return concept


def verdict(sub, sup, axioms=(), bound=4):
    return subsumes(sub, sup, axioms, bound=bound)


# ----- structural derivation -----


def test_reflexivity_ignores_argument_order():
    v = verdict(dl("Alpha Beta"), dl("Beta Alpha"))
    assert v.status is VerdictStatus.PROVEN
    assert v.method == "structural"


def test_thing_and_nothing_bounds():
    assert verdict(dl("Alpha"), dl("Thing")).status is VerdictStatus.PROVEN
    assert verdict(dl("Nothing"), dl("Alpha")).status is VerdictStatus.PROVEN


def test_dropping_a_slot_is_proven():
    narrower = dl("Book <object: Airline_ticket> <means: Credit_card>")
    wider = dl("Book <object: Airline_ticket>")
    assert verdict(narrower, wider).status is VerdictStatus.PROVEN


def test_union_and_intersection_monotonicity():
    assert verdict(dl("Alpha"), dl("Alpha | Beta")).status is VerdictStatus.PROVEN
    assert verdict(dl("Alpha | Beta"), dl("Alpha | Beta | Gamma")).status is (
        VerdictStatus.PROVEN
    )
    assert verdict(dl("Alpha Beta"), dl("Alpha")).status is VerdictStatus.PROVEN


def test_ticket_booking_with_declared_hierarchy():
    axiom = Subsumption(A("Airline_ticket"), A("Ticket"))
    sub = dl("Book <object: Airline_ticket>")
    sup = dl("Book <object: Ticket>")
    assert verdict(sub, sup, [axiom]).status is VerdictStatus.PROVEN


def test_ticket_booking_without_hierarchy_is_refuted():
    sub = dl("Book <object: Airline_ticket>")
    sup = dl("Book <object: Ticket>")
    v = verdict(sub, sup)
    assert v.status is VerdictStatus.REFUTED
    assert v.method == "bounded-model"
    w = v.witness.materialize()
    assert eval_dl(sub, w) - eval_dl(sup, w)


def test_interval_widening_is_proven():
    m = parsed(
        "qc QC1 := Processing_time (File_search) :: [0, 30 (Sec.)];\n"
        "qc QC2 := Processing_time (File_search) :: [0, 40 (Sec.)];"
    )
    tight = concept_of(m, "QC1")
    loose = concept_of(m, "QC2")
    assert verdict(tight, loose).status is VerdictStatus.PROVEN
    reverse = verdict(loose, tight)
    assert reverse.status is VerdictStatus.REFUTED
    w = reverse.witness.materialize()
    assert eval_dl(loose, w) - eval_dl(tight, w)


def test_independent_atoms_refuted_by_single_individual():
    v = verdict(dl("Alpha"), dl("Beta"))
    assert v.status is VerdictStatus.REFUTED
    assert len(v.witness.individuals) == 1


def test_bound_caps_only_the_individuals_the_axioms_ask_for():
    # the pair's own concepts get every individual they ask for
    own = verdict(dl("<r: >=3 Alpha>"), dl("Beta"), bound=1)
    assert own.status is VerdictStatus.REFUTED
    assert len(own.witness.individuals) == 3
    axiom = Subsumption(A("Alpha"), desc("<r: >=3 Thing>"))
    assert verdict(dl("Alpha"), dl("Beta"), [axiom], bound=1).status is (
        VerdictStatus.UNKNOWN
    )
    forced = verdict(dl("Alpha"), dl("Beta"), [axiom], bound=2)
    assert forced.status is VerdictStatus.REFUTED
    assert len(forced.witness.individuals) == 3


def test_pct_relaxation_order():
    m = parsed(
        "qc U90 := Processing_time (File_search) :: [0, 30 (Sec.)]"
        " u(?X, inheres_in, 90%);\n"
        "qc U80 := Processing_time (File_search) :: [0, 30 (Sec.)]"
        " u(?X, inheres_in, 80%);"
    )
    stricter = concept_of(m, "U90")
    looser = concept_of(m, "U80")
    assert verdict(stricter, looser).status is VerdictStatus.PROVEN
    assert verdict(looser, stricter).status is VerdictStatus.REFUTED


def test_min_cardinality_weakening():
    assert verdict(dl("<r: >=3 Alpha>"), dl("<r: >=2 Alpha>")).status is (
        VerdictStatus.PROVEN
    )
    v = verdict(dl("<r: >=2 Alpha>"), dl("<r: >=3 Alpha>"))
    assert v.status is VerdictStatus.REFUTED


def test_max_cardinality_weakening():
    assert verdict(dl("<r: <=2 Alpha>"), dl("<r: <=3 Alpha>")).status is (
        VerdictStatus.PROVEN
    )
    # shrinking the filler cannot raise the count, so this holds too
    assert verdict(dl("<r: <=2 Alpha>"), dl("<r: <=2 (Alpha Beta)>")).status is (
        VerdictStatus.PROVEN
    )


def test_exact_weakens_to_min_and_max():
    assert verdict(dl("<r: =2 Alpha>"), dl("<r: >=1 Alpha>")).status is (
        VerdictStatus.PROVEN
    )
    assert verdict(dl("<r: =2 Alpha>"), dl("<r: <=3 Alpha>")).status is (
        VerdictStatus.PROVEN
    )
    assert verdict(dl("<r: =2 Alpha>"), dl("<r: <=1 Alpha>")).status is not (
        VerdictStatus.PROVEN
    )


def test_exact_counts_over_equivalent_fillers_are_equivalent():
    axioms = [Subsumption(A("A"), A("B")), Subsumption(A("B"), A("A"))]
    two_a, two_b = dl("<r: =2 A>"), dl("<r: =2 B>")
    assert verdict(two_a, two_b, axioms).status is VerdictStatus.PROVEN
    assert verdict(two_b, two_a, axioms).status is VerdictStatus.PROVEN


def test_exact_filler_widening_fires_only_through_axioms():
    # an extra Alpha-successor outside Alpha-and-Beta breaks the exact count,
    # so widening an exact filler is refutable when the filler link is a
    # plain structural fact rather than a declared hierarchy
    sub = dl("<r: =1 (Alpha Beta)>")
    sup = dl("<r: =1 Alpha>")
    assert verdict(sub, sup).status is VerdictStatus.REFUTED
    axiom = Subsumption(A("Gamma"), A("Delta"))
    linked = verdict(dl("<r: =1 Gamma>"), dl("<r: =1 Delta>"), [axiom])
    assert linked.status is VerdictStatus.PROVEN
    # The rule departs from the world semantics: x r a, x r b with a in
    # Gamma and Delta and b in Delta satisfies the axiom, and puts x in the
    # first concept only. The README states this.
    world = World(
        individuals=frozenset({"x", "a", "b"}),
        concept_extensions={"Gamma": frozenset({"a"}), "Delta": frozenset({"a", "b"})},
        slot_tuples={"r": frozenset({("x", "a"), ("x", "b")})},
    )
    assert eval_dl(dl("Gamma"), world) <= eval_dl(dl("Delta"), world)
    assert "x" in eval_dl(dl("<r: =1 Gamma>"), world)
    assert "x" not in eval_dl(dl("<r: =1 Delta>"), world)


def test_universal_filler_covariance():
    sub = dl("<accessed_by: ONLY Manager>")
    sup = dl("<accessed_by: ONLY (Manager | Admin)>")
    assert verdict(sub, sup).status is VerdictStatus.PROVEN


def test_nominal_subset():
    assert verdict(dl("{a}"), dl("{a, b}")).status is VerdictStatus.PROVEN
    v = verdict(dl("{a, b}"), dl("{a}"))
    assert v.status is VerdictStatus.REFUTED
    assert "b" in v.witness.individuals


def test_a_string_and_a_number_that_print_alike_stay_distinct():
    both, text = dl('<r: {"1", 1}>'), dl('<r: {"1"}>')
    refuted = verdict(both, text)
    assert refuted.status is VerdictStatus.REFUTED
    # a world where r is the number 1 separates the two
    world = World(individuals=frozenset({"x"}), data_values={("x", "r"): Fraction(1)})
    assert eval_dl(both, world) == {"x"} and eval_dl(text, world) == frozenset()
    assert eval_dl(both, refuted.witness) - eval_dl(text, refuted.witness)


def test_axiom_chaining_is_transitive():
    axioms = [
        Subsumption(A("Very_fast"), A("Fast")),
        Subsumption(A("Fast"), A("Nearly_fast")),
    ]
    assert verdict(dl("Very_fast"), dl("Nearly_fast"), axioms).status is (
        VerdictStatus.PROVEN
    )


def test_cyclic_axioms_terminate():
    axioms = [Subsumption(A("Alpha"), A("Beta")), Subsumption(A("Beta"), A("Alpha"))]
    assert verdict(dl("Alpha"), dl("Beta"), axioms).status is VerdictStatus.PROVEN
    assert verdict(dl("Gamma"), dl("Delta"), axioms).status is VerdictStatus.REFUTED


def test_named_region_ordering_via_axiom():
    m = parsed(
        "axiom Very_fast :< Fast;\n"
        "qg Q1 := Speed (The_system) :: Very_fast;\n"
        "qg Q2 := Speed (The_system) :: Fast;"
    )
    stricter = concept_of(m, "Q1")
    looser = concept_of(m, "Q2")
    assert verdict(stricter, looser, collect_axioms(m)).status is (
        VerdictStatus.PROVEN
    )
    assert verdict(stricter, looser).status is not VerdictStatus.PROVEN


def test_mismatched_units_are_never_coerced():
    seconds = dl("<p: [0, 30 (Sec.)]>")
    minutes = dl("<p: [0, 30 (Min.)]>")
    v = verdict(seconds, minutes)
    assert v.status is VerdictStatus.REFUTED


def test_unitless_against_united_interval_is_unknown():
    # the derivation refuses to compare across a missing unit, while value
    # semantics compares unitless numbers leniently, so no witness exists
    bare = dl("<p: [0, 30]>")
    timed = dl("<p: [0, 40 (Sec.)]>")
    assert verdict(bare, timed, bound=2).status is VerdictStatus.UNKNOWN


def test_verdicts_are_deterministic():
    first = verdict(dl("Alpha"), dl("Beta"))
    second = verdict(dl("Alpha"), dl("Beta"))
    assert first.status is second.status
    assert first.witness == second.witness


def _sweep_description(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(
            [
                A("Alpha"),
                A("Beta"),
                THING,
                Enumeration(("i1",)),
                Enumeration(("i1", "i2")),
            ]
        )
    pick = rng.randrange(6)
    if pick == 0:
        return Intersection(
            _sweep_description(rng, depth - 1), _sweep_description(rng, depth - 1)
        )
    if pick == 1:
        return Union(
            _sweep_description(rng, depth - 1), _sweep_description(rng, depth - 1)
        )
    if pick == 2:
        return Difference(
            _sweep_description(rng, depth - 1), _sweep_description(rng, depth - 1)
        )
    if pick == 3:
        lo = Fraction(rng.randrange(3))
        return SlotRestriction(
            rng.choice("rs"),
            rng.choice([EXACTLY_ONE, SOME, ONLY]),
            Region(Interval(lo, lo + rng.randrange(1, 4))),
        )
    if pick == 4:
        modifier = rng.choice(
            [EXACTLY_ONE, SOME, ONLY, at_least(2), at_most(1), exactly(2)]
        )
        return SlotRestriction(
            rng.choice("rs"), modifier, _sweep_description(rng, depth - 1)
        )
    return InverseProjection(_sweep_description(rng, depth - 1), rng.choice("rs"))


def _sweep_world(rng):
    from reqsmith.model import World

    individuals = frozenset(
        rng.sample(["i1", "i2", "i3"], rng.randrange(1, 4))
    )
    extensions = {
        name: frozenset(x for x in individuals if rng.random() < 0.5)
        for name in ("Alpha", "Beta")
    }
    tuples = {
        slot: frozenset(
            (x, y)
            for x in individuals
            for y in individuals
            if rng.random() < 0.3
        )
        for slot in ("r", "s")
    }
    data = {}
    for x in individuals:
        for slot in ("r", "s"):
            if rng.random() < 0.4:
                data[(x, slot)] = Fraction(rng.randrange(5))
    return World(
        individuals=individuals,
        concept_extensions=extensions,
        slot_tuples=tuples,
        data_values=data,
    )


def test_proven_verdicts_survive_world_spot_checks():
    rng = random.Random(20260815)
    proven = 0
    for _ in range(350):
        sub = _sweep_description(rng, 2)
        if rng.random() < 0.3:
            sup = Union(sub, _sweep_description(rng, 1))
        else:
            sup = _sweep_description(rng, 2)
        sub_dl = translate_description(sub)
        sup_dl = translate_description(sup)
        v = subsumes(sub_dl, sup_dl, bound=1)
        if v.status is not VerdictStatus.PROVEN:
            continue
        proven += 1
        for _ in range(25):
            w = _sweep_world(rng)
            assert eval_dl(sub_dl, w) <= eval_dl(sup_dl, w), (sub, sup, w)
    assert proven >= 20


# ----- consistency -----

RESTRICTED_ACCESS = """
model nursing;
axiom Student_info :< <accessed_by: ONLY Authorized>;
axiom Student_info :< <accessed_by: ONLY {Dr_Susan, Dr_Julie}>;
axiom Authorized Unauthorized :< Nothing;
world {
  individual x1 : Student_info;
  individual Dr_Susan : Unauthorized;
  individual Dr_Julie;
  slot accessed_by (x1, Dr_Susan);
}
"""

ENTITY_KINDS = """
model meeting;
axiom System_function :< <object: ONLY Information_entity>;
axiom Information_entity Real_world_entity :< Nothing;
axiom User :< Real_world_entity;
world {
  individual f1 : System_function;
  individual u1 : User;
  slot object (f1, u1);
}
"""


def _without_disjointness(text):
    lines = [l for l in text.splitlines() if ":< Nothing" not in l]
    return "\n".join(lines)


def test_restricted_access_clash():
    result = check_consistency(parsed(RESTRICTED_ACCESS))
    assert result.status is ConsistencyStatus.INCONSISTENT
    joined = " ".join(result.explanation)
    assert "Nothing" in joined
    assert "Dr_Susan" in joined
    assert "Authorized" in joined


def test_restricted_access_without_disjointness_is_consistent():
    result = check_consistency(parsed(_without_disjointness(RESTRICTED_ACCESS)))
    assert result.status is ConsistencyStatus.CONSISTENT
    # the universal axiom forces the named doctor into the authorized set
    assert "Dr_Susan" in result.witness.extension("Authorized")


def test_entity_kind_clash():
    result = check_consistency(parsed(ENTITY_KINDS))
    assert result.status is ConsistencyStatus.INCONSISTENT
    joined = " ".join(result.explanation)
    assert "Information_entity" in joined and "Real_world_entity" in joined
    assert "u1" in joined


def test_entity_kind_without_disjointness_is_consistent():
    result = check_consistency(parsed(_without_disjointness(ENTITY_KINDS)))
    assert result.status is ConsistencyStatus.CONSISTENT
    assert "u1" in result.witness.extension("Information_entity")


def test_empty_model_is_consistent():
    result = check_consistency(parsed("model empty;"))
    assert result.status is ConsistencyStatus.CONSISTENT
    assert not result.witness.individuals
    assert result.explanation == ()


def test_cardinality_clash():
    m = parsed(
        "axiom Meeting :< <room: <=1 Thing>;\n"
        "world {\n"
        "  individual m1 : Meeting;\n"
        "  individual r1;\n"
        "  individual r2;\n"
        "  slot room (m1, r1);\n"
        "  slot room (m1, r2);\n"
        "}"
    )
    result = check_consistency(m)
    assert result.status is ConsistencyStatus.INCONSISTENT
    assert "more than 1" in " ".join(result.explanation)


def test_unforceable_existential_is_unknown():
    m = parsed(
        "axiom Account :< <verified_by: SOME Officer>;\n"
        "world { individual a1 : Account; }"
    )
    result = check_consistency(m)
    assert result.status is ConsistencyStatus.UNKNOWN
    assert "could not establish" in " ".join(result.explanation)


def test_a_data_range_on_the_right_side_clashes_like_nothing():
    # Validation refuses a region where a class is expected; a library
    # caller that builds such an axiom gets a clash, not an assertion error.
    interval = DLAnd((DLDataRange("min", Fraction(1)), DLDataRange("max", Fraction(5))))
    model = Model(
        axioms=(DLSubClassOf(DLAtomic("A"), interval),),
        world=World(frozenset({"c"}), {"A": frozenset({"c"})}),
    )
    result = check_consistency(model)
    assert result.status is ConsistencyStatus.INCONSISTENT
    assert result.explanation == (
        "axiom A :< ((<= 5) and (>= 1)) forces c into (<= 5)",
        "axiom A :< ((<= 5) and (>= 1)) forces c into (>= 1)",
    )


def _ring_world(size: int):
    """A ring of Nodes, every tenth a Hub, under axioms whose right-hand
    sides reach every branch of saturation that reads the world."""
    lines = [
        "axiom <accessed_by: SOME <accessed_by: SOME Hub>> :< Near;",
        "axiom Near :< <accessed_by: ONLY Watched>;",
        "axiom Node :< <accessed_by: <=1 Thing> (Hub | Node) (Node.accessed_by) - Blocked;",
        "world {",
    ]
    for i in range(size):
        lines.append(f"  individual r{i} : {'Hub, Node' if i % 10 == 0 else 'Node'};")
        lines.append(f"  slot accessed_by(r{i}, r{(i + 1) % size});")
    return parsed("\n".join(lines + ["}"]))


def test_saturation_work_per_round_does_not_grow_with_the_world(monkeypatch):
    # Extensions and slot counts are computed once per round and concept,
    # not once per individual the axiom fires on. The slot counts of a right
    # side run inside its evaluation, so those in `semantics` count too.
    def counted(size):
        calls = {}
        for module, name in [
            (saturation, "_eval_dl"),
            (saturation, "_slot_counts"),
            (semantics, "_slot_counts"),
        ]:
            key = f"{module.__name__}.{name}"
            calls[key] = 0

            def wrapper(*args, key=key, original=getattr(module, name)):
                calls[key] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)
        result = check_consistency(_ring_world(size))
        monkeypatch.undo()
        assert result.status is ConsistencyStatus.CONSISTENT
        assert len(result.witness.extension("Watched")) == size // 10
        return calls

    small, large = counted(100), counted(400)
    assert small == large
    slot_counts = small["reqsmith.saturation._slot_counts"]
    slot_counts += small["reqsmith.semantics._slot_counts"]
    assert slot_counts > 0 and small["reqsmith.saturation._eval_dl"] > 0


class _TwoPass(saturation._Saturator):
    """The verdict as two passes gave it: assert each right side on every
    member of its left side until a round adds nothing, then evaluate every
    axiom again on the saturated world."""

    def run(self):
        while True:
            self.changed = False
            self.snapshot = self.current()
            self.memo, self.counts = {}, {}
            for ax in self.axioms:
                for x in sorted(self._extension(ax.sub)):
                    self._assert(x, ax.sup, ax)
            if self.clashes:
                return ConsistencyStatus.INCONSISTENT, None, tuple(self.clashes)
            if not self.changed:
                break
        for ax in self.axioms:
            if not eval_dl(ax.sub, self.snapshot) <= eval_dl(ax.sup, self.snapshot):
                axiom = saturation._axiom_repr(ax)
                text = f"could not establish axiom {axiom} on the world"
                return ConsistencyStatus.UNKNOWN, None, (text,)
        return ConsistencyStatus.CONSISTENT, self.snapshot, ()


_SWEEP_NAMES = ("i1", "i2", "i3", "i4")


def _data_range(rng):
    low = Fraction(rng.randrange(4))
    if rng.random() < 0.3:
        return DLAnd((DLDataRange("min", low), DLDataRange("max", low + 1)))
    return DLDataRange(rng.choice(("min", "max", "eq")), low)


def _consistency_concept(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        pick = rng.random()
        if pick < 0.7:
            return DLAtomic(rng.choice("ABC"))
        if pick < 0.85:
            return DLNominal(tuple(sorted(rng.sample(_SWEEP_NAMES, rng.randint(1, 2)))))
        if pick < 0.95:
            return rng.choice((DL_THING, DL_NOTHING))
        return _data_range(rng)
    if roll < 0.42:
        return DLAnd(_consistency_pair(rng, depth - 1))
    if roll < 0.5:
        return DLOr(_consistency_pair(rng, depth - 1))
    if roll < 0.58:
        return DLNot(_consistency_concept(rng, depth - 1))
    slot = rng.choice("rs")
    if roll < 0.66:
        return DLExistsInverse(slot, _consistency_concept(rng, depth - 1))
    if rng.random() < 0.25:
        filler = _data_range(rng)
    else:
        filler = _consistency_concept(rng, depth - 1)
    if roll < 0.78:
        return DLExists(slot, filler)
    if roll < 0.9:
        return DLForAll(slot, filler)
    return DLCard(slot, rng.choice(("min", "max", "exact")), rng.randint(1, 2), filler)


def _consistency_pair(rng, depth):
    return _consistency_concept(rng, depth), _consistency_concept(rng, depth)


def _consistency_case(seed):
    rng = random.Random(seed)
    individuals = _SWEEP_NAMES[: rng.randint(1, 4)]
    world = World(
        individuals=frozenset(individuals),
        concept_extensions={
            name: frozenset(x for x in individuals if rng.random() < 0.4)
            for name in "ABC"
        },
        slot_tuples={
            slot: frozenset(
                (x, y) for x in individuals for y in individuals if rng.random() < 0.3
            )
            for slot in "rs"
        },
        data_values={
            (x, slot): Fraction(rng.randrange(4))
            for x in individuals
            for slot in "rs"
            if rng.random() < 0.3
        },
    )
    axioms = tuple(
        DLSubClassOf(*_consistency_pair(rng, 2)) for _ in range(rng.randint(1, 4))
    )
    return Model(axioms=axioms, world=world)


def test_saturation_decides_what_two_passes_decided():
    # One saturation that asserts only outside the right side, and reads the
    # unsettled axiom off its last round, gives the verdict, explanation and
    # witness of asserting on every left-side member and then evaluating
    # every axiom again.
    statuses = Counter()
    for seed in range(3000):
        model = _consistency_case(seed)
        axioms = tuple(collect_axioms(model))
        expected = ConsistencyResult(*_TwoPass(model.world, axioms).run())
        result = check_consistency(model)
        assert result == expected, seed
        statuses[result.status] += 1
    assert min(statuses[status] for status in ConsistencyStatus) >= 300, statuses


# ----- interrelation queries -----

TRAFFIC = """
model traffic;
goal G0 := "support road traffic control";
goal G1 := "collect real time traffic info";
goal G2 := "traffic info be accurate";
goal G3 := "reduce operation cost";
fg FG4 := Traffic_info :< Collected;
func F5 := Collect <actor: {the_system}> <object: Traffic_info> <means: Fixed_sensor>;
da DA6 := Fixed_sensor :< Installed;
qg QG7 := Accuracy (F5.object) :: High;
ctg CTG9 := Operation_cost :< Reduced;
reduce G0 -> G1, G2, G3 [equate];
interpret G1 -> FG4 [equate];
interpret G2 -> QG7 [equate];
interpret G3 -> CTG9 [equate];
operationalize FG4 -> F5, DA6 [strengthen];
"""


@pytest.fixture(scope="module")
def traffic():
    return parsed(TRAFFIC)


def test_query_by_bearer_reference(traffic):
    assert query(traffic, desc("<inheres_in: {F5}>")) == {"QG7"}


def test_query_by_function_object(traffic):
    assert query(traffic, desc("<object: Traffic_info>")) == {"F5"}


def test_query_with_empty_filler(traffic):
    assert query(traffic, desc("<actor: Nothing>")) == frozenset()


def test_query_by_function_head(traffic):
    assert query(traffic, desc("Collect")) == {"F5"}


def test_query_by_element_kind(traffic):
    assert query(traffic, desc("QG")) == {"QG7"}


def _swapped(d):
    """The same description with the operands of every and/or swapped."""
    if isinstance(d, (Intersection, Union)):
        return type(d)(_swapped(d.right), _swapped(d.left))
    if isinstance(d, Difference):
        return Difference(_swapped(d.left), _swapped(d.right))
    if isinstance(d, SlotRestriction):
        return replace(d, filler=_swapped(d.filler))
    if isinstance(d, InverseProjection):
        return replace(d, source=_swapped(d.source))
    return d


def _reshaped_body(body):
    if isinstance(body, FunctionDesc):
        return replace(
            body, slots=tuple(_swapped(s) for s in reversed(body.slots))
        )
    if isinstance(body, Subsumption):
        return Subsumption(_swapped(body.subsumee), _swapped(body.subsumer))
    if isinstance(body, QualityStatement):
        return replace(
            body,
            quality=_swapped(body.quality),
            subject=_swapped(body.subject),
            observers=tuple(_swapped(o) for o in reversed(body.observers)),
        )
    return body


def test_query_invariant_under_normalization(traffic):
    elements = tuple(
        replace(e, body=_reshaped_body(e.body))
        for e in traffic.elements
    )
    reshaped = replace(traffic, elements=elements)
    assert reshaped != traffic
    for pattern in ("<inheres_in: {F5}>", "<object: Traffic_info>", "Collect"):
        assert query(traffic, desc(pattern)) == query(reshaped, desc(pattern))


# ----- strength tags -----


def test_traffic_applications_raise_no_flags(traffic):
    assert check_strength_tags(traffic) == []


SCALE_MODEL = """
model scaling;
qc QC1 := Processing_time (File_search) :: [0, 30 (Sec.)];
qc QC2 := Processing_time (File_search) :: [0, 36 (Sec.)];
{application}
"""


def test_scale_down_to_wider_interval_passes():
    m = parsed(
        SCALE_MODEL.format(application="scale_down QC1 -> QC2 by (1, 6/5) [weaken];")
    )
    assert check_strength_tags(m) == []


def test_scale_up_to_wider_interval_is_flagged():
    # the factor fits an up-scaling, so the model validates; the audit reads
    # the declared output, which is wider than the input
    m = parsed(
        SCALE_MODEL.format(
            application="scale_up QC1 -> QC2 by (1, 5/6) [strengthen];"
        )
    )
    flags = check_strength_tags(m)
    assert len(flags) == 1
    assert flags[0].application_index == 0


ORDER_MODEL = """
model order;
{axiom}
func File_search := Search <object: File>;
qg QG1 := Processing_time (File_search) :: Fast;
qg QG2 := Processing_time (File_search) :: Slow;
scale_up QG1 -> QG2 by Slow [strengthen];
"""


def test_audit_and_apply_scale_share_the_region_ordering_rule():
    message = "no declared ordering links Fast and Slow for a up-scaling"
    unordered = parsed(ORDER_MODEL.format(axiom=""))
    flags = check_strength_tags(unordered)
    assert [(f.application_index, f.message) for f in flags] == [(0, message)]
    with pytest.raises(OperatorError, match=message):
        apply_scale(
            unordered, "QG1", ScaleFactor(region_name="Slow"), ScaleDirection.UP
        )
    ordered = parsed(ORDER_MODEL.format(axiom="axiom Slow :< Fast;"))
    assert check_strength_tags(ordered) == []
    apply_scale(ordered, "QG1", ScaleFactor(region_name="Slow"), ScaleDirection.UP)


def test_the_region_ordering_rule_reads_only_a_named_input_region():
    # validation refuses both inputs; the library rule still answers None
    model = parsed(ORDER_MODEL.format(axiom=""))
    app, by_id, shared = model.applications[0], model.by_id(), reasoner.derivation(model)
    message = "no declared ordering links Fast and Slow for a up-scaling"
    assert reasoner.scale_order_error(app, by_id, shared) == message
    assert reasoner.scale_order_error(app, {}, shared) is None
    source = by_id["QG1"]
    interval = replace(source, body=replace(source.body, region=Interval(Fraction(0), Fraction(1))))
    assert reasoner.scale_order_error(app, {**by_id, "QG1": interval}, shared) is None


OBSERVE_MODEL = """
model observing;
qc QC1 := Processing_time (File_search) :: [0, 30 (Sec.)];
qc QC3 := Processing_time (File_search) :: [0, 30 (Sec.)] <observed_by: Surveyed_user>;
observe QC1 -> QC3 by Surveyed_user [{tag}];
"""


def test_observe_strengthen_passes():
    assert check_strength_tags(parsed(OBSERVE_MODEL.format(tag="strengthen"))) == []


def test_observe_weaken_is_illegal():
    flags = check_strength_tags(parsed(OBSERVE_MODEL.format(tag="weaken")))
    assert len(flags) == 1
    assert "observe" in flags[0].message


RELAX_MODEL = """
model relaxing;
qc QC1 := Processing_time (File_search) :: [0, 30 (Sec.)];
qc QC4 := Processing_time (File_search) :: [0, 30 (Sec.)] u(?X, inheres_in, 80%);
deuniv QC1 -> QC4 u(?X, inheres_in, 80%) [{tag}];
"""


def test_deuniversalize_weaken_passes():
    assert check_strength_tags(parsed(RELAX_MODEL.format(tag="weaken"))) == []


def test_deuniversalize_strengthen_is_illegal():
    flags = check_strength_tags(parsed(RELAX_MODEL.format(tag="strengthen")))
    assert len(flags) == 1
    assert "deuniv" in flags[0].message


BOOKING_REDUCTION = """
model booking;
axiom Airline_ticket :< Ticket;
axiom Bus_ticket :< Ticket;
func F2 := Book <object: Ticket>;
func F3 := Book <object: Airline_ticket> <means: Credit_card>;
func F4 := Book <object: Bus_ticket> <means: Cash>;
reduce F2 -> F3, F4 [{tag}];
"""


def test_reduce_strengthen_with_hierarchy_passes():
    m = parsed(BOOKING_REDUCTION.format(tag="strengthen"))
    assert check_strength_tags(m) == []


def test_reduce_weaken_mutant_is_flagged():
    m = parsed(BOOKING_REDUCTION.format(tag="weaken"))
    flags = check_strength_tags(m)
    assert len(flags) == 1
    assert "weaken" in flags[0].message


def _count_work(monkeypatch):
    """Count the axiom collections, derivations built and saturations run,
    and how often the reasoner translates each element, by id."""
    work, translated = Counter(), Counter()

    def count(owner, name, key):
        real = getattr(owner, name)

        def counted(*args):
            work[key] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(reasoner, "collect_axioms", "collect_axioms")
    count(reasoner._Derivation, "__init__", "derivations")
    count(saturation._Saturator, "run", "saturations")
    real_translate = reasoner.translate_element

    def translate(element):
        translated[element.id] += 1
        return real_translate(element)

    monkeypatch.setattr(reasoner, "translate_element", translate)
    return work, translated


def test_strength_audit_translates_only_what_applications_read(monkeypatch):
    text = BOOKING_REDUCTION.format(tag="weaken") + "func F5 := Pay <object: Ticket>;\n"
    work, translated = _count_work(monkeypatch)
    assert len(check_strength_tags(parsed(text))) == 1
    assert translated == {"F2": 1, "F3": 1, "F4": 1}
    assert work["collect_axioms"] == 1

    translated.clear()
    work.clear()
    unapplied = text.replace("reduce F2 -> F3, F4 [weaken];", "")
    assert check_strength_tags(parsed(unapplied)) == []
    assert not translated and not work


def test_reduce_equate_with_one_direction_is_flagged():
    m = parsed(BOOKING_REDUCTION.format(tag="equate"))
    flags = check_strength_tags(m)
    assert len(flags) == 1
    assert "equate" in flags[0].message


FOCUS_MODEL = """
model focusing;
qg QGs := Security (The_system) :: Good;
qg QGm := Security (The_system | The_data_module) :: Good;
focus QGs -> QGm [{tag}];
"""


def test_focus_with_union_subject_passes():
    assert check_strength_tags(parsed(FOCUS_MODEL.format(tag="weaken"))) == []


def test_focus_strengthen_is_illegal():
    flags = check_strength_tags(parsed(FOCUS_MODEL.format(tag="strengthen")))
    assert len(flags) == 1
    assert "focus" in flags[0].message


def test_resolve_is_never_flagged():
    m = parsed(
        "goal A := \"keep the data locally\";\n"
        "goal B := \"store the data in the cloud\";\n"
        "conflict {A, B};\n"
        "resolve A, B -> A [strengthen];"
    )
    assert check_strength_tags(m) == []


def test_prose_bodies_stay_silent():
    m = parsed(
        "goal G := \"the system shall be nice\";\n"
        "goal Ga := \"the interface shall be nice\";\n"
        "goal Gb := \"the api shall be nice\";\n"
        "reduce G -> Ga, Gb [weaken];"
    )
    assert check_strength_tags(m) == []


# ----- one derivation per model -----

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.dsr"))


@pytest.mark.parametrize(
    "argv",
    [["check"], ["lint"], ["query", "--pattern", "<object: Ticket>"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_each_command_builds_the_reasoning_inputs_once(
    monkeypatch, capsys, fixture, argv
):
    work, translated = _count_work(monkeypatch)
    main([argv[0], str(fixture), *argv[1:]])
    capsys.readouterr()
    assert work["collect_axioms"] <= 1
    # lint's second derivation leaves out the `:< Nothing` axioms
    assert work["derivations"] <= (2 if argv[0] == "lint" else 1)
    assert work["saturations"] <= 1
    assert max(translated.values(), default=0) <= 1, translated


KEPT = """model kept;
axiom Airline_ticket :< Ticket;
axiom Ticket Refund :< Nothing;
func F1 := Book <object: Ticket>;
func F2 := Book <object: Airline_ticket>;
reduce F1 -> F2 [weaken];
world {
  individual t : Airline_ticket, Refund;
}
"""


def test_the_kept_derivation_and_verdict_are_invisible():
    model, fresh = parsed(KEPT), parsed(KEPT)
    assert len(check_strength_tags(model)) == 1
    assert check_consistency(model).status is ConsistencyStatus.INCONSISTENT
    assert query(model, desc("<object: Ticket>")) == {"F1", "F2"}
    assert lint_model(model)
    assert reasoner.derivation(model) is reasoner.derivation(model)
    assert check_consistency(model) is check_consistency(model)
    assert (model, hash(model), repr(model)) == (fresh, hash(fresh), repr(fresh))

    # an edited model is a new object, with a derivation and verdict of its own
    edited = replace(model, axioms=())
    assert reasoner.derivation(edited) is not reasoner.derivation(model)
    assert check_strength_tags(edited) == []
    assert check_consistency(edited).status is ConsistencyStatus.CONSISTENT
    assert query(edited, desc("<object: Ticket>")) == {"F1"}
    assert len(check_strength_tags(model)) == 1


@pytest.mark.parametrize("tag", ["strengthen", "weaken", "equate"])
def test_a_proof_cut_short_leaves_no_goal_open(monkeypatch, tag):
    # The derivation outlives the audit that raised, so the next audit on the
    # same model object must not read the goals the cut proof left open.
    text = BOOKING_REDUCTION.format(tag=tag)
    expected = check_strength_tags(parsed(text))
    real = reasoner._Derivation._rules
    calls = 0

    def rules(derivation, sub, sup):
        nonlocal calls
        calls += 1
        if calls == cut:
            raise RecursionError("cut short")
        return real(derivation, sub, sup)

    monkeypatch.setattr(reasoner._Derivation, "_rules", rules)
    cut = None
    check_strength_tags(parsed(text))
    cuts = calls
    assert cuts > 20
    for cut in range(1, cuts + 1):
        model, calls = parsed(text), 0
        with pytest.raises(RecursionError):
            check_strength_tags(model)
        assert check_strength_tags(model) == expected, cut


# ----- fulfillment propagation -----

BOOKING_GRAPH = """
model booking;
fg G1 := Ticket :< Booked;
func F2 := Book <object: Ticket>;
func F3 := Book <object: Airline_ticket> <means: Credit_card>;
func F4 := Book <object: Bus_ticket> <means: Cash>;
operationalize G1 -> F2 [strengthen];
reduce F2 -> F3, F4 [strengthen];
{marks}
"""


def test_full_marks_propagate_to_the_root():
    m = parsed(BOOKING_GRAPH.format(marks="fulfilled F3, F4;"))
    state = propagate_fulfillment(m)
    assert state.states["F2"] is FulfillmentStatus.FULFILLED
    assert state.states["G1"] is FulfillmentStatus.FULFILLED


def test_partial_marks_leave_unknown():
    m = parsed(BOOKING_GRAPH.format(marks="fulfilled F3;"))
    state = propagate_fulfillment(m)
    assert state.states["F3"] is FulfillmentStatus.FULFILLED
    assert state.states["F2"] is FulfillmentStatus.UNKNOWN
    assert state.states["G1"] is FulfillmentStatus.UNKNOWN


def test_marks_monotonicity():
    small = propagate_fulfillment(
        parsed(BOOKING_GRAPH.format(marks="fulfilled F3;"))
    )
    large = propagate_fulfillment(
        parsed(BOOKING_GRAPH.format(marks="fulfilled F3, F4;"))
    )
    for eid, status in small.states.items():
        if status is FulfillmentStatus.FULFILLED:
            assert large.states[eid] is FulfillmentStatus.FULFILLED


def test_alternative_applications_act_as_or():
    m = parsed(
        "func F := Book <object: Ticket>;\n"
        "func Fa := Book <object: Airline_ticket>;\n"
        "func Fb := Book <object: Bus_ticket>;\n"
        "reduce F -> Fa [strengthen];\n"
        "reduce F -> Fb [strengthen];\n"
        "fulfilled Fb;"
    )
    state = propagate_fulfillment(m)
    assert state.states["F"] is FulfillmentStatus.FULFILLED
    assert state.states["Fa"] is FulfillmentStatus.UNKNOWN


APPROX_GRAPH = """
model approx;
fg G := Service :< Provided;
func F1 := Provide <object: Service_a>;
func F2 := Provide <object: Service_b>;
func F3 := Provide <object: Service_c>;
func F4 := Provide <object: Service_d>;
operationalize G -> F1, F2, F3, F4 [strengthen];
fulfilled {marks};
"""


def test_threshold_allows_approximate_fulfillment():
    m = parsed(APPROX_GRAPH.format(marks="F1, F2, F3"))
    assert (
        propagate_fulfillment(m, threshold=3).states["G"]
        is FulfillmentStatus.FULFILLED
    )
    assert propagate_fulfillment(m).states["G"] is FulfillmentStatus.UNKNOWN
    short = parsed(APPROX_GRAPH.format(marks="F1, F2"))
    assert (
        propagate_fulfillment(short, threshold=3).states["G"]
        is FulfillmentStatus.UNKNOWN
    )


def test_unreachable_threshold_warns():
    m = parsed(APPROX_GRAPH.format(marks="F1, F2, F3, F4"))
    state = propagate_fulfillment(m, threshold=5)
    assert state.states["G"] is FulfillmentStatus.UNKNOWN
    assert any("ThresholdUnreachable" in w for w in state.warnings)
    assert state.threshold == 5


@pytest.mark.parametrize("threshold", [0, -1])
def test_a_threshold_below_one_is_refused(threshold):
    # A count of 0 successors would "suffice" for G although none is fulfilled.
    m = parsed(
        'goal G := "x"; goal A := "a"; goal B := "b";\n'
        "reduce G -> A, B [strengthen];\n"
    )
    with pytest.raises(ValueError, match=f"at least 1, not {threshold}"):
        propagate_fulfillment(m, threshold)
    assert propagate_fulfillment(m, 1).states["G"] is FulfillmentStatus.UNKNOWN


def test_domain_assumptions_start_fulfilled():
    m = parsed("da D := Fixed_sensor :< Installed;")
    assert propagate_fulfillment(m).states["D"] is FulfillmentStatus.FULFILLED


def test_resolution_dropped_elements_stay_unfulfilled():
    m = parsed(
        "goal A := \"keep the data locally\";\n"
        "goal B := \"store the data in the cloud\";\n"
        "goal C := \"encrypt the archive\";\n"
        "conflict {A, B};\n"
        "resolve A, B -> A [weaken];\n"
        "reduce B -> C [strengthen];\n"
        "fulfilled C;"
    )
    state = propagate_fulfillment(m)
    assert state.states["B"] is FulfillmentStatus.UNFULFILLED
    assert state.states["C"] is FulfillmentStatus.FULFILLED


def test_single_output_interpretation_chains():
    m = parsed(
        "fg FG1 := Data :< Stored;\n"
        "fg FG2 := Data :< Persisted;\n"
        "interpret FG1 -> FG2 [equate];\n"
        "fulfilled FG2;"
    )
    state = propagate_fulfillment(m, threshold=2)
    assert state.states["FG1"] is FulfillmentStatus.FULFILLED


def test_traffic_fulfillment_with_function_marked(traffic):
    extended = parsed(TRAFFIC + "fulfilled F5;")
    state = propagate_fulfillment(extended)
    assert state.states["DA6"] is FulfillmentStatus.FULFILLED
    assert state.states["FG4"] is FulfillmentStatus.FULFILLED
    assert state.states["G1"] is FulfillmentStatus.FULFILLED
    assert state.states["G0"] is FulfillmentStatus.UNKNOWN


def _fulfillment_by_rounds(model: Model, threshold=None) -> dict:
    """The states as a loop of rounds over every application gave them,
    the reference for the worklist."""
    dropped = model.dropped_ids()
    states = {}
    for element in model.elements:
        if element.id in dropped:
            states[element.id] = FulfillmentStatus.UNFULFILLED
        elif element.id in model.fulfilled_marks or element.kind is Kind.DA:
            states[element.id] = FulfillmentStatus.FULFILLED
        else:
            states[element.id] = FulfillmentStatus.UNKNOWN
    changed = True
    while changed:
        changed = False
        for app in model.applications:
            if app.op is Operator.RESOLVE:
                continue
            source = app.inputs[0]
            if states.get(source) is not FulfillmentStatus.UNKNOWN:
                continue
            done = sum(1 for o in app.outputs if states.get(o) is FulfillmentStatus.FULFILLED)
            need = len(app.outputs)
            if threshold is not None and app.op not in ONE_TO_ONE_OPS:
                need = threshold
            if app.outputs and done >= need:
                states[source] = FulfillmentStatus.FULFILLED
                changed = True
    return states


def _random_refinement_dag(rng) -> Model:
    """Elements E0..En, design artifacts among them, applications from each
    element to later ones (an output may repeat), resolutions that drop
    some, and marks, some on ids no element has."""
    ids = [f"E{i}" for i in range(rng.randint(2, 12))]
    kinds = (Kind.GOAL, Kind.GOAL, Kind.GOAL, Kind.DA)
    elements = tuple(Element(eid, rng.choice(kinds), NaturalLanguage(eid)) for eid in ids)
    applications = []
    for _ in range(rng.randint(0, 2 * len(ids))):
        op = rng.choice(list(Operator))
        if op is Operator.RESOLVE:
            inputs = tuple(rng.sample(ids, rng.randint(2, min(3, len(ids)))))
            outputs = inputs[: rng.randint(1, len(inputs) - 1)]
        else:
            i = rng.randrange(len(ids) - 1)
            inputs = (ids[i],)
            width = 1 if op in ONE_TO_ONE_OPS else rng.randint(1, 4)
            outputs = tuple(rng.choices(ids[i + 1 :], k=width))
        applications.append(OperatorApplication(op, inputs, outputs, Strength.STRENGTHENING))
    marks = rng.sample(ids + ["X1", "X2"], rng.randint(0, 4))
    return Model(
        elements=elements, applications=tuple(applications), fulfilled_marks=frozenset(marks)
    )


def test_worklist_fulfillment_matches_the_round_loop():
    rng = random.Random(20261020)
    fulfilled = 0
    for _ in range(600):
        model = _random_refinement_dag(rng)
        threshold = rng.choice((None, None, 1, 2, 3))
        states = propagate_fulfillment(model, threshold).states
        expected = _fulfillment_by_rounds(model, threshold)
        assert list(states.items()) == list(expected.items())
        fulfilled += list(states.values()).count(FulfillmentStatus.FULFILLED)
    assert fulfilled > 600


def test_subsumes_refuses_what_is_not_an_axiom():
    with pytest.raises(TypeError, match="not an axiom: DLAtomic"):
        subsumes(DLAtomic("A"), DLAtomic("B"), axioms=[DLAtomic("A")])


def test_subsumes_searches_to_the_default_bound(monkeypatch):
    bounds = []

    def counter_world(sub, sup, axioms, bound):
        bounds.append(bound)

    monkeypatch.setattr(saturation, "counter_world", counter_world)
    assert subsumes(DLAtomic("A"), DLAtomic("B")).status is VerdictStatus.UNKNOWN
    assert bounds == [reasoner.DEFAULT_BOUND]


def test_one_data_value_is_not_below_another():
    five, six = DLDataRange("eq", Fraction(5)), DLDataRange("eq", Fraction(6))
    assert subsumes(five, five).status is VerdictStatus.PROVEN
    assert reasoner._Derivation([]).entails(five, six) == reasoner._NO


def test_the_counter_model_search_stops_at_its_branch_cap(monkeypatch):
    # refuting A ⊑ B under A :< B | C needs a guess between B and C
    a, b, c = DLAtomic("A"), DLAtomic("B"), DLAtomic("C")
    axioms = [DLSubClassOf(a, DLOr((b, c)))]
    assert subsumes(a, b, axioms).status is VerdictStatus.REFUTED
    monkeypatch.setattr(saturation, "_BRANCHES", 1)
    assert subsumes(a, b, axioms).status is VerdictStatus.UNKNOWN
