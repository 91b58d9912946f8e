"""Differential tests of the structural derivation.

A verdict must not depend on the order of the axioms or on the goals a
derivation answered before, and it must equal the least fixpoint of the
derivation rules, computed here by plain round-robin iteration. The atoms
and axioms a concept reaches must equal a Horn closure computed another
way.
"""

import random
from collections import Counter

from reqsmith import reasoner
from reqsmith.reasoner import (
    _VIA_AXIOM,
    _Derivation,
    _as_dl_axiom,
    _needs,
    _norm,
    _told,
)
from reqsmith.semantics import (
    DLAnd,
    DLAtomic,
    DLCard,
    DLExists,
    DLExistsInverse,
    DLForAll,
    DLNot,
    DLNothing,
    DLOr,
    DLSubClassOf,
    DL_NOTHING,
    DL_THING,
)


def _concept(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return DLAtomic(rng.choice("ABCD"))
    if roll < 0.5:
        return DLAnd((_concept(rng, depth - 1), _concept(rng, depth - 1)))
    if roll < 0.6:
        return DLOr((_concept(rng, depth - 1), _concept(rng, depth - 1)))
    if roll < 0.68:
        return DLNot(_concept(rng, depth - 1))
    slot = rng.choice("rs")
    filler = _concept(rng, depth - 1)
    if roll < 0.8:
        return DLExists(slot, filler)
    if roll < 0.88:
        return DLForAll(slot, filler)
    kind = rng.choice(("min", "max", "exact"))
    return DLCard(slot, kind, rng.randint(1, 2), filler)


def _case(seed):
    rng = random.Random(seed)
    axioms = [
        _as_dl_axiom(DLSubClassOf(_concept(rng, 2), _concept(rng, 2)))
        for _ in range(rng.randint(2, 6))
    ]
    goals = [(_norm(_concept(rng, 2)), _norm(_concept(rng, 2))) for _ in range(8)]
    return axioms, goals


class _RoundRobin(_Derivation):
    """The same rules, evaluated by iterating every goal seen so far until
    no value changes: the least fixpoint, with no stack, memo or axiom
    index."""

    def __init__(self, axioms):
        super().__init__(axioms)
        self.table = {}

    def entails(self, sub, sup):
        return self.table.setdefault((sub, sup), 0)

    def _reach(self, sub):
        return None, self.axioms

    def solve(self, goal):
        self.table[goal] = 0
        while True:
            seen = len(self.table)
            changed = False
            for g in list(self.table):
                value = self._rules(*g)
                if value != self.table[g]:
                    self.table[g] = value
                    changed = True
            if not changed and len(self.table) == seen:
                return self.table[goal]


def test_verdicts_ignore_axiom_order_and_memo_state():
    proven = 0
    for seed in range(150):
        axioms, goals = _case(seed)
        shuffled = list(axioms)
        random.Random(seed).shuffle(shuffled)
        fresh = [_Derivation(axioms).entails(*g) for g in goals]
        shared = _Derivation(axioms)
        backwards = _Derivation(shuffled)
        assert [shared.entails(*g) for g in goals] == fresh, seed
        assert [backwards.entails(*g) for g in reversed(goals)] == fresh[::-1], seed
        proven += sum(1 for value in fresh if value)
    assert proven >= 60


def test_verdicts_are_the_least_fixpoint_of_the_rules():
    for seed in range(40):
        axioms, goals = _case(seed)
        derivation = _Derivation(axioms)
        for goal in goals:
            assert derivation.entails(*goal) == _RoundRobin(axioms).solve(goal), (
                seed,
                goal,
            )


def test_a_term_under_a_disjoint_group_is_exactly_an_empty_term():
    # Lint asks one `term :< Nothing` goal instead of trying every disjoint
    # group: a term is under some group exactly when it is empty, and an
    # empty term is under every group.
    empty = 0
    for seed in range(1500):
        axioms, _ = _case(seed)
        rng = random.Random(-seed)
        groups = [
            sorted(rng.sample("ABCD", rng.randint(2, 3)))
            for _ in range(rng.randint(1, 2))
        ]
        disjoint = [
            DLSubClassOf(DLAnd(tuple(map(DLAtomic, g))), DL_NOTHING) for g in groups
        ]
        if rng.random() < 0.3:
            disjoint.append(DLSubClassOf(DLAtomic(rng.choice("ABCD")), DL_NOTHING))
        derivation = _Derivation(axioms + [_as_dl_axiom(ax) for ax in disjoint])
        for term in map(DLAtomic, "ABCD"):
            under = [
                all(derivation.proves(term, DLAtomic(a)) for a in g) for g in groups
            ]
            proven = derivation.proves(term, DL_NOTHING)
            assert any(under) == all(under) == proven, (seed, term)
            empty += proven
    assert empty >= 300


def test_an_earlier_goal_cannot_hide_a_proof():
    # D :< not D empties D, so D :< C holds through the second axiom. Asking
    # the first goal below used to table D :< C as unprovable while it was
    # cut short by a goal on the stack, and a shared derivation then lost it.
    c, d = DLAtomic("C"), DLAtomic("D")
    axioms = [
        _as_dl_axiom(DLSubClassOf(d, DLNot(d))),
        _as_dl_axiom(DLSubClassOf(DLOr((DLAnd((c, d)), DLNot(d))), c)),
    ]
    earlier = (
        _norm(DLNot(DLForAll("r", c))),
        _norm(DLExists("s", DLExists("s", d))),
    )
    shared = _Derivation(axioms)
    shared.entails(*earlier)
    assert shared.entails(d, c) == _Derivation(axioms).entails(d, c) == _VIA_AXIOM


def test_a_proof_found_under_an_assumption_keeps_nothing_derived_from_it():
    # D :< B is proven while D :< (B and D) is still open below it; that
    # open result must not outlive the frame, or D :< only s.(B or C),
    # which needs D :< (B and D), is lost
    a, b, c, d = (DLAtomic(n) for n in "ABCD")
    axioms = [
        _as_dl_axiom(DLSubClassOf(sub, sup))
        for sub, sup in (
            (a, c),
            (c, DLAnd((b, d))),
            (b, DLExists("s", d)),
            (DLOr((a, d)), DLAnd((a, c, DLNot(a)))),
            (DLExists("s", DLAnd((b, d))), DLForAll("s", d)),
        )
    ]
    goal = (d, _norm(DLForAll("s", DLOr((b, c)))))
    shared = _Derivation(axioms)
    assert shared.entails(d, b) == _VIA_AXIOM
    assert shared.entails(*goal) == _Derivation(axioms).entails(*goal) == _VIA_AXIOM


def test_disjointness_axioms_keep_the_least_fixpoint():
    # An axiom such as A B :< Nothing fires for a goal only once the goal
    # reaches both atoms, so it no longer switches off the atom check for
    # every goal; the values must stay those of the rules without any check.
    nothing = DLNothing()
    proven = 0
    for seed in range(60):
        axioms, goals = _case(seed)
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 2)):
            names = rng.sample("ABCD", rng.randint(2, 3))
            group = DLAnd(tuple(DLAtomic(n) for n in names))
            axioms.append(_as_dl_axiom(DLSubClassOf(group, nothing)))
        derivation = _Derivation(axioms)
        for goal in goals + [(DLAtomic(a), DLAtomic(b)) for a in "AB" for b in "CD"]:
            value = derivation.entails(*goal)
            assert value == _RoundRobin(axioms).solve(goal), (seed, goal)
            proven += bool(value)
    assert proven >= 40


def _two_pass_reach(axioms, sub):
    """The atoms and fired axioms of `_Derivation._reach`, by a second
    route: close the told atoms depth first over the axioms an atom heads,
    then sweep every other axiom in rounds until nothing is added."""
    headed, unheaded = {}, []
    for ax in axioms:
        if isinstance(ax.sub, DLAtomic):
            headed.setdefault(ax.sub.name, []).append(ax)
        else:
            unheaded.append((_needs(ax.sub), ax))
    reached = {}

    def close(names):
        todo = [name for name in names if name not in reached]
        reached.update(dict.fromkeys(todo))
        while todo:
            for ax in headed.get(todo.pop(), ()):
                for name in _told(ax.sup):
                    if name not in reached:
                        reached[name] = None
                        todo.append(name)

    close(_told(sub))
    size = None
    while size != len(reached):
        size = len(reached)
        for needs, ax in unheaded:
            if reached.keys() >= needs:
                close(_told(ax.sup))
    fired = [ax for name in reached for ax in headed.get(name, ())]
    fired += [ax for needs, ax in unheaded if reached.keys() >= needs]
    return (None if None in reached else set(reached)), fired


def test_reach_is_the_horn_closure_of_the_axioms():
    atoms = list(map(DLAtomic, "ABCD"))
    closed = nothing_reached = 0
    for seed in range(1500):
        axioms, goals = _case(seed)
        rng = random.Random(~seed)
        for _ in range(rng.randint(1, 4)):
            roll = rng.randrange(4)
            if roll == 0:  # a conjunctive left side
                sub, sup = DLAnd(tuple(rng.sample(atoms, 2))), rng.choice(atoms)
            elif roll == 1:  # a | right side
                sub, sup = rng.choice(atoms), DLOr(tuple(rng.sample(atoms, 2)))
            elif roll == 2:
                sub, sup = DLAnd(tuple(rng.sample(atoms, rng.randint(2, 3)))), DL_NOTHING
            else:
                sub, sup = rng.choice(atoms), DL_NOTHING
            axioms.append(_as_dl_axiom(DLSubClassOf(sub, sup)))
        rng.shuffle(axioms)
        derivation = _Derivation(axioms)
        subs = atoms + [ax.sub for ax in axioms] + [c for goal in goals for c in goal]
        for sub in subs:
            reached, fired = derivation._reach(sub)
            expected, expected_fired = _two_pass_reach(axioms, sub)
            assert (None if reached is None else set(reached)) == expected, (seed, sub)
            assert Counter(fired) == Counter(expected_fired), (seed, sub)
            closed += expected is not None and len(expected) > 1
            nothing_reached += expected is None
    assert closed >= 5000 and nothing_reached >= 5000


def _ring(n):
    # each Ai has an r-successor in A(i+1), and anything with an r-successor
    # in Ai is itself an Ai: every goal between two atoms reads the others
    atoms = [DLAtomic(f"A{i}") for i in range(n)]
    axioms = [DLSubClassOf(a, DLExists("r", atoms[(i + 1) % n])) for i, a in enumerate(atoms)]
    axioms += [DLSubClassOf(DLExists("r", a), a) for a in atoms]
    return [_as_dl_axiom(ax) for ax in axioms], [(a, b) for a in atoms for b in atoms]


def _dense(seed, n=8):
    rng = random.Random(seed)
    atom = lambda: DLAtomic(f"A{rng.randrange(n)}")
    axioms = [DLSubClassOf(atom(), DLOr((atom(), atom()))) for _ in range(26)]
    axioms += [DLSubClassOf(DLAnd((atom(), atom())), atom()) for _ in range(13)]
    atoms = [DLAtomic(f"A{i}") for i in range(n)]
    return [_as_dl_axiom(ax) for ax in axioms], [(a, b) for a in atoms for b in atoms]


def _assert_components_settle(axioms, goals):
    """Every goal asked on one shared derivation, forward and in reverse,
    gets its least-fixpoint value; one reference serves all the goals."""
    reference = _RoundRobin(axioms)
    expected = [reference.solve(goal) for goal in goals]
    forward = _Derivation(axioms)
    assert [forward.entails(*goal) for goal in goals] == expected
    backward = _Derivation(axioms)
    assert [backward.entails(*goal) for goal in reversed(goals)] == expected[::-1]
    return expected


def test_a_ring_settles_as_one_component():
    axioms, goals = _ring(6)
    expected = _assert_components_settle(axioms, goals)
    assert all(value == _VIA_AXIOM for (a, b), value in zip(goals, expected) if a != b)


def test_dense_axiom_sets_keep_the_least_fixpoint():
    proven = 0
    for seed in range(3):
        axioms, goals = _dense(seed)
        expected = _assert_components_settle(axioms, goals)
        proven += sum(1 for (a, b), value in zip(goals, expected) if value and a != b)
    assert proven >= 60


def test_proves_normalizes_each_concept_once(monkeypatch):
    normalized = []

    def counting_norm(c):
        normalized.append(c)
        return _norm(c)

    a, b = DLAtomic("A"), DLExists("r", DLAtomic("B"))
    axioms = [DLSubClassOf(a, _norm(b))]
    derivation = _Derivation(axioms)
    monkeypatch.setattr(reasoner, "_norm", counting_norm)
    verdicts = [derivation.proves(a, b), derivation.proves(b, a), derivation.proves(a, b)]
    assert verdicts == [True, False, True]
    assert normalized.count(a) == 1 and normalized.count(b) == 1


def test_norm_folds_complement_pairs_and_inverses_of_nothing():
    a, b, c = DLAtomic("A"), DLAtomic("B"), DLAtomic("C")
    assert _norm(DLAnd((a, DLNot(a)))) == DL_NOTHING
    assert _norm(DLOr((DLNot(a), a))) == DL_THING
    # the complement of an and beside all of its arguments, as A & B - (A & B)
    assert _norm(DLAnd((DLAnd((a, b)), DLNot(DLAnd((b, a)))))) == DL_NOTHING
    assert _norm(DLOr((a, b, DLNot(DLOr((b, a)))))) == DL_THING
    assert _norm(DLExistsInverse("r", DLAnd((c, DLNothing())))) == DL_NOTHING
    # a complement whose concept is only partly present stays
    partial = DLAnd((a, DLNot(DLAnd((a, b)))))
    assert _norm(partial) == partial
    assert _norm(DLOr((a, DLNot(DLOr((a, b)))))) == DLOr((a, DLNot(DLOr((a, b)))))
