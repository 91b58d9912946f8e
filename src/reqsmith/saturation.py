"""Saturating a world under axioms: the one world builder.

`reasoner.check_consistency` saturates the model's world and never guesses
on an individual the world lists. `counter_world` refutes a subsumption as
a tableau does (Baader & Sattler, Studia Logica 2001): it saturates a world
of individuals it makes, guessing on them one branch per pick, depth first.
"""

import copy
import itertools
from typing import Optional

from .model import Quantity, World
from .reasoner import ConsistencyStatus
from .semantics import (
    DLAnd,
    DLAtomic,
    DLCard,
    DLConcept,
    DLDataRange,
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
    _eval_dl,
    _is_dataish,
    _slot_counts,
    _value_test,
)


def _value_text(value, unit: Optional[str] = None) -> str:
    """A data value as clash texts print it: `9`, `9 Sec`, `1/3`, `y`."""
    if isinstance(value, Quantity):
        value, unit = value.value, value.unit
    return f"{value} {unit}" if unit else str(value)


def _dl_repr(c: DLConcept) -> str:
    """A normalized concept as clash texts print it."""
    if isinstance(c, DLAtomic):
        return c.name
    if isinstance(c, DLThing):
        return "Thing"
    if isinstance(c, DLNothing):
        return "Nothing"
    if isinstance(c, DLNominal):
        return "{" + ", ".join(c.ids) + "}"
    if isinstance(c, DLAnd):
        return "(" + " and ".join(_dl_repr(a) for a in c.args) + ")"
    if isinstance(c, DLOr):
        return "(" + " or ".join(_dl_repr(a) for a in c.args) + ")"
    if isinstance(c, DLNot):
        return f"not {_dl_repr(c.inner)}"
    if isinstance(c, DLForAll):
        return f"only {c.slot}.{_dl_repr(c.filler)}"
    if isinstance(c, DLExistsInverse):
        return f"some inverse({c.slot}).{_dl_repr(c.filler)}"
    if isinstance(c, DLDataRange):
        symbol = {"min": ">=", "max": "<=", "eq": "="}[c.facet]
        return f"({symbol} {_value_text(c.value, c.unit)})"
    assert isinstance(c, DLCard)
    symbol = {"min": ">=", "max": "<=", "exact": "="}[c.kind]
    return f"{symbol}{c.n} {c.slot}.{_dl_repr(c.filler)}"


def _axiom_repr(ax: DLSubClassOf) -> str:
    return f"{_dl_repr(ax.sub)} :< {_dl_repr(ax.sup)}"


# The most branches one refutation opens; past them its verdict is Unknown.
_BRANCHES = 4000


def _negate(c: DLConcept) -> DLConcept:
    """not c with the negation pushed inward, until it wraps only an atom, a
    nominal, an inverse existential or a data value range."""
    if isinstance(c, DLNot):
        return _nnf(c.inner)
    if isinstance(c, DLThing):
        return DL_NOTHING
    if isinstance(c, DLNothing):
        return DL_THING
    if isinstance(c, DLAnd):
        return DLOr(tuple(map(_negate, c.args)))
    if isinstance(c, DLOr):
        return DLAnd(tuple(map(_negate, c.args)))
    if isinstance(c, DLForAll):
        return DLCard(c.slot, "min", 1, _negate(c.filler))
    if isinstance(c, DLCard):
        filler = _nnf(c.filler)
        if c.n > 1:
            fewer = DLCard(c.slot, "max", c.n - 1, filler)
        else:
            fewer = DLForAll(c.slot, _negate(c.filler))
        more = DLCard(c.slot, "min", c.n + 1, filler)
        return {"min": fewer, "max": more}.get(c.kind) or DLOr((fewer, more))
    return DLNot(c)


def _nnf(c: DLConcept) -> DLConcept:
    """c in negation normal form."""
    if isinstance(c, DLNot):
        return _negate(c.inner)
    if isinstance(c, (DLAnd, DLOr)):
        return type(c)(tuple(map(_nnf, c.args)))
    if isinstance(c, (DLForAll, DLExistsInverse)):
        return type(c)(c.slot, _nnf(c.filler))
    if isinstance(c, DLCard):
        return DLCard(c.slot, c.kind, c.n, _nnf(c.filler))
    return c


def _vocabulary(concepts) -> tuple[list[str], dict]:
    """The nominal ids the concepts name, and per slot the data values a
    guess tries: each bound of a value range, and one below and one above
    a numeric bound."""
    ids: dict = {}
    values: dict = {}  # slot -> {value: None}, a set in walk order
    todo = [(c, None) for c in concepts]
    while todo:
        c, slot = todo.pop()
        if isinstance(c, DLNominal):
            ids.update(dict.fromkeys(c.ids))
        elif isinstance(c, DLDataRange):
            v = c.value
            near = (v,) if isinstance(v, str) else (v, v - 1, v + 1)
            options = (Quantity(n, c.unit) if c.unit else n for n in near)
            values.setdefault(slot, {}).update(dict.fromkeys(options))
        elif isinstance(c, (DLAnd, DLOr)):
            todo.extend((arg, slot) for arg in c.args)
        elif isinstance(c, DLNot):
            todo.append((c.inner, slot))
        elif isinstance(c, (DLForAll, DLCard, DLExistsInverse)):
            todo.append((c.filler, c.slot))
    return sorted(ids), {slot: list(options) for slot, options in values.items()}


class _Saturator:
    def __init__(self, world: World, axioms: tuple[DLSubClassOf, ...]):
        flat = world.materialize()
        self.individuals = set(flat.individuals)
        self.extensions = {k: set(v) for k, v in flat.concept_extensions.items()}
        self.tuples = flat.slot_tuples
        self.data = flat.data_values
        self.axioms = axioms
        self.clashes: list[str] = []
        self.changed = False
        # Slot successor lists, built on first use and sorted, so assertions
        # run in name order whatever the hash seed. Only a guess adds a tuple,
        # so without one the lists hold for every round.
        self.successors: dict[str, dict[str, list[str]]] = {}
        # Per round: extensions and slot counts over the round's snapshot,
        # keyed by concept. `_assert` reads only the snapshot, so they are exact.
        self.snapshot = World()
        self.memo: dict = {}
        # Guessing, which `counter_world` alone does, on a world of individuals
        # it made: the axiom that puts the root into the refuted pair (None
        # where saturation never guesses), this branch's pick per (individual,
        # concept), the round's first open guess, how many more individuals
        # the other axioms may add, and the `_vocabulary` guesses draw from.
        self.goal: Optional[DLSubClassOf] = None
        self.chosen: dict = {}
        self.choice: Optional[tuple] = None
        self.room = 0
        self.vocabulary: tuple[list[str], dict] = ([], {})

    def current(self) -> World:
        return World(
            individuals=frozenset(self.individuals),
            concept_extensions={k: frozenset(v) for k, v in self.extensions.items()},
            slot_tuples={k: frozenset(v) for k, v in self.tuples.items()},
            data_values=self.data,
        )

    def run(self) -> tuple[ConsistencyStatus, Optional[World], tuple[str, ...]]:
        """The world's verdict under the axioms, its model and explanation;
        Unknown with `choice` set when a guess is open."""
        # A round adds only memberships and the tuples and values of its
        # branch's picks, of which there are finitely many, so the rounds
        # reach a fixpoint: the snapshot of a round that adds none.
        # `_assert` changes nothing on a member of the right side, so a round
        # asserts it only on the left side's members outside it. Those the
        # last round leaves are what saturation could not establish without
        # a guess.
        while True:
            self.changed = False
            self.snapshot = self.current()
            self.memo = {}
            unsettled = []
            for ax in self.axioms:
                outside = self._extension(ax.sub) - self._extension(ax.sup)
                if outside:
                    unsettled.append(ax)
                for x in sorted(outside):
                    self._assert(x, ax.sup, ax)
            if self.clashes:
                return ConsistencyStatus.INCONSISTENT, None, tuple(self.clashes)
            if self.choice is not None:
                return ConsistencyStatus.UNKNOWN, None, ()
            if not self.changed:
                break
        if unsettled:
            text = f"could not establish axiom {_axiom_repr(unsettled[0])} on the world"
            return ConsistencyStatus.UNKNOWN, None, (text,)
        return ConsistencyStatus.CONSISTENT, self.snapshot, ()

    def _extension(self, c: DLConcept) -> frozenset[str]:
        ext = self.memo.get(c)
        if ext is None:
            ext = self.memo[c] = _eval_dl(c, self.snapshot)
        return ext

    def _count(self, x: str, slot: str, filler: DLConcept) -> int:
        key = (slot, filler)
        counts = self.memo.get(key)
        if counts is None:
            counts = self.memo[key] = _slot_counts(slot, filler, self.snapshot)
        return counts.get(x, (0, 0))[1]

    def _successors(self, slot: str, x: str) -> list[str]:
        index = self.successors.get(slot)
        if index is None:
            index = self.successors[slot] = {}
            for subject, target in sorted(self.tuples.get(slot, ())):
                index.setdefault(subject, []).append(target)
        return index.get(x, [])

    def _clash(self, ax: DLSubClassOf, text: str):
        message = f"axiom {_axiom_repr(ax)}{text}"
        if message not in self.clashes:
            self.clashes.append(message)

    def _assert(self, x: str, c: DLConcept, ax: DLSubClassOf):
        if isinstance(c, DLAtomic):
            members = self.extensions.setdefault(c.name, set())
            if x not in members:
                members.add(x)
                self.changed = True
            return
        if isinstance(c, DLThing):
            return
        if isinstance(c, (DLNothing, DLDataRange)):
            # a data range holds values, never individuals
            self._clash(ax, f" forces {x} into {_dl_repr(c)}")
            return
        if isinstance(c, DLAnd):
            for arg in c.args:
                self._assert(x, arg, ax)
            return
        if isinstance(c, (DLOr, DLExistsInverse)):
            # a missing disjunct or source needs a guess
            if self.goal is not None:
                self._guess(x, c, ax)
            return
        if isinstance(c, DLNominal):
            if x not in c.ids:
                self._clash(
                    ax,
                    f" forces {x} to be one of {{{', '.join(c.ids)}}}, "
                    "but distinct names denote distinct individuals",
                )
            return
        if isinstance(c, DLNot):
            inner = c.inner
            if isinstance(inner, DLExistsInverse) and self.goal is not None:
                # no source in the filler: each source is outside it
                for source, target in sorted(self.tuples.get(inner.slot, ())):
                    if target == x:
                        self._assert(source, _negate(inner.filler), ax)
            elif x in self._extension(inner):
                self._clash(ax, f" forbids {x} from {_dl_repr(inner)}, which it inhabits")
            return
        if isinstance(c, DLForAll):
            if _is_dataish(c.filler):
                value = self.data.get((x, c.slot))
                if value is not None and not _value_test(c.filler, value):
                    self._clash(
                        ax,
                        f": value {_value_text(value)} of {x}.{c.slot} falls outside "
                        f"{_dl_repr(c.filler)}",
                    )
                return
            for target in self._successors(c.slot, x):
                self._assert(target, c.filler, ax)
            return
        assert isinstance(c, DLCard)
        if c.kind != "max" and self.goal is not None:
            self._guess(x, c, ax)
        if c.kind == "min":
            return
        count = self._count(x, c.slot, c.filler)
        if count > c.n:
            self._clash(
                ax,
                f": {x} has {count} {c.slot} fillers in "
                f"{_dl_repr(c.filler)}, more than {c.n}",
            )

    def _guess(self, x: str, c: DLConcept, ax: DLSubClassOf):
        """Satisfy a disjunction, a minimum count or an inverse existential
        on x by the pick this branch made for it; with none yet, the round's
        first open guess lists what it may pick."""
        if isinstance(c, DLCard):
            if self._count(x, c.slot, c.filler) >= c.n:
                return
        elif x in self._extension(c):
            return
        pick = self.chosen.get((x, c))
        if pick is None:
            if self.choice is None:
                self.choice = ((x, c), self._picks(x, c, ax))
        elif isinstance(c, DLOr):
            self._assert(x, pick, ax)
        elif _is_dataish(c.filler):
            if (x, c.slot) not in self.data:
                self.data[(x, c.slot)] = pick
                self.changed = True
        else:
            inverse = isinstance(c, DLExistsInverse)
            for y in pick:
                self._edge(c.slot, *((y, x) if inverse else (x, y)), ax)
                self._assert(y, c.filler, ax)

    def _picks(self, x: str, c: DLConcept, ax: DLSubClassOf) -> list:
        """What a guess on c may pick for x: a disjunct, a data value, or as
        many sources or successors as it lacks. Individuals there are come
        first, then those the concepts name, then fresh ones; only the refuted
        pair's own demands make any number of them."""
        if isinstance(c, DLOr):
            return list(c.args)
        if isinstance(c, DLExistsInverse):
            need, taken = 1, set()
        elif _is_dataish(c.filler):
            if c.n > 1:
                return []
            # a value set this round is the only one x may have
            value = self.data.get((x, c.slot))
            options = self.vocabulary[1].get(c.slot, ()) if value is None else (value,)
            return [v for v in options if _value_test(c.filler, v)]
        else:
            # count the successors x has now: a pick this round may add some
            taken = set(self._successors(c.slot, x)) & self._extension(c.filler)
            need = max(c.n - len(taken), 0)
        pool = [y for y in sorted(self.individuals) if y not in taken]
        pool += [y for y in self.vocabulary[0] if y not in self.individuals]
        limit = float("inf") if ax is self.goal else self.room
        picks = (
            reused + tuple(self._fresh(made))
            for made in range(need + 1)
            for reused in itertools.combinations(pool, need - made)
            if made + sum(y not in self.individuals for y in reused) <= limit
        )
        return list(itertools.islice(picks, _BRANCHES))

    def _fresh(self, count: int) -> list[str]:
        names = (f"n{i}" for i in itertools.count())
        unused = (name for name in names if name not in self.individuals)
        return list(itertools.islice(unused, count))

    def _edge(self, slot: str, source: str, target: str, ax: DLSubClassOf):
        for name in (source, target):
            if name not in self.individuals:
                self.individuals.add(name)
                self.room -= ax is not self.goal
        pairs = self.tuples.setdefault(slot, set())
        if (source, target) not in pairs:
            pairs.add((source, target))
            self.successors.pop(slot, None)
            self.changed = True

    def _branch(self, key: tuple, pick) -> "_Saturator":
        """A copy of this state that picks `pick` for the guess `key`."""
        child = copy.copy(self)
        child.individuals = set(self.individuals)
        child.extensions = {k: set(v) for k, v in self.extensions.items()}
        child.tuples = {k: set(v) for k, v in self.tuples.items()}
        child.data = dict(self.data)
        child.clashes = []
        child.successors = {}
        child.chosen = {**self.chosen, key: pick}
        child.choice = None
        return child


def counter_world(
    sub: DLConcept, sup: DLConcept, axioms: list[DLSubClassOf], bound: int
) -> Optional[World]:
    """A world where every axiom holds and an individual lies in sub but not
    in sup, or None if none turns up within `_BRANCHES` branches.

    The root is a fresh individual, then each nominal id of the pair and
    the axioms in turn. Each axiom is met by its right side or, failing
    that, by the complement of its left side. The world holds what sub and
    not sup ask for, whatever its size, and at most `bound` more
    individuals that the other axioms ask for.
    """
    concept = _nnf(DLAnd((sub, _negate(sup))))
    built = tuple(
        DLSubClassOf(ax.sub, DLOr((_nnf(ax.sup), _negate(ax.sub)))) for ax in axioms
    )
    vocabulary = _vocabulary([concept, *(c for ax in built for c in (ax.sub, ax.sup))])
    branches = 0
    for root in ["n0", *vocabulary[0]]:
        goal = DLSubClassOf(DLNominal((root,)), concept)
        seed = _Saturator(World(), (goal, *built))
        seed.individuals.add(root)
        seed.goal, seed.room, seed.vocabulary = goal, bound, vocabulary
        stack = [seed]
        while stack:
            state = stack.pop()
            status, world, _ = state.run()
            if status is ConsistencyStatus.CONSISTENT:
                # the saturated world is checked once more by evaluation alone
                holds = all(
                    _eval_dl(ax.sub, world) <= _eval_dl(ax.sup, world) for ax in axioms
                )
                if holds and root in _eval_dl(sub, world) - _eval_dl(sup, world):
                    return world
            elif status is ConsistencyStatus.UNKNOWN and state.choice is not None:
                key, picks = state.choice
                branches += len(picks)
                if branches > _BRANCHES:
                    return None
                stack.extend(state._branch(key, pick) for pick in reversed(picks))
    return None
