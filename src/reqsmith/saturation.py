"""Saturating a world under axioms: the verdict `reasoner.check_consistency`
reports."""

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
        # Saturation adds memberships, never tuples, so a slot's successor
        # lists hold for every round; they are sorted, so assertions run in
        # name order whatever the hash seed.
        self.successors: dict[str, dict[str, list[str]]] = {}
        # Per round: extensions and slot counts over the round's snapshot,
        # keyed by concept. `_assert` reads only the snapshot, so they are exact.
        self.snapshot = World()
        self.memo: dict = {}

    def current(self) -> World:
        return World(
            individuals=frozenset(self.individuals),
            concept_extensions={k: frozenset(v) for k, v in self.extensions.items()},
            slot_tuples=self.tuples,
            data_values=self.data,
        )

    def run(self) -> tuple[ConsistencyStatus, Optional[World], tuple[str, ...]]:
        """The world's verdict under the axioms, its model and explanation."""
        # A round only adds memberships, of which there are finitely many, so
        # the rounds reach a fixpoint: the snapshot of a round that adds none.
        # `_assert` changes nothing on a member of the right side, so a round
        # asserts it only on the left side's members outside it. Those the
        # last round leaves are what saturation, which never guesses, could
        # not establish.
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
            # A missing disjunct or source would need a guess, and saturation
            # never guesses.
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
            if x in self._extension(c.inner):
                self._clash(ax, f" forbids {x} from {_dl_repr(c.inner)}, which it inhabits")
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
        if c.kind == "min":
            return
        count = self._count(x, c.slot, c.filler)
        if count > c.n:
            self._clash(
                ax,
                f": {x} has {count} {c.slot} fillers in "
                f"{_dl_repr(c.filler)}, more than {c.n}",
            )
