"""Bounded search for a finite world that refutes a subsumption.

`reasoner.subsumes` runs it only when the structural derivation fails to
prove its goal, and imports this module only then; no CLI command runs it.
The search builds a minimal world for the left side, then enumerates
one-individual worlds, then draws random worlds of up to `bound`
individuals, and returns the first that satisfies the axioms and puts an
individual inside the left side and outside the right side.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Optional

from .model import Quantity, World
from .semantics import (
    DLAnd,
    DLAtomic,
    DLCard,
    DLConcept,
    DLDataRange,
    DLExists,
    DLExistsInverse,
    DLForAll,
    DLNominal,
    DLNot,
    DLNothing,
    DLOr,
    DLThing,
    _eval_dl,
    _is_dataish,
)


class _Vocabulary:
    """The atoms, slots, nominals and data facets the search builds worlds from."""

    def __init__(self) -> None:
        self.atoms: set[str] = set()
        self.slots: set[str] = set()
        self.nominals: set[str] = set()
        self.data_slots: dict[str, set] = {}  # slot -> {(value, unit)}


def _facets(c: DLConcept) -> list[DLDataRange]:
    if isinstance(c, DLDataRange):
        return [c]
    if isinstance(c, (DLAnd, DLOr)):
        return [facet for a in c.args for facet in _facets(a)]
    return []


def _collect_vocabulary(concepts: Iterable[DLConcept]) -> _Vocabulary:
    vocab = _Vocabulary()

    def walk(c: DLConcept):
        if isinstance(c, DLAtomic):
            vocab.atoms.add(c.name)
        elif isinstance(c, DLNominal):
            vocab.nominals.update(c.ids)
        elif isinstance(c, (DLAnd, DLOr)):
            for a in c.args:
                walk(a)
        elif isinstance(c, DLNot):
            walk(c.inner)
        elif isinstance(c, (DLForAll, DLCard, DLExists, DLExistsInverse)):
            filler = c.filler
            if _is_dataish(filler):
                bucket = vocab.data_slots.setdefault(c.slot, set())
                for facet in _facets(filler):
                    if not isinstance(facet.value, str):
                        bucket.add((facet.value, facet.unit))
                    else:
                        bucket.add((facet.value, None))
            else:
                vocab.slots.add(c.slot)
                walk(filler)

    for concept in concepts:
        walk(concept)
    if not vocab.atoms:
        vocab.atoms.add("C0")
    return vocab


def _value_options(pairs: set) -> list:
    """Plausible data values around the facet boundaries, plus absence."""
    options: list = [None]
    for value, unit in sorted(pairs, key=str):
        if isinstance(value, str):
            options.append(value)
            continue
        for candidate in (value, value - 1, value + 1):
            options.append(Quantity(candidate, unit) if unit else candidate)
    return list(dict.fromkeys(options))[:8]


class _ModelSearch:
    def __init__(self, sub, sup, axioms, bound):
        self.sub = sub
        self.sup = sup
        self.axioms = axioms
        self.bound = bound
        self.vocab = _collect_vocabulary(
            [sub, sup] + [a.sub for a in axioms] + [a.sup for a in axioms]
        )
        self.rng = random.Random(7)

    def _axioms_hold(self, w: World) -> bool:
        return all(
            _eval_dl(ax.sub, w) <= _eval_dl(ax.sup, w) for ax in self.axioms
        )

    def _is_witness(self, w: World) -> bool:
        if not self._axioms_hold(w):
            return False
        return bool(_eval_dl(self.sub, w) - _eval_dl(self.sup, w))

    def run(self) -> Optional[World]:
        built = _construct_world(self.sub)
        if built is not None:
            if self._is_witness(built):
                return built
        for w in self._size_one_worlds():
            if self._is_witness(w):
                return w
        for size in range(2, self.bound + 1):
            for _ in range(150):
                w = self._random_world(size)
                if self._is_witness(w):
                    return w
        return None

    def _size_one_worlds(self):
        atoms = sorted(self.vocab.atoms)[:6]
        slots = sorted(self.vocab.slots)[:3]
        data_slots = sorted(self.vocab.data_slots)[:2]
        roots = ["cw0"] + sorted(self.vocab.nominals)[:3]
        atom_subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(atoms, k) for k in range(len(atoms) + 1)
            )
        )
        loop_patterns = list(itertools.product([False, True], repeat=len(slots)))
        option_lists = [
            _value_options(self.vocab.data_slots[s]) for s in data_slots
        ]
        data_patterns = list(itertools.product(*option_lists)) if option_lists else [()]
        produced = 0
        for root in roots:
            for subset in atom_subsets:
                for loops in loop_patterns:
                    for data_choice in data_patterns:
                        produced += 1
                        if produced > 4000:
                            return
                        extensions = {a: frozenset({root}) for a in subset}
                        tuples = {
                            s: frozenset({(root, root)})
                            for s, present in zip(slots, loops)
                            if present
                        }
                        data = {
                            (root, s): v
                            for s, v in zip(data_slots, data_choice)
                            if v is not None
                        }
                        yield World(
                            individuals=frozenset({root}),
                            concept_extensions=extensions,
                            slot_tuples=tuples,
                            data_values=data,
                        )

    def _random_world(self, size: int) -> World:
        rng = self.rng
        names = [f"cw{i}" for i in range(size)]
        for nominal in sorted(self.vocab.nominals):
            if rng.random() < 0.5 and len(names) < size + 2:
                names.append(nominal)
        extensions = {
            a: frozenset(n for n in names if rng.random() < 0.5)
            for a in sorted(self.vocab.atoms)[:8]
        }
        tuples = {
            s: frozenset(
                (x, y) for x in names for y in names if rng.random() < 0.3
            )
            for s in sorted(self.vocab.slots)[:4]
        }
        data = {}
        for slot, pairs in self.vocab.data_slots.items():
            options = _value_options(pairs)
            for name in names:
                pick = rng.choice(options)
                if pick is not None:
                    data[(name, slot)] = pick
        return World(
            individuals=frozenset(names),
            concept_extensions=extensions,
            slot_tuples=tuples,
            data_values=data,
        )


class _Builder:
    def __init__(self):
        self.individuals: set[str] = set()
        self.extensions: dict[str, set[str]] = {}
        self.tuples: dict[str, set[tuple[str, str]]] = {}
        self.data: dict = {}
        self.counter = 0

    def fresh(self) -> str:
        name = f"n{self.counter}"
        self.counter += 1
        self.individuals.add(name)
        return name

    def snapshot(self):
        return (
            set(self.individuals),
            {k: set(v) for k, v in self.extensions.items()},
            {k: set(v) for k, v in self.tuples.items()},
            dict(self.data),
            self.counter,
        )

    def restore(self, snap):
        self.individuals, self.extensions, self.tuples, self.data, self.counter = snap

    def world(self) -> World:
        return World(
            individuals=frozenset(self.individuals),
            concept_extensions={
                k: frozenset(v) for k, v in self.extensions.items()
            },
            slot_tuples={k: frozenset(v) for k, v in self.tuples.items()},
            data_values=dict(self.data),
        )


def _pick_value(filler: DLConcept):
    """A concrete data value satisfying the facet combination, if any."""
    if isinstance(filler, DLOr):
        for arg in filler.args:
            value = _pick_value(arg)
            if value is not None:
                return value
        return None
    facets = _facets(filler)
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    eq = None
    unit = None
    for facet in facets:
        if facet.unit:
            unit = facet.unit
        if facet.facet == "eq":
            eq = facet.value
        elif isinstance(facet.value, str):
            return None
        elif facet.facet == "min":
            lo = facet.value if lo is None else max(lo, facet.value)
        else:
            hi = facet.value if hi is None else min(hi, facet.value)
    if eq is not None:
        value = eq
    elif lo is not None:
        value = lo
    elif hi is not None:
        value = hi
    else:
        value = Fraction(0)
    if isinstance(value, Fraction) or isinstance(value, int):
        if lo is not None and value < lo:
            return None
        if hi is not None and value > hi:
            return None
    return Quantity(value, unit) if unit else value


def _construct_world(concept: DLConcept) -> Optional[World]:
    """Best-effort minimal world with one individual inside the concept."""
    builder = _Builder()
    root = builder.fresh()
    if _construct_into(builder, concept, root):
        return builder.world()
    return None


def _construct_into(builder: _Builder, c: DLConcept, node: str) -> bool:
    if isinstance(c, DLAtomic):
        builder.extensions.setdefault(c.name, set()).add(node)
        return True
    if isinstance(c, DLThing):
        return True
    if isinstance(c, (DLNothing, DLNominal, DLDataRange)):
        return False
    if isinstance(c, DLNot):
        return True  # fresh worlds leave everything out by default
    if isinstance(c, DLAnd):
        return all(_construct_into(builder, arg, node) for arg in c.args)
    if isinstance(c, DLOr):
        for arg in c.args:
            snap = builder.snapshot()
            if _construct_into(builder, arg, node):
                return True
            builder.restore(snap)
        return False
    if isinstance(c, DLForAll):
        return True
    if isinstance(c, DLExistsInverse):
        source = builder.fresh()
        builder.tuples.setdefault(c.slot, set()).add((source, node))
        return _construct_into(builder, c.filler, source)
    if isinstance(c, DLExists):
        c = DLCard(c.slot, "min", 1, c.filler)
    assert isinstance(c, DLCard)
    if c.kind == "max":
        return True
    if _is_dataish(c.filler):
        if c.n > 1:
            return False
        value = _pick_value(c.filler)
        if value is None:
            return False
        builder.data[(node, c.slot)] = value
        return True
    for _ in range(c.n):
        target = builder.fresh()
        builder.tuples.setdefault(c.slot, set()).add((node, target))
        if not _construct_into(builder, c.filler, target):
            return False
    return True
