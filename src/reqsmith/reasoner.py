"""Decision procedures over the logic fragment.

A sound structural derivation proves subsumptions; when it fails,
`subsumes` builds a finite counter-world by saturation (module
`saturation`, loaded only then), with Unknown as the honest fallback.
Beside them sit model-level services: consistency checking by the same
saturation (loaded when a check runs), interrelation queries and strength
tag auditing for operator applications (both read only proofs).
Fulfillment propagation lives in `fulfillment` and is re-exported here.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .fulfillment import FulfillmentState, FulfillmentStatus, propagate_fulfillment
from .model import (
    Description,
    FunctionDesc,
    Kind,
    Model,
    NamedRegion,
    NaturalLanguage,
    Operator,
    QualityStatement,
    ScaleArgs,
    ScaleDirection,
    Strength,
    Subsumption,
    World,
    _record,
    fold,
    mentions,
    replace,
    strength_error,
)
from .semantics import (
    CONNECTIVES,
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
    DLSubClassOf,
    DLThing,
    DL_NOTHING,
    DL_THING,
    DL_CHILDREN,
    eval_description,
    translate_description,
    translate_element,
)

DEFAULT_BOUND = 4


# ===== PART 1: normal form for the logic fragment =====


def _dl_key(c: DLConcept):
    """The key by which `_norm` orders and dedupes and/or arguments."""
    return fold(c, _key_step, DL_CHILDREN)


def _key_step(c: DLConcept, kids):
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
        return ("not", kids[0])
    if isinstance(c, DLAnd):
        return ("and", tuple(kids))
    if isinstance(c, DLOr):
        return ("or", tuple(kids))
    if isinstance(c, DLForAll):
        return ("all", c.slot, kids[0])
    if isinstance(c, DLExistsInverse):
        return ("inv", c.slot, kids[0])
    assert isinstance(c, DLCard)
    return ("card", c.slot, c.kind, c.n, kids[0])


def _run(c: DLConcept) -> list:
    """The arguments of the whole run of nested ands below an and, spliced in
    order, or of nested ors below an or: the children `_norm` reads."""
    args, todo = [], list(reversed(c.args))
    while todo:
        arg = todo.pop()
        if arg.__class__ is c.__class__:
            todo += reversed(arg.args)
        else:
            args.append(arg)
    return args


_RUNS = {**DL_CHILDREN, DLAnd: _run, DLOr: _run}


def _norm(c: DLConcept) -> DLConcept:
    """Flatten, dedupe, and order boolean structure; fold constants and
    complement pairs; turn bare existentials into min-1 cardinalities so
    rules need one shape. Lint's duplicate check compares the result."""
    return fold(c, _norm_step, _RUNS)


def _norm_step(c: DLConcept, kids) -> DLConcept:
    if isinstance(c, DLExists):
        return DLCard(c.slot, "min", 1, kids[0])
    if isinstance(c, DLExistsInverse) and isinstance(kids[0], DLNothing):
        return DL_NOTHING
    if isinstance(c, (DLCard, DLForAll, DLExistsInverse)):
        return c if kids[0] is c.filler else replace(c, filler=kids[0])
    if isinstance(c, DLNot):
        inner = kids[0]
        if isinstance(inner, DLNot):
            return inner.inner
        if isinstance(inner, DLThing):
            return DL_NOTHING
        if isinstance(inner, DLNothing):
            return DL_THING
        return DLNot(inner)
    if isinstance(c, (DLAnd, DLOr)):
        # the run's arguments came spliced, but a normalized argument, such
        # as a double negation, may still be of the same connective
        flat: list[DLConcept] = []
        for normed in kids:
            if isinstance(normed, type(c)):
                flat.extend(normed.args)
            else:
                flat.append(normed)
        # Thing is an and's unit and Nothing its zero; an or's are the reverse
        unit, zero = (DL_THING, DL_NOTHING) if isinstance(c, DLAnd) else (DL_NOTHING, DL_THING)
        flat = [a for a in flat if a != unit]
        if zero in flat:
            return zero
        if not flat:
            return unit
        # an argument beside its complement, or beside every argument of it
        # when it is of the same connective, empties an and and fills an or
        negated = [a.inner for a in flat if isinstance(a, DLNot)]
        if negated:
            present = set(flat)
            for inner in negated:
                if inner in present or (
                    isinstance(inner, type(c)) and present.issuperset(inner.args)
                ):
                    return zero
        unique: dict = {}
        for arg in flat:
            unique.setdefault(_dl_key(arg), arg)
        ordered = tuple(unique[k] for k in sorted(unique))
        return ordered[0] if len(ordered) == 1 else type(c)(ordered)
    return c


def _as_dl_axiom(axiom) -> DLSubClassOf:
    if isinstance(axiom, DLSubClassOf):
        return DLSubClassOf(_norm(axiom.sub), _norm(axiom.sup))
    if isinstance(axiom, Subsumption):
        return DLSubClassOf(
            _norm(translate_description(axiom.subsumee)),
            _norm(translate_description(axiom.subsumer)),
        )
    raise TypeError(f"not an axiom: {axiom!r}")


def collect_axioms(model: Model) -> list[DLSubClassOf]:
    """Model-level axioms plus those carried by subsumption-bodied elements
    that no resolution dropped: every command reasons from this one set."""
    axioms = [_as_dl_axiom(a) for a in model.axioms]
    dropped = model.dropped_ids()
    for element in model.elements:
        if isinstance(element.body, Subsumption) and element.id not in dropped:
            axioms.append(_as_dl_axiom(element.body))
    return list(dict.fromkeys(axioms))


# ===== PART 2: structural derivation =====

_NO = 0
_PURE = 1
_VIA_AXIOM = 2


def _told(c: DLConcept) -> list:
    """Names of the atoms at the top of c, through and/or; None marks Nothing."""
    return fold(c, _told_step, CONNECTIVES)


def _told_step(c: DLConcept, kids) -> list:
    if isinstance(c, (DLAnd, DLOr)):
        return [name for names in kids for name in names]
    if isinstance(c, DLAtomic):
        return [c.name]
    if isinstance(c, DLNothing):
        return [None]
    return []


def _needs(c: DLConcept) -> frozenset:
    """Atoms every concept provably below c must reach: those of an and,
    those every argument of an or needs, none for any other shape."""
    return fold(c, _needs_step, CONNECTIVES)


def _needs_step(c: DLConcept, kids) -> frozenset:
    if isinstance(c, DLAtomic):
        return frozenset((c.name,))
    if isinstance(c, DLAnd):
        return frozenset().union(*kids)
    if isinstance(c, DLOr):
        return frozenset.intersection(*kids)
    return frozenset()


class _Lazy:
    """The items of a generator, each made once, when first read; the
    sequence can be read again, also while another read is under way."""

    __slots__ = ("items", "more")

    def __init__(self, more) -> None:
        self.items, self.more = [], more

    def __iter__(self):
        items, index = self.items, 0
        while True:
            if index == len(items):
                item = next(self.more, None)
                if item is None:
                    return
                items.append(item)
            yield items[index]
            index += 1


class _Derivation:
    """Structural derivation of sub ⊑ sup under one list of axioms.

    A goal's value is the least fixpoint of the rules over _NO < _PURE <
    _VIA_AXIOM, so it depends neither on the order of the axioms nor on the
    goals asked before, and one derivation can serve many queries. Goals
    are tabled (Chen & Warren, JACM 1996) and settled by strongly connected
    component, as Tarjan (SIAM J. Comput. 1972) finds them, in one loop
    over a list of frames, not on Python's stack. A goal's rules are a
    generator that yields each goal it reads and is sent back its value; a
    goal they decide without reading one is tabled with no frame. An open
    goal read again answers its value so far, lowers its reader's `low` to
    its stack place and notes the value it was read at. A goal whose rules
    read nothing open below it leads a component, every goal above it on
    the stack. The component settles when each goal read while open ended
    the pass at the value it was read at; otherwise the leader runs again
    from this pass's values, which stay below the fixpoint.
    """

    def __init__(self, axioms: list[DLSubClassOf]):
        self.axioms = axioms
        self.watch: Optional[dict[str, list]] = None  # built by the first `_reach`
        self.reached: dict = {}  # sub -> what _reach found
        # goal -> final value, or [stack place, value this pass, value it was
        # first read at while open, or None] for a goal of an open component;
        # a place of None marks a goal taken off the stack when its component
        # ran again, and its value is where its next run starts
        self.table: dict = {}
        self.stack: list = []  # (goal, table entry) of each open goal, by place
        self.normal: dict = {}  # concept -> its _norm, for `proves`

    def proves(self, sub: DLConcept, sup: DLConcept) -> bool:
        try:
            return bool(self.entails(self._normal(sub), self._normal(sup)))
        except BaseException:
            # a derivation outlives one proof, so it drops the goals left open
            self.__init__(self.axioms)
            raise

    def _normal(self, c: DLConcept) -> DLConcept:
        normal = self.normal.get(c)
        if normal is None:
            normal = self.normal[c] = _norm(c)
        return normal

    def entails(self, sub: DLConcept, sup: DLConcept) -> int:
        table, stack = self.table, self.stack
        frames: list = []  # [goal, table entry, its running rules, low]
        read = (sub, sup)
        while True:
            # answer `read`, the goal the running rules asked for, or start it
            entry = table.get(read)
            if entry.__class__ is int:
                value = entry
            elif entry is None or entry[0] is None:
                rules = self._rules(*read)
                if rules.__class__ is int:
                    table[read] = value = rules
                else:
                    place = len(stack)
                    entry = table[read] = [place, entry[1] if entry else _NO, None]
                    stack.append((read, entry))
                    frames.append([read, entry, rules, place])
                    value = None
            else:
                frames[-1][3] = min(frames[-1][3], entry[0])
                if entry[2] is None:
                    entry[2] = entry[1]
                value = entry[1]
            # run the top frame until its rules read a goal; a frame whose
            # rules return settles or hands its value to the frame below
            while frames:
                frame = frames[-1]
                try:
                    read = frame[2].send(value)
                    break
                except StopIteration as done:
                    value = done.value
                goal, entry, _, low = frame
                entry[1] = value
                place = entry[0]
                if low == place:
                    component = stack[place:]
                    if any(e[2] is not None and e[2] != e[1] for _, e in component):
                        # the goals above the leader keep this pass's value
                        # as a warm start, and the leader runs again
                        del stack[place + 1 :]
                        for _, e in component[1:]:
                            e[0] = None
                        entry[2] = None
                        frame[2], value = self._rules(*goal), None
                        continue
                    del stack[place:]
                    for g, e in component:
                        table[g] = e[1]
                frames.pop()
                if low < place:
                    frames[-1][3] = min(frames[-1][3], low)
            else:
                return value

    def _reach(self, sub: DLConcept) -> tuple:
        """The atoms sub may be below, and the axioms it may fire.

        sub ⊑ A for an atom A needs A among the told names of sub closed
        under every axiom whose left side needs only names reached so far:
        propositional Horn closure (Dowling & Gallier, J. Logic Programming
        1984). The atoms are a set of bits, one bit per atom (see `_index`):
        the closures of the told names, joined with those of the axioms
        that need several atoms until none adds more. A reached Nothing may
        put sub below every atom, so the atoms are then None; the axiom
        that reached Nothing is among those returned, and if sub is below
        Nothing that axiom alone proves each goal of sub. The axioms are
        made as they are read, by `_fire`.
        """
        found = self.reached.get(sub)
        if found is None:
            if self.watch is None:
                self._index()
            told = _told(sub)
            atoms = self.base | self._atoms(told)
            grew = True
            while grew:
                grew = False
                for needs, adds in self.joins:
                    if atoms & needs == needs and atoms | adds != atoms:
                        atoms |= adds
                        grew = True
            found = (None if atoms & 1 else atoms, _Lazy(self._fire(told + self.free_names)))
            self.reached[sub] = found
        return found

    def _fire(self, todo: list):
        """Yield the axioms that the names in todo fire, by one worklist. They
        fire breadth first from the atoms of sub itself, as their left
        premise mostly holds outright; that keeps chains of atoms shallow."""
        reached: dict = {}
        for name in todo:  # the list grows as axioms fire
            if name in reached:
                continue
            reached[name] = None
            # an axiom fires when the last atom it needs is reached
            for needs, names, ax in self.watch.get(name, ()):
                if reached.keys() >= needs:
                    todo.extend(names)
                    yield ax
        yield from self.free

    def _bit(self, name) -> int:
        bit = self.bits.get(name)
        if bit is None:
            bit = self.bits[name] = 1 << len(self.bits)
        return bit

    def _atoms(self, names) -> int:
        """The atoms that names reach through axioms that need one atom."""
        atoms = 0
        for name in names:
            atoms |= self.closed.get(name) or self._bit(name)
        return atoms

    def _index(self):
        # atom -> (atoms the left side needs, told names of the right side,
        # axiom) for each axiom whose left side needs that atom
        self.watch = {}
        self.free: list = []  # the axioms whose left side needs no atom
        self.free_names: list = []  # the told names of their right sides
        self.bits = {None: 1}  # atom -> its bit in a set of atoms; Nothing's is 1
        edges: dict = {}  # atom -> the told names of the axioms it alone fires
        joins = []  # (needs, names) of the axioms that need several atoms
        for ax in self.axioms:
            needs, names = _needs(ax.sub), _told(ax.sup)
            for name in needs:
                self.watch.setdefault(name, []).append((needs, names, ax))
            if not needs:
                self.free.append(ax)
                self.free_names.extend(names)
            elif len(needs) == 1:
                edges.setdefault(*needs, []).extend(names)
            else:
                joins.append((needs, names))
        # closed[a], the atoms a reaches by axioms that need one atom, is the
        # least fixpoint of closed[a] = a | closed[b] over the edges a -> b.
        # Atoms visited after their successors, depth first, settle a graph
        # without cycles in one pass, and one pass more finds nothing grows.
        # (Nuutila, "Efficient Transitive Closure Computation in Large
        # Digraphs", 1995, would condense each cycle first.)
        self.closed = closed = {atom: self._bit(atom) for atom in edges}
        order, visited = [], set()
        for root in edges:
            if root in visited:
                continue
            visited.add(root)
            stack = [(root, iter(edges[root]))]
            while stack:
                atom, successors = stack[-1]
                for name in successors:
                    if name in edges and name not in visited:
                        visited.add(name)
                        stack.append((name, iter(edges[name])))
                        break
                else:
                    stack.pop()
                    order.append(atom)
        grew = True
        while grew:
            grew = False
            for atom in order:
                atoms = closed[atom] | self._atoms(edges[atom])
                if atoms != closed[atom]:
                    closed[atom] = atoms
                    grew = True
        self.base = self._atoms(self.free_names)
        # the bits of distinct atoms are distinct, so their sum is their union
        self.joins = [(sum(map(self._bit, needs)), self._atoms(names)) for needs, names in joins]

    def _all(self, pairs):
        best = _PURE
        for pair in pairs:
            r = yield pair
            if not r:
                return _NO
            best = max(best, r)
        return best

    def _any(self, pairs):
        # the best value, not the first: with the first, proving one more
        # pair could lower the value, and the rules would lose their least
        # fixpoint
        best = _NO
        for pair in pairs:
            best = max(best, (yield pair))
            if best == _VIA_AXIOM:
                break
        return best

    def _rules(self, sub: DLConcept, sup: DLConcept):
        """The value of sub ⊑ sup when the rules decide it without reading a
        goal, or else the generator `_read_rules`."""
        if sub == sup:
            return _PURE
        if isinstance(sup, DLThing) or isinstance(sub, DLNothing):
            return _PURE
        if isinstance(sup, (DLAtomic, DLNothing)):
            # sub ⊑ A needs A among the atoms sub reaches, and sub ⊑ Nothing
            # needs Nothing among them, when the atoms are not None
            atoms = self._reach(sub)[0]
            if atoms is not None and (
                isinstance(sup, DLNothing) or not atoms & self.bits.get(sup.name, 0)
            ):
                return _NO
        return self._read_rules(sub, sup)

    def _read_rules(self, sub: DLConcept, sup: DLConcept):
        """The rules for sub ⊑ sup: yield each goal they read, take its value
        back, and return the value of sub ⊑ sup."""
        if isinstance(sub, DLOr):
            return (yield from self._all((arg, sup) for arg in sub.args))
        if isinstance(sup, DLAnd):
            return (yield from self._all((sub, arg) for arg in sup.args))
        if isinstance(sub, DLAnd):
            r = yield from self._any((arg, sup) for arg in sub.args)
            if r:
                return r
        if isinstance(sup, DLOr):
            r = yield from self._any((sub, arg) for arg in sup.args)
            if r:
                return r
        r = yield from self._pair_rule(sub, sup)
        if r:
            return r
        for ax in self._reach(sub)[1]:
            if (yield sub, ax.sub) and (yield ax.sup, sup):
                return _VIA_AXIOM
        return _NO

    def _pair_rule(self, sub: DLConcept, sup: DLConcept):
        if isinstance(sub, DLCard) and isinstance(sup, DLCard):
            if sub.slot != sup.slot:
                return _NO
            if sup.kind == "min" and sub.kind in ("min", "exact"):
                if sub.n >= sup.n:
                    return (yield sub.filler, sup.filler)
                return _NO
            if sup.kind == "max" and sub.kind in ("max", "exact"):
                if sub.n <= sup.n:
                    return (yield sup.filler, sub.filler)
                return _NO
            if sup.kind == "exact" and sub.kind == "exact" and sub.n == sup.n:
                forward = yield sub.filler, sup.filler
                if not forward:
                    return _NO
                backward = yield sup.filler, sub.filler
                if backward:
                    return max(forward, backward)
                # a strictly smaller filler keeps the same exact count only
                # when a declared axiom links the two; see the widening rule
                if forward == _VIA_AXIOM:
                    return _VIA_AXIOM
            return _NO
        if isinstance(sub, DLForAll) and isinstance(sup, DLForAll):
            if sub.slot == sup.slot:
                return (yield sub.filler, sup.filler)
            return _NO
        if isinstance(sub, DLExistsInverse) and isinstance(sup, DLExistsInverse):
            if sub.slot == sup.slot:
                return (yield sub.filler, sup.filler)
            return _NO
        if isinstance(sub, DLNot) and isinstance(sup, DLNot):
            return (yield sup.inner, sub.inner)
        if isinstance(sub, DLNominal) and isinstance(sup, DLNominal):
            return _PURE if set(sub.ids) <= set(sup.ids) else _NO
        if isinstance(sub, DLDataRange) and isinstance(sup, DLDataRange):
            return self._facet_rule(sub, sup)
        return _NO

    @staticmethod
    def _facet_rule(sub: DLDataRange, sup: DLDataRange) -> int:
        if sub.unit != sup.unit:
            return _NO
        a, b = sub.value, sup.value
        if isinstance(a, str) or isinstance(b, str) or sub.facet not in (sup.facet, "eq"):
            return _NO
        if sup.facet == "min":
            return _PURE if a >= b else _NO
        if sup.facet == "max":
            return _PURE if a <= b else _NO
        return _NO


def derivation(model: Model) -> _Derivation:
    """The one derivation over `collect_axioms(model)`, built on first use and
    kept on the model object the way `functools.cached_property` keeps one."""
    kept = vars(model)
    if "_derivation" not in kept:
        kept["_derivation"] = _Derivation(collect_axioms(model))
    return kept["_derivation"]


# ===== PART 3: subsumption verdicts =====


class VerdictStatus(Enum):
    PROVEN = "proven"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


class SubsumptionVerdict(metaclass=_record):
    """A subsumption verdict, with the refuting world when there is one."""

    status: VerdictStatus
    witness: Optional[World] = None
    method: str = "structural"


def subsumes(
    sub: DLConcept,
    super_: DLConcept,
    axioms: Iterable = (),
    bound: Optional[int] = None,
) -> SubsumptionVerdict:
    """Decide sub `⊑` super under the axioms: Proven, Refuted, or Unknown.

    Proven verdicts come from the structural derivation and are sound;
    Refuted verdicts carry a finite world separating the two concepts. It
    holds what the two concepts ask for, and at most `bound` individuals
    more that the axioms ask for.
    """
    if bound is None:
        bound = DEFAULT_BOUND
    dl_axioms = [_as_dl_axiom(a) for a in axioms]
    sub_n = _norm(sub)
    sup_n = _norm(super_)
    if _Derivation(dl_axioms).entails(sub_n, sup_n):
        return SubsumptionVerdict(VerdictStatus.PROVEN, method="structural")
    from .saturation import counter_world

    witness = counter_world(sub_n, sup_n, dl_axioms, bound)
    if witness is not None:
        return SubsumptionVerdict(
            VerdictStatus.REFUTED, witness=witness, method="bounded-model"
        )
    return SubsumptionVerdict(VerdictStatus.UNKNOWN, method="bounded-model")


# ===== PART 4: consistency =====


class ConsistencyStatus(Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    UNKNOWN = "unknown"


class ConsistencyResult(metaclass=_record):
    """Whether a model's world is consistent with its axioms, and why."""

    status: ConsistencyStatus
    witness: Optional[World] = None
    explanation: tuple[str, ...] = ()


def check_consistency(model: Model) -> ConsistencyResult:
    """Saturate the model's world under all axioms and look for a clash;
    the verdict is kept on the model object as its derivation is."""
    kept = vars(model)
    if "_consistency" not in kept:
        from .saturation import _Saturator

        world = model.world if model.world is not None else World()
        verdict = _Saturator(world, derivation(model).axioms).run()
        kept["_consistency"] = ConsistencyResult(*verdict)
    return kept["_consistency"]


# ===== PART 5: interrelation queries =====


def _reified_world(model: Model) -> World:
    individuals: set[str] = set()
    extensions: dict[str, set[str]] = {}
    tuples: dict[str, set[tuple[str, str]]] = {}

    def edge(slot: str, source: str, names: set[str]):
        for name in names:
            tuples.setdefault(slot, set()).add((source, name))
            individuals.add(name)
            extensions.setdefault(name, set()).add(name)

    for element in model.elements:
        individuals.add(element.id)
        extensions.setdefault(element.kind.display, set()).add(element.id)
        body = element.body
        referenced: set[str] = set()
        if isinstance(body, FunctionDesc):
            extensions.setdefault(body.head, set()).add(element.id)
            for slot in body.slots:
                names = mentions(slot.filler)
                edge(slot.slot, element.id, names)
                referenced |= names
        elif isinstance(body, Subsumption):
            left, right = mentions(body.subsumee), mentions(body.subsumer)
            edge("subsumee", element.id, left)
            edge("subsumer", element.id, right)
            referenced = left | right
        elif isinstance(body, QualityStatement):
            subject_names = mentions(body.subject)
            edge("inheres_in", element.id, subject_names)
            referenced |= subject_names
            for name in mentions(body.quality):
                extensions.setdefault(name, set()).add(element.id)
            for observer in body.observers:
                names = mentions(observer)
                edge("observed_by", element.id, names)
                referenced |= names
            if isinstance(body.region, NamedRegion):
                edge("has_value_in", element.id, {body.region.name})
                referenced.add(body.region.name)
        edge("refer_to", element.id, referenced)
    return World(
        individuals=frozenset(individuals),
        concept_extensions={k: frozenset(v) for k, v in extensions.items()},
        slot_tuples={k: frozenset(v) for k, v in tuples.items()},
    )


def query(model: Model, pattern: Description) -> frozenset[str]:
    """Element ids matching a pattern, via the interrelation graph and via
    proven concept subsumption."""
    element_ids = {e.id for e in model.elements}
    matches = set(eval_description(pattern, _reified_world(model))) & element_ids
    pattern_dl = translate_description(pattern)
    for element in model.elements:
        if element.id in matches or isinstance(element.body, NaturalLanguage):
            continue
        if derivation(model).proves(translate_element(element)[0], pattern_dl):
            matches.add(element.id)
    return frozenset(matches)


# ===== PART 6: strength tag audit =====


class StrengthDiagnostic(metaclass=_record):
    """A strength tag the audit rejects, with the reason."""

    application_index: int
    declared: Strength
    message: str


def scale_order_error(app, by_id: dict, derivation: _Derivation) -> Optional[str]:
    """Why no declared ordering lets `app` rename its input's region, or
    None: scaling down needs the old name provably below the new one, and
    scaling up the new name below the old."""
    args = app.args
    if not isinstance(args, ScaleArgs) or args.factor.is_quantitative:
        return None
    source = by_id.get(app.inputs[0]) if app.inputs else None
    if source is None or not isinstance(source.body, QualityStatement):
        return None
    region = source.body.region
    if not isinstance(region, NamedRegion):
        return None
    old, new = region.name, args.factor.region_name
    narrow, wide = (old, new) if args.direction is ScaleDirection.DOWN else (new, old)
    if derivation.proves(DLAtomic(narrow), DLAtomic(wide)):
        return None
    return (
        f"no declared ordering links {old} and {new} "
        f"for a {args.direction.value}-scaling"
    )


def check_strength_tags(model: Model):
    """Audit declared strength tags against derivable subsumption directions.

    Each application yields at most one diagnostic: its tag is illegal for
    the operator, no axiom orders its region renaming, or its declared
    direction is refutable (the opposite one is Proven, the declared one
    not). Only proofs are read, so no counter-model is searched for.
    """
    by_id = model.by_id()
    # An element is translated when an application first reads it, and the
    # model's derivation is built when the first proof is asked for.
    concepts: dict[str, Optional[DLConcept]] = {}

    def concept(eid: str) -> Optional[DLConcept]:
        if eid not in concepts:
            element = by_id.get(eid)
            structured = element is not None and not isinstance(
                element.body, NaturalLanguage
            )
            concepts[eid] = translate_element(element)[0] if structured else None
        return concepts[eid]

    diagnostics: list[StrengthDiagnostic] = []
    for index, app in enumerate(model.applications):
        if app.op is Operator.RESOLVE:
            continue
        error = strength_error(app, by_id)
        if error is None and app.op is Operator.SCALE:
            error = scale_order_error(app, by_id, derivation(model))
        if error is not None:
            diagnostics.append(StrengthDiagnostic(index, app.strength, error))
            continue
        input_concept = concept(app.inputs[0])
        output_ids = [
            o for o in app.outputs if by_id.get(o) and by_id[o].kind is not Kind.DA
        ]
        output_concepts = [concept(o) for o in output_ids]
        if input_concept is None or not output_concepts or None in output_concepts:
            continue
        if len(output_concepts) == 1:
            combined = output_concepts[0]
        else:
            combined = DLAnd(tuple(output_concepts))
        proven_f = derivation(model).proves(combined, input_concept)
        proven_b = derivation(model).proves(input_concept, combined)
        message = None
        if app.strength is Strength.STRENGTHENING and not proven_f and proven_b:
            message = (
                "tagged strengthen, but only the input is provably below the outputs"
            )
        elif app.strength is Strength.WEAKENING and not proven_b and proven_f:
            message = (
                "tagged weaken, but only the outputs are provably below the input"
            )
        elif app.strength is Strength.EQUATING and proven_f != proven_b:
            message = "tagged equate, but only one direction is provable"
        if message:
            diagnostics.append(StrengthDiagnostic(index, app.strength, message))
    return diagnostics
