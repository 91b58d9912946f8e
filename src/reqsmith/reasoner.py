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
from typing import Iterable, NamedTuple, Optional

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
    mentions,
    strength_error,
)
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
    DLSubClassOf,
    DLThing,
    DL_NOTHING,
    DL_THING,
    eval_description,
    translate_description,
    translate_element,
)

DEFAULT_BOUND = 4


# ===== PART 1: normal form for the logic fragment =====


def _dl_key(c: DLConcept):
    """The key by which `_norm` orders and dedupes and/or arguments."""
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
        return ("not", _dl_key(c.inner))
    if isinstance(c, DLAnd):
        return ("and", tuple(_dl_key(a) for a in c.args))
    if isinstance(c, DLOr):
        return ("or", tuple(_dl_key(a) for a in c.args))
    if isinstance(c, DLForAll):
        return ("all", c.slot, _dl_key(c.filler))
    if isinstance(c, DLExistsInverse):
        return ("inv", c.slot, _dl_key(c.filler))
    assert isinstance(c, DLCard)
    return ("card", c.slot, c.kind, c.n, _dl_key(c.filler))


def _norm(c: DLConcept) -> DLConcept:
    """Flatten, dedupe, and order boolean structure; fold constants and
    complement pairs; turn bare existentials into min-1 cardinalities so
    rules need one shape. Lint's duplicate check compares the result."""
    if isinstance(c, DLExists):
        return DLCard(c.slot, "min", 1, _norm(c.filler))
    if isinstance(c, DLCard):
        return DLCard(c.slot, c.kind, c.n, _norm(c.filler))
    if isinstance(c, DLForAll):
        return DLForAll(c.slot, _norm(c.filler))
    if isinstance(c, DLExistsInverse):
        filler = _norm(c.filler)
        if isinstance(filler, DLNothing):
            return DL_NOTHING
        return DLExistsInverse(c.slot, filler)
    if isinstance(c, DLNot):
        inner = _norm(c.inner)
        if isinstance(inner, DLNot):
            return inner.inner
        if isinstance(inner, DLThing):
            return DL_NOTHING
        if isinstance(inner, DLNothing):
            return DL_THING
        return DLNot(inner)
    if isinstance(c, (DLAnd, DLOr)):
        flat: list[DLConcept] = []
        for arg in c.args:
            normed = _norm(arg)
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
        # an argument beside its complement, or beside every argument of it
        # when it is of the same connective, empties an and and fills an or
        negated = [a.inner for a in flat if isinstance(a, DLNot)]
        if negated:
            present = set(flat)
            for inner in negated:
                if inner in present or (
                    isinstance(inner, type(c)) and present.issuperset(inner.args)
                ):
                    return DL_NOTHING if isinstance(c, DLAnd) else DL_THING
        unique: dict = {}
        for arg in flat:
            unique.setdefault(_dl_key(arg), arg)
        ordered = tuple(unique[k] for k in sorted(unique))
        if len(ordered) == 1:
            return ordered[0]
        return DLAnd(ordered) if isinstance(c, DLAnd) else DLOr(ordered)
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
    if isinstance(c, (DLAnd, DLOr)):
        return [name for arg in c.args for name in _told(arg)]
    if isinstance(c, DLAtomic):
        return [c.name]
    if isinstance(c, DLNothing):
        return [None]
    return []


def _needs(c: DLConcept) -> frozenset:
    """Atoms every concept provably below c must reach: those of an and,
    those every argument of an or needs, none for any other shape."""
    if isinstance(c, DLAtomic):
        return frozenset((c.name,))
    if isinstance(c, DLAnd):
        return frozenset().union(*map(_needs, c.args))
    if isinstance(c, DLOr):
        return frozenset.intersection(*map(_needs, c.args))
    return frozenset()


class _Derivation:
    """Structural derivation of sub ⊑ sup under one list of axioms.

    A goal's value is the least fixpoint of the rules over _NO < _PURE <
    _VIA_AXIOM, so it depends neither on the order of the axioms nor on the
    goals asked before, and one derivation can serve many queries. Goals
    are tabled (Chen & Warren, JACM 1996) and settled by strongly connected
    component, as Tarjan (SIAM J. Comput. 1972) finds them: a goal met
    again while open yields its value so far and lowers `low` to its stack
    place. A goal whose rules read nothing open below it leads a component,
    every goal above it on the stack. The component settles when each goal
    read while open ended the pass at the value it was read at; otherwise
    it runs again from this pass's values, which stay below the fixpoint.
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
        self.low = 0  # the lowest place the running goal has read
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
        goal = (sub, sup)
        entry = self.table.get(goal)
        if entry.__class__ is int:
            return entry
        if entry is None or entry[0] is None:
            return self._solve(goal, entry[1] if entry else _NO)
        self.low = min(self.low, entry[0])
        if entry[2] is None:
            entry[2] = entry[1]
        return entry[1]

    def _solve(self, goal, value: int) -> int:
        """Run goal's rules, starting from `value`, until the component it
        leads settles; return at once if it read an open goal below it."""
        outer = self.low
        place = len(self.stack)
        entry = self.table[goal] = [place, value, None]
        self.stack.append((goal, entry))
        while True:
            self.low = place
            entry[1] = value = self._rules(*goal)
            low, self.low = self.low, min(outer, self.low)
            if low < place:
                return value
            component = self.stack[place:]
            del self.stack[place + 1 :]
            if all(e[2] is None or e[2] == e[1] for _, e in component):
                self.stack.pop()
                for g, e in component:
                    self.table[g] = e[1]
                return value
            # the goals above the leader keep this pass's value as a warm start
            for _, e in component[1:]:
                e[0] = None
            entry[2] = None

    def _reach(self, sub: DLConcept) -> tuple:
        """The atoms sub may be below, and the axioms it may fire.

        sub ⊑ A for an atom A needs A among the told names of sub closed
        under every axiom whose left side needs only names reached so far:
        propositional Horn closure, one worklist (Dowling & Gallier, J.
        Logic Programming 1984). A reached Nothing may put sub below every
        atom, so the atoms are then None; the axiom that reached Nothing is
        among those returned, and if sub is below Nothing that axiom alone
        proves each goal of sub. The axioms fire breadth first from the
        atoms of sub itself, as their left premise mostly holds outright;
        that keeps chains of atoms shallow.
        """
        found = self.reached.get(sub)
        if found is None:
            if self.watch is None:
                self._index()
            reached: dict = {}
            fired: list = []
            todo = _told(sub) + self.free_names
            for name in todo:  # the list grows as axioms fire
                if name in reached:
                    continue
                reached[name] = None
                # an axiom fires when the last atom it needs is reached
                for needs, names, ax in self.watch.get(name, ()):
                    if reached.keys() >= needs:
                        fired.append(ax)
                        todo.extend(names)
            found = (None if None in reached else reached, fired + self.free)
            self.reached[sub] = found
        return found

    def _index(self):
        # atom -> (atoms the left side needs, told names of the right side,
        # axiom) for each axiom whose left side needs that atom
        self.watch = {}
        self.free: list = []  # the axioms whose left side needs no atom
        self.free_names: list = []  # the told names of their right sides
        for ax in self.axioms:
            needs, names = _needs(ax.sub), _told(ax.sup)
            for name in needs:
                self.watch.setdefault(name, []).append((needs, names, ax))
            if not needs:
                self.free.append(ax)
                self.free_names.extend(names)

    def _all(self, pairs) -> int:
        best = _PURE
        for sub, sup in pairs:
            r = self.entails(sub, sup)
            if not r:
                return _NO
            best = max(best, r)
        return best

    def _any(self, pairs) -> int:
        # the best value, not the first: with the first, proving one more
        # pair could lower the value, and the rules would lose their least
        # fixpoint
        best = _NO
        for sub, sup in pairs:
            best = max(best, self.entails(sub, sup))
            if best == _VIA_AXIOM:
                break
        return best

    def _rules(self, sub: DLConcept, sup: DLConcept) -> int:
        if sub == sup:
            return _PURE
        if isinstance(sup, DLThing) or isinstance(sub, DLNothing):
            return _PURE
        if isinstance(sup, DLAtomic):
            atoms = self._reach(sub)[0]
            if atoms is not None and sup.name not in atoms:
                return _NO
        if isinstance(sub, DLOr):
            return self._all((arg, sup) for arg in sub.args)
        if isinstance(sup, DLAnd):
            return self._all((sub, arg) for arg in sup.args)
        if isinstance(sub, DLAnd):
            r = self._any((arg, sup) for arg in sub.args)
            if r:
                return r
        if isinstance(sup, DLOr):
            r = self._any((sub, arg) for arg in sup.args)
            if r:
                return r
        r = self._pair_rule(sub, sup)
        if r:
            return r
        for ax in self._reach(sub)[1]:
            if self.entails(sub, ax.sub) and self.entails(ax.sup, sup):
                return _VIA_AXIOM
        return _NO

    def _pair_rule(self, sub: DLConcept, sup: DLConcept) -> int:
        if isinstance(sub, DLCard) and isinstance(sup, DLCard):
            if sub.slot != sup.slot:
                return _NO
            if sup.kind == "min" and sub.kind in ("min", "exact"):
                if sub.n >= sup.n:
                    return self.entails(sub.filler, sup.filler)
                return _NO
            if sup.kind == "max" and sub.kind in ("max", "exact"):
                if sub.n <= sup.n:
                    return self.entails(sup.filler, sub.filler)
                return _NO
            if sup.kind == "exact" and sub.kind == "exact" and sub.n == sup.n:
                forward = self.entails(sub.filler, sup.filler)
                if not forward:
                    return _NO
                backward = self.entails(sup.filler, sub.filler)
                if backward:
                    return max(forward, backward)
                # a strictly smaller filler keeps the same exact count only
                # when a declared axiom links the two; see the widening rule
                if forward == _VIA_AXIOM:
                    return _VIA_AXIOM
            return _NO
        if isinstance(sub, DLForAll) and isinstance(sup, DLForAll):
            if sub.slot == sup.slot:
                return self.entails(sub.filler, sup.filler)
            return _NO
        if isinstance(sub, DLExistsInverse) and isinstance(sup, DLExistsInverse):
            if sub.slot == sup.slot:
                return self.entails(sub.filler, sup.filler)
            return _NO
        if isinstance(sub, DLNot) and isinstance(sup, DLNot):
            return self.entails(sup.inner, sub.inner)
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


class SubsumptionVerdict(NamedTuple):
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


class ConsistencyResult(NamedTuple):
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


class StrengthDiagnostic(NamedTuple):
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
