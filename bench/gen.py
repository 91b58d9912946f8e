"""Seeded workload generator for the reqsmith benchmark.

`generate(name, seed, workdir)` builds one workload: the model files the
program reads and, for every operation the benchmark runs on them, the
answer it must give. Every answer is derived from how the model was built
(which reduce steps were mis-tagged, which edge makes the world clash,
which elements a pattern must match), never from running reqsmith.

The seed permutes declaration order inside each section and picks where
the planted defects go; the same seed always gives byte-identical files.
The model text is written in the printer's canonical form, so `fmt` must
echo each file unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

WORKLOADS = ("ladder", "open-audit", "ring-world", "edit-session")

# Sizes, fixed per workload so that every seed gives the same amount of work.
LADDER_STEPS = 14
OPEN_AUDIT_PAIRS = 6
RING_INDIVIDUALS = 110
EDIT_GROUPS = 240
TAIL_GROUPS = 2  # edit groups appended to every other workload
SMALL_RING = 12  # world size of every workload except ring-world
EDIT_CHAIN_GROUPS = 6  # groups the in-process operator chain edits

# The OWL document header is fixed by the export format, not by the model.
OWL_HEADER = (
    "Prefix(:=<http://example.org/requirements#>)",
    "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)",
    "Prefix(rdf:=<http://www.w3.org/1999/02/22-rdf-syntax-ns#>)",
    "Prefix(rdfs:=<http://www.w3.org/2000/01/rdf-schema#>)",
    "Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)",
    "Declaration(Class(:Fulfilled_Thing))",
    "Declaration(Class(:ALL_Fulfilled_Thing))",
    "Declaration(ObjectProperty(:relate_to))",
    "Declaration(ObjectProperty(:relate_to_one))",
    "Declaration(ObjectProperty(:relate_to_many))",
    "Declaration(ObjectProperty(:interpret_to))",
    "Declaration(ObjectProperty(:scale_to))",
    "Declaration(ObjectProperty(:deuniv_to))",
    "Declaration(ObjectProperty(:observe_to))",
    "Declaration(ObjectProperty(:reduce_to))",
    "Declaration(ObjectProperty(:focus_to))",
    "Declaration(ObjectProperty(:operationalize_to))",
    "SubObjectPropertyOf(:relate_to_one :relate_to)",
    "SubObjectPropertyOf(:relate_to_many :relate_to)",
    "SubObjectPropertyOf(:interpret_to :relate_to_one)",
    "SubObjectPropertyOf(:scale_to :relate_to_one)",
    "SubObjectPropertyOf(:deuniv_to :relate_to_one)",
    "SubObjectPropertyOf(:observe_to :relate_to_one)",
    "SubObjectPropertyOf(:reduce_to :relate_to_many)",
    "SubObjectPropertyOf(:focus_to :relate_to_many)",
    "SubObjectPropertyOf(:operationalize_to :relate_to_many)",
    "EquivalentClasses(:Fulfilled_Thing "
    "ObjectSomeValuesFrom(:relate_to :Fulfilled_Thing))",
    "SubClassOf(:ALL_Fulfilled_Thing :Fulfilled_Thing)",
    "EquivalentClasses(:ALL_Fulfilled_Thing "
    "ObjectAllValuesFrom(:relate_to_many :Fulfilled_Thing))",
)

UNIVERSAL = (
    "unsatisfiable: the statement binds every member of its subject class; "
    "relax it to a fraction with a percentage annotation [suggest deuniv]"
)
UNVERIFIABLE = (
    "unverifiable: region {region} is qualitative and carries no agreed "
    "measurement; derive a measured constraint or name an observer who "
    "judges it [suggest observe]"
)
MISTAG = "inconsistent: tagged weaken, but only the outputs are provably below the input"
CLASH_AXIOM = "Node :< <=1 accessed_by.Thing"
REGIONS = (("fast", 0, 10), ("medium", 20, 30), ("slow", 40, 50))
SCALE = (Fraction(1), Fraction(6, 5))  # the chain's qc scale_down factor
DEUNIV_PCT = Fraction(4, 5)  # the chain's de-universalization


@dataclass
class Op:
    """One CLI invocation and the answer it must give."""

    metric: str  # the end-to-end metric its wall time feeds
    argv: list[str]  # arguments after the program name
    code: int
    stdout: str
    out_file: Optional[str] = None  # written by `translate`
    out_lines: Optional[list[str]] = None  # its expected lines, in any order


@dataclass
class Edit:
    """The in-process operator chain over some edit groups, and its printout."""

    groups: list[int]
    expected_model: str  # print_model of the edited model


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    files: dict[str, str]  # file name -> contents
    ops: list[Op]
    probe_expected: list[str]  # eval_dl of PROBE over the model's world
    edit: Edit
    facts: dict  # planted defects, for the run's metadata

    def write(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")


# The direct world-evaluation probe: individuals two ring steps before a Hub.
PROBE = "<accessed_by: SOME <accessed_by: SOME Hub>>"


@dataclass
class _Element:
    id: str
    kind: str
    body: str
    owl: Optional[str]  # EquivalentClasses body; None for prose
    axioms: tuple[str, ...] = ()  # SubClassOf lines the body carries
    lint: tuple[str, ...] = ()  # rule keys: "universal", "unverifiable"
    region: str = ""


class _Model:
    """Accumulates one model's sections and the facts the oracle needs."""

    def __init__(self, name: str):
        self.name = name
        self.elements: list[_Element] = []
        self.axioms: list[tuple[str, str]] = []  # (text, owl)
        self.apps: list[tuple[str, str, list[str]]] = []  # (text, input, outputs)
        self.marks: set[str] = set()
        self.fulfilled: set[str] = set()  # states derived by construction
        self.world: dict[str, str] = {}  # individual -> its concepts
        self.edges: list[tuple[str, str]] = []
        self.mistagged: set[str] = set()  # application texts with a wrong tag
        self.facts: dict = {}  # planted defects, for the run's metadata

    def text(self, extra_elements=(), extra_apps=(), edge=None) -> str:
        lines = [f"model {self.name};"]
        for e in self.elements:
            lines.append(f"{e.kind} {e.id} := {e.body};")
        lines.extend(extra_elements)
        lines.extend(f"axiom {text};" for text, _ in self.axioms)
        lines.extend(text for text, _, _ in self.apps)
        lines.extend(extra_apps)
        if self.marks:
            lines.append("fulfilled " + ", ".join(sorted(self.marks)) + ";")
        lines.append("regions Processing_time {")
        lines.extend(f"  {n} = interval [{a}, {b}];" for n, a, b in REGIONS)
        lines.append("}")
        lines.extend(_world_lines(self.world, self.edges + ([edge] if edge else [])))
        return "\n".join(lines) + "\n"

    def owl_lines(self) -> list[str]:
        lines = list(OWL_HEADER)
        lines.append(f"Ontology(<http://example.org/requirements/{self.name}>")
        for e in self.elements:
            lines.append(f"Declaration(Class(:{e.id}))")
            if e.owl is not None:
                lines.append(f"EquivalentClasses(:{e.id} {e.owl})")
            lines.extend(e.axioms)
        lines.extend(owl for _, owl in self.axioms)
        for text, source, outputs in self.apps:
            prop = text.split()[0] + "_to"
            for out in outputs:
                lines.append(f"SubClassOf(:{source} ObjectSomeValuesFrom(:{prop} :{out}))")
            lines.append(
                f"SubClassOf(:{source} ObjectExactCardinality({len(outputs)} :{prop}))"
            )
        lines.extend(f"SubClassOf(:{m} :Fulfilled_Thing)" for m in self.marks)
        lines.append(")")
        return lines

    def lint_lines(self, world_clash: Optional[str] = None) -> list[str]:
        out = [f"{e.id}: {UNIVERSAL}" for e in self.elements if "universal" in e.lint]
        out += [
            f"{e.id}: {UNVERIFIABLE.format(region=e.region)}"
            for e in self.elements
            if "unverifiable" in e.lint
        ]
        if world_clash is not None:
            out.append(f"world: inconsistent: {world_clash}")
        return out

    def fulfill_json(self) -> str:
        states = {
            e.id: "fulfilled" if e.id in self.fulfilled else "unknown"
            for e in self.elements
        }
        document = {
            "version": 1,
            "findings": [],
            "fulfillment": {k: states[k] for k in sorted(states)},
            "subsumptions": [],
        }
        return json.dumps(document, indent=2) + "\n"


def _world_lines(world: dict[str, str], edges: list[tuple[str, str]]) -> list[str]:
    """The world block in the printer's order: individuals, then edges, sorted."""
    lines = ["world {"]
    lines += [f"  individual {name} : {world[name]};" for name in sorted(world)]
    lines += [f"  slot accessed_by({s}, {t});" for s, t in sorted(edges)]
    return lines + ["}"]


def _func(eid: str, head: str, slots) -> _Element:
    """A function element; each slot is (name, modifier, filler)."""
    texts, owls = [head], [":Function", f":{head}"]
    for slot, mod, filler in slots:
        texts.append(f"<{slot}: {mod}{filler}>")
        if mod == "SOME ":
            owls.append(f"ObjectSomeValuesFrom(:{slot} :{filler})")
        else:
            owls.append(f"ObjectExactCardinality(1 :{slot} :{filler})")
    return _Element(eid, "func", " ".join(texts), f"ObjectIntersectionOf({' '.join(owls)})")


def _subsumption(eid: str, kind: str, sub: str, sup_text: str, sup_owl: str) -> _Element:
    root = kind.upper()
    owl = (
        f"ObjectIntersectionOf(:{root} ObjectSomeValuesFrom(:subsumee :{sub}) "
        f"ObjectSomeValuesFrom(:subsumer {sup_owl}))"
    )
    return _Element(
        eid, kind, f"{sub} :< {sup_text}", owl, (f"SubClassOf(:{sub} {sup_owl})",)
    )


def _quality_goal(eid: str, quality: str, func_id: str, region: str) -> _Element:
    owl = (
        f"ObjectIntersectionOf(:QG :{quality} ObjectSomeValuesFrom(:inheres_in "
        f"ObjectSomeValuesFrom(ObjectInverseOf(:object) :{func_id})) "
        f"ObjectSomeValuesFrom(:has_value_in :{region}))"
    )
    return _Element(
        eid,
        "qg",
        f"{quality} ({func_id}.object) :: {region}",
        owl,
        lint=("universal", "unverifiable"),
        region=region,
    )


def _quality_constraint(eid: str, func_id: str, low: int, high: int) -> _Element:
    owl = (
        f"ObjectIntersectionOf(:QC :Processing_time ObjectSomeValuesFrom(:inheres_in "
        f"ObjectSomeValuesFrom(ObjectInverseOf(:object) :{func_id})) "
        f"DataSomeValuesFrom(:has_value DatatypeRestriction(xsd:decimal "
        f'xsd:minInclusive "{low}"^^xsd:decimal xsd:maxInclusive "{high}"^^xsd:decimal)))'
    )
    body = f"Processing_time ({func_id}.object) :: [{low}, {high} (Sec)]"
    return _Element(eid, "qc", body, owl, lint=("universal",))


def _edit_group(m: _Model, g: int, rng: random.Random) -> None:
    """Prose goal, fg, func, qg and qc for one requirement group."""
    limit = rng.choice((20, 30, 45, 60))  # multiples of 5 scale by 6/5 exactly
    if rng.random() < 0.5:
        m.marks.add(f"EF{g}")
        m.fulfilled.add(f"EF{g}")
    m.elements += [
        _Element(f"EG{g}", "goal", f'"keep record {g} current"', None),
        _subsumption(f"EFG{g}", "fg", f"Record{g}", "Kept", ":Kept"),
        _func(f"EF{g}", "Keep", [("actor", "SOME ", "User"), ("object", "", f"Record{g}")]),
        _quality_goal(f"EQG{g}", "Speed", f"EF{g}", "Fast"),
        _quality_constraint(f"EQC{g}", f"EF{g}", 0, limit),
    ]


def _ring(m: _Model, size: int, rng: random.Random) -> list[str]:
    """A ring of Node individuals joined by accessed_by; some are Hubs."""
    hubs = set(rng.sample(range(size), max(1, size // 10)))
    for i in range(size):
        m.world[f"r{i}"] = "Hub, Node" if i in hubs else "Node"
        m.edges.append((f"r{i}", f"r{(i + 1) % size}"))
    return sorted(f"r{(h - 2) % size}" for h in hubs)


def _shuffled(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _ladder(m: _Model, rng: random.Random):
    """The ROADMAP ladder, plus reduce steps of which a few are mis-tagged."""
    n = LADDER_STEPS
    for i in range(n):
        slots = [("object", "", f"C{i}"), ("actor", "SOME ", "User"), ("means", "", "Tool")]
        m.elements.append(_func(f"F{i}", "Act", slots))
        m.elements.append(_subsumption(f"FG{i}", "fg", f"C{i}", "Done", ":Done"))
        m.elements.append(_quality_goal(f"QG{i}", "Speed", f"F{i}", "Fast"))
        m.marks.add(f"F{i}")
        m.fulfilled |= {f"F{i}", f"FG{i}"}
        m.apps.append((f"operationalize FG{i} -> F{i} [strengthen];", f"FG{i}", [f"F{i}"]))
    mistagged = set(rng.sample(range(n - 1), max(1, n // 6)))
    m.facts["mistagged_steps"] = sorted(mistagged)
    for i in range(n - 1):
        m.axioms.append((f"C{i + 1} :< C{i}", f"SubClassOf(:C{i + 1} :C{i})"))
        m.apps.append((f"focus QG{i + 1} -> QG{i} [weaken];", f"QG{i + 1}", [f"QG{i}"]))
        # F{i+1} is provably below F{i}, so the step strengthens.
        text = f"reduce F{i} -> F{i + 1} [{'weaken' if i in mistagged else 'strengthen'}];"
        m.apps.append((text, f"F{i}", [f"F{i + 1}"]))
        if i in mistagged:
            m.mistagged.add(text)
    return "<object: C0>", sorted(f"F{i}" for i in range(n))


# "Has no accessed_by successor", spelled as a universal and as a difference
# (two spellings of the difference that normalize alike). The two sides of
# each pair are equivalent, so no sound reasoner can flag the [equate]
# between them, and the structural derivation proves neither direction.
_ONLY_NOTHING = ("<accessed_by: ONLY Nothing>", "ObjectAllValuesFrom(:accessed_by owl:Nothing)")
_NO_SUCCESSOR = (
    (
        "Thing - <accessed_by: SOME Thing>",
        "ObjectIntersectionOf(owl:Thing ObjectComplementOf("
        "ObjectSomeValuesFrom(:accessed_by owl:Thing)))",
    ),
    (
        "Thing - <accessed_by: >=1 Thing>",
        "ObjectIntersectionOf(owl:Thing ObjectComplementOf("
        "ObjectMinCardinality(1 :accessed_by)))",
    ),
)


def _open_audit(m: _Model, rng: random.Random):
    n = OPEN_AUDIT_PAIRS
    for i in range(n):
        # Fixed by the index, not the seed: every seed must cost the same.
        m.elements.append(_subsumption(f"P{i}", "fc", f"Vault{i}", *_ONLY_NOTHING))
        m.elements.append(_subsumption(f"Q{i}", "fc", f"Vault{i}", *_NO_SUCCESSOR[i % 2]))
        m.apps.append((f"reduce P{i} -> Q{i} [equate];", f"P{i}", [f"Q{i}"]))
        if rng.random() < 0.5:
            m.marks.add(f"Q{i}")
            m.fulfilled |= {f"P{i}", f"Q{i}"}
    for i in range(n - 1):
        m.axioms.append((f"Vault{i + 1} :< Vault{i}", f"SubClassOf(:Vault{i + 1} :Vault{i})"))
    # Vault{i} sits below Vault0 along the axiom chain.
    return "<subsumee: SOME Vault0>", sorted(f"{p}{i}" for p in "PQ" for i in range(n))


_RING_AXIOMS = (
    (
        "<accessed_by: SOME <accessed_by: SOME Hub>> :< Near",
        "SubClassOf(ObjectSomeValuesFrom(:accessed_by ObjectSomeValuesFrom("
        ":accessed_by :Hub)) :Near)",
    ),
    ("Near :< <accessed_by: ONLY Watched>", "SubClassOf(:Near ObjectAllValuesFrom(:accessed_by :Watched))"),
    ("Node :< <accessed_by: <=1 Thing>", "SubClassOf(:Node ObjectMaxCardinality(1 :accessed_by))"),
)


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Build workload `name` for `seed`; file paths point into `workdir`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    model = _Model(name.replace("-", "_"))
    query = None
    if name == "ladder":
        query = _ladder(model, rng)
    elif name == "open-audit":
        query = _open_audit(model, rng)
    elif name == "ring-world":
        model.axioms.extend(_RING_AXIOMS)
    groups = EDIT_GROUPS if name == "edit-session" else TAIL_GROUPS
    for g in range(groups):
        _edit_group(model, g, rng)
    model.axioms.append(("Fast :< Acceptable", "SubClassOf(:Fast :Acceptable)"))
    model.elements = _shuffled(model.elements, rng)
    model.axioms = _shuffled(model.axioms, rng)
    model.apps = _shuffled(model.apps, rng)
    ring_size = RING_INDIVIDUALS if name == "ring-world" else SMALL_RING
    probe = _ring(model, ring_size, rng)

    check = [
        f"application[{index}]: {MISTAG}"
        for index, (text, _, _) in enumerate(model.apps)
        if text in model.mistagged
    ]
    files = {"model.dsr": model.text(), "one.dsr": "model one;\n"}
    lint_file, clash = "model.dsr", None
    if name == "ring-world":
        # One extra edge gives a Node two successors, against its <=1 axiom.
        x = rng.randrange(ring_size)
        lint_file = "clash.dsr"
        files[lint_file] = model.text(edge=(f"r{x}", f"r{(x + ring_size // 2) % ring_size}"))
        clash = f"axiom {CLASH_AXIOM}: r{x} has 2 accessed_by fillers in Thing, more than 1"
        model.facts["clash"] = clash
    if name == "edit-session":
        # Every structured element refers to something, so the interrelation
        # graph answers the whole query and no proof is attempted: the edit
        # loop reads, it does not reason. (A pattern that needs proofs runs
        # for minutes on this model, or overflows the stack; see the README.)
        query = ("<refer_to: SOME Thing>", sorted(e.id for e in model.elements if e.owl))
    elif query is None:
        g = rng.randrange(groups)
        query = (f"<object: Record{g}>", [f"EF{g}"])
    model.facts["check"] = check

    def path(file: str) -> str:
        return str(workdir / file)

    lint_out = model.lint_lines(clash)
    pattern, matches = query
    ops = [
        Op("setup_s", ["fmt", path("one.dsr")], 0, files["one.dsr"]),
        Op("check_s", ["check", path("model.dsr")], 1 if check else 0, _lines(check)),
        Op("query_s", ["query", path("model.dsr"), "--pattern", pattern], 0, _lines(matches)),
        Op("lint_s", ["lint", path(lint_file)], 1 if lint_out else 0, _lines(lint_out)),
    ]
    session_lint = model.lint_lines()
    ops += [
        Op("session_s", ["fmt", path("model.dsr")], 0, files["model.dsr"]),
        Op("session_s", ["lint", path("model.dsr")], 1 if session_lint else 0, _lines(session_lint)),
        Op("session_s", ["fulfill", path("model.dsr"), "--json"], 0, model.fulfill_json()),
        Op(
            "session_s",
            ["translate", path("model.dsr"), "--out", path("model.ofn")],
            0,
            "",
            out_file=path("model.ofn"),
            out_lines=model.owl_lines(),
        ),
    ]
    for value, degrees in _membership_sweep(rng):
        ops.append(
            Op(
                "session_s",
                ["membership", path("model.dsr"), "--quality", "Processing_time", "--value", value],
                0,
                degrees,
            )
        )

    chain = sorted(rng.sample(range(groups), min(groups, EDIT_CHAIN_GROUPS)))
    edit = Edit(chain, _edited_text(model, chain))
    return Workload(name, seed, workdir, files, ops, probe, edit, model.facts)


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _membership_sweep(rng: random.Random) -> list[tuple[str, str]]:
    """Membership values and their degrees, derived from the regions.

    A value's degree in a region is the share of prototype choices (one
    point from each interval) whose nearest prototype is in that region.
    The intervals have equal widths and equal gaps, so a value inside one
    interval is nearer to every choice from it than to any choice from a
    neighbour: degree 1 there, 0 elsewhere. The midpoint of the first gap
    is split evenly between its two neighbours by symmetry."""
    sweep = []
    for name, low, high in rng.sample(REGIONS, 2):
        value = rng.randint(low, high)
        sweep.append(
            (str(value), _lines(f"{n}: {1 if n == name else 0}" for n, _, _ in REGIONS))
        )
    sweep.append(("15", "fast: 0.5\nmedium: 0.5\nslow: 0\n"))
    return sweep


def _edited_text(model: _Model, groups: list[int]) -> str:
    """The printout after `run.edit_chain` edits each group in turn: scale
    the qc down by (1, 6/5), scale the qg down to Acceptable, observe the qg
    and de-universalize it to 80%. New ids take the next free `_n` suffix."""
    elements, apps = [], []
    for g in groups:
        qg, qc, subject = f"EQG{g}", f"EQC{g}", f"(EF{g}.object)"
        body = next(e for e in model.elements if e.id == qc).body
        limit = int(body.split("[0, ")[1].split(" ")[0]) * SCALE[1]
        elements += [
            f"qc {qc}_1 := Processing_time {subject} :: [0, {limit} (Sec)];",
            f"qg {qg}_1 := Speed {subject} :: Acceptable;",
            f"qc {qg}_2 := Speed {subject} :: Fast (measured) <observed_by: Surveyed_user>;",
            f"qg {qg}_3 := Speed {subject} :: Fast u(?X, inheres_in, 80%);",
        ]
        apps += [
            f"scale_down {qc} -> {qc}_1 by (1, 1.2) [weaken];",
            f"scale_down {qg} -> {qg}_1 by Acceptable [weaken];",
            f"observe {qg} -> {qg}_2 by Surveyed_user [strengthen];",
            f"deuniv {qg} -> {qg}_3 u(?X, inheres_in, 80%) [weaken];",
        ]
    return model.text(elements, apps)
