"""Heuristic review of a model against a catalog of requirement issues.

The checks are deliberately shallow: they look at declared structure and
surface wording, never at deep inference, so a finding is a prompt for a
human decision rather than a proof of a defect. Each finding names the
transformation that usually repairs the issue, and applying that
transformation silences the finding on re-lint.
"""

from __future__ import annotations

import re
from collections import Counter

from .findings import Issue, LintFinding, world_findings
from .model import (
    QUALITY_KINDS,
    AtomicConcept,
    Description,
    Enumeration,
    FunctionDesc,
    Kind,
    Model,
    NamedRegion,
    NaturalLanguage,
    Operator,
    QualityStatement,
    SlotRestriction,
    Subsumption,
    _record,
    body_descriptions,
    mentions,
    subterms,
)
from .reasoner import _Derivation, _norm, check_consistency, derivation
from .semantics import DL_NOTHING, DLAnd, DLAtomic, DLConcept, translate_description


class LintConfig(metaclass=_record):
    """Tunable lexicons and slot profiles for the surface-level checks."""

    universal_tokens: frozenset[str] = frozenset(
        {"all", "any", "every", "each", "always", "100%"}
    )
    required_slots: tuple[str, ...] = ("actor", "object")
    communicative_heads: frozenset[str] = frozenset(
        {"Send", "Notify", "Email", "Inform", "Report", "Broadcast"}
    )
    communicative_slots: tuple[str, ...] = ("actor", "object", "target")
    concern_joiners: tuple[str, ...] = (" and ", " as well as ", "; ", " while ")
    attachment_tokens: frozenset[str] = frozenset({"with", "for"})
    entity_terms: frozenset[str] = frozenset()
    quality_terms: frozenset[str] = frozenset()


# the fields whose words the checks compare casefolded
_CASEFOLDED_KEYS = frozenset(
    {"universal_tokens", "attachment_tokens", "entity_terms", "quality_terms"}
)


def parse_config(text: str) -> LintConfig:
    """Read `key = value, value` lines into a lint configuration; a line
    without `=` or with an unknown key raises ValueError."""
    values, defaults = {}, LintConfig()
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, rest = line.partition("=")
        key = key.strip()
        if not equals:
            raise ValueError(f"lint config line {number}: expected key = values")
        if key not in LintConfig.__match_args__:
            raise ValueError(f"lint config line {number}: unknown key {key!r}")
        items = []
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            if len(part) >= 2 and part.startswith('"') and part.endswith('"'):
                part = part[1:-1]
            if key in _CASEFOLDED_KEYS:
                part = part.casefold()
            items.append(part)
        # a field keeps the kind of its default: a tuple or a frozenset
        values[key] = type(getattr(defaults, key))(items)
    return LintConfig(**values)


def lint_model(model: Model, config: LintConfig = LintConfig()) -> list[LintFinding]:
    """Run every check and return the findings in a fixed rule order."""
    dropped = model.dropped_ids()
    live = [e for e in model.elements if e.id not in dropped]
    successors: dict[str, set[Operator]] = {}
    for app in model.applications:
        for eid in app.inputs:
            successors.setdefault(eid, set()).add(app.op)
    findings: list[LintFinding] = []
    findings.extend(_universal_risks(live, successors, config))
    findings.extend(_unverifiable(live, successors))
    findings.extend(_incomplete(live, successors, config))
    findings.extend(_redundant(live))
    findings.extend(_multi_concern(live, config))
    findings.extend(_inconsistent(model, live))
    findings.extend(_ambiguous(live, config))
    return findings


def _text_tokens(text: str) -> set[str]:
    return {t.casefold() for t in re.findall(r"[\w%]+", text)}


def _universal_risks(live, successors, config) -> list[LintFinding]:
    """Statements that bind a whole population are rarely attainable."""
    out = []
    for e in live:
        if e.kind not in QUALITY_KINDS:
            continue
        if Operator.DEUNIVERSALIZE in successors.get(e.id, ()):
            continue
        body = e.body
        if isinstance(body, NaturalLanguage):
            hits = sorted(_text_tokens(body.text) & config.universal_tokens)
            if hits:
                out.append(
                    LintFinding(
                        e.id,
                        Issue.UNSATISFIABLE,
                        f"universal wording ({', '.join(hits)}) usually cannot "
                        f"be met by every instance; relax it to a fraction of "
                        f"the population",
                        "deuniv",
                    )
                )
            continue
        if not isinstance(body, QualityStatement) or body.pct_annotations:
            continue
        name_tokens = set()
        for name in sorted(mentions(body.subject)):
            name_tokens |= {part.casefold() for part in name.split("_")}
        hits = sorted(name_tokens & config.universal_tokens)
        if hits:
            out.append(
                LintFinding(
                    e.id,
                    Issue.UNSATISFIABLE,
                    f"the subject names a universal ({', '.join(hits)}); "
                    f"relax it to a fraction of the population",
                    "deuniv",
                )
            )
        elif not isinstance(body.subject, Enumeration):
            out.append(
                LintFinding(
                    e.id,
                    Issue.UNSATISFIABLE,
                    "the statement binds every member of its subject class; "
                    "relax it to a fraction with a percentage annotation",
                    "deuniv",
                )
            )
    return out


def _unverifiable(live, successors) -> list[LintFinding]:
    """Qualitative regions have no agreed test until refined or observed."""
    out = []
    for e in live:
        if e.kind is not Kind.QG or not isinstance(e.body, QualityStatement):
            continue
        region = e.body.region
        if not (isinstance(region, NamedRegion) and region.qualitative):
            continue
        if successors.get(e.id, set()) & {Operator.OPERATIONALIZE, Operator.OBSERVE}:
            continue
        out.append(
            LintFinding(
                e.id,
                Issue.UNVERIFIABLE,
                f"region {region.name} is qualitative and carries no agreed "
                f"measurement; derive a measured constraint or name an "
                f"observer who judges it",
                "observe",
            )
        )
    return out


_SLOT_QUESTIONS = {
    "actor": "Who will {verb}?",
    "object": "{head} what?",
    "target": "{head} to whom?",
}


def _incomplete(live, successors, config) -> list[LintFinding]:
    """Functions still missing their expected participants."""
    out = []
    for e in live:
        if e.kind is not Kind.F or not isinstance(e.body, FunctionDesc):
            continue
        if Operator.REDUCE in successors.get(e.id, ()):
            continue
        body = e.body
        if body.head in config.communicative_heads:
            required = config.communicative_slots
        else:
            required = config.required_slots
        present = {s.slot for s in body.slots}
        missing = [slot for slot in required if slot not in present]
        if not missing:
            continue
        head = body.head.replace("_", " ")
        questions = [
            _SLOT_QUESTIONS.get(slot, "What fills {slot}?".replace("{slot}", slot))
            .replace("{verb}", head.lower())
            .replace("{head}", head)
            for slot in missing
        ]
        out.append(
            LintFinding(
                e.id,
                Issue.INCOMPLETE,
                " ".join(questions),
                "reduce",
            )
        )
    return out


def _normal(d: Description) -> DLConcept:
    """The reasoner's normal form of a description's logical image."""
    return _norm(translate_description(d))


def _multiset(descriptions) -> frozenset:
    """The normal forms of the descriptions, in any order, each with its count."""
    return frozenset(Counter(map(_normal, descriptions)).items())


def _body_key(body) -> tuple:
    """A canonical, order-insensitive key for duplicate detection."""
    if isinstance(body, NaturalLanguage):
        return ("nl", " ".join(body.text.casefold().split()))
    if isinstance(body, FunctionDesc):
        return ("fn", body.head, _multiset(body.slots))
    if isinstance(body, Subsumption):
        return ("sub", _normal(body.subsumee), _normal(body.subsumer))
    return (
        "q",
        _normal(body.quality),
        _normal(body.subject),
        body.region,
        _multiset(body.observers),
        tuple(sorted((a.matched_path, str(a.pct_low)) for a in body.pct_annotations)),
    )


def _redundant(live) -> list[LintFinding]:
    # the element kept of each body is the one with the least id, so the
    # findings do not depend on the order the elements are declared in
    keys = [(e.id, (e.kind, _body_key(e.body))) for e in live]
    kept: dict[tuple, str] = {}
    for eid, key in keys:
        kept[key] = min(kept.get(key, eid), eid)
    return [
        LintFinding(
            eid,
            Issue.REDUNDANT,
            f"restates {kept[key]} with an identical body; keep one of the two",
        )
        for eid, key in keys
        if kept[key] != eid
    ]


def _multi_concern(live, config) -> list[LintFinding]:
    """One statement per concern keeps later edits local."""
    out = []
    for e in live:
        if not isinstance(e.body, NaturalLanguage):
            continue
        padded = f" {e.body.text.casefold()} "
        for joiner in config.concern_joiners:
            if joiner in padded:
                out.append(
                    LintFinding(
                        e.id,
                        Issue.UNMODIFIABLE,
                        f"bundles several concerns around {joiner.strip()!r}; "
                        f"split them into separate statements",
                        "reduce",
                    )
                )
                break
    return out


def _inconsistent(model: Model, live) -> list[LintFinding]:
    """World clashes, plus terms the reasoner files under declared-disjoint
    classes."""
    out = world_findings(check_consistency(model))

    # atom sets declared jointly empty: the left sides of `:< Nothing` axioms
    # that are ands of atoms, whose atoms `_norm` sorted and deduplicated;
    # only a term under all of a set clashes
    shared = derivation(model)
    groups = [
        ax.sub
        for ax in shared.axioms
        if ax.sup == DL_NOTHING
        and isinstance(ax.sub, DLAnd)
        and all(isinstance(arg, DLAtomic) for arg in ax.sub.args)
    ]
    if not groups:
        return out
    groups.sort(key=lambda group: [arg.name for arg in group.args])
    # A term, an atom that is a whole left side, falls under a whole group
    # exactly when it is empty, and then under every group; name first a
    # group its declarations reach without the `:< Nothing` axioms.
    terms = {ax.sub.name for ax in shared.axioms if isinstance(ax.sub, DLAtomic)}
    empty = [term for term in sorted(terms) if shared.proves(DLAtomic(term), DL_NOTHING)]
    if not empty:
        return out
    declared = _Derivation([ax for ax in shared.axioms if ax.sup != DL_NOTHING])
    # each name -> the least id of the elements that mention it, whatever
    # their order
    mentioned_by: dict[str, str] = {}
    for e in live:
        body = e.body
        names = set().union(*map(mentions, body_descriptions(body)))
        if isinstance(body, FunctionDesc):
            names.add(body.head)
        elif isinstance(body, QualityStatement) and isinstance(body.region, NamedRegion):
            names.add(body.region.name)
        for name in names:
            mentioned_by[name] = min(mentioned_by.get(name, e.id), e.id)
    for term in empty:
        group = next((g for g in groups if declared.proves(DLAtomic(term), g)), groups[0])
        *rest, last = (arg.name for arg in group.args)
        count = "two" if len(group.args) == 2 else len(group.args)
        out.append(
            LintFinding(
                mentioned_by.get(term, "model"),
                Issue.INCONSISTENT,
                f"term {term} falls under {', '.join(rest)} and {last}, "
                f"which are declared disjoint; the {count} uses need "
                f"distinct names",
                "interpret",
            )
        )
    return out


def _ambiguous(live, config) -> list[LintFinding]:
    """Attachment words and double-reading terms admit rival parses."""
    out = []
    double_reading = config.entity_terms & config.quality_terms
    for e in live:
        body = e.body
        if isinstance(body, NaturalLanguage):
            hits = sorted(_text_tokens(body.text) & config.attachment_tokens)
            if hits:
                out.append(
                    LintFinding(
                        e.id,
                        Issue.AMBIGUOUS,
                        f"{'/'.join(hits)} can attach to more than one phrase; "
                        f"restate the intended reading",
                        "interpret",
                    )
                )
            continue
        if not double_reading:
            continue
        for node in (n for d in body_descriptions(body) for n in subterms(d)):
            if not isinstance(node, SlotRestriction):
                continue
            filler = node.filler
            if not isinstance(filler, AtomicConcept):
                continue
            if filler.name.casefold() in double_reading:
                out.append(
                    LintFinding(
                        e.id,
                        Issue.AMBIGUOUS,
                        f"slot {node.slot} filler {filler.name} reads as both "
                        f"an entity and a quality; pick one reading",
                        "interpret",
                    )
                )
                break
    return out
