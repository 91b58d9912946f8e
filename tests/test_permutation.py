"""Shuffling a model changes none of its verdicts.

Hypothesis permutes a parsed model's axioms, elements and applications;
the strength audit, the world check, the bench queries and lint must
answer the same on every permutation. Each answer is read so that the
order cannot show: an audit diagnostic is keyed by its application record,
not by its index; clash lines, query matches and lint findings are
compared as sets or multisets, and a `redundant` finding as the unordered
pair of ids it names.
"""

import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from reqsmith.findings import Issue
from reqsmith.lint import lint_model
from reqsmith.model import replace
from reqsmith.parser import parse_description, parse_model
from reqsmith.reasoner import check_consistency, check_strength_tags, query

hypothesis = pytest.importorskip("hypothesis")
strategies = hypothesis.strategies

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def _bench_gen():
    spec = importlib.util.spec_from_file_location("reqsmith_bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# three elements with one body, and a term under a disjoint group that two
# elements mention: lint names an element of each, whatever their order
REPEATS = """model repeats;
axiom A B :< Nothing;
axiom T :< A;
axiom T :< B;
fg FG3 := Ticket :< Booked;
fg FG1 := Ticket :< Booked;
fg FG2 := Ticket :< Booked;
func F2 := Book <object: T>;
func F1 := Keep <object: T>;
"""


def _sources():
    """(name, model text) of each fixture that parses, of a model of
    repeats and of the seed-1 models of every bench workload, and the bench
    query patterns."""
    sources = [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(FIXTURES.glob("*.dsr"))
        if path.name != "syntax_error.dsr"
    ]
    sources.append(("repeats", REPEATS))
    gen, patterns = _bench_gen(), []
    for workload in gen.WORKLOADS:
        # the work directory only names files in the commands; none is written
        work = gen.generate(workload, 1, Path(workload))
        for name in ("model.dsr", "clash.dsr"):
            if name in work.files:
                sources.append((f"{workload}/{name}", work.files[name]))
        patterns += [op.argv[3] for op in work.ops if op.argv[0] == "query"]
    return sources, sorted(set(patterns))


SOURCES, PATTERNS = _sources()
REDUNDANT = re.compile(r"restates (\S+) with an identical body")


def _verdicts(model) -> tuple:
    audit = Counter(
        (model.applications[d.application_index], d.declared, d.message)
        for d in check_strength_tags(model)
    )
    consistency = check_consistency(model)
    matches = {p: query(model, parse_description(p)) for p in PATTERNS}
    findings = Counter()
    for f in lint_model(model):
        if f.issue is Issue.REDUNDANT:
            other = REDUNDANT.match(f.detail).group(1)
            findings[f.issue, frozenset((f.element_id, other))] += 1
        else:
            findings[f] += 1
    return audit, consistency.status, set(consistency.explanation), matches, findings


@pytest.mark.parametrize(("name", "text"), SOURCES, ids=[name for name, _ in SOURCES])
def test_shuffling_a_model_changes_no_verdict(name, text):
    model = parse_model(text)
    assert not isinstance(model, list), model
    expected = _verdicts(model)

    @hypothesis.settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @hypothesis.given(strategies.data())
    def shuffled(data):
        order = {
            field: tuple(data.draw(strategies.permutations(getattr(model, field)), label=field))
            for field in ("axioms", "elements", "applications")
        }
        assert _verdicts(replace(model, **order)) == expected

    shuffled()
