"""Growth guards: how the work of a command grows, counted, not timed.

Each guard runs one family of inputs at several sizes and counts the line
events `sys.settrace` reports in `reqsmith` frames. Counts are
deterministic where timings drift, so a bound can sit close to today's
growth. This is empirical complexity by counted work (Goldsmith, Aiken &
Wilkerson, "Measuring Empirical Computational Complexity", FSE 2007).

A family whose work should be linear runs at n, 2n and 4n, and its bound
is on the increment ratio (c(4n) - c(2n)) / (c(2n) - c(n)). That is 2 for
any count a + b*n, so a change that only cuts fixed or linear work leaves
it at 2, and only work that grows faster than n raises it. A family run at
n and 4n alone is bounded on c(4n) / c(n).

Beside the growth guards, the module pins two counts of work at one size:
what one disjointness axiom adds to lint, and how often the derivation runs
its rules for the strength audit and for a query.

The counts run in child processes under two hash seeds, which must agree.
`PYTHONPATH=src python tests/test_growth.py` prints the counts and ratios;
it needs no pytest.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# family -> (its sizes, the bound on how its counts grow). CI checks the
# bounds on CPython 3.10, 3.11, 3.12 and 3.13; the counts and ratios quoted
# were measured on 3.11.
GUARDS = {
    # parse, strength audit and world check of the seed-7 bench ladder at
    # n refinement steps: 310,194, 616,710 and 1,229,561 lines, increment
    # ratio 1.9994; a derivation that closes each left side afresh measured
    # 2.433, one that makes its fired axioms in full 2.418, and one that
    # settles the atoms' closures in axiom order 2.444
    "ladder": ((56, 112, 224), 2.02),
    # world check of an n-individual chain, where saturation adds one
    # membership a round: 78,937 -> 1,065,187 lines, ratio 13.494; a
    # saturator that runs a full round after each assertion differs from it
    # by a constant factor, so this bound stays on the ratio until a round's
    # work depends on the change
    "chain": ((125, 500), 14.95),
    # parse and `query --pattern "<object: C0>"` of the same ladder:
    # increment ratio 1.9987; the three derivations above measured 2.608,
    # 2.590 and 2.639
    "ladder-query": ((56, 112, 224), 2.02),
    # parse, lint and world check of the same ladder with one disjointness
    # axiom, so lint asks each term whether it is empty: increment ratio
    # 1.9983; the three derivations above measured 3.578, 2.809 and 2.897,
    # and one that does not refute `term :< Nothing` at once 3.659
    "ladder-lint": ((56, 112, 224), 2.02),
    # fulfillment of an n-step reduce chain whose last goal alone is marked,
    # which wakes one application per step: increment ratio 2.0000
    "fulfill": ((100, 200, 400), 2.02),
    # parse and `fmt` of the seed-1 bench `edit-session` model at n edit
    # groups: 67,940, 133,820 and 265,370 lines, increment ratio 1.9968
    "edit-fmt": ((60, 120, 240), 2.02),
    # parse and `query --pattern "<object: Record3>"` of the same model,
    # the query that must prove: increment ratio 1.9991
    "edit-query": ((60, 120, 240), 2.02),
    # parse, strength audit and world check of the seed-1 bench `ring-world`
    # model at n ring individuals: 13,026, 21,099 and 37,192 lines,
    # increment ratio 1.9934
    "ring-check": ((55, 110, 220), 2.02),
    # `membership_degrees` of n point regions of 10 prototypes each, at the
    # midpoint between the two middle regions: 189, 385 and 777 lines,
    # increment ratio 2.0000; a count that multiplies one
    # factor per other region measured 3.752, and the completion enumerator
    # exits at its cap of 1,000,000 from 8 regions on
    "membership": ((4, 8, 16), 2.02),
    # translate, `_norm`, `format_description`, `_render` and `eval_dl` of a
    # library-built `<r: SOME ...>` description n levels deep, each one fold:
    # 38,296, 76,546 and 153,046 lines, increment ratio 2.0000
    "nested": ((250, 500, 1000), 2.02),
    # parse, strength audit, world check and `translate` of an n-operand
    # adjacency chain and an n-operand `|` chain: 306,413, 611,413 and
    # 1,221,413 lines, increment ratio 2.0000; a `_render` that asks
    # `_is_dataish` of every node measured 3.965, and a `_norm` that
    # flattens and sorts each level of a run again 3.923
    "flat-chain": ((500, 1000, 2000), 2.02),
}

# lint of the 224-step ladder with one disjointness axiom against lint of the
# same ladder without it: ratio 1.269; a lint that walks
# every element's mentions before it knows a term is empty measured 1.771
LINT_DISJOINT = (224, 1.35)

# the `_Derivation._rules` runs of the strength audit and of `query
# --pattern "<object: C0>"` on the seed-7 ladder at 56 and 224 steps, and of
# the audit of the seed-1 bench `open-audit` model
RULES = {
    "ladder-56 audit": 2471,
    "ladder-56 query": 531,
    "ladder-224 audit": 9863,
    "ladder-224 query": 2042,
    "open-audit audit": 99,
}


def _growth(counts: list) -> float:
    """The increment ratio of counts at n, 2n and 4n; the ratio of two counts."""
    if len(counts) == 3:
        small, middle, large = counts
        return (large - middle) / (middle - small)
    small, large = counts
    return large / small


def _count_lines(run) -> int:
    """The line events that `run()` raises in `reqsmith` frames."""
    import reqsmith

    package = os.path.dirname(reqsmith.__file__)
    count = 0

    def in_frame(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def _count_rules(run) -> int:
    """The runs of `_Derivation._rules` that `run()` makes."""
    from reqsmith.reasoner import _Derivation

    rules, count = _Derivation._rules, 0

    def counted(derivation, sub, sup):
        nonlocal count
        count += 1
        return rules(derivation, sub, sup)

    _Derivation._rules = counted
    try:
        run()
    finally:
        _Derivation._rules = rules
    return count


def _bench_text(workload: str, seed: int, **sizes) -> str:
    spec = importlib.util.spec_from_file_location("reqsmith_bench_gen", ROOT / "bench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for name, value in sizes.items():
        setattr(gen, name, value)
    # generate only names paths under its directory; it writes nothing
    return gen.generate(workload, seed, Path("unused")).files["model.dsr"]


def _ladder_text(steps: int) -> str:
    return _bench_text("ladder", 7, LADDER_STEPS=steps)


# C5 and Other share no instance: lint then asks of each term whether it is
# empty, a proof goal per term
_DISJOINT = "axiom C5 Other :< Nothing;\n"


def _chain_text(size: int) -> str:
    """An r chain x0, ..., x{size-1} whose last individual alone is in A,
    under an axiom that pulls A back along r."""
    lines = ["model chain;", "axiom <r: SOME A> :< A;", "world {"]
    lines += [f"  individual x{i};" for i in range(size - 1)]
    lines += [f"  individual x{size - 1} : A;"]
    lines += [f"  slot r (x{i}, x{i + 1});" for i in range(size - 1)]
    return "\n".join(lines + ["}"]) + "\n"


def _fulfill_text(steps: int) -> str:
    """A reduce chain G0 -> G1 -> ... whose last goal alone is fulfilled."""
    lines = ["model chain;"]
    lines += [f'goal G{i} := "step {i}";' for i in range(steps)]
    lines += [f"reduce G{i} -> G{i + 1} [strengthen];" for i in range(steps - 1)]
    return "\n".join(lines + [f"fulfilled G{steps - 1};"]) + "\n"


def _nested(depth: int):
    """`<r: SOME ...<r: SOME A>...>`, `depth` restrictions deep."""
    from reqsmith.model import SOME, AtomicConcept, SlotRestriction

    d = AtomicConcept("A")
    for _ in range(depth):
        d = SlotRestriction("r", SOME, d)
    return d


def _flat_chain_text(size: int) -> str:
    """Axioms whose right sides chain `size` atoms by adjacency and by `|`,
    over a world whose one individual the first axiom fires on."""
    adjacency = " ".join(f"A{i}" for i in range(size))
    union = " | ".join(f"A{i}" for i in range(size))
    world = "world { individual a : A; }"
    return f"model flat;\naxiom A :< ({adjacency});\naxiom B :< {union};\n{world}\n"


def _membership_case(size: int) -> tuple:
    """A value and `size` point regions r{i} = {10i, ..., 10i + 9}; the value
    ties the two middle regions' nearest prototypes."""
    from reqsmith.model import PointPrototypes, PrototypeRegion

    points = [tuple(map(Fraction, range(10 * i, 10 * i + 10))) for i in range(size)]
    regions = [PrototypeRegion(f"r{i}", PointPrototypes(p)) for i, p in enumerate(points)]
    return Fraction(10 * (size // 2)) - Fraction(1, 2), regions


def _counts() -> dict:
    """The line counts of each family at each of its sizes, of lint with and
    without a disjointness axiom, and the derivation's rule runs."""
    import reqsmith.saturation  # noqa: F401  (its import is not the work counted)
    from reqsmith.export import _render, emit_owl
    from reqsmith.fulfillment import propagate_fulfillment
    from reqsmith.lint import lint_model
    from reqsmith.membership import membership_degrees
    from reqsmith.model import World
    from reqsmith.parser import parse_description, parse_model, print_model
    from reqsmith.printer import format_description
    from reqsmith.reasoner import _norm, check_consistency, check_strength_tags, query
    from reqsmith.semantics import eval_dl, translate_description

    pattern = parse_description("<object: C0>")
    record = parse_description("<object: Record3>")

    def check(text):
        model = parse_model(text)
        check_strength_tags(model)
        check_consistency(model)

    def ladder_query(text):
        query(parse_model(text), pattern)

    def audit(text):
        check_strength_tags(parse_model(text))

    def ladder_lint(text):
        model = parse_model(text)
        lint_model(model)
        check_consistency(model)

    ring = World(
        individuals=frozenset({"a", "b"}),
        concept_extensions={"A": frozenset({"b"})},
        slot_tuples={"r": frozenset({("a", "b"), ("b", "a")})},
    )

    def nested(d):
        concept = translate_description(d)
        _norm(concept)
        format_description(d)
        _render(concept)
        eval_dl(concept, ring)

    def flat_chain(text):
        check(text)
        emit_owl(parse_model(text))

    # family -> (the work counted, its input at a size, built uncounted)
    runs = {
        "ladder": (check, _ladder_text),
        "chain": (check_consistency, lambda size: parse_model(_chain_text(size))),
        "ladder-query": (ladder_query, _ladder_text),
        "ladder-lint": (ladder_lint, lambda size: _ladder_text(size) + _DISJOINT),
        "fulfill": (propagate_fulfillment, lambda size: parse_model(_fulfill_text(size))),
        "edit-fmt": (
            lambda text: print_model(parse_model(text)),
            lambda size: _bench_text("edit-session", 1, EDIT_GROUPS=size),
        ),
        "edit-query": (
            lambda text: query(parse_model(text), record),
            lambda size: _bench_text("edit-session", 1, EDIT_GROUPS=size),
        ),
        "ring-check": (check, lambda size: _bench_text("ring-world", 1, RING_INDIVIDUALS=size)),
        "membership": (lambda case: membership_degrees(*case), _membership_case),
        "nested": (nested, _nested),
        "flat-chain": (flat_chain, _flat_chain_text),
    }
    lines = {}
    for family, (sizes, _) in GUARDS.items():
        run, given = runs[family]
        lines[family] = []
        for size in sizes:
            value = given(size)
            lines[family].append(_count_lines(lambda: run(value)))
    text = _ladder_text(LINT_DISJOINT[0])
    lines["lint-disjoint"] = [
        _count_lines(lambda: lint_model(model))
        for model in (parse_model(text), parse_model(text + _DISJOINT))
    ]

    rules = {}
    for steps in (56, 224):
        text = _ladder_text(steps)
        rules[f"ladder-{steps} audit"] = _count_rules(lambda: audit(text))
        rules[f"ladder-{steps} query"] = _count_rules(lambda: ladder_query(text))
    text = _bench_text("open-audit", 1)
    rules["open-audit audit"] = _count_rules(lambda: audit(text))
    return {"lines": lines, "rules": rules}


@functools.cache
def _reports_by_seed() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reports = {}
    for seed in ("0", "123"):
        run = subprocess.run(
            [sys.executable, __file__],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        reports[seed] = json.loads(run.stdout)
    return reports


def pytest_generate_tests(metafunc):
    if "family" in metafunc.fixturenames:
        metafunc.parametrize("family", list(GUARDS))


def test_counts_repeat_under_two_hash_seeds():
    assert _reports_by_seed()["0"] == _reports_by_seed()["123"]


def test_work_grows_within_its_bound(family):
    assert _growth(_reports_by_seed()["0"]["lines"][family]) <= GUARDS[family][1]


def test_a_disjointness_axiom_adds_little_to_lint():
    assert _growth(_reports_by_seed()["0"]["lines"]["lint-disjoint"]) <= LINT_DISJOINT[1]


def test_the_derivation_runs_its_rules_as_often_as_pinned():
    # each change to the derivation has so far kept these counts; a change
    # that lowers one should lower it here
    assert _reports_by_seed()["0"]["rules"] == RULES


if __name__ == "__main__":
    counts = _counts()
    counts["growth"] = {name: round(_growth(c), 4) for name, c in counts["lines"].items()}
    print(json.dumps(counts, indent=1))
