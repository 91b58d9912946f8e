"""Growth guards: how the work of a command grows, counted, not timed.

Each guard runs one family of inputs at a size n and at 4n and counts the
line events `sys.settrace` reports in `reqsmith` frames. The ratio of the
two counts is bounded. Counts are deterministic where timings drift, so a
bound can sit at today's ratio: a change that raises the ratio changes how
the work grows. A change that lowers it should tighten the bound. This is
empirical complexity by counted work (Goldsmith, Aiken & Wilkerson,
"Measuring Empirical Computational Complexity", FSE 2007).

The counts run in child processes under two hash seeds, which must agree.
Run this file as a script to print the counts.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# family -> (the sizes n and 4n, the bound on the ratio of their counts).
# The counts are those of CPython 3.10 and 3.11, which count alike; the
# ratios under 3.12 and 3.13 follow in brackets.
GUARDS = {
    # parse, strength audit and world check of the seed-7 bench ladder at
    # n refinement steps: 276,572 -> 1,095,307 lines, ratio 3.960 (3.960,
    # 3.960); a derivation that closes each left side afresh measured 4.965
    # (4.970, 4.972)
    "ladder": ((56, 224), 3.97),
    # world check of an n-individual chain, where saturation adds one
    # membership a round: 146,398 -> 2,178,898 lines, ratio 14.883 (14.902,
    # 14.902)
    "chain": ((125, 500), 14.95),
    # parse and `query --pattern "<object: C0>"` of the same ladder:
    # 179,135 -> 690,030 lines, ratio 3.852 (3.852, 3.852); closing each
    # left side afresh measured 5.336 (5.338, 5.343)
    "ladder-query": ((56, 224), 3.86),
    # parse, lint and world check of the same ladder with one disjointness
    # axiom, so lint asks each term whether it is empty: 122,348 -> 471,019
    # lines, ratio 3.850 (3.851, 3.850); closing each left side afresh
    # measured 10.426 (10.422, 10.440)
    "ladder-lint": ((56, 224), 3.86),
    # fulfillment of an n-step reduce chain whose last goal alone is marked,
    # which wakes one application per step: 2,303 -> 9,203 lines, ratio
    # 3.996 (3.997, 3.997)
    "fulfill": ((100, 400), 4.0),
}


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


def _ladder_text(steps: int) -> str:
    spec = importlib.util.spec_from_file_location("reqsmith_bench_gen", ROOT / "bench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.LADDER_STEPS = steps
    # generate only names paths under its directory; it writes nothing
    return gen.generate("ladder", 7, Path("unused")).files["model.dsr"]


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


def _counts() -> dict:
    """The line counts of each family at each of its sizes."""
    import reqsmith.saturation  # noqa: F401  (its import is not the work counted)
    from reqsmith.fulfillment import propagate_fulfillment
    from reqsmith.lint import lint_model
    from reqsmith.parser import parse_description, parse_model
    from reqsmith.reasoner import check_consistency, check_strength_tags, query

    pattern = parse_description("<object: C0>")

    def ladder(text):
        model = parse_model(text)
        check_strength_tags(model)
        check_consistency(model)

    def ladder_query(text):
        query(parse_model(text), pattern)

    def ladder_lint(text):
        model = parse_model(text)
        lint_model(model)
        check_consistency(model)

    # family -> (the work counted, its input at a size, built uncounted)
    runs = {
        "ladder": (ladder, _ladder_text),
        "chain": (check_consistency, lambda size: parse_model(_chain_text(size))),
        "ladder-query": (ladder_query, _ladder_text),
        "ladder-lint": (ladder_lint, lambda size: _ladder_text(size) + _DISJOINT),
        "fulfill": (propagate_fulfillment, lambda size: parse_model(_fulfill_text(size))),
    }
    counts = {}
    for family, (sizes, _) in GUARDS.items():
        run, given = runs[family]
        counts[family] = []
        for size in sizes:
            value = given(size)
            counts[family].append(_count_lines(lambda: run(value)))
    return counts


@pytest.fixture(scope="module")
def counts_by_seed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {}
    for seed in ("0", "123"):
        run = subprocess.run(
            [sys.executable, __file__],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        runs[seed] = json.loads(run.stdout)
    return runs


def test_counts_repeat_under_two_hash_seeds(counts_by_seed):
    assert counts_by_seed["0"] == counts_by_seed["123"]


@pytest.mark.parametrize("family", GUARDS)
def test_work_grows_within_its_bound(counts_by_seed, family):
    small, large = counts_by_seed["0"][family]
    assert large / small <= GUARDS[family][1]


if __name__ == "__main__":
    print(json.dumps(_counts()))
