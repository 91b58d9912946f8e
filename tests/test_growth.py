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
# The counts are those of CPython 3.10 and 3.11; 3.12 and 3.13 count a few
# lines less, and their ratio is the one in parentheses.
GUARDS = {
    # parse, strength audit and world check of the seed-7 bench ladder at
    # n refinement steps: 284,645 -> 1,410,627 lines, ratio 4.956 (4.962)
    "ladder": ((56, 224), 4.97),
    # world check of an n-individual chain, where saturation adds one
    # membership a round: 146,141 -> 2,177,891 lines, ratio 14.903 (14.922)
    "chain": ((125, 500), 14.95),
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


def _chain_text(size: int) -> str:
    """An r chain x0, ..., x{size-1} whose last individual alone is in A,
    under an axiom that pulls A back along r."""
    lines = ["model chain;", "axiom <r: SOME A> :< A;", "world {"]
    lines += [f"  individual x{i};" for i in range(size - 1)]
    lines += [f"  individual x{size - 1} : A;"]
    lines += [f"  slot r (x{i}, x{i + 1});" for i in range(size - 1)]
    return "\n".join(lines + ["}"]) + "\n"


def _counts() -> dict:
    """The line counts of each family at each of its sizes."""
    import reqsmith.saturation  # noqa: F401  (its import is not the work counted)
    from reqsmith.parser import parse_model
    from reqsmith.reasoner import check_consistency, check_strength_tags

    def ladder(text):
        model = parse_model(text)
        check_strength_tags(model)
        check_consistency(model)

    counts = {}
    for family, (sizes, _) in GUARDS.items():
        counts[family] = []
        for size in sizes:
            if family == "ladder":
                text = _ladder_text(size)
                counts[family].append(_count_lines(lambda: ladder(text)))
            else:
                model = parse_model(_chain_text(size))
                counts[family].append(_count_lines(lambda: check_consistency(model)))
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
