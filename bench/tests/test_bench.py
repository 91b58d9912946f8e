"""Self-tests of the benchmark: generator, oracle and tracer.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from reqsmith import cli, reasoner  # noqa: E402

MISTAG = "inconsistent: tagged weaken, but only the outputs are provably below the input"
UNIVERSAL = (
    "unsatisfiable: the statement binds every member of its subject class; "
    "relax it to a fraction with a percentage annotation [suggest deuniv]"
)
UNVERIFIABLE = (
    "unverifiable: region Fast is qualitative and carries no agreed measurement; "
    "derive a measured constraint or name an observer who judges it [suggest observe]"
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(gen, "LADDER_STEPS", 3)
    monkeypatch.setattr(gen, "RING_INDIVIDUALS", 8)
    monkeypatch.setattr(gen, "TAIL_GROUPS", 1)
    monkeypatch.setattr(gen, "SMALL_RING", 4)


def _op(work, *argv_head):
    return next(op for op in work.ops if op.argv[: len(argv_head)] == list(argv_head))


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_same_seed_gives_identical_files(name, tmp_path):
    first = gen.generate(name, 7, tmp_path / "a")
    second = gen.generate(name, 7, tmp_path / "b")
    assert first.files == second.files
    assert gen.generate(name, 8, tmp_path / "c").files != first.files


def test_seeds_move_the_planted_defects(tmp_path):
    mistags = {tuple(gen.generate("ladder", s, tmp_path).facts["check"]) for s in range(4)}
    clashes = {gen.generate("ring-world", s, tmp_path).facts["clash"] for s in range(4)}
    assert len(mistags) > 1
    assert len(clashes) > 1


def test_tiny_ladder_expectations_and_oracle(tiny, tmp_path):
    work = gen.generate("ladder", 0, tmp_path)
    work.write()
    text = work.files["model.dsr"]
    apps = [line for line in text.splitlines() if " -> " in line]
    (index,) = [i for i, line in enumerate(apps) if line.startswith("reduce") and "[weaken]" in line]
    assert len(apps) == 3 + 2 + 2  # operationalize x3, focus x2, reduce x2
    check = _op(work, "check")
    assert (check.code, check.stdout) == (1, f"application[{index}]: {MISTAG}\n")
    assert _op(work, "query").stdout == "F0\nF1\nF2\n"
    lint = _op(work, "lint")
    qualities = [line.split()[1] for line in text.splitlines() if line.startswith(("qg ", "qc "))]
    goals = [q for q in qualities if q.startswith(("QG", "EQG"))]
    assert lint.stdout == "".join(
        [f"{q}: {UNIVERSAL}\n" for q in qualities] + [f"{q}: {UNVERIFIABLE}\n" for q in goals]
    )
    tally = run.Tally()
    run.run_inprocess(work, tally)
    assert (tally.failed, tally.reasons) == (0, [])


def test_tiny_ring_world_expectations_and_oracle(tiny, tmp_path):
    work = gen.generate("ring-world", 0, tmp_path)
    work.write()
    ring = [line.strip() for line in work.files["model.dsr"].splitlines() if "slot accessed_by" in line]
    clash_edges = [line.strip() for line in work.files["clash.dsr"].splitlines() if "slot accessed_by" in line]
    (extra,) = set(clash_edges) - set(ring)
    source = extra.split("(")[1].split(",")[0]
    lint = _op(work, "lint")
    assert lint.argv[1].endswith("clash.dsr")
    assert lint.stdout.splitlines()[-1] == (
        f"world: inconsistent: axiom Node :< <=1 accessed_by.Thing: {source} has 2 "
        "accessed_by fillers in Thing, more than 1"
    )
    assert (_op(work, "check").code, _op(work, "check").stdout) == (0, "")
    hubs = [
        int(line.split()[1][1:])
        for line in work.files["model.dsr"].splitlines()
        if line.strip().startswith("individual") and "Hub" in line
    ]
    assert work.probe_expected == sorted(f"r{(h - 2) % 8}" for h in hubs)
    tally = run.Tally()
    run.run_inprocess(work, tally)
    assert (tally.failed, tally.reasons) == (0, [])


def test_oracle_flags_wrong_results(tmp_path):
    op = gen.Op("check_s", ["check", "m.dsr"], 1, "a\nb\n")
    assert oracle.verdict(op, 1, "a\nb\n", "") is None
    assert "exit status" in oracle.verdict(op, 0, "a\nb\n", "")
    assert "stdout" in oracle.verdict(op, 1, "b\na\n", "")
    assert "stderr" in oracle.verdict(op, 1, "a\nb\n", "warning\n")
    traceback = "Traceback (most recent call last):\n  ...\nRecursionError: deep\n"
    assert "traceback" in oracle.verdict(op, 1, "a\nb\n", traceback)

    owl = tmp_path / "m.ofn"
    translate = gen.Op("session_s", ["translate"], 0, "", str(owl), ["x", "y", ")"])
    owl.write_text("y\n\nx\n)\n")
    assert oracle.verdict(translate, 0, "", "") is None
    owl.write_text("x\n)\n")
    assert "output file differs" in oracle.verdict(translate, 0, "", "")


def _stdout_of(work):
    outputs = []
    for op in work.ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(op.argv))
        outputs.append(out.getvalue())
    return outputs


def test_traced_and_untraced_runs_print_the_same(tiny, tmp_path):
    original = reasoner.subsumes
    for name in gen.WORKLOADS:
        work = gen.generate(name, 3, tmp_path / name)
        work.write()
        plain = _stdout_of(work)
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert reasoner.subsumes is not original
            traced = _stdout_of(work)
        finally:
            tracer.uninstall()
        assert traced == plain
        assert any(s.name == "reasoner.check_consistency" for s in tracer.spans)
    assert reasoner.subsumes is original


def test_self_time_subtracts_child_spans():
    recorded = [
        spans.Span("lint.lint_model", 0.0, 1.0, None, "op"),
        spans.Span("reasoner.check_consistency", 0.2, 0.7, 0, "op"),
        spans.Span("reasoner.collect_axioms", 0.3, 0.4, 1, "op"),
    ]
    metrics = spans.layer_metrics(recorded)
    assert metrics["lint.lint_model.self_s"] == pytest.approx(0.5)
    assert metrics["reasoner.check_consistency.s"] == pytest.approx(0.5)
    assert metrics["reasoner.collect_axioms.calls"] == 1
