"""End-to-end tests for the command-line interface."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import reqsmith
from reqsmith.cli import main
from reqsmith.parser import parse_model, print_model

CLEAN = 'model m;\nfunc F1 := Book <actor: User> <object: Ticket>;\n'

BAD_TAG = (
    "model m;\n"
    "axiom Airline_ticket :< Ticket;\n"
    "func F1 := Book <object: Ticket>;\n"
    "func F2 := Book <object: Airline_ticket>;\n"
    "reduce F1 -> F2 [weaken];\n"
)

CLASHING_WORLD = (
    "model w;\n"
    "axiom Hot Cold :< Nothing;\n"
    "world {\n"
    "individual x1 : Hot, Cold;\n"
    "}\n"
)

BOOKING = (
    "model booking;\n"
    "fg G1 := Ticket :< Booked;\n"
    "func F2 := Book <object: Ticket>;\n"
    "func F3 := Book <object: Airline_ticket> <means: Credit_card>;\n"
    "func F4 := Book <object: Bus_ticket> <means: Cash>;\n"
    "operationalize G1 -> F2 [strengthen];\n"
    "reduce F2 -> F3, F4 [strengthen];\n"
    "fulfilled F3, F4;\n"
)

COST_REGIONS = (
    "model cost;\n"
    "regions Cost {\n"
    "  low = interval [500, 700];\n"
    "  medium = interval [800, 1000];\n"
    "  high = interval [1200, 1500];\n"
    "}\n"
)


def write(tmp_path, text, name="input.dsr"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(args, hash_seed="0", extra_options=()):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(reqsmith.__file__).parents[1]),
        PYTHONHASHSEED=hash_seed,
    )
    return subprocess.run(
        [sys.executable, *extra_options, "-m", "reqsmith.cli", *args],
        env=env,
        capture_output=True,
        timeout=60,
    )


# ===== shared behavior =====


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.dsr")]) == 2
    assert capsys.readouterr().err.strip()


def test_non_utf8_model_exits_two_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.dsr"
    path.write_bytes(b"\xff\xfe")
    assert main(["fmt", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: error: not UTF-8 text")
    assert err.count("\n") == 1


def test_non_utf8_lint_config_exits_two_naming_the_file(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    config = tmp_path / "lint.cfg"
    config.write_bytes(b"required_slots = \xff\n")
    assert main(["lint", path, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{config}: error: not UTF-8 text")
    assert err.count("\n") == 1


def test_parse_errors_exit_two_with_span(tmp_path, capsys):
    path = write(tmp_path, "model m;\ngoal G1 := ;\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err
    assert "error" in err


@pytest.mark.parametrize("command", ["fmt", "check"])
@pytest.mark.parametrize("rational", ["3/0", "0/00"])
def test_zero_denominators_exit_two_with_span(tmp_path, capsys, command, rational):
    text = f"model m;\nqg QG1 := Processing_time (Booking) :: [1, {rational}];\n"
    path = write(tmp_path, text)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}:2:44: error: a rational needs a nonzero denominator, found {rational}\n"
    )


def test_query_pattern_with_a_zero_denominator_exits_two(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["query", path, "--pattern", "{1/0}"]) == 2
    assert capsys.readouterr().err == (
        "<input>:1:2: error: a rational needs a nonzero denominator, found 1/0\n"
    )


@pytest.mark.parametrize("command", ["fmt", "check"])
@pytest.mark.parametrize(("restriction", "count"), [("<=0", "0"), (">=1.5", "1.5")])
def test_counts_below_one_or_fractional_exit_two_with_span(
    tmp_path, capsys, command, restriction, count
):
    path = write(tmp_path, f"model m;\nfunc F1 := Book <object: {restriction} Ticket>;\n")
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}:2:28: error: a cardinality count must be a whole number >= 1, "
        f"found {count}\n"
    )


def _some_chain(depth: int) -> str:
    return "<s: SOME " * depth + "A" + ">" * depth


TWO_INDIVIDUALS = (
    "world {\n  individual a : A;\n  individual b;\n"
    "  slot s (a, b);\n  slot s (b, a);\n}\n"
)


@pytest.mark.parametrize("command", ["check", "lint"])
def test_deeply_nested_restrictions_are_checked_quickly(tmp_path, command):
    # Evaluating each filler once per restriction keeps this linear in depth.
    text = f"model deep;\naxiom {_some_chain(60)} :< B;\n" + TWO_INDIVIDUALS
    run = run_cli([command, write(tmp_path, text)])
    assert (run.returncode, run.stdout, run.stderr) == (0, b"", b"")


@pytest.mark.parametrize("command", ["fmt", "check", "lint", "translate"])
@pytest.mark.parametrize(
    "description",
    [
        _some_chain(101),
        _some_chain(140),
        " | ".join(f"A{i}" for i in range(1500)),
        "(" * 150 + "A" + ")" * 150,
    ],
    ids=["some-101", "some-140", "or-1500", "parens-150"],
)
def test_over_deep_descriptions_exit_two_with_span(
    tmp_path, capsys, command, description
):
    path = write(tmp_path, f"model deep;\naxiom {description} :< B;\n")
    args = [command, path]
    if command == "translate":
        args += ["--out", str(tmp_path / "deep.ofn")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:2:")
    assert captured.err.endswith(": error: description nested more than 100 levels deep\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["fmt", "check", "lint", "translate"])
@pytest.mark.parametrize(
    "description",
    [
        _some_chain(100),
        "<s: ONLY " * 100 + "A" + ">" * 100,
        " | ".join(f"A{i}" for i in range(101)),
        "(" + " ".join(f"A{i}" for i in range(101)) + ")",
        " - ".join(f"A{i}" for i in range(101)),
    ],
    ids=["some", "only", "or", "and", "minus"],
)
def test_descriptions_at_the_nesting_limit_are_accepted(
    tmp_path, capsys, command, description
):
    path = write(tmp_path, f"model deep;\naxiom A :< {description};\n" + TWO_INDIVIDUALS)
    args = [command, path]
    if command == "translate":
        args += ["--out", str(tmp_path / "deep.ofn")]
    assert main(args) in (0, 1)
    assert capsys.readouterr().err == ""


def test_unknown_flag_exits_two(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["check", path, "--frobnicate"]) == 2
    assert capsys.readouterr().err.strip()


def test_unknown_subcommand_exits_two(tmp_path, capsys):
    assert main(["polish", "x.dsr"]) == 2
    assert capsys.readouterr().err.strip()


def test_runs_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, BOOKING)
    assert main(["fulfill", path]) == 0
    first = capsys.readouterr().out
    assert main(["fulfill", path]) == 0
    assert capsys.readouterr().out == first


# ===== fmt =====


def test_fmt_prints_canonical_text(tmp_path, capsys):
    path = write(tmp_path, 'model m;\ngoal   G1   :=   "collect traffic info";\n')
    assert main(["fmt", path]) == 0
    out = capsys.readouterr().out
    assert out == 'model m;\ngoal G1 := "collect traffic info";\n'


def test_fmt_is_idempotent(tmp_path, capsys):
    path = write(tmp_path, BOOKING)
    assert main(["fmt", path]) == 0
    once = capsys.readouterr().out
    again = write(tmp_path, once, name="canon.dsr")
    assert main(["fmt", again]) == 0
    assert capsys.readouterr().out == once


def test_fmt_matches_the_library_printer(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    assert main(["fmt", path]) == 0
    assert capsys.readouterr().out == print_model(parse_model(COST_REGIONS))


# ===== check =====


def test_check_clean_model_is_quiet(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == ""


def test_check_accepts_a_bound(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["check", path, "--bound", "2"]) == 0


def test_check_reports_contradicted_strength_tags(tmp_path, capsys):
    path = write(tmp_path, BAD_TAG)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "application[0]" in out


@pytest.mark.parametrize("tag, code", [("strengthen", 1), ("equate", 1), ("weaken", 0)])
def test_check_flags_operationalizations_into_assumptions_only(tmp_path, capsys, tag, code):
    path = write(
        tmp_path,
        "model m;\nfg G1 := Ticket :< Booked;\nda DA1 := Fixed_sensor :< Installed;\n"
        f"operationalize G1 -> DA1 [{tag}];\n",
    )
    assert main(["check", path]) == code
    expected = (
        f"application[0]: inconsistent: operationalize cannot be tagged {tag}: "
        "operationalizing into assumptions only always weakens\n"
    )
    assert capsys.readouterr().out == (expected if code else "")


def test_check_reports_world_clashes(tmp_path, capsys):
    path = write(tmp_path, CLASHING_WORLD)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "world" in out
    assert "Nothing" in out


def test_check_json_uses_the_report_schema(tmp_path, capsys):
    path = write(tmp_path, BAD_TAG)
    assert main(["check", path, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["version"] == 1
    assert data["findings"][0]["element"] == "application[0]"
    assert data["findings"][0]["issue"] == "inconsistent"


# ===== lint =====


def test_lint_reports_findings(tmp_path, capsys):
    path = write(tmp_path, "model s;\nfunc F2 := Send <object: Notification>;\n")
    assert main(["lint", path]) == 1
    out = capsys.readouterr().out
    assert "F2: incomplete:" in out
    assert "Who will send?" in out
    assert "[suggest reduce]" in out


def test_lint_clean_model_is_quiet(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["lint", path]) == 0
    assert capsys.readouterr().out == ""


def test_lint_reads_a_config_file(tmp_path, capsys):
    path = write(tmp_path, "model s;\nfunc F2 := Send <object: Notification>;\n")
    config = tmp_path / "lint.cfg"
    config.write_text(
        "required_slots = object\ncommunicative_heads =\n", encoding="utf-8"
    )
    assert main(["lint", path, "--config", str(config)]) == 0


def test_lint_rejects_unknown_config_keys(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    config = tmp_path / "lint.cfg"
    config.write_text("strictness = high\n", encoding="utf-8")
    assert main(["lint", path, "--config", str(config)]) == 2
    assert "strictness" in capsys.readouterr().err


def test_lint_json_lists_findings(tmp_path, capsys):
    path = write(tmp_path, "model s;\nfunc F2 := Send <object: Notification>;\n")
    assert main(["lint", path, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["findings"][0]["element"] == "F2"
    assert data["findings"][0]["suggestion"] == "reduce"


# ===== query =====


def test_query_prints_matching_ids(tmp_path, capsys):
    path = write(tmp_path, CLEAN + 'goal G2 := "collect";\n')
    assert main(["query", path, "--pattern", "<object: Ticket>"]) == 0
    assert capsys.readouterr().out == "F1\n"


def test_query_without_matches_is_quiet(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["query", path, "--pattern", "Zebra"]) == 0
    assert capsys.readouterr().out == ""


def test_query_bad_pattern_exits_two(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["query", path, "--pattern", "<object:"]) == 2
    assert capsys.readouterr().err.strip()


def test_query_json_reports_matches_as_subsumptions(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["query", path, "--pattern", "<object: Ticket>", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["subsumptions"] == [
        {
            "sub": "F1",
            "sup": "<object: Ticket>",
            "status": "proven",
            "method": "query",
        }
    ]


def test_query_proves_matches_in_a_large_flat_model(tmp_path, capsys):
    elements = []
    for g in range(300):
        elements += [
            f'goal G{g} := "keep record {g} current";',
            f"fg FG{g} := Record{g} :< Kept;",
            f"func F{g} := Keep <actor: SOME User> <object: Record{g}>;",
            f"qg QG{g} := Speed (F{g}.object) :: Fast;",
            f"qc QC{g} := Processing_time (F{g}.object) :: [0, 30 (Sec)];",
        ]
    random.Random(5).shuffle(elements)
    path = write(tmp_path, "model flat;\n" + "\n".join(elements) + "\n")
    assert main(["query", path, "--pattern", "<object: Record3>"]) == 0
    assert capsys.readouterr().out == "F3\n"


# ===== fulfill =====


def test_fulfill_prints_states_in_declaration_order(tmp_path, capsys):
    path = write(tmp_path, BOOKING)
    assert main(["fulfill", path]) == 0
    assert capsys.readouterr().out == (
        "G1: fulfilled\nF2: fulfilled\nF3: fulfilled\nF4: fulfilled\n"
    )


def test_fulfill_with_partial_marks_shows_unknown(tmp_path, capsys):
    text = BOOKING.replace("fulfilled F3, F4;", "fulfilled F3;")
    path = write(tmp_path, text)
    assert main(["fulfill", path]) == 0
    out = capsys.readouterr().out
    assert "F2: unknown" in out
    assert "G1: unknown" in out


def test_fulfill_threshold_relaxes_fan_outs(tmp_path, capsys):
    text = (
        "model t;\n"
        "fg G := Report :< Delivered;\n"
        "func F1 := Send <actor: A> <object: R> <target: T>;\n"
        "func F2 := Send <actor: A> <object: R> <target: U>;\n"
        "func F3 := Send <actor: A> <object: R> <target: V>;\n"
        "func F4 := Send <actor: A> <object: R> <target: W>;\n"
        "operationalize G -> F1, F2, F3, F4 [strengthen];\n"
        "fulfilled F1, F2, F3;\n"
    )
    path = write(tmp_path, text)
    assert main(["fulfill", path]) == 0
    assert "G: unknown" in capsys.readouterr().out
    assert main(["fulfill", path, "--threshold", "3"]) == 0
    assert "G: fulfilled" in capsys.readouterr().out


def test_fulfill_json_maps_ids_to_states(tmp_path, capsys):
    path = write(tmp_path, BOOKING)
    assert main(["fulfill", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fulfillment"]["G1"] == "fulfilled"


def test_dangling_fulfilled_mark_points_at_its_statement(tmp_path, capsys):
    path = write(tmp_path, CLEAN + "  fulfilled G9;\n")
    assert main(["fulfill", path]) == 2
    assert capsys.readouterr().err == (
        f"{path}:3:3: error: fulfilled_marks: [dangling-reference] unknown id G9\n"
    )


FULFILLED_MARKS_ELEMENT = "qc fulfilled_marks := Cost (Product) :: Low;\n"
QC_REGION = (
    "error: fulfilled_marks: [qc-region] a quality constraint needs a measurable region"
)
DANGLING_MARK = "error: fulfilled_marks: [dangling-reference] unknown id G9"


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        (
            "model m;\n" + FULFILLED_MARKS_ELEMENT + "func F1 := Book;\nfulfilled G9;\n",
            [f"2:4: {QC_REGION}", f"4:1: {DANGLING_MARK}"],
        ),
        (
            "model m;\nfulfilled G9;\nfunc F1 := Book;\n" + FULFILLED_MARKS_ELEMENT,
            [f"4:4: {QC_REGION}", f"2:1: {DANGLING_MARK}"],
        ),
    ],
)
def test_an_element_named_fulfilled_marks_keeps_its_own_span(tmp_path, capsys, text, expected):
    path = write(tmp_path, text)
    assert main(["fmt", path]) == 2
    assert capsys.readouterr().err == "".join(f"{path}:{line}\n" for line in expected)


@pytest.mark.parametrize(
    ("statements", "diagnostic"),
    [
        (
            "  conflict {F1};\n",
            "4:3: error: conflict[0]: [conflict-size] conflict sets need >= 2 ids",
        ),
        (
            "conflict {F1, F2};\n\n    conflict {F1, G9};\n",
            "6:5: error: conflict[1]: [dangling-reference] unknown id G9",
        ),
        (
            "\n   axiom A :< [0, 5] | B;\n",
            "5:4: error: axiom[0]: [region-mixing] "
            "regions combine only with regions, not with concepts",
        ),
        (
            "axiom A :< B;\n\taxiom C <reduce_to: D> :< E;\n",
            "5:2: error: axiom[1]: [reserved-slot] slot reduce_to is reserved for reasoning",
        ),
        (
            "conflict {F1, G9};\n  resolve F2, F1 -> F2;\n",
            "5:3: error: application[0]: [resolve-conflict] "
            "no declared conflict matches {F1, F2}\n"
            "4:1: error: conflict[0]: [dangling-reference] unknown id G9",
        ),
    ],
    ids=[
        "conflict-size",
        "conflict-dangling",
        "axiom-regions",
        "axiom-reserved",
        "resolve-unmatched",
    ],
)
def test_conflict_and_axiom_diagnostics_point_at_their_statement(
    tmp_path, capsys, statements, diagnostic
):
    path = write(tmp_path, "model m;\nfunc F1 := Book;\nfunc F2 := Book;\n" + statements)
    assert main(["check", path]) == 2
    lines = diagnostic.split("\n")
    assert capsys.readouterr().err == "".join(f"{path}:{line}\n" for line in lines)


def test_reasoner_recursion_overflow_exits_two_without_a_traceback(tmp_path):
    # Inside the parser's nesting limit, but the structural derivation's
    # recursion grows with nesting times disjunct hops.
    terms = " | ".join(f"A{i}" for i in range(21))
    inner = "(" + " | ".join(f"A{i}" for i in range(10)) + ")"
    text = (
        f"fc FC1 := {terms} :< {'<s: SOME ' * 10}{inner}{'>' * 10};\n"
        f"fc FC2 := {'<s: SOME ' * 20}A{'>' * 20} :< {terms};\n"
        "reduce FC1 -> FC2 [strengthen];\n"
    )
    path = write(tmp_path, text)
    run = run_cli(["check", path])
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode() == (
        f"{path}: error: the model nests too deeply for the reasoner "
        "(recursion limit reached)\n"
    )


DROPPED_SUBSUMPTION = """model d;
axiom Information_entity Real_world_entity :< Nothing;
da DA1 := User :< Information_entity;
da DA2 := User :< Real_world_entity;
da DA3 := User :< Person;
func F1 := Keep <object: User>;
conflict {DA1, DA3};
world {
  individual u1 : User;
}
"""


@pytest.mark.parametrize("resolved", [False, True], ids=["kept", "dropped"])
def test_a_dropped_element_carries_no_axiom_for_any_command(tmp_path, capsys, resolved):
    text = DROPPED_SUBSUMPTION + ("resolve DA1, DA3 -> DA3;\n" if resolved else "")
    path = write(tmp_path, text)
    main(["lint", path])
    lint = [line for line in capsys.readouterr().out.splitlines() if "disjoint" in line]
    check = main(["check", path])
    clash = capsys.readouterr().out
    assert main(["query", path, "--pattern", "<object: Information_entity>"]) == 0
    matches = capsys.readouterr().out
    if resolved:
        assert (lint, check, clash, matches) == ([], 0, "", "")
    else:
        assert lint == [
            "DA1: inconsistent: term User falls under Information_entity and "
            "Real_world_entity, which are declared disjoint; the two uses need "
            "distinct names [suggest interpret]"
        ]
        assert check == 1
        assert "forces u1 into Nothing" in clash
        assert matches == "F1\n"


def _bench_generator():
    spec = importlib.util.spec_from_file_location(
        "reqsmith_bench_gen", Path(__file__).parents[1] / "bench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return gen


def test_one_disjointness_axiom_keeps_the_ladder_decidable(tmp_path, capsys):
    # A disjointness axiom used to switch off the derivation's goal pruning,
    # and from 56 steps on check and query ran out of recursion.
    gen = _bench_generator()
    gen.LADDER_STEPS = 56
    work = gen.generate("ladder", 7, tmp_path)
    work.write()
    model = tmp_path / "model.dsr"
    head, rest = model.read_text(encoding="utf-8").split("\n", 1)
    model.write_text(f"{head}\naxiom C5 Other :< Nothing;\n{rest}", encoding="utf-8")
    singles = ("check_s", "query_s", "lint_s")
    ops = {op.argv[0]: op for op in work.ops if op.metric in singles}
    assert [ops[c].code for c in ("check", "query", "lint")] == [1, 0, 1]
    for command, op in ops.items():
        assert main(op.argv) == op.code, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (op.stdout, ""), command


@pytest.mark.parametrize(
    ("subject", "path", "message"),
    [
        ("Car", "nosuch", "annotation path cannot start at 'nosuch'"),
        (
            "Car <part: Wheel>",
            "inheres_in.nosuch",
            "no slot 'nosuch' found on the annotation path",
        ),
        (
            "Car",
            "observed_by",
            "annotation follows observed_by but the element has no observers",
        ),
    ],
    ids=["head", "slot", "observers"],
)
@pytest.mark.parametrize(
    "command", ["fmt", "check", "lint", "query", "fulfill", "translate"]
)
def test_unusable_annotation_paths_exit_two_with_span(
    tmp_path, capsys, command, subject, path, message
):
    text = f"model m;\nqg Q1 := Speed ({subject}) :: Fast u(?x, {path}, 50%);\n"
    model = write(tmp_path, text)
    extra = {
        "query": ["--pattern", "<object: R>"],
        "translate": ["--out", str(tmp_path / "o.ofn")],
    }
    assert main([command, model, *extra.get(command, [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{model}:2:4: error: Q1: [pct-path] {message}\n"


def test_query_tells_a_string_from_a_number_that_prints_alike(tmp_path, capsys):
    text = 'model m;\nfunc F1 := Act <r: {"1", 1}>;\nfunc F2 := Act <r: {"1"}>;\n'
    path = write(tmp_path, text)
    assert main(["query", path, "--pattern", '<r: {"1"}>']) == 0
    assert capsys.readouterr().out == "F2\n"


# ===== translate =====


def test_translate_writes_the_ontology(tmp_path, capsys):
    path = write(tmp_path, BOOKING)
    out_path = tmp_path / "booking.ofn"
    assert main(["translate", path, "--out", str(out_path)]) == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("Prefix(")
    assert "SubClassOf(:F3 :Fulfilled_Thing)" in text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command",
    ["fmt", "check", "check --json", "lint", "query", "fulfill", "translate"],
)
def test_output_ignores_the_hash_seed(tmp_path, command):
    ids = [f"F{i}" for i in range(12)]
    text = "model marks;\naxiom Airline_ticket :< Ticket;\naxiom Hot Cold :< Nothing;\n"
    text += "".join(f"func {i} := Book <object: Ticket{i}>;\n" for i in ids)
    text += "func G1 := Book <object: Ticket>;\n"
    text += "func G2 := Book <object: Airline_ticket>;\n"
    text += "reduce G1 -> G2 [weaken];\n"
    text += f"fulfilled {', '.join(ids)};\n"
    text += "world {\n  individual x1 : Hot, Cold;\n  individual x2 : Hot;\n}\n"
    path = write(tmp_path, text)
    args = command.split() + [path]
    if command == "query":
        args += ["--pattern", "<object: Ticket> | <object: TicketF3>"]
    outputs = set()
    for seed in ("0", "1", "5"):
        out_path = tmp_path / f"marks-{seed}.ofn"
        out = ["--out", str(out_path)] if command == "translate" else []
        run = run_cli(args + out, hash_seed=seed)
        assert run.returncode in (0, 1), run.stderr
        written = out_path.read_bytes() if command == "translate" else b""
        outputs.add((run.returncode, run.stdout, run.stderr, written))
    assert len(outputs) == 1


def test_translate_stacked_annotations_exit_one(tmp_path, capsys):
    text = (
        "model u;\n"
        "qg QG1 := Response_time (Run <run_of: System_function>) :: Fast"
        " u(?X, inheres_in.run_of, 80%) u(?Y, inheres_in, 90%);\n"
    )
    path = write(tmp_path, text)
    out_path = tmp_path / "u.ofn"
    assert main(["translate", path, "--out", str(out_path)]) == 1
    assert "QG1" in capsys.readouterr().err
    assert not out_path.exists()


# ===== membership =====


def test_membership_prints_one_degree(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Cost", "--value", "740"]
    assert main(args + ["--region", "low"]) == 0
    assert capsys.readouterr().out == "0.595\n"


def test_membership_prints_every_region(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    assert main(["membership", path, "--quality", "Cost", "--value", "740"]) == 0
    assert capsys.readouterr().out == "low: 0.595\nmedium: 0.405\nhigh: 0\n"


def test_membership_unknown_quality_exits_two(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Speed", "--value", "1"]
    assert main(args) == 2
    assert "Speed" in capsys.readouterr().err


def test_membership_unknown_region_exits_two(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Cost", "--value", "740"]
    assert main(args + ["--region", "extreme"]) == 2
    assert "extreme" in capsys.readouterr().err


def test_membership_rejects_non_numeric_values(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Cost", "--value", "cheap"]
    assert main(args) == 2
    assert "cheap" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_membership_on_an_empty_regions_block_exits_two(tmp_path, capsys, json_flag):
    path = write(tmp_path, "model m;\nregions Cost { }\n")
    args = ["membership", path, "--quality", "Cost", "--value", "3", *json_flag]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no membership regions are declared for quality 'Cost'\n"


def test_membership_json_maps_regions_to_degrees(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Cost", "--value", "740", "--json"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fulfillment"] == {"low": "0.595", "medium": "0.405", "high": "0"}


# ===== import budget =====

_PARSING = {"reqsmith", "reqsmith.cli", "reqsmith.model", "reqsmith.parser"}
_REASONING = _PARSING | {"reqsmith.semantics", "reqsmith.reasoner"}
_EXPORT = {"reqsmith.semantics", "reqsmith.export"}

# The reqsmith modules each command loads; any `--json` run adds _EXPORT.
# No command loads `reqsmith.search`: only the library's `subsumes` runs it.
IMPORT_BUDGET = {
    "fmt": _PARSING,
    "membership": _PARSING | {"reqsmith.membership"},
    "translate": _PARSING | _EXPORT,
    "query": _REASONING,
    "fulfill": _REASONING,
    "check": _REASONING | {"reqsmith.findings"},
    "lint": _REASONING | {"reqsmith.findings", "reqsmith.lint"},
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(IMPORT_BUDGET))
def test_each_command_imports_only_the_modules_it_runs(tmp_path, command, json_flag):
    path = write(tmp_path, BOOKING + COST_REGIONS.split("\n", 1)[1])
    argv = [command, path, *json_flag]
    if command == "query":
        argv += ["--pattern", "<object: Ticket>"]
    elif command == "translate":
        argv += ["--out", str(tmp_path / "out.ofn")]
    elif command == "membership":
        argv += ["--quality", "Cost", "--value", "600"]
    script = (
        "import json, sys; from reqsmith import cli; code = cli.main(sys.argv[1:]); "
        "print(json.dumps([code, [m for m in sys.modules if m.startswith('reqsmith')]]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(reqsmith.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    code, modules = json.loads(run.stdout.splitlines()[-1])
    assert code in (0, 1)
    assert set(modules) == IMPORT_BUDGET[command] | (_EXPORT if json_flag else set())


def test_fmt_run_as_a_module_imports_neither_reasoner_nor_semantics(tmp_path):
    path = write(tmp_path, CLEAN)
    run = run_cli(["fmt", path], extra_options=["-X", "importtime"])
    assert run.returncode == 0
    assert run.stdout.decode() == print_model(parse_model(CLEAN))
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    # The command module itself runs as __main__, so it is not imported.
    assert {m for m in imported if m.startswith("reqsmith")} == {
        "reqsmith",
        "reqsmith.model",
        "reqsmith.parser",
    }


def _source_classes():
    for path in sorted(Path(reqsmith.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                yield path.name, node


def _decorator_names(node: ast.ClassDef) -> set:
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return {getattr(t, "id", None) or getattr(t, "attr", None) for t in targets}


def test_every_dataclass_has_a_docstring():
    # Without one, dataclass() builds __doc__ from inspect.signature, which
    # costs about a sixth more per class on every start.
    missing = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in _source_classes()
        if _decorator_names(node) & {"dataclass", "_record"}
        and ast.get_docstring(node) is None
    ]
    assert missing == []


def test_no_record_generates_its_own_value_methods():
    # dataclass() generates and compiles each class's methods at import. The
    # model records share one __eq__, __hash__ and __repr__ through
    # model._record; every other record is a named tuple.
    declared = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in _source_classes()
        if "dataclass" in _decorator_names(node)
        or (module != "model.py" and "_record" in _decorator_names(node))
    ]
    assert declared == []
    model_source = Path(reqsmith.__file__).with_name("model.py").read_text(encoding="utf-8")
    calls = [
        {k.arg: ast.literal_eval(k.value) for k in node.keywords}
        for node in ast.walk(ast.parse(model_source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dataclass"
    ]
    assert calls == [{"frozen": True, "eq": False, "repr": False}]


# ===== golden output =====

GOLDEN = Path(__file__).parent / "cli_golden.json"
GOLDEN_PATTERN = "<object: Ticket> | <actor: {the_system}>"
GOLDEN_COMMANDS = ("fmt", "check", "lint", "query", "fulfill", "translate")


def _golden_digests(fixture: Path) -> dict:
    """Run each command on a copy of `fixture` in the current directory,
    in-process.

    Each digest is the sha256 of the exit code, stdout, stderr and the
    written ontology document.
    """
    name = fixture.name
    Path(name).write_bytes(fixture.read_bytes())
    out = Path(name).with_suffix(".ofn")
    digests = {}
    for command in GOLDEN_COMMANDS:
        for json_flag in ([], ["--json"]):
            argv = [command, name, *json_flag]
            if command == "query":
                argv += ["--pattern", GOLDEN_PATTERN]
            if command == "translate":
                argv += ["--out", out.name]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            written = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            record = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
            digests[" ".join([command, *json_flag])] = hashlib.sha256(
                record.encode("utf-8")
            ).hexdigest()
    return digests


GOLDEN_FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.dsr"))


@pytest.mark.parametrize("fixture", GOLDEN_FIXTURES, ids=lambda p: p.stem)
def test_cli_output_matches_the_recorded_digests(tmp_path, monkeypatch, fixture):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _golden_digests(fixture) == golden[fixture.stem]


if __name__ == "__main__":
    # Record the digests again: PYTHONPATH=src python tests/test_cli.py
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        digests = {f.stem: _golden_digests(f) for f in GOLDEN_FIXTURES}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
