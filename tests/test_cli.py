"""End-to-end tests for the command-line interface."""

import ast
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reqsmith
from reqsmith import saturation
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


@pytest.mark.parametrize("text", [CLEAN, CLEAN + "goal G9 := ;\n"], ids=["clean", "broken"])
@pytest.mark.parametrize("command", ["fmt", "check", "lint"])
def test_a_byte_order_mark_changes_no_output(tmp_path, capsys, command, text):
    runs = []
    for folder, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        (tmp_path / folder).mkdir()
        model, config = tmp_path / folder / "m.dsr", tmp_path / folder / "lint.cfg"
        model.write_bytes(mark + text.encode("utf-8"))
        config.write_bytes(mark + b"required_slots = object\n")
        argv = [command, str(model)]
        if command == "lint":
            argv += ["--config", str(config)]
        code = main(argv)
        out, err = capsys.readouterr()
        runs.append((code, out, err.replace(str(tmp_path / folder), "DIR")))
    assert runs[0] == runs[1]
    if text != CLEAN:
        # The mark is no character of line 1, and the spans after it stay.
        assert runs[0][:2] == (2, "")
        assert runs[0][2].startswith("DIR/m.dsr:3:12: error: expected ")


def test_a_decoding_error_after_a_byte_order_mark_counts_file_bytes(tmp_path, capsys):
    path = tmp_path / "bad.dsr"
    path.write_bytes(b"\xef\xbb\xbfmodel m;\n\xff")
    assert main(["fmt", str(path)]) == 2
    assert capsys.readouterr().err.endswith("invalid start byte at offset 12\n")


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


# Statements whose records refuse their fields, and where each error points.
BROKEN_RECORDS = [
    ("fg X := {a, a} :< B;", "2:16: error: enumeration ids must be duplicate-free"),
    ("qg Q := Cost (X) :: <= -5;", "2:26: error: interval low bound exceeds high bound"),
    ("qg Q := Cost (X) :: {a, a};", "2:27: error: enumeration ids must be duplicate-free"),
]


@pytest.mark.parametrize(("statement", "error"), BROKEN_RECORDS)
@pytest.mark.parametrize(
    "command", ["check", "fmt", "fulfill", "lint", "membership", "query", "translate"]
)
def test_a_broken_record_invariant_is_one_parse_error_on_every_command(
    tmp_path, capsys, command, statement, error
):
    argv = _command_argv(command, tmp_path, f"model m;\n{statement}\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[1]}:{error}\n"


def test_query_pattern_with_a_repeated_id_exits_two(tmp_path, capsys):
    path = write(tmp_path, CLEAN)
    assert main(["query", path, "--pattern", "{a, a}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "<input>:1:7: error: enumeration ids must be duplicate-free\n"


def test_a_number_too_long_to_convert_is_a_one_line_parse_error(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    path = write(tmp_path, f"model m;\nqg Q := Cost (X) :: [1, {'1' * (limit + 1)}];\n")
    assert main(["fmt", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:2:25: error: ")
    assert captured.err.count("\n") == 1


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


def _chain(joiner: str, size: int) -> str:
    return joiner.join(f"A{i}" for i in range(size))


@pytest.mark.parametrize("command", ["fmt", "check", "lint", "translate"])
@pytest.mark.parametrize(
    "description",
    [_some_chain(101), _some_chain(140), "(" * 150 + "A" + ")" * 150],
    ids=["some-101", "some-140", "parens-150"],
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


@pytest.mark.parametrize("command", ["fmt", "check", "lint", "query", "translate"])
@pytest.mark.parametrize(
    "statement",
    [
        f"axiom A :< {_some_chain(100)};",
        f"axiom A :< {'<s: ONLY ' * 100}A{'>' * 100};",
        f"axiom A :< {_chain(' | ', 101)};",
        f"axiom A :< ({_chain(' ', 101)});",
        f"axiom A :< {_chain(' - ', 101)};",
        f"axiom A :< {_chain(' | ', 1500)};",
        f"axiom A :< {_chain(' | ', 5000)};",
        f"axiom A :< {_chain(' - ', 5000)};",
        f"axiom A :< ({_chain(' ', 5000)});",
        # the annotation's path ends 2,000 levels down, where it is grafted
        f"qg Q := Cost (<run_of: R> {_chain(' ', 1999)}) :: Fast"
        " u(?X, inheres_in.run_of, 80%);",
    ],
    ids=[
        "some", "only", "or", "and", "minus",
        "or-1500", "or-5000", "minus-5000", "and-5000", "pct-2000",
    ],
)
def test_descriptions_at_the_nesting_limit_are_accepted(
    tmp_path, capsys, command, statement
):
    # Only parentheses and slot restrictions count toward the limit: a chain
    # of `|`, `-` or adjacency is read by a loop, however long it is.
    text = f"model deep;\n{statement}\n" + TWO_INDIVIDUALS
    assert main(_command_argv(command, tmp_path, text)) in (0, 1)
    expected = ""
    if statement.startswith("axiom A :< A0 | ") and command in ("check", "lint"):
        # saturation never guesses a disjunct, so the world stays undecided
        names = " or ".join(sorted(statement.removeprefix("axiom A :< ")[:-1].split(" | ")))
        expected = f"world: unknown: could not establish axiom A :< ({names}) on the world\n"
    assert capsys.readouterr().err == expected


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


def test_fmt_parenthesizes_an_interval_after_a_description(tmp_path, capsys):
    # a `[` after a description may open a strength tag, so an interval
    # operand of adjacency parses back only in parentheses
    path = write(tmp_path, "model m;\nfunc F := Send <object: [1,2] ([3,4])>;\n")
    assert main(["fmt", path]) == 0
    once = capsys.readouterr().out
    assert once == "model m;\nfunc F := Send <object: [1, 2] ([3, 4])>;\n"
    again = write(tmp_path, once, name="canon.dsr")
    assert main(["fmt", again]) == 0
    assert capsys.readouterr().out == once


def test_fmt_prints_a_quality_union_and_a_region_name_factor_back(tmp_path, capsys):
    text = (
        "model m;\n"
        "qg Q1 := Speed (System) :: Fast;\n"
        "qg Q2 := (Speed | Latency) (System) :: Fast;\n"
        "scale_up Q1 -> Q2 by Slow [strengthen];\n"
    )
    assert main(["fmt", write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == text


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


def test_check_reports_a_region_name_scaling_no_axiom_orders(tmp_path, capsys):
    text = (
        "model o;\n"
        "func File_search := Search <object: File>;\n"
        "qg QG1 := Processing_time (File_search) :: Fast;\n"
        "qg QG2 := Processing_time (File_search) :: Slow;\n"
        "scale_up QG1 -> QG2 by Slow [strengthen];\n"
    )
    assert main(["check", write(tmp_path, text)]) == 1
    assert capsys.readouterr().out == (
        "application[0]: inconsistent: no declared ordering links Fast and Slow "
        "for a up-scaling\n"
    )
    ordered = text.replace("model o;\n", "model o;\naxiom Slow :< Fast;\n")
    assert main(["check", write(tmp_path, ordered)]) == 0
    assert capsys.readouterr().out == ""


def test_check_reports_world_clashes(tmp_path, capsys):
    path = write(tmp_path, CLASHING_WORLD)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "world" in out
    assert "Nothing" in out


@pytest.mark.parametrize("command", ["check", "lint"])
def test_a_slot_named_like_a_concept_class_counts_its_fillers(tmp_path, capsys, command):
    # `DLNot(B)` is the tuple ("DLNot", B), which is also the key of the
    # DLNot fillers in B; saturation keeps extensions and counts apart.
    text = (
        "model m;\n"
        "axiom Thing - B :< D;\n"
        "axiom A :< <DLNot: <=1 B>;\n"
        "world {\n"
        "  individual a : A;\n"
        "  individual b1 : B;\n"
        "  individual b2 : B;\n"
        "  slot DLNot(a, b1);\n"
        "  slot DLNot(a, b2);\n"
        "}\n"
    )
    assert main([command, write(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "world: inconsistent: axiom A :< <=1 DLNot.B: a has 2 DLNot fillers in B, "
        "more than 1\n"
    )
    assert captured.err == ""


@pytest.mark.parametrize("length", [60, 200])
def test_check_saturates_a_chain_of_any_length(tmp_path, capsys, length):
    chain = "".join(f"axiom C{i} :< C{i + 1};\n" for i in range(1, length + 1))
    text = (
        f"model m;\n{chain}axiom C{length + 1} :< Nothing;\n"
        "world { individual x : C1; };\n"
    )
    assert main(["check", write(tmp_path, text)]) == 1
    assert capsys.readouterr().out == (
        f"world: inconsistent: axiom C{length + 1} :< Nothing forces x into Nothing\n"
    )


_RANGE = "only cost.((<= 5) and (>= 1))"


@pytest.mark.parametrize(
    ("axiom", "facts", "clash"),
    [
        (
            "A :< <cost: ONLY [1, 5]>",
            "data cost(c) = 9;",
            f"A :< {_RANGE}: value 9 of c.cost falls outside ((<= 5) and (>= 1))",
        ),
        (
            "A :< <cost: ONLY [1, 5]>",
            "data cost(c) = 9 Sec;",
            f"A :< {_RANGE}: value 9 Sec of c.cost falls outside ((<= 5) and (>= 1))",
        ),
        (
            "A :< <cost: ONLY [1, 5]>",
            'data cost(c) = "y";',
            f"A :< {_RANGE}: value y of c.cost falls outside ((<= 5) and (>= 1))",
        ),
        (
            "A :< <cost: ONLY [1, 5 (Sec)]>",
            "data cost(c) = 1/3;",
            "A :< only cost.((<= 5 Sec) and (>= 1 Sec)): value 1/3 of c.cost "
            "falls outside ((<= 5 Sec) and (>= 1 Sec))",
        ),
        (
            "A :< <cost: ONLY [1, 10] - [3, 4]>",
            "data cost(c) = 3;",
            "A :< only cost.((<= 10) and (>= 1) and not ((<= 4) and (>= 3))): "
            "value 3 of c.cost falls outside ((<= 10) and (>= 1) and not ((<= 4) and (>= 3)))",
        ),
        ("A :< Thing - B", "individual c : B;", "A :< not B forbids c from B, which it inhabits"),
        (
            "A :< {a}",
            "",
            "A :< {a} forces c to be one of {a}, "
            "but distinct names denote distinct individuals",
        ),
    ],
    ids=["number", "quantity", "string", "fraction", "difference", "negation", "nominal"],
)
def test_check_prints_each_clash_kind_in_model_syntax(tmp_path, capsys, axiom, facts, clash):
    text = f"model m;\naxiom {axiom};\nworld {{ individual c : A; {facts} }};\n"
    assert main(["check", write(tmp_path, text)]) == 1
    assert capsys.readouterr().out == f"world: inconsistent: axiom {clash}\n"


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


def test_query_finds_an_element_through_its_observer(tmp_path, capsys):
    # only the interrelation graph's observed_by edges name Tester
    path = write(tmp_path, "model m;\nqc Q5 := Speed (System) :: [1, 5] <observed_by: Tester>;\n")
    assert main(["query", path, "--pattern", "<refer_to: SOME Tester>"]) == 0
    assert capsys.readouterr().out == "Q5\n"


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


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_fulfill_threshold_below_one_is_a_usage_error(tmp_path, capsys, threshold):
    # With no marks nothing is fulfilled, yet a count of 0 successors would
    # "suffice" for G; the option refuses it instead.
    text = (
        "model t;\n"
        'goal G := "x"; goal A := "a"; goal B := "b";\n'
        "reduce G -> A, B [strengthen];\n"
    )
    path = write(tmp_path, text)
    assert main(["fulfill", path, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: reqsmith fulfill")
    assert lines[-1] == (
        f"reqsmith fulfill: error: argument --threshold: must be at least 1, not {threshold}"
    )
    assert main(["fulfill", path, "--threshold", "1"]) == 0
    assert "G: unknown" in capsys.readouterr().out


def test_fulfill_threshold_must_be_an_integer(tmp_path, capsys):
    path = write(tmp_path, BOOKING)
    assert main(["fulfill", path, "--threshold", "1.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "reqsmith fulfill: error: argument --threshold: invalid int value: '1.5'"
    )


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


def test_wide_disjunctions_under_deep_restrictions_are_decided(tmp_path, capsys):
    # The derivation's goals nest as deep as restrictions times disjunct
    # hops; its frame loop keeps them off Python's stack.
    terms = " | ".join(f"A{i}" for i in range(21))
    inner = "(" + " | ".join(f"A{i}" for i in range(10)) + ")"
    text = (
        f"fc FC1 := {terms} :< {'<s: SOME ' * 10}{inner}{'>' * 10};\n"
        f"fc FC2 := {'<s: SOME ' * 20}A{'>' * 20} :< {terms};\n"
        "reduce FC1 -> FC2 [strengthen];\n"
    )
    path = write(tmp_path, text)
    assert main(["check", path]) == 0
    assert capsys.readouterr() == ("", "")


def _equal_deep_axioms(tmp_path) -> str:
    # two separately parsed, equal right sides 1,500 links deep: a dict
    # lookup that compares them recurses in CPython's tuple comparison
    chain = "B" + ".s" * 1500
    return write(tmp_path, f"model deep;\naxiom A :< {chain};\naxiom C :< {chain};\n")


def test_reasoner_recursion_overflow_exits_two_without_a_traceback(tmp_path, capsys):
    path = _equal_deep_axioms(tmp_path)
    message = (
        f"{path}: error: the model nests too deeply for the reasoner "
        "(recursion limit reached)\n"
    )
    for command in ("check", "lint"):
        run = run_cli([command, path])
        assert (run.returncode, run.stdout, run.stderr.decode()) == (2, b"", message)
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", message)


def test_equal_deep_axioms_still_format(tmp_path, capsys):
    path = _equal_deep_axioms(tmp_path)
    run = run_cli(["fmt", path])
    assert (run.returncode, run.stderr) == (0, b"")
    assert main(["fmt", path]) == 0
    assert capsys.readouterr() == (run.stdout.decode(), "")


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
    assert main(["translate", path, "--out", str(tmp_path / "d.ofn")]) == 0
    owl = (tmp_path / "d.ofn").read_text(encoding="utf-8").splitlines()
    # a dropped element keeps its name and definition, but asserts nothing
    assert "Declaration(Class(:DA1))" in owl
    assert any(line.startswith("EquivalentClasses(:DA1 ") for line in owl)
    assert ("SubClassOf(:User :Information_entity)" in owl) is not resolved
    assert "SubClassOf(:User :Real_world_entity)" in owl
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


# Saturation never guesses a disjunct or a name, so each world stays undecided.
UNDECIDED_WORLDS = {
    "names": ("axiom A :< {a, b};", "A :< ({a} or {b})"),
    "or": ("axiom A :< B | C;", "A :< (B or C)"),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["check", "lint"])
@pytest.mark.parametrize(
    ("axiom", "shown"), UNDECIDED_WORLDS.values(), ids=list(UNDECIDED_WORLDS)
)
def test_an_undecided_world_is_a_note_on_stderr(
    tmp_path, capsys, monkeypatch, axiom, shown, command, as_json
):
    runs = []
    real_run = saturation._Saturator.run
    monkeypatch.setattr(
        saturation._Saturator, "run", lambda s: runs.append(s) or real_run(s)
    )
    path = write(tmp_path, f"model u;\n{axiom}\nworld {{ individual c : A; }}\n")
    assert main([command, path] + (["--json"] if as_json else [])) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"world: unknown: could not establish axiom {shown} on the world\n"
    )
    if as_json:
        assert json.loads(captured.out) == {
            "version": 1, "findings": [], "fulfillment": {}, "subsumptions": []
        }
    else:
        assert captured.out == ""
    assert len(runs) == 1


BENCH = Path(__file__).parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"reqsmith_bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_a_long_ladder_answers_a_query(tmp_path, capsys):
    # 896 refinement steps: each one is a goal of the derivation, read
    # through its frame loop at the default recursion limit
    gen = _bench_module("gen")
    gen.LADDER_STEPS = 896
    gen.generate("ladder", 7, tmp_path).write()
    model = str(tmp_path / "model.dsr")
    assert main(["query", model, "--pattern", "<object: C0>"]) == 0
    expected = sorted(f"F{i}" for i in range(896))
    assert capsys.readouterr() == ("".join(f"{m}\n" for m in expected), "")


def test_a_forty_atom_ring_is_checked_and_queried(tmp_path, capsys):
    # every atom of the ring is below every other: one component of the
    # derivation, settled at the default recursion limit
    n = 40
    lines = ["model ring;"]
    for i in range(n):
        lines += [f"axiom A{i} :< <r: SOME A{(i + 1) % n}>;", f"axiom <r: SOME A{i}> :< A{i};"]
    lines += [f"func F{i} := Keep <object: A{i}>;" for i in range(n)]
    lines += [f"reduce F{i} -> F{i + 1} [strengthen];" for i in range(n - 1)]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert main(["check", path]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["query", path, "--pattern", "<object: A0>"]) == 0
    expected = sorted(f"F{i}" for i in range(n))
    assert capsys.readouterr() == ("".join(f"{m}\n" for m in expected), "")


def test_one_disjointness_axiom_keeps_the_ladder_decidable(tmp_path, capsys):
    # A disjointness axiom used to switch off the derivation's goal pruning,
    # and from 56 steps on check and query ran out of recursion.
    gen = _bench_module("gen")
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
    message = (
        "QG1 stacks 2 percentage annotations; a relaxation of a relaxation"
        " has no exportable logical form\n"
    )
    # A failed export prints no report, not even under --json.
    for json_flag in ([], ["--json"]):
        assert main(["translate", path, "--out", str(out_path), *json_flag]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert not out_path.exists()


def test_translate_into_a_missing_directory_exits_two(tmp_path, capsys):
    out_path = tmp_path / "nosuch" / "booking.ofn"
    assert main(["translate", write(tmp_path, BOOKING), "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"[Errno 2] No such file or directory: '{out_path}'\n"


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


@pytest.mark.parametrize(
    "value", ["1e3", "1_000", "+740", ".5", " 740", "740 ", "3/0", "1.5.5", "50%"]
)
def test_membership_rejects_values_a_model_cannot_write(tmp_path, capsys, value):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Cost", "--value", value]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--value must be a number, not {value!r}\n"


@pytest.mark.parametrize(
    ("value", "low"), [("740", "0.595"), ("1480/2", "0.595"), ("740.0", "0.595"), ("-5", "1")]
)
def test_membership_reads_values_as_a_model_writes_numbers(tmp_path, capsys, value, low):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Cost", "--value", value, "--region", "low"]
    assert main(args) == 0
    assert capsys.readouterr().out == f"{low}\n"


@pytest.mark.parametrize("value", ["1e999999999", "1e-999999999"])
def test_membership_refuses_a_huge_exponent_at_once(tmp_path, value):
    # Fraction would expand the exponent in full and never finish.
    path = write(tmp_path, COST_REGIONS)
    run = run_cli(["membership", path, "--quality", "Cost", "--value", value])
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode() == f"--value must be a number, not {value!r}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_membership_on_an_empty_regions_block_exits_two(tmp_path, capsys, json_flag):
    path = write(tmp_path, "model m;\nregions Cost { }\n")
    args = ["membership", path, "--quality", "Cost", "--value", "3", *json_flag]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no membership regions are declared for quality 'Cost'\n"


_UNGRADABLE_REGIONS = {
    "interleaving-points": (
        "low = points {500, 900};\n  medium = points {800, 1000};",
        "prototype point sets must not interleave",
    ),
    "unordered-intervals": (
        "high = interval [800, 1000];\n  low = interval [500, 700];",
        "interval regions must be ordered and disjoint",
    ),
    "mixed-styles": (
        "low = points {500, 700};\n  medium = interval [800, 1000];",
        "point and interval prototype styles may not be mixed in one computation",
    ),
}


@pytest.mark.parametrize("case", list(_UNGRADABLE_REGIONS))
def test_membership_on_regions_it_cannot_grade_exits_two(tmp_path, capsys, case):
    # validation refuses these blocks, with the message grading would raise
    regions, message = _UNGRADABLE_REGIONS[case]
    path = write(tmp_path, f"model m;\nregions Cost {{\n  {regions}\n}}\n")
    assert main(["membership", path, "--quality", "Cost", "--value", "740"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:2:1: error: regions[0]: [regions-order] {message}\n"


_COMMANDS = ["check", "fmt", "fulfill", "lint", "membership", "query", "translate"]
_REGION_CASES = [(command, None) for command in _COMMANDS] + [
    (command, case) for case in _UNGRADABLE_REGIONS for command in _COMMANDS
]


@pytest.mark.parametrize(
    "command,case",
    _REGION_CASES,
    ids=[command if case is None else f"{command}-{case}" for command, case in _REGION_CASES],
)
def test_a_region_declared_twice_exits_two_on_every_command(tmp_path, capsys, command, case):
    # and so does a block that membership cannot grade
    text = "model m;\nregions Speed { fast = points {1}; }\n"
    if case is None:
        text += "regions Cost {\n  low = interval [1, 2];\n  low = interval [3, 4];\n}\n"
        rule, message = "unique-regions", "quality Cost declares region low more than once"
    else:
        regions, message = _UNGRADABLE_REGIONS[case]
        text += f"regions Cost {{\n  {regions}\n}}\n"
        rule = "regions-order"
    argv = _command_argv(command, tmp_path, text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[1]}:3:1: error: regions[1]: [{rule}] {message}\n"


@pytest.mark.parametrize(
    "command", ["check", "fmt", "fulfill", "lint", "membership", "query", "translate"]
)
def test_a_second_regions_block_for_one_quality_exits_two_on_every_command(
    tmp_path, capsys, command
):
    text = (
        "model m;\n"
        "regions Cost { low = interval [1, 2]; }\n"
        "regions Cost { high = interval [5, 6]; }\n"
    )
    argv = _command_argv(command, tmp_path, text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{argv[1]}:3:1: error: regions[1]: [unique-regions] "
        "quality Cost has more than one regions block\n"
    )


def test_membership_json_maps_regions_to_degrees(tmp_path, capsys):
    path = write(tmp_path, COST_REGIONS)
    args = ["membership", path, "--quality", "Cost", "--value", "740", "--json"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fulfillment"] == {"low": "0.595", "medium": "0.405", "high": "0"}


@pytest.mark.parametrize(
    ("region", "factor", "message"),
    [
        ("[1, 2]", "(3, 1/2)", "scaling would empty the region: 3 > 1"),
        ("[-4, 2]", "(2, 1)", "scaling must enlarge or shrink the region, never shift it"),
    ],
    ids=["emptied", "shifted"],
)
@pytest.mark.parametrize(
    "command", ["check", "fmt", "fulfill", "lint", "membership", "query", "translate"]
)
def test_a_scale_factor_that_empties_or_shifts_the_region_exits_two_on_every_command(
    tmp_path, capsys, command, region, factor, message
):
    text = (
        "model m;\n"
        f"qc Q := C (X) :: {region};\n"
        "qc Q2 := C (X) :: [3, 3];\n"
        f"scale_up Q -> Q2 by {factor};\n"
    )
    argv = _command_argv(command, tmp_path, text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{argv[1]}:4:1: error: application[0]: [scale-factor] {message}\n"
    )


@pytest.mark.parametrize(
    ("statement", "column", "subject", "position"),
    [
        ("axiom A :< [1, 5];", 1, "axiom[0]", "the right side"),
        ("fg G := A :< [1, 5];", 4, "G", "the right side"),
        ("qg Q := ([1,5]) (X) :: Fast;", 4, "Q", "the quality"),
        ("func F := Send <object: [1,5].r>;", 6, "F", "the source of .r"),
        ("axiom [1,2] | [3,4] :< A;", 1, "axiom[0]", "the left side"),
    ],
    ids=["axiom", "subsumption", "quality", "projection", "union"],
)
@pytest.mark.parametrize(
    "command", ["check", "fmt", "fulfill", "lint", "membership", "query", "translate"]
)
def test_a_region_where_a_class_is_expected_exits_two_on_every_command(
    tmp_path, capsys, command, statement, column, subject, position
):
    # Translation has no class for a region, so no command may get that far.
    text = f"model m;\nworld {{ individual c : A; }};\n{statement}\n"
    argv = _command_argv(command, tmp_path, text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{argv[1]}:3:{column}: error: {subject}: [region-position] "
        f"{position} is a region, where a class is expected\n"
    )


@pytest.mark.parametrize(
    "statement",
    [
        "func F := Send <object: [1,5] | [7,9] | {12}>;",
        "qg Q := Speed ([1,5]) :: Fast;",
        "qg Q := Speed (X) :: Fast <observed_by: [1,2]>;",
    ],
    ids=["filler", "subject", "observer"],
)
def test_a_region_as_filler_subject_or_observer_stays_valid(tmp_path, capsys, statement):
    path = write(tmp_path, f"model m;\n{statement}\n")
    assert main(["translate", path, "--out", str(tmp_path / "out.ofn")]) == 0
    assert main(["check", path]) == 0
    assert capsys.readouterr().err == ""


def _refinement_chain(length, closed=False):
    goals = "".join(f'goal G{i} := "step {i}";\n' for i in range(length))
    steps = [f"reduce G{i} -> G{i + 1} [strengthen];\n" for i in range(length - 1)]
    if closed:
        steps.append(f"reduce G{length - 1} -> G0 [strengthen];\n")
    return "model chain;\n" + goals + "".join(steps)


@pytest.mark.parametrize("command", ["fmt", "check", "fulfill"])
def test_a_long_refinement_chain_is_accepted(tmp_path, capsys, command):
    # The cycle check must not be bounded by the recursion limit.
    path = write(tmp_path, _refinement_chain(5000))
    assert main([command, path]) == 0
    assert capsys.readouterr().err == ""


def test_a_long_refinement_cycle_is_one_acyclic_diagnostic(tmp_path, capsys):
    path = write(tmp_path, _refinement_chain(5000, closed=True))
    assert main(["fmt", path]) == 2
    cycle = " -> ".join([f"G{i}" for i in range(5000)] + ["G0"])
    assert capsys.readouterr().err == (
        f"{path}:2:6: error: G0: [acyclic] application graph contains a cycle: {cycle}\n"
    )


def test_clash_lines_follow_successor_names_whatever_the_hash_seed(tmp_path):
    slots = "".join(f"  slot s(a, b{i});\n" for i in range(1, 5))
    world = f"world {{\n  individual a : A;\n{slots}}};\n"
    text = "model four;\naxiom A :< <s: ONLY Nothing>;\n" + world
    path = write(tmp_path, text)
    expected = "".join(
        f"world: inconsistent: axiom A :< only s.Nothing forces b{i} into Nothing\n"
        for i in range(1, 5)
    )
    for seed in ("0", "1"):
        run = run_cli(["check", path], hash_seed=seed)
        assert (run.returncode, run.stdout.decode(), run.stderr) == (1, expected, b"")


# ===== import budget =====

_PARSING = {"reqsmith", "reqsmith.cli", "reqsmith.model", "reqsmith.parser"}
_REASONING = _PARSING | {
    "reqsmith.semantics",
    "reqsmith.reasoner",
    "reqsmith.fulfillment",
}
_CONSISTENCY = _REASONING | {"reqsmith.saturation", "reqsmith.findings"}

# The reqsmith modules each command loads as text; a `--json` run adds
# `findings`, which writes the report, and `fmt --json` prints no model, so
# it loads no printer.
IMPORT_BUDGET = {
    "fmt": _PARSING | {"reqsmith.printer"},
    "membership": _PARSING | {"reqsmith.membership"},
    "translate": _PARSING | {"reqsmith.semantics", "reqsmith.export"},
    "query": _REASONING,
    "fulfill": _PARSING | {"reqsmith.fulfillment"},
    "check": _CONSISTENCY,
    "lint": _CONSISTENCY | {"reqsmith.lint"},
}


def _command_argv(command, tmp_path, text=BOOKING + COST_REGIONS.split("\n", 1)[1]):
    """Argv that runs `command` on `text` (booking plus Cost regions) in tmp_path."""
    argv = [command, write(tmp_path, text)]
    if command == "query":
        argv += ["--pattern", "<object: Ticket>"]
    elif command == "translate":
        argv += ["--out", str(tmp_path / "out.ofn")]
    elif command == "membership":
        argv += ["--quality", "Cost", "--value", "600"]
    return argv


def _run_python(script, *args):
    """Run `script` in a fresh interpreter that imports reqsmith from here."""
    env = dict(os.environ, PYTHONPATH=str(Path(reqsmith.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return run


# Standard-library modules no command needs: `dataclasses` and the modules
# it pulls in would cost every command several milliseconds at start-up,
# `copy` is loaded only where a counter-model search branches, and argparse,
# with the `gettext` and `locale` it uses, only for help and usage errors.
_UNUSED_STDLIB = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "copy",
    "argparse", "gettext", "locale",
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(IMPORT_BUDGET))
def test_each_command_imports_only_the_modules_it_runs(tmp_path, command, json_flag):
    argv = _command_argv(command, tmp_path) + json_flag
    # The script notes what the interpreter had loaded before reqsmith and
    # imports json only after the command has run.
    script = (
        "import sys; before = set(sys.modules); from reqsmith import cli; "
        "code = cli.main(sys.argv[1:]); loaded = sorted(set(sys.modules) - before); "
        "import json; print(json.dumps([code, loaded]))"
    )
    run = _run_python(script, *argv)
    code, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code in (0, 1)
    modules = {m for m in loaded if m.startswith("reqsmith")}
    expected = IMPORT_BUDGET[command]
    if json_flag:
        expected = (expected - {"reqsmith.printer"}) | {"reqsmith.findings"}
    assert modules == expected
    assert _UNUSED_STDLIB & set(loaded) == set()
    assert ("json" in loaded) == bool(json_flag)
    if command == "fulfill" and not json_flag:
        assert not {"reqsmith.semantics", "reqsmith.reasoner"} & set(modules)
    if command == "query":
        assert "reqsmith.saturation" not in modules
    assert ("reqsmith.printer" in modules) == (command == "fmt" and not json_flag)


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["check", "-h"], ["polish", "x.dsr"], ["fulfill", "x.dsr", "--threshold", "0"]],
)
def test_help_and_usage_errors_load_argparse(argv):
    script = (
        "import contextlib, io, sys\n"
        "from reqsmith import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
    )
    run = _run_python(script, *argv)
    code = "0" if "-h" in argv else "2"
    assert run.stdout.split() == [code, "True", "True"]


@pytest.mark.parametrize(
    ("sub", "sup", "loaded"), [("A", "Thing", False), ("A", "B", True)]
)
def test_subsumes_loads_saturation_only_when_the_derivation_fails(sub, sup, loaded):
    script = (
        "import sys; from reqsmith.reasoner import subsumes; "
        "from reqsmith.semantics import DLAtomic, DL_THING; "
        "concept = lambda name: DL_THING if name == 'Thing' else DLAtomic(name); "
        "print(subsumes(concept(sys.argv[1]), concept(sys.argv[2])).status.value, "
        "'reqsmith.saturation' in sys.modules)"
    )
    run = _run_python(script, sub, sup)
    status = "refuted" if loaded else "proven"
    assert run.stdout.split() == [status, str(loaded)]


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
        "reqsmith.printer",
    }
    assert not {"argparse", "gettext", "locale"} & imported


def _bench_library_names():
    """(module, name) for each library name bench/run.py's in-process pass
    reads directly: the names it imports and the attributes of the
    reqsmith modules it imports."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    run = next(n for n in tree.body if getattr(n, "name", None) == "run_inprocess")
    modules, names = set(), set()
    for node in ast.walk(run):
        if isinstance(node, ast.ImportFrom) and node.module == "reqsmith":
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("reqsmith."):
            names |= {(node.module[len("reqsmith."):], a.name) for a in node.names}
    for node in ast.walk(run):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.add((node.value.id, node.attr))
    return names


def test_traced_and_benchmarked_names_stay_bound(tmp_path):
    # The tracer looks each traced function up by module and name once the
    # commands have run, and the benchmark calls some library names itself;
    # a function that moves to another module would break both.
    spans = _bench_module("spans")
    traced = {(module, function) for module, function, _ in spans.TRACED}
    library = _bench_library_names()
    assert {
        ("parser", "print_model"),
        ("parser", "parse_description"),
        ("semantics", "translate_description"),
        ("semantics", "eval_dl"),
        ("operators", "apply_scale"),
    } <= library
    argvs = [_command_argv(command, tmp_path) for command in sorted(IMPORT_BUDGET)]
    script = (
        "import json, sys\n"
        "from reqsmith import cli, operators, parser, semantics\n"
        "argvs, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "codes = [cli.main(argv) for argv in argvs]\n"
        "unbound = [f'{m}.{n}' for m, n in names\n"
        "           if not callable(getattr(sys.modules.get('reqsmith.' + m), n, None))]\n"
        "print(json.dumps([codes, unbound]))"
    )
    run = _run_python(script, json.dumps(argvs), json.dumps(sorted(traced | library)))
    codes, unbound = json.loads(run.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in codes)
    assert unbound == []


def _source_nodes():
    for path in sorted(Path(reqsmith.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def _source_classes():
    return ((m, node) for m, node in _source_nodes() if isinstance(node, ast.ClassDef))


def _makes_record(node: ast.ClassDef) -> bool:
    """Whether the class statement is a record's: `metaclass=_record`."""
    return any(
        keyword.arg == "metaclass" and getattr(keyword.value, "id", None) == "_record"
        for keyword in node.keywords
    )


def test_every_record_has_a_docstring():
    # The docstring is each record's documentation: a record with none would
    # show only its fields in help().
    records = [(module, node) for module, node in _source_classes() if _makes_record(node)]
    missing = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in records
        if ast.get_docstring(node) is None
    ]
    assert records
    assert missing == []


def test_no_record_generates_its_own_value_methods():
    # dataclass() and NamedTuple compile each class's methods at import, and
    # importing dataclasses loads inspect and ast. Every class that declares
    # fields is a record and shares one set of methods through model._record.
    declared = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in _source_classes()
        if any(isinstance(line, ast.AnnAssign) for line in node.body)
        and not _makes_record(node)
    ]
    assert declared == []
    uses = [
        f"{module}:{node.lineno}"
        for module, node in _source_nodes()
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Name) and node.id in ("dataclass", "NamedTuple"))
    ]
    assert uses == []


# ===== process entry =====


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    ("text", "argv", "expected"),
    [
        (CLEAN, ["check"], 0),
        (BAD_TAG, ["check"], 1),
        (CLEAN, ["query"], 2),  # --pattern is required
        ("model m;\ngoal G1 := ;\n", ["check"], 2),
    ],
    ids=["exit-0", "exit-1", "usage-error", "parse-error"],
)
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, capsys, enabled, text, argv, expected
):
    path = write(tmp_path, text)
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main([*argv, path])
        after = (gc.isenabled(), gc.get_freeze_count())
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert code == expected
    assert after == (enabled, frozen)


def _script_target():
    """The `module:function` that pyproject.toml names as the reqsmith script,
    read as text because Python 3.10 has no `tomllib`."""
    text = (Path(reqsmith.__file__).parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^reqsmith\s*=\s*"([\w.]+:\w+)"\s*$', scripts, re.M)
    return target


def test_the_script_and_the_main_block_name_one_entry():
    module, function = _script_target().split(":")
    assert module == "reqsmith.cli"
    tree = ast.parse((Path(reqsmith.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    called = [
        node.func.id
        for node in ast.walk(block)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert called == [function]


# Launches the CLI as the console script does (`sys.exit(function())` for the
# script target) or as `python -m` does (`-m module`), with the command's
# arguments after the target, and reports last on stderr whether the
# collector is enabled and how many objects are frozen when the process exits.
_LAUNCH = (
    "import atexit, gc, importlib, runpy, sys\n"
    "atexit.register(lambda: print('gc', gc.isenabled(), gc.get_freeze_count(), file=sys.stderr))\n"
    "target = sys.argv.pop(1)\n"
    "if target.startswith('-m '):\n"
    "    runpy.run_module(target[3:], run_name='__main__', alter_sys=True)\n"
    "else:\n"
    "    module, function = target.split(':')\n"
    "    sys.exit(getattr(importlib.import_module(module), function)())\n"
)


def _child_env():
    return dict(os.environ, PYTHONPATH=str(Path(reqsmith.__file__).parents[1]))


@pytest.mark.parametrize("launch", ["script", "module"])
@pytest.mark.parametrize(
    "fixture",
    sorted((Path(__file__).parent / "fixtures").glob("*.dsr")),
    ids=lambda p: p.stem,
)
def test_the_entry_runs_main_without_the_collector(fixture, launch):
    argv = ["lint", str(fixture)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    target = _script_target() if launch == "script" else "-m reqsmith.cli"
    run = subprocess.run(
        [sys.executable, "-c", _LAUNCH, target, *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    *diagnostics, at_exit = run.stderr.splitlines()
    assert (run.returncode, run.stdout) == (code, stdout.getvalue())
    assert diagnostics == stderr.getvalue().splitlines()
    word, enabled, frozen = at_exit.split()
    assert (word, enabled) == ("gc", "False")
    assert int(frozen) > 0


# The peak RSS the kernel reports for a child is at least the RSS of the
# process that started it, so a small interpreter starts the measured one
# and reports its exit code and peak RSS (KiB) on stderr.
_PEAK = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "child.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(child.returncode, usage.ru_maxrss, file=sys.stderr)\n"
)


def _child_peak_kib(script, *args):
    """Run `script` in a fresh interpreter; return (exit code, stdout, peak RSS in KiB)."""
    run = subprocess.run(
        [sys.executable, "-c", _PEAK, sys.executable, "-c", script, *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, peak = map(int, run.stderr.split())
    return code, run.stdout, peak


def test_the_entry_costs_no_memory_on_a_thousand_groups(tmp_path):
    # Without the collector, cyclic garbage stays until exit. A query that
    # needs a proof per element, the costliest allocation pattern measured,
    # must not peak more than a tenth higher than with the collector on.
    lines = ["model many;", "axiom Fast :< Acceptable;"]
    for g in range(1000):
        lines += [
            f'goal EG{g} := "keep record {g} current";',
            f"fg EFG{g} := Record{g} :< Kept;",
            f"func EF{g} := Keep <actor: SOME User> <object: Record{g}>;",
            f"qg EQG{g} := Speed (EF{g}.object) :: Fast;",
            f"qc EQC{g} := Processing_time (EF{g}.object) :: [0, 30 (Sec)];",
        ]
    argv = ["query", write(tmp_path, "\n".join(lines) + "\n"), "--pattern", "<object: Record3>"]
    entry = _child_peak_kib(_LAUNCH, _script_target(), *argv)
    collected = _child_peak_kib(
        "import sys; from reqsmith.cli import main; sys.exit(main(sys.argv[1:]))", *argv
    )
    assert entry[:2] == collected[:2] == (0, "EF3\n")
    assert entry[2] <= 1.1 * collected[2]


# ===== one output path =====

FIXTURES = Path(__file__).parent / "fixtures"


class _Writes:
    """A stdout that keeps each non-empty write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        if text:
            self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("fixture", ["booking", "cost"])
@pytest.mark.parametrize("command", sorted(IMPORT_BUDGET))
def test_each_command_writes_stdout_at_most_once(
    tmp_path, capsys, command, fixture, json_flag
):
    text = (FIXTURES / f"{fixture}.dsr").read_text(encoding="utf-8")
    argv = _command_argv(command, tmp_path, text) + json_flag
    code = main(argv)
    out = capsys.readouterr().out
    stdout = _Writes()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == code
    assert stdout.writes == ([out] if out else [])


def test_notes_come_before_the_report(capsys):
    argv = ["fulfill", str(FIXTURES / "booking.dsr"), "--threshold", "9"]
    note = "ThresholdUnreachable: no application has 9 outputs\n"
    states = "G1: unknown\nF2: unknown\nF3: fulfilled\nF4: fulfilled\n"
    assert main(argv) == 0
    assert capsys.readouterr() == (states, note)
    run = subprocess.run(
        [sys.executable, "-m", "reqsmith.cli", *argv],
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout) == (0, note + states)


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_pipe_exits_zero(tmp_path):
    path = write(tmp_path, BAD_TAG)
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert main(["check", path]) == 0


def test_run_exits_with_the_code_of_main_without_the_collector(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(sys, "argv", ["reqsmith", "check", write(tmp_path, BAD_TAG)])
    try:
        with pytest.raises(SystemExit) as exit_:
            reqsmith.cli.run()
        collector = (gc.isenabled(), gc.get_freeze_count() > 0)
    finally:
        gc.enable()
        gc.unfreeze()
    assert exit_.value.code == 1
    assert collector == (False, True)
    assert capsys.readouterr().out.startswith("application[0]: inconsistent: ")


# ===== golden output =====

GOLDEN = Path(__file__).parent / "cli_golden.json"
GOLDEN_PATTERN = "<object: Ticket> | <actor: {the_system}>"
GOLDEN_COMMANDS = ("fmt", "check", "lint", "query", "fulfill", "translate")
# `membership --quality Cost` runs on the fixtures that declare Cost regions,
# at every breakpoint t1..t4 of each adjacent pair (650 to 1250), one value
# inside each region, one far outside each end, 1100 (whose degrees on
# `cost`, 2/3 and 1/3, are no terminating decimals) and a non-number. Each
# value is graded for all regions and for each region alone.
GOLDEN_MEMBERSHIP_REGIONS = {
    "cost": ("low", "medium", "high"),
    "cost_points": ("low", "medium", "high"),
}
GOLDEN_MEMBERSHIP_VALUES = (
    "-100000", "600", "650", "750", "850", "900", "1000",
    "1100", "1150", "1250", "1300", "100000", "cheap",
)


def _golden_argvs(fixture: Path, name: str, out: Path):
    """Yield the key and argv of each command recorded for `fixture`."""
    for command in GOLDEN_COMMANDS:
        argv = [command, name]
        if command == "query":
            argv += ["--pattern", GOLDEN_PATTERN]
        if command == "translate":
            argv += ["--out", out.name]
        yield command, argv
    regions = GOLDEN_MEMBERSHIP_REGIONS.get(fixture.stem)
    if regions is None:
        return
    cases = [
        ["--quality", "Cost", "--value", value, *region]
        for value in GOLDEN_MEMBERSHIP_VALUES
        for region in ([], *(["--region", r] for r in regions))
    ]
    cases += [
        ["--quality", "Speed", "--value", "600"],
        ["--quality", "Cost", "--value", "600", "--region", "enormous"],
    ]
    for case in cases:
        yield " ".join(["membership", *case]), ["membership", name, *case]


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
    for key, argv in _golden_argvs(fixture, name, out):
        for json_flag in ([], ["--json"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + json_flag)
            written = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            record = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
            digests[" ".join([key, *json_flag])] = hashlib.sha256(
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
