"""The command line: `cli._read_argv` reads a plain line exactly as argparse
does, and every other line reaches argparse, whose help, usage and error
text stay those of the one-parser front end the table replaced.

`_reference_parser` is that front end, kept as the reference: what `main`
prints for a line is compared with what it prints when the reference
parser reads every line, on the same interpreter.
"""

import argparse
import contextlib
import io
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from reqsmith import cli

FIXTURES = Path(__file__).parent / "fixtures"


def _reference_threshold(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reqsmith",
        description="Work with structured requirement models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", metavar="FILE", help="model file to read")
        p.add_argument(
            "--json",
            action="store_true",
            help="emit the machine-readable report schema",
        )
        return p

    command("fmt", "pretty-print a model in canonical form")
    check = command("check", "audit strength tags and world consistency")
    check.add_argument(
        "--bound",
        type=int,
        default=None,
        help="accepted for compatibility; check reads only proofs",
    )
    lint = command("lint", "review the model against the issue taxonomy")
    lint.add_argument("--config", default=None, help="lexicon config file")
    query_cmd = command("query", "list elements matching a description")
    query_cmd.add_argument("--pattern", required=True, help="description to match")
    fulfill = command("fulfill", "propagate fulfillment marks")
    fulfill.add_argument(
        "--threshold",
        type=_reference_threshold,
        default=None,
        help="count of fulfilled fan-out successors that suffices",
    )
    translate = command("translate", "write the model as an ontology document")
    translate.add_argument("--out", required=True, help="output path")
    membership = command("membership", "grade a value against declared regions")
    membership.add_argument("--quality", required=True, help="quality name")
    membership.add_argument("--value", required=True, help="observed value")
    membership.add_argument("--region", default=None, help="single region to grade")
    return parser


def _files(tmp_path: Path) -> SimpleNamespace:
    """Copies of two fixtures and two lint configs under `in/`, and an
    empty `work/` directory for the ontologies `translate` writes."""
    models = tmp_path / "in"
    models.mkdir()
    for name in ("booking.dsr", "cost.dsr"):
        shutil.copyfile(FIXTURES / name, models / name)
    (models / "slots.cfg").write_text("required_slots = actor\n", encoding="utf-8")
    (models / "tokens.cfg").write_text("universal_tokens = all\n", encoding="utf-8")
    (tmp_path / "work").mkdir()
    return SimpleNamespace(
        work=tmp_path / "work",
        model=str(models / "booking.dsr"),
        cost=str(models / "cost.dsr"),
        missing=str(models / "missing.dsr"),
        directory=str(models),
        values={
            "--bound": ["3", "7"],
            "--config": [str(models / "slots.cfg"), str(models / "tokens.cfg")],
            "--pattern": ["<object: Ticket>", "<means: Cash>"],
            "--threshold": ["1", "2"],
            "--out": ["a.ofn", "b.ofn"],
            "--quality": ["Cost", "Speed"],
            "--value": ["740", "600"],
            "--region": ["low", "medium"],
        },
    )


def _required(options, files: SimpleNamespace, but: str = "") -> list:
    """Each required option but `but`, with its first value."""
    return [w for f, req, _, _ in options if req and f != but for w in (f, files.values[f][0])]


def _corpus(files: SimpleNamespace) -> tuple[list, list]:
    """(plain lines, other lines) over every command: each option absent,
    present or repeated, abbreviations, `--opt=value`, `--`, `-h` at each
    position, values that start with `-`, missing and extra positionals,
    and values a converter refuses."""
    plain = []
    other = [[], ["-h"], ["--help"], ["--version"], ["--json"], ["polish", files.model]]
    other += [["fm", files.model], ["-h", "fmt", files.model]]
    for command, (_, _, options) in cli._COMMANDS.items():
        model = files.cost if command == "membership" else files.model
        required = _required(options, files)
        line = [command, model, *required]
        plain += [line, line + ["--json"], [command, "--json", model, *required]]
        plain += [line + ["--json", "--json"], [command, *required, model]]
        plain += [[command, files.missing, *required]]
        plain += [[command, files.directory, *required]]
        other += [line[:i] + ["-h"] + line[i:] for i in range(1, len(line) + 1)]
        other += [[command, "--help"], [command, "--js", model, *required]]
        other += [[command, *required], line + [model], line + ["extra"]]
        other += [[command, "--", model, *required], line + ["--"], line + ["--", "-x"]]
        other += [line + ["--frobnicate"], line + ["-j"], line + ["--json=1"]]
        for flag, req, _, _ in options:
            first, second = files.values[flag]
            rest = _required(options, files, but=flag)
            base = [command, model, *rest]
            (other if req else plain).append(base)
            plain += [base + [flag, first], base + [flag, first, flag, second]]
            plain += [[command, flag, first, *rest, model]]
            other += [base + [flag[:4], first], base + [f"{flag}={first}"], base + [flag]]
            other += [base + [flag, "--json"], base + [flag, "-x"], base + [flag, "-1"]]
            other += [base + [flag, "--", first], base + [flag, first, "-h"]]
    for value in ("0", "1.5", "x"):
        other.append(["fulfill", files.model, "--threshold", value])
    other += [["check", files.model, "--bound", "x"], ["check", files.model, "--bound", "1.5"]]
    return plain, other


def _run(argv: list, files: SimpleNamespace) -> tuple:
    """The exit code, stdout and stderr of `main(argv)`, and the files it
    wrote into the working directory, which are then removed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = {}
    for path in sorted(files.work.iterdir()):
        written[path.name] = path.read_bytes()
        path.unlink()
    return code, stdout.getvalue(), stderr.getvalue(), written


def _reference_args(argv: list):
    """What the reference parser reads from `argv`, or None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(_reference_parser().parse_args(argv))
        except SystemExit:
            return None


def test_the_reader_reads_each_plain_line_as_argparse_does(tmp_path):
    files = _files(tmp_path)
    plain, other = _corpus(files)
    for argv in plain:
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == _reference_args(argv), argv
    for argv in other:
        assert cli._read_argv(argv) is None, argv


def test_every_line_prints_what_the_reference_parser_prints(tmp_path, monkeypatch):
    files = _files(tmp_path)
    monkeypatch.chdir(files.work)
    plain, other = _corpus(files)
    for argv in plain + other:
        got = _run(argv, files)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_argv", lambda argv: None)
            patch.setattr(cli, "_build_parser", _reference_parser)
            assert got == _run(argv, files), argv


# Words a drawn command line is made of: commands and near misses, every
# option with its abbreviation and `=` form, `--`, help flags, values that
# start with `-`, stray positionals, and missing or directory paths.
def _alphabet(files: SimpleNamespace) -> list:
    words = ["--", "-h", "--help", "--json", "--js", "--json=1", "-x", "-1", "0", "1.5"]
    words += ["", "polish", "fm", "extra", files.model, files.cost]
    words += [files.missing, files.directory]
    for command, (_, _, options) in cli._COMMANDS.items():
        words.append(command)
        for flag, _, _, _ in options:
            first = files.values[flag][0]
            words += [flag, flag[:4], f"{flag}={first}", *files.values[flag]]
    return words


def test_drawn_command_lines_exit_zero_one_or_two(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    strategies = hypothesis.strategies
    files = _files(tmp_path)
    monkeypatch.chdir(files.work)
    texts = {path: Path(path).read_bytes() for path in (files.model, files.cost)}
    words = strategies.sampled_from(_alphabet(files))
    heads = strategies.sampled_from([*cli._COMMANDS, "-h", "polish"])

    @hypothesis.settings(
        max_examples=300, deadline=None, database=None, derandomize=True
    )
    @hypothesis.given(heads, strategies.lists(words, max_size=8))
    def check(head, rest):
        for path, text in texts.items():  # `--out` may name a model
            Path(path).write_bytes(text)
        code, out, _, _ = _run([head, *rest], files)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""

    check()
