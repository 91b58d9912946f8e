"""Command-line front end: parse a model file, then format, audit,
query, propagate, translate, or grade it.

Each command is a function of the loaded model and the arguments. It
writes its notes on stderr as it goes and returns its report: the text,
and the findings, states and verdicts of the JSON report, or None when it
failed and said why on stderr. `main` alone loads the model, writes stdout
once, as the text or under `--json` as the version-1 report, and picks the
exit code: 0 for a clean run, 1 for findings or a failed command, 2 for
usage, file, or parse errors.

The command line is stated once, in `_COMMANDS`. `_read_argv` reads a plain
line from it, and argparse, built from the same table only for any other
line, is the one author of help, usage and error text, so a well-formed
command loads neither argparse nor the `gettext` and `locale` it uses.
"""

import gc
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn, Optional

# Each command imports the modules it runs inside its own function, so a
# short command such as `fmt` never loads the reasoner, lint or export,
# `check` takes its findings from `findings`, not from `lint`, and `fulfill`
# takes its propagation from `fulfillment`, not from `reasoner`. A report's
# text is a function that `main` calls only without `--json`, so `fmt
# --json` loads no printer; under `--json`, `main` takes the report writer
# from `findings`, not from `export`.


class _CliError(Exception):
    """A usage or input problem; maps to exit code 2."""


def _read_text(path: str) -> str:
    """The file's text, without a leading UTF-8 byte-order mark. It is
    decoded as plain UTF-8 first, so a decoding error's offset counts bytes
    from the start of the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as err:
        raise _CliError(str(err)) from err
    except UnicodeDecodeError as err:
        message = f"{path}: error: not UTF-8 text: {err.reason} at offset {err.start}"
        raise _CliError(message) from err


def _load_model(path: str):
    from .parser import parse_model

    text = _read_text(path)
    result = parse_model(text, file=path)
    if isinstance(result, list):
        raise _CliError("\n".join(str(d) for d in result))
    return result


def _lines(lines):
    """A report's text: one line each."""
    text = "".join(f"{line}\n" for line in lines)
    return lambda: text


def _finding_line(finding) -> str:
    line = f"{finding.element_id}: {finding.issue.value}: {finding.detail}"
    if finding.suggested_operator is not None:
        line += f" [suggest {finding.suggested_operator}]"
    return line


def _findings_report(consistency, findings):
    """The report of `check` and `lint`: one line per finding. An undecided
    world is no defect, so the axiom saturation left unsettled is a note on
    stderr and the exit code stays."""
    from .reasoner import ConsistencyStatus

    if consistency.status is ConsistencyStatus.UNKNOWN:
        for line in consistency.explanation:
            print(f"world: unknown: {line}", file=sys.stderr)
    return _lines(map(_finding_line, findings)), findings, {}, []


def _cmd_fmt(model, args):
    from .parser import print_model

    return lambda: print_model(model), [], {}, []


def _cmd_check(model, args):
    from .findings import Issue, LintFinding, world_findings
    from .reasoner import check_consistency, check_strength_tags

    findings = [
        LintFinding(
            f"application[{diag.application_index}]", Issue.INCONSISTENT, diag.message
        )
        for diag in check_strength_tags(model)
    ]
    consistency = check_consistency(model)
    return _findings_report(consistency, findings + world_findings(consistency))


def _cmd_lint(model, args):
    from .lint import LintConfig, lint_model, parse_config
    from .reasoner import check_consistency

    config = LintConfig()
    if args.config is not None:
        text = _read_text(args.config)
        try:
            config = parse_config(text)
        except ValueError as err:
            raise _CliError(str(err)) from err
    findings = lint_model(model, config)  # keeps the world's verdict on the model
    return _findings_report(check_consistency(model), findings)


def _cmd_query(model, args):
    from .parser import parse_description
    from .reasoner import SubsumptionVerdict, VerdictStatus, query

    pattern = parse_description(args.pattern)
    if isinstance(pattern, list):
        raise _CliError("\n".join(str(d) for d in pattern))
    matches = sorted(query(model, pattern))
    verdict = SubsumptionVerdict(VerdictStatus.PROVEN, method="query")
    verdicts = [(match, args.pattern, verdict) for match in matches]
    return _lines(matches), [], {}, verdicts


def _cmd_fulfill(model, args):
    from .fulfillment import propagate_fulfillment

    state = propagate_fulfillment(model, args.threshold)
    for warning in state.warnings:
        print(warning, file=sys.stderr)
    lines = [f"{e.id}: {state.states[e.id].value}" for e in model.elements]
    return _lines(lines), [], state.states, []


def _cmd_translate(model, args):
    from .export import NestedUNotExportable, emit_owl

    try:
        document = emit_owl(model)
    except NestedUNotExportable as err:
        print(err, file=sys.stderr)
        return None
    try:
        Path(args.out).write_text(document, encoding="utf-8")
    except OSError as err:
        raise _CliError(str(err)) from err
    return _lines([]), [], {}, []


def _cmd_membership(model, args):
    from .membership import format_degree, membership_degrees

    spec = model.spec_for(args.quality)
    if spec is None or not spec.regions:
        raise _CliError(
            f"no membership regions are declared for quality {args.quality!r}"
        )
    # A number as a model writes it, with an optional sign: an exponent
    # would make Fraction expand it in full.
    try:
        if re.fullmatch(r"-?\d+(?:[./]\d+)?", args.value) is None:
            raise ValueError(args.value)
        value = Fraction(args.value)
    except (ValueError, ZeroDivisionError) as err:
        raise _CliError(f"--value must be a number, not {args.value!r}") from err
    degrees = membership_degrees(value, spec.regions)
    # Text prints one line per declared region; a single --region prints its
    # degree alone.
    if args.region is None:
        grades = {r.name: format_degree(degrees[r.name]) for r in spec.regions}
        lines = [f"{name}: {grade}" for name, grade in grades.items()]
        return _lines(lines), [], grades, []
    if args.region not in degrees:
        raise _CliError(f"region {args.region!r} is not declared for {args.quality}")
    grade = format_degree(degrees[args.region])
    return _lines([grade]), [], {args.region: grade}, []


def _threshold(text: str) -> int:
    """A `--threshold` count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise _refusal(f"invalid int value: {text!r}") from None
    if value < 1:
        raise _refusal(f"must be at least 1, not {value}")
    return value


def _refusal(message: str) -> Exception:
    """The error by which a converter refuses an option's value; argparse
    reports it, so only a refused value loads argparse here."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


# Each command's runner, help text and options. An option is (flag,
# whether it is required, the converter of its value, help text).
_COMMANDS = {
    "fmt": (_cmd_fmt, "pretty-print a model in canonical form", []),
    "check": (_cmd_check, "audit strength tags and world consistency", [
        ("--bound", False, int, "accepted for compatibility; check reads only proofs"),
    ]),
    "lint": (_cmd_lint, "review the model against the issue taxonomy", [
        ("--config", False, str, "lexicon config file"),
    ]),
    "query": (_cmd_query, "list elements matching a description", [
        ("--pattern", True, str, "description to match"),
    ]),
    "fulfill": (_cmd_fulfill, "propagate fulfillment marks", [
        ("--threshold", False, _threshold,
         "count of fulfilled fan-out successors that suffices"),
    ]),
    "translate": (_cmd_translate, "write the model as an ontology document", [
        ("--out", True, str, "output path"),
    ]),
    "membership": (_cmd_membership, "grade a value against declared regions", [
        ("--quality", True, str, "quality name"),
        ("--value", True, str, "observed value"),
        ("--region", False, str, "single region to grade"),
    ]),
}


def _read_argv(argv: list) -> Optional[SimpleNamespace]:
    """The arguments of a plain command line, as argparse would read them:
    a command, one FILE, `--json`, and the command's options, each spelt in
    full and followed by a separate value that does not start with `-`.
    Any other line, and a value its converter refuses, is None: argparse
    reads it and writes the help, usage or error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    options = _COMMANDS[command][2]
    converters = {flag: convert for flag, _, convert, _ in options}
    given: dict = {}
    file, json_flag = None, False
    words = iter(argv[1:])
    for word in words:
        if word == "--json":
            json_flag = True
        elif word in converters:
            text = next(words, None)
            if text is None or text.startswith("-"):
                return None
            try:
                given[word] = converters[word](text)
            except Exception:  # argparse converts it again and reports it
                return None
        elif word.startswith("-") or file is not None:
            return None
        else:
            file = word
    if file is None or any(req and flag not in given for flag, req, _, _ in options):
        return None
    values = {flag[2:]: given.get(flag) for flag in converters}
    return SimpleNamespace(command=command, file=file, json=json_flag, **values)


def _build_parser():
    """argparse over `_COMMANDS`, for the lines `_read_argv` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="reqsmith",
        description="Work with structured requirement models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("file", metavar="FILE", help="model file to read")
        command.add_argument(
            "--json",
            action="store_true",
            help="emit the machine-readable report schema",
        )
        for flag, required, convert, option_help in options:
            command.add_argument(flag, required=required, type=convert, help=option_help)
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exit_:
            return 0 if exit_.code in (0, None) else 2
    try:
        report = _COMMANDS[args.command][0](_load_model(args.file), args)
        if report is None:
            return 1
        text, findings, states, verdicts = report
        if args.json:
            from .findings import emit_report

            sys.stdout.write(emit_report(findings, states, verdicts))
        else:
            sys.stdout.write(text())
        return 1 if findings else 0
    except _CliError as err:
        print(err, file=sys.stderr)
        return 2
    except RecursionError:
        # No pass of reqsmith recurses: terms are walked by `model.fold` and
        # proofs by the derivation's own frame loop. CPython's comparison of
        # two equal but separately built records does recurse, in C, so two
        # equal concepts nested about 1,000 deep meeting in one dict lookup
        # pass Python's limit.
        print(
            f"{args.file}: error: the model nests too deeply for the reasoner "
            "(recursion limit reached)",
            file=sys.stderr,
        )
        return 2
    except BrokenPipeError:
        return 0


def run() -> NoReturn:
    """Process entry of the `reqsmith` script and `python -m reqsmith.cli`:
    the command runs without the cyclic collector, and the heap is frozen so
    that shutdown does not collect it either. Callers of `main` keep theirs."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
