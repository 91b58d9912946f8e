"""Command-line front end: parse a model file, then format, audit,
query, propagate, translate, or grade it.

Exit codes follow the usual triage: 0 for a clean run, 1 when findings
or diagnostics were reported, 2 for usage, file, or parse errors. Every
subcommand accepts `--json` to emit the machine-readable report schema
instead of plain text.
"""

import argparse
import gc
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn, Optional

# Each command imports the modules it runs inside its own function, so a
# short command such as `fmt` never loads the reasoner, lint or export,
# `check` takes its findings from `findings`, not from `lint`, `fulfill`
# takes its propagation from `fulfillment`, not from `reasoner`, and a
# `--json` run takes its report from `findings`, not from `export`.


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


def _finding_line(finding) -> str:
    line = f"{finding.element_id}: {finding.issue.value}: {finding.detail}"
    if finding.suggested_operator is not None:
        line += f" [suggest {finding.suggested_operator}]"
    return line


def _note_unknown_world(consistency) -> None:
    """An undecided world is no defect, so the axiom saturation left
    unsettled is a note on stderr and the exit code stays."""
    from .reasoner import ConsistencyStatus

    if consistency.status is ConsistencyStatus.UNKNOWN:
        for line in consistency.explanation:
            print(f"world: unknown: {line}", file=sys.stderr)


def _print_findings(findings, as_json: bool) -> int:
    if as_json:
        from .findings import emit_report

        print(emit_report(findings, {}, []), end="")
    else:
        for finding in findings:
            print(_finding_line(finding))
    return 1 if findings else 0


def _cmd_fmt(args) -> int:
    model = _load_model(args.file)
    if args.json:
        from .findings import emit_report

        print(emit_report([], {}, []), end="")
    else:
        from .parser import print_model

        print(print_model(model), end="")
    return 0


def _cmd_check(args) -> int:
    from .findings import Issue, LintFinding
    from .reasoner import ConsistencyStatus, check_consistency, check_strength_tags

    model = _load_model(args.file)
    findings = []
    for diag in check_strength_tags(model):
        findings.append(
            LintFinding(
                f"application[{diag.application_index}]",
                Issue.INCONSISTENT,
                diag.message,
            )
        )
    consistency = check_consistency(model)
    if consistency.status is ConsistencyStatus.INCONSISTENT:
        for line in consistency.explanation:
            findings.append(LintFinding("world", Issue.INCONSISTENT, line))
    _note_unknown_world(consistency)
    return _print_findings(findings, args.json)


def _cmd_lint(args) -> int:
    from .lint import LintConfig, lint_model, parse_config
    from .reasoner import check_consistency

    model = _load_model(args.file)
    config = LintConfig()
    if args.config is not None:
        text = _read_text(args.config)
        try:
            config = parse_config(text)
        except ValueError as err:
            raise _CliError(str(err)) from err
    findings = lint_model(model, config)
    _note_unknown_world(check_consistency(model))  # lint_model kept it on the model
    return _print_findings(findings, args.json)


def _cmd_query(args) -> int:
    from .parser import parse_description
    from .reasoner import query

    model = _load_model(args.file)
    pattern = parse_description(args.pattern)
    if isinstance(pattern, list):
        raise _CliError("\n".join(str(d) for d in pattern))
    matches = sorted(query(model, pattern))
    if args.json:
        from .findings import emit_report
        from .reasoner import SubsumptionVerdict, VerdictStatus

        verdict = SubsumptionVerdict(VerdictStatus.PROVEN, method="query")
        triples = [(match, args.pattern, verdict) for match in matches]
        print(emit_report([], {}, triples), end="")
    else:
        for match in matches:
            print(match)
    return 0


def _cmd_fulfill(args) -> int:
    from .fulfillment import propagate_fulfillment

    model = _load_model(args.file)
    state = propagate_fulfillment(model, args.threshold)
    for warning in state.warnings:
        print(warning, file=sys.stderr)
    if args.json:
        from .findings import emit_report

        print(emit_report([], state.states, []), end="")
    else:
        for element in model.elements:
            print(f"{element.id}: {state.states[element.id].value}")
    return 0


def _cmd_translate(args) -> int:
    from .export import NestedUNotExportable, emit_owl

    model = _load_model(args.file)
    try:
        document = emit_owl(model)
    except NestedUNotExportable as err:
        print(err, file=sys.stderr)
        return 1
    try:
        Path(args.out).write_text(document, encoding="utf-8")
    except OSError as err:
        raise _CliError(str(err)) from err
    if args.json:
        from .findings import emit_report

        print(emit_report([], {}, []), end="")
    return 0


def _cmd_membership(args) -> int:
    from .membership import format_degree, membership_degrees

    model = _load_model(args.file)
    spec = model.spec_for(args.quality)
    if spec is None or not spec.regions:
        raise _CliError(
            f"no membership regions are declared for quality {args.quality!r}"
        )
    try:
        value = Fraction(args.value)
    except (ValueError, ZeroDivisionError) as err:
        raise _CliError(f"--value must be a number, not {args.value!r}") from err
    degrees = membership_degrees(value, spec.regions)
    # Text prints one line per declared region; a single --region prints its
    # degree alone.
    names = [region.name for region in spec.regions]
    if args.region is not None:
        if args.region not in degrees:
            raise _CliError(
                f"region {args.region!r} is not declared for {args.quality}"
            )
        names = [args.region]
    if args.json:
        from .findings import emit_report

        report = {name: format_degree(degrees[name]) for name in names}
        print(emit_report([], report, []), end="")
    else:
        for name in names:
            degree = format_degree(degrees[name])
            print(degree if args.region is not None else f"{name}: {degree}")
    return 0


def _threshold(text: str) -> int:
    """A `--threshold` count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


_COMMANDS = {
    "fmt": _cmd_fmt,
    "check": _cmd_check,
    "lint": _cmd_lint,
    "query": _cmd_query,
    "fulfill": _cmd_fulfill,
    "translate": _cmd_translate,
    "membership": _cmd_membership,
}


def _build_parser() -> argparse.ArgumentParser:
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
        type=_threshold,
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


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        code = exit_.code
        return 0 if code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except _CliError as err:
        print(err, file=sys.stderr)
        return 2
    except RecursionError:
        # Every pass over a description or concept is a step of `model.fold`,
        # which keeps its own stack; only the structural derivation recurses,
        # and it can pass Python's limit on deep, wide models.
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
