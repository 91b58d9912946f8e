"""Output oracle: does one CLI operation's result match its expected answer?

An operation fails when its exit status differs from the expected one
(0 clean, 1 findings, 2 usage or parse error, as the README fixes), when
its stdout differs, when it writes anything to stderr (no operation the
benchmark runs is expected to warn, and a traceback is always a failure),
or, for `translate`, when the OWL file's lines differ from the expected
lines as a multiset: the check ignores line order and blank lines.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Optional

from gen import Op


def verdict(op: Op, code: int, stdout: str, stderr: str) -> Optional[str]:
    """None when the result is right, else a one-line reason."""
    if "Traceback (most recent call last)" in stderr:
        return f"traceback: {stderr.strip().splitlines()[-1]}"
    if code != op.code:
        return f"exit status {code}, expected {op.code}"
    if stderr:
        return f"unexpected stderr: {stderr.strip().splitlines()[0]}"
    if stdout != op.stdout:
        return f"stdout differs: {first_difference(stdout, op.stdout)}"
    if op.out_file is not None:
        try:
            written = Path(op.out_file).read_text(encoding="utf-8")
        except OSError as err:
            return f"output file unreadable: {err}"
        got = Counter(line for line in written.splitlines() if line)
        want = Counter(op.out_lines)
        if got != want:
            extra = sorted((got - want).elements())[:1]
            missing = sorted((want - got).elements())[:1]
            return f"output file differs: extra {extra}, missing {missing}"
    return None


def first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            return f"line {number}: got {a!r}, expected {b!r}"
    return f"{len(got_lines)} lines, expected {len(want_lines)}"
