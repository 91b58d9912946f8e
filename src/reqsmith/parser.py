"""Textual model format: lexing, parsing, and canonical pretty-printing.

A model file is a sequence of `;`-terminated statements: an optional model
name, element declarations (`kind ID := body;`), operator applications,
conflict sets, fulfillment marks, axioms, prototype region blocks, and an
optional world block. Parsing either returns a validated model or a list of
diagnostics with source spans; it never returns a half-built model.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional, Union as TypingUnion

from .model import (
    EXACTLY_ONE,
    NOTHING,
    ONLY,
    SOME,
    THING,
    AtomicConcept,
    DeUniversalizeArgs,
    Description,
    Difference,
    Element,
    Enumeration,
    FunctionDesc,
    Intersection,
    Interval,
    IntervalPrototypes,
    InverseProjection,
    Kind,
    MembershipSpec,
    Model,
    ModifierKind,
    NamedRegion,
    NaturalLanguage,
    Nothing,
    ObserveArgs,
    Operator,
    OperatorApplication,
    PointPrototypes,
    PrototypeRegion,
    QualityRecord,
    QualityStatement,
    Quantity,
    Region,
    RegionExpr,
    ScaleArgs,
    ScaleDirection,
    ScaleFactor,
    SlotRestriction,
    Strength,
    Subsumption,
    Thing,
    UAnnotation,
    Union,
    ValueSet,
    World,
    at_least,
    at_most,
    children,
    exact_decimal,
    exactly,
    validate_model,
)

MAX_DIAGNOSTICS = 20
# Deepest description the parser accepts: parentheses and slot restrictions
# may nest this deep, and a description's tree may have this many levels.
# It keeps the parser and the recursive passes over one description
# (validation, translation, evaluation, printing) inside Python's default
# recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"description nested more than {MAX_NESTING} levels deep"

KIND_KEYWORDS = {kind.value: kind for kind in Kind}
OPERATOR_KEYWORDS = {
    "reduce": Operator.REDUCE,
    "interpret": Operator.INTERPRET,
    "focus": Operator.FOCUS,
    "scale_up": Operator.SCALE,
    "scale_down": Operator.SCALE,
    "deuniv": Operator.DEUNIVERSALIZE,
    "resolve": Operator.RESOLVE,
    "operationalize": Operator.OPERATIONALIZE,
    "observe": Operator.OBSERVE,
}
STRENGTH_KEYWORDS = {s.value: s for s in Strength}


class SourceSpan(NamedTuple):
    """A position in a source file, by line, column and offset."""

    file: str
    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseDiagnostic(NamedTuple):
    """A parse or validation problem at a source position."""

    span: SourceSpan
    severity: str
    message: str
    expected: Optional[str] = None

    def __str__(self) -> str:
        suffix = f" (expected {self.expected})" if self.expected else ""
        return f"{self.span}: {self.severity}: {self.message}{suffix}"


# ===== PART 1: lexer =====

# One match per token: the leading group skips the whitespace and comments
# before it, and the one capture group is the lexeme. The alternation ends in
# a catch-all for an unexpected character and a match at the end of the text,
# so the pattern matches at every position and a scan covers the whole text
# without a gap. Lexemes never contain a newline; only the skipped prefix
# moves the line count. `tokenize` keeps only the lexemes, and
# `token_positions` runs the same pattern again to place them when a
# diagnostic needs a span.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (
      \d+\.\d+|\d+/\d+|\d+
    | [A-Za-z_][A-Za-z0-9_']*
    | "(?:[^"\\\n]|\\.)*"
    | :=|:<|::|<=|>=|->|[;,{}()\[\]<>:=|\-.?%]
    | .
    | \Z
    )
    """,
    re.VERBOSE,
)

# A lexeme's kind follows from its first character: "" is the end of input,
# `"` opens a string, a decimal digit (`str.isdecimal`, the class of `\d`)
# opens a number, a letter or `_` opens an identifier, and any other token is
# punctuation. A one-character lexeme outside this alphabet, a lone `"`
# included, is an unexpected character.
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR_TOKENS = _ID_START | frozenset(";,{}()[]<>:=|-.?%")


def _is_id(lexeme: str) -> bool:
    return lexeme[:1] in _ID_START


def _is_num(lexeme: str) -> bool:
    return lexeme[:1].isdecimal()


def _is_str(lexeme: str) -> bool:
    return lexeme[:1] == '"'


def _is_bad(lexeme: str) -> bool:
    return (
        len(lexeme) == 1
        and lexeme not in _ONE_CHAR_TOKENS
        and not lexeme.isdecimal()
    )


_COUNTED = {"<=": at_most, ">=": at_least, "=": exactly}


def _placed(text: str):
    """(lexeme, line, column, offset) for each lexeme through the end of
    input."""
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        start = match.start(1)
        gap = match.start()
        if start != gap:
            newlines = text.count("\n", gap, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", gap, start) + 1
        lexeme = match[1]
        yield lexeme, line, start - line_start + 1, start
        if not lexeme:
            return


def token_positions(text: str) -> list[tuple[int, int, int]]:
    """(line, column, offset) of each token `tokenize` returns for `text`."""
    return [
        (line, column, offset)
        for lexeme, line, column, offset in _placed(text)
        if not _is_bad(lexeme)
    ]


def tokenize(text: str, file: str) -> tuple[list[str], list[ParseDiagnostic]]:
    """The lexemes of `text`, ending in "" for the end of input, and a
    diagnostic for each unexpected character, which is left out."""
    tokens = _TOKEN_RE.findall(text)
    # Trailing whitespace leaves a second empty match after the first.
    del tokens[tokens.index("") + 1 :]
    bad = {lexeme for lexeme in set(tokens) if _is_bad(lexeme)}
    if not bad:
        return tokens, []
    diagnostics = [
        ParseDiagnostic(
            SourceSpan(file, line, column, offset),
            "error",
            f"unexpected character {lexeme!r}",
        )
        for lexeme, line, column, offset in _placed(text)
        if lexeme in bad
    ]
    return [lexeme for lexeme in tokens if lexeme not in bad], diagnostics


def _height(desc: Description) -> int:
    """Operator levels above the deepest leaf, counted without recursion."""
    height, stack = 0, [(desc, 0)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack += [(child, level + 1) for child in children(node)]
    return height


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ===== PART 2: parser =====


class _Abort(Exception):
    """Internal signal: the current statement cannot be finished."""


class _Parser:
    def __init__(self, tokens: list[str], text: str, file: str):
        self.tokens = tokens
        self.last = len(tokens) - 1
        self.pos = 0
        self.nesting = 0
        self.diagnostics: list[ParseDiagnostic] = []
        self.text = text
        self.file = file
        self.positions: Optional[list[tuple[int, int, int]]] = None

    # --- token plumbing ---
    # The token list ends in "" and `advance` never moves past it, so the
    # current token is always `tokens[pos]`; only a look-ahead is clamped.

    def peek(self, ahead: int = 0) -> str:
        if ahead:
            return self.tokens[min(self.pos + ahead, self.last)]
        return self.tokens[self.pos]

    def advance(self) -> str:
        token = self.tokens[self.pos]
        if self.pos < self.last:
            self.pos += 1
        return token

    def at(self, value: str) -> bool:
        # Only punctuation and identifiers can equal a keyword or symbol: a
        # string keeps its quotes, a number starts with a digit, eof is "".
        return self.tokens[self.pos] == value

    def span(self, index: int) -> SourceSpan:
        """Where token `index` starts; the first call places every token."""
        if self.positions is None:
            self.positions = token_positions(self.text)
        return SourceSpan(self.file, *self.positions[index])

    def error(
        self,
        message: str,
        expected: Optional[str] = None,
        span: Optional[SourceSpan] = None,
    ) -> _Abort:
        if len(self.diagnostics) < MAX_DIAGNOSTICS:
            self.diagnostics.append(
                ParseDiagnostic(span or self.span(self.pos), "error", message, expected)
            )
        return _Abort()

    # A token that matches is not the end of input, so these two step past
    # it directly.

    def expect(self, value: str) -> str:
        token = self.tokens[self.pos]
        if token != value:
            found = token or "end of input"
            raise self.error(f"expected {value!r}, found {found!r}", expected=repr(value))
        self.pos += 1
        return token

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.tokens[self.pos]
        if not _is_id(token):
            found = token or "end of input"
            raise self.error(f"expected {what}, found {found!r}", expected=what)
        self.pos += 1
        return token

    def sync_statement(self) -> None:
        depth = 0
        while True:
            token = self.peek()
            if not token:
                return
            if token in "({[":
                depth += 1
            elif token in ")}]":
                depth = max(0, depth - 1)
            elif token == ";" and depth == 0:
                self.advance()
                return
            self.advance()

    # --- rationals ---

    def parse_rational(self) -> Fraction:
        negative = False
        if self.at("-"):
            self.advance()
            negative = True
        token = self.peek()
        if not _is_num(token):
            raise self.error("expected a number", expected="number")
        try:
            value = Fraction(token)
        except ZeroDivisionError:
            raise self.error(f"a rational needs a nonzero denominator, found {token}")
        self.advance()
        if self.at("%"):
            self.advance()
            value /= 100
        return -value if negative else value

    # --- descriptions ---

    def parse_description(self) -> Description:
        if self.nesting > MAX_NESTING:
            raise self.error(_TOO_DEEP)
        start = self.pos
        self.nesting += 1
        try:
            desc = self._parse_difference()
        finally:
            self.nesting -= 1
        # Each level of a tree owns at least one token outside the subtree
        # below it, so a description of at most MAX_NESTING tokens is never
        # too high and its tree need not be walked.
        if (
            not self.nesting
            and self.pos - start > MAX_NESTING
            and _height(desc) > MAX_NESTING
        ):
            raise self.error(_TOO_DEEP, span=self.span(start))
        return desc

    def _parse_difference(self) -> Description:
        left = self._parse_union()
        while self.at("-"):
            self.advance()
            right = self._parse_union()
            left = Difference(left, right)
        return left

    def _parse_union(self) -> Description:
        left = self._parse_adjacency()
        while self.at("|"):
            self.advance()
            right = self._parse_adjacency()
            left = Union(left, right)
        return left

    def _starts_primary(self) -> bool:
        token = self.peek()
        if _is_id(token):
            return True
        if token in ("{", "("):
            return True
        if token == "<":
            return _is_id(self.peek(1)) and self.peek(2) == ":"
        return False

    def _parse_adjacency(self) -> Description:
        left = self._parse_postfix()
        while self._starts_primary():
            right = self._parse_postfix()
            left = Intersection(left, right)
        return left

    def _parse_postfix(self) -> Description:
        node = self._parse_primary()
        while self.at(".") and _is_id(self.peek(1)):
            self.advance()
            slot = self.expect_ident("slot name")
            node = InverseProjection(node, slot)
        return node

    def _parse_primary(self) -> Description:
        token = self.peek()
        if _is_id(token):
            if token == "Thing":
                self.advance()
                return THING
            if token == "Nothing":
                self.advance()
                return NOTHING
            return AtomicConcept(self.advance())
        if token == "{":
            return self._parse_braced()
        if token == "(":
            self.advance()
            inner = self.parse_description()
            self.expect(")")
            return inner
        if token == "<":
            return self._parse_slot_restriction()
        if token == "[":
            return Region(self._parse_interval())
        raise self.error(
            f"expected a description, found {token!r}", expected="description"
        )

    def _parse_braced(self) -> Description:
        self.expect("{")
        if _is_num(self.peek()) or _is_str(self.peek()) or self.at("-"):
            values: list = [self._parse_set_value()]
            while self.at(","):
                self.advance()
                values.append(self._parse_set_value())
            self.expect("}")
            return Region(ValueSet(tuple(values)))
        ids = [self.expect_ident("individual id")]
        while self.at(","):
            self.advance()
            ids.append(self.expect_ident("individual id"))
        self.expect("}")
        return Enumeration(tuple(ids))

    def _parse_set_value(self):
        if _is_str(self.peek()):
            return _unquote(self.advance())
        return self.parse_rational()

    def _parse_slot_restriction(self) -> SlotRestriction:
        self.expect("<")
        slot = self.expect_ident("slot name")
        self.expect(":")
        modifier = EXACTLY_ONE
        token = self.peek()
        if token in _COUNTED and _is_num(self.peek(1)):
            self.advance()
            count = self.peek()
            if not count.isdigit() or int(count) < 1:
                raise self.error(
                    f"a cardinality count must be a whole number >= 1, found {count}"
                )
            self.advance()
            modifier = _COUNTED[token](int(count))
        elif token == "SOME":
            self.advance()
            modifier = SOME
        elif token == "ONLY":
            self.advance()
            modifier = ONLY
        filler = self.parse_description()
        self.expect(">")
        return SlotRestriction(slot, modifier, filler)

    # --- region expressions ---

    def _parse_interval(self) -> Interval:
        self.expect("[")
        low = self.parse_rational()
        self.expect(",")
        high = self.parse_rational()
        unit = None
        if self.at("("):
            self.advance()
            unit = self.expect_ident("unit")
            if self.at("."):
                self.advance()
            self.expect(")")
        self.expect("]")
        if low > high:
            raise self.error("interval low bound exceeds high bound")
        return Interval(low, high, unit)

    def parse_region_expr(self) -> RegionExpr:
        token = self.peek()
        if token == "[":
            return self._parse_interval()
        if token == "<=":
            self.advance()
            high = self.parse_rational()
            unit = None
            if self.at("("):
                self.advance()
                unit = self.expect_ident("unit")
                if self.at("."):
                    self.advance()
                self.expect(")")
            return Interval(Fraction(0), high, unit)
        if token == "{":
            region = self._parse_braced()
            if isinstance(region, Region) and isinstance(region.expr, ValueSet):
                return region.expr
            if isinstance(region, Enumeration):
                return ValueSet(region.ids)
            raise self.error("expected a value set")
        name = self.expect_ident("region name")
        qualitative = True
        if self.at("(") and self.peek(1) == "measured" and self.peek(2) == ")":
            self.advance()
            self.advance()
            self.advance()
            qualitative = False
        return NamedRegion(name, qualitative)

    # --- element bodies ---

    def _scan_body_shape(self) -> str:
        """Look ahead to the statement end and report the body connective."""
        depth = 0
        index = self.pos
        while index < len(self.tokens):
            token = self.tokens[index]
            if not token or (token == ";" and depth == 0):
                break
            if token in "({[":
                depth += 1
            elif token in ")}]":
                depth -= 1
            elif depth == 0 and token == "::":
                return "quality"
            elif depth == 0 and token == ":<":
                return "subsumption"
            index += 1
        return "function"

    def parse_body(self, kind: Kind):
        if _is_str(self.peek()):
            return NaturalLanguage(_unquote(self.advance()))
        if kind is Kind.F:
            shape = "function"
        elif kind in (Kind.QG, Kind.QC):
            shape = "quality"
        elif kind is Kind.GOAL:
            shape = self._scan_body_shape()
        else:
            shape = "subsumption"
        if shape == "function":
            return self._parse_function_body()
        if shape == "quality":
            return self._parse_quality_body()
        subsumee = self.parse_description()
        self.expect(":<")
        subsumer = self.parse_description()
        return Subsumption(subsumee, subsumer)

    def _parse_function_body(self) -> FunctionDesc:
        head = self.expect_ident("function head")
        slots: list[SlotRestriction] = []
        while self.at("<") and _is_id(self.peek(1)) and self.peek(2) == ":":
            slots.append(self._parse_slot_restriction())
        return FunctionDesc(head, tuple(slots))

    def _parse_quality_body(self) -> QualityStatement:
        if _is_id(self.peek()):
            quality: Description = AtomicConcept(self.advance())
        else:
            self.expect("(")
            quality = self.parse_description()
            self.expect(")")
        self.expect("(")
        subject = self.parse_description()
        self.expect(")")
        self.expect("::")
        region = self.parse_region_expr()
        observers: list[Description] = []
        annotations: list[UAnnotation] = []
        while True:
            if self.at("<") and self.peek(1) == "observed_by":
                self.advance()
                self.advance()
                self.expect(":")
                observers.append(self.parse_description())
                self.expect(">")
            elif self.at("u") and self.peek(1) == "(":
                annotations.append(self._parse_annotation())
            else:
                break
        return QualityStatement(
            quality, subject, region, tuple(observers), tuple(annotations)
        )

    def _parse_annotation(self) -> UAnnotation:
        self.expect("u")
        self.expect("(")
        self.expect("?")
        var = self.expect_ident("variable name")
        self.expect(",")
        path = [self.expect_ident("slot name")]
        while self.at("."):
            self.advance()
            path.append(self.expect_ident("slot name"))
        self.expect(",")
        pct = self.parse_rational()
        self.expect(")")
        try:
            return UAnnotation(var, tuple(path), pct)
        except ValueError as exc:
            raise self.error(str(exc))

    # --- statements ---

    def parse_strength(self, default: Optional[Strength]) -> Strength:
        if self.at("["):
            if self.peek(1) in STRENGTH_KEYWORDS and self.peek(2) == "]":
                self.advance()
                strength = STRENGTH_KEYWORDS[self.advance()]
                self.advance()
                return strength
            raise self.error("expected a strength tag", expected="[strengthen|weaken|equate]")
        if default is None:
            raise self.error(
                "this operator needs an explicit strength tag",
                expected="[strengthen|weaken|equate]",
            )
        return default

    def parse_id_list(self) -> list[str]:
        ids = [self.expect_ident("element id")]
        while self.at(","):
            self.advance()
            ids.append(self.expect_ident("element id"))
        return ids

    def _parse_scale_factor(self) -> ScaleFactor:
        if self.at("("):
            self.advance()
            low = self.parse_rational()
            self.expect(",")
            high = self.parse_rational()
            self.expect(")")
            return ScaleFactor(low_factor=low, high_factor=high)
        name = self.expect_ident("region name")
        return ScaleFactor(region_name=name)

    def parse_operator_statement(self, keyword: str) -> OperatorApplication:
        op = OPERATOR_KEYWORDS[keyword]
        if op is Operator.RESOLVE:
            inputs = self.parse_id_list()
            self.expect("->")
            outputs: list[str] = []
            if _is_id(self.peek()):
                outputs = self.parse_id_list()
            strength = self.parse_strength(Strength.WEAKENING)
            return OperatorApplication(op, tuple(inputs), tuple(outputs), strength)
        source = self.expect_ident("element id")
        self.expect("->")
        if op in (Operator.REDUCE, Operator.OPERATIONALIZE, Operator.FOCUS):
            outputs = self.parse_id_list()
            default = Strength.WEAKENING if op is Operator.FOCUS else None
            strength = self.parse_strength(default)
            return OperatorApplication(op, (source,), tuple(outputs), strength)
        target = self.expect_ident("element id")
        if op is Operator.INTERPRET:
            strength = self.parse_strength(None)
            return OperatorApplication(op, (source,), (target,), strength)
        if op is Operator.SCALE:
            direction = (
                ScaleDirection.UP if keyword == "scale_up" else ScaleDirection.DOWN
            )
            self.expect("by")
            factor = self._parse_scale_factor()
            default = (
                Strength.STRENGTHENING
                if direction is ScaleDirection.UP
                else Strength.WEAKENING
            )
            strength = self.parse_strength(default)
            return OperatorApplication(
                op, (source,), (target,), strength, ScaleArgs(factor, direction)
            )
        if op is Operator.DEUNIVERSALIZE:
            annotation = self._parse_annotation()
            strength = self.parse_strength(Strength.WEAKENING)
            return OperatorApplication(
                op, (source,), (target,), strength, DeUniversalizeArgs(annotation)
            )
        # observe
        self.expect("by")
        observer = self.parse_description()
        strength = self.parse_strength(Strength.STRENGTHENING)
        return OperatorApplication(
            op, (source,), (target,), strength, ObserveArgs(observer)
        )

    # --- world block ---

    def parse_world_block(self) -> World:
        self.expect("{")
        individuals: set[str] = set()
        extensions: dict[str, set[str]] = {}
        tuples: dict[str, set[tuple[str, str]]] = {}
        data: dict[tuple[str, str], object] = {}
        records: list[QualityRecord] = []
        while not self.at("}") and self.peek():
            try:
                keyword = self.expect_ident("world statement")
                if keyword == "individual":
                    name = self.expect_ident("individual id")
                    individuals.add(name)
                    if self.at(":"):
                        self.advance()
                        concept = self.expect_ident("concept")
                        extensions.setdefault(concept, set()).add(name)
                        while self.at(","):
                            self.advance()
                            concept = self.expect_ident("concept")
                            extensions.setdefault(concept, set()).add(name)
                    self.expect(";")
                elif keyword == "slot":
                    slot = self.expect_ident("slot name")
                    self.expect("(")
                    subject = self.expect_ident("individual id")
                    self.expect(",")
                    target = self.expect_ident("individual id")
                    self.expect(")")
                    self.expect(";")
                    tuples.setdefault(slot, set()).add((subject, target))
                    individuals.update((subject, target))
                elif keyword == "data":
                    slot = self.expect_ident("slot name")
                    self.expect("(")
                    subject = self.expect_ident("individual id")
                    self.expect(")")
                    self.expect("=")
                    data[(subject, slot)] = self._parse_data_value()
                    individuals.add(subject)
                    self.expect(";")
                elif keyword == "quality":
                    records.append(self._parse_quality_record())
                else:
                    raise self.error(f"unknown world statement {keyword!r}")
            except _Abort:
                self.sync_statement()
        self.expect("}")
        if self.at(";"):
            self.advance()
        return World(
            individuals=frozenset(individuals),
            concept_extensions={c: frozenset(v) for c, v in extensions.items()},
            slot_tuples={s: frozenset(v) for s, v in tuples.items()},
            data_values=data,
            quality_records=tuple(records),
        )

    def _parse_data_value(self):
        if _is_str(self.peek()):
            return _unquote(self.advance())
        if _is_id(self.peek()):
            return self.advance()
        value = self.parse_rational()
        if _is_id(self.peek()):
            unit = self.advance()
            if self.at("."):
                self.advance()
            return Quantity(value, unit)
        return value

    def _parse_quality_record(self) -> QualityRecord:
        quality_id = self.expect_ident("quality id")
        self.expect(":")
        concept = self.expect_ident("quality concept")
        self.expect("inheres")
        bearer = self.expect_ident("bearer id")
        self.expect("value")
        value = self.parse_rational()
        unit = None
        if _is_id(self.peek()) and self.peek() != "observed_by":
            unit = self.advance()
            if self.at("."):
                self.advance()
        observers: set[str] = set()
        if self.at("observed_by"):
            self.advance()
            self.expect("{")
            observers.add(self.expect_ident("observer id"))
            while self.at(","):
                self.advance()
                observers.add(self.expect_ident("observer id"))
            self.expect("}")
        self.expect(";")
        return QualityRecord(quality_id, concept, bearer, value, unit, frozenset(observers))

    # --- regions block ---

    def parse_regions_block(self) -> MembershipSpec:
        quality = self.expect_ident("quality name")
        self.expect("{")
        regions: list[PrototypeRegion] = []
        while not self.at("}") and self.peek():
            name = self.expect_ident("region name")
            self.expect("=")
            keyword = self.expect_ident("'points' or 'interval'")
            if keyword == "points":
                self.expect("{")
                values = [self.parse_rational()]
                while self.at(","):
                    self.advance()
                    values.append(self.parse_rational())
                self.expect("}")
                regions.append(PrototypeRegion(name, PointPrototypes(tuple(values))))
            elif keyword == "interval":
                self.expect("[")
                low = self.parse_rational()
                self.expect(",")
                high = self.parse_rational()
                self.expect("]")
                try:
                    prototypes = IntervalPrototypes(low, high)
                except ValueError as exc:
                    raise self.error(str(exc))
                regions.append(PrototypeRegion(name, prototypes))
            else:
                raise self.error("expected 'points' or 'interval'")
            self.expect(";")
        self.expect("}")
        if self.at(";"):
            self.advance()
        return MembershipSpec(quality, tuple(regions))


class _Builder:
    """The statements of a model as the parser collects them."""

    def __init__(self) -> None:
        self.name = ""
        self.elements: list[Element] = []
        self.applications: list[OperatorApplication] = []
        self.conflicts: list[frozenset[str]] = []
        self.axioms: list[Subsumption] = []
        self.marks: set[str] = set()
        self.world: Optional[World] = None
        self.specs: list[MembershipSpec] = []
        # The index of the token each validation subject starts at: an
        # element's id and the keyword of `application[i]`, `conflict[i]`
        # and `axiom[i]`. The first `fulfilled` keyword is kept apart, since
        # an element may be named `fulfilled_marks`.
        self.starts: dict[str, int] = {}
        self.fulfilled: Optional[int] = None


def _parse_statements(parser: _Parser) -> _Builder:
    build = _Builder()
    while parser.peek():
        keyword = parser.peek()
        start = parser.pos
        try:
            if not _is_id(keyword):
                raise parser.error(f"expected a statement, found {keyword!r}")
            if keyword == "model":
                parser.advance()
                build.name = parser.expect_ident("model name")
                parser.expect(";")
            elif keyword in KIND_KEYWORDS:
                parser.advance()
                ident = parser.expect_ident("element id")
                parser.expect(":=")
                body = parser.parse_body(KIND_KEYWORDS[keyword])
                parser.expect(";")
                build.elements.append(Element(ident, KIND_KEYWORDS[keyword], body))
                build.starts[ident] = start + 1
            elif keyword in OPERATOR_KEYWORDS:
                parser.advance()
                app = parser.parse_operator_statement(keyword)
                parser.expect(";")
                build.starts[f"application[{len(build.applications)}]"] = start
                build.applications.append(app)
            elif keyword == "conflict":
                parser.advance()
                parser.expect("{")
                ids = parser.parse_id_list()
                parser.expect("}")
                parser.expect(";")
                build.starts[f"conflict[{len(build.conflicts)}]"] = start
                build.conflicts.append(frozenset(ids))
            elif keyword == "fulfilled":
                if build.fulfilled is None:
                    build.fulfilled = start
                parser.advance()
                build.marks.update(parser.parse_id_list())
                parser.expect(";")
            elif keyword == "axiom":
                parser.advance()
                subsumee = parser.parse_description()
                parser.expect(":<")
                subsumer = parser.parse_description()
                parser.expect(";")
                build.starts[f"axiom[{len(build.axioms)}]"] = start
                build.axioms.append(Subsumption(subsumee, subsumer))
            elif keyword == "world":
                parser.advance()
                build.world = parser.parse_world_block()
            elif keyword == "regions":
                parser.advance()
                build.specs.append(parser.parse_regions_block())
            else:
                raise parser.error(f"unknown statement keyword {keyword!r}")
        except _Abort:
            parser.sync_statement()
        if len(parser.diagnostics) >= MAX_DIAGNOSTICS:
            break
    return build


def parse_model(
    text: str, file: str = "<input>"
) -> TypingUnion[Model, list[ParseDiagnostic]]:
    """Parse a model file; return the model or all error diagnostics."""
    tokens, diagnostics = tokenize(text, file)
    parser = _Parser(tokens, text, file)
    parser.diagnostics.extend(diagnostics)
    build = _parse_statements(parser)
    if parser.diagnostics:
        return parser.diagnostics
    model = Model(
        name=build.name,
        elements=tuple(build.elements),
        applications=tuple(build.applications),
        conflicts=tuple(build.conflicts),
        axioms=tuple(build.axioms),
        fulfilled_marks=frozenset(build.marks),
        world=build.world,
        membership_specs=tuple(build.specs),
    )
    problems = validate_model(model)
    if problems:
        fallback = SourceSpan(file, 1, 1, 0)
        result = []
        for problem in problems:
            subject, rule = problem.subject_id, problem.rule
            if subject == "fulfilled_marks" and rule == "dangling-reference":
                start = build.fulfilled
            else:
                start = build.starts.get(subject)
            span = fallback if start is None else parser.span(start)
            result.append(ParseDiagnostic(span, "error", str(problem)))
        return result
    return model


def parse_description(
    text: str, file: str = "<input>"
) -> TypingUnion[Description, list[ParseDiagnostic]]:
    """Parse a lone description; return it or all error diagnostics."""
    tokens, diagnostics = tokenize(text, file)
    parser = _Parser(tokens, text, file)
    parser.diagnostics.extend(diagnostics)
    result: Optional[Description] = None
    try:
        result = parser.parse_description()
        if parser.peek():
            raise parser.error(f"unexpected trailing input {parser.peek()!r}")
    except _Abort:
        pass
    if parser.diagnostics:
        return parser.diagnostics
    assert result is not None
    return result


# ===== PART 3: pretty-printer =====

_PREC_DIFFERENCE = 0
_PREC_UNION = 1
_PREC_ADJACENCY = 2
_PREC_POSTFIX = 3


def format_rational(value: Fraction) -> str:
    return exact_decimal(value) or f"{value.numerator}/{value.denominator}"


def format_percent(value: Fraction) -> str:
    scaled = value * 100
    if scaled.denominator == 1:
        return f"{scaled.numerator}%"
    return format_rational(value)


def _format_modifier(modifier) -> str:
    if modifier.kind is ModifierKind.EXACTLY_ONE:
        return ""
    if modifier.kind is ModifierKind.SOME:
        return "SOME "
    if modifier.kind is ModifierKind.ONLY:
        return "ONLY "
    symbol = {
        ModifierKind.AT_MOST: "<=",
        ModifierKind.AT_LEAST: ">=",
        ModifierKind.EXACTLY: "=",
    }[modifier.kind]
    return f"{symbol}{modifier.n} "


def format_region_expr(region: RegionExpr) -> str:
    if isinstance(region, NamedRegion):
        return region.name if region.qualitative else f"{region.name} (measured)"
    if isinstance(region, Interval):
        unit = f" ({region.unit})" if region.unit else ""
        return f"[{format_rational(region.low)}, {format_rational(region.high)}{unit}]"
    parts = []
    for value in region.values:
        parts.append(_quote(value) if isinstance(value, str) else format_rational(value))
    return "{" + ", ".join(parts) + "}"


def format_description(desc: Description, parent_prec: int = 0) -> str:
    if isinstance(desc, Thing):
        return "Thing"
    if isinstance(desc, Nothing):
        return "Nothing"
    if isinstance(desc, AtomicConcept):
        return desc.name
    if isinstance(desc, Enumeration):
        return "{" + ", ".join(desc.ids) + "}"
    if isinstance(desc, Region):
        return format_region_expr(desc.expr)
    if isinstance(desc, SlotRestriction):
        inner = format_description(desc.filler, _PREC_DIFFERENCE)
        return f"<{desc.slot}: {_format_modifier(desc.modifier)}{inner}>"
    if isinstance(desc, InverseProjection):
        source = format_description(desc.source, _PREC_POSTFIX)
        return f"{source}.{desc.slot}"
    if isinstance(desc, Intersection):
        text = (
            format_description(desc.left, _PREC_ADJACENCY)
            + " "
            + format_description(desc.right, _PREC_POSTFIX)
        )
        prec = _PREC_ADJACENCY
    elif isinstance(desc, Union):
        text = (
            format_description(desc.left, _PREC_UNION)
            + " | "
            + format_description(desc.right, _PREC_ADJACENCY)
        )
        prec = _PREC_UNION
    elif isinstance(desc, Difference):
        text = (
            format_description(desc.left, _PREC_DIFFERENCE)
            + " - "
            + format_description(desc.right, _PREC_UNION)
        )
        prec = _PREC_DIFFERENCE
    else:
        raise TypeError(f"unknown description: {desc!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def _format_annotation(ann: UAnnotation) -> str:
    path = ".".join(ann.matched_path)
    return f"u(?{ann.var_id}, {path}, {format_percent(ann.pct_low)})"


def _format_body(element: Element) -> str:
    body = element.body
    if isinstance(body, NaturalLanguage):
        return _quote(body.text)
    if isinstance(body, FunctionDesc):
        parts = [body.head]
        parts.extend(format_description(s) for s in body.slots)
        return " ".join(parts)
    if isinstance(body, Subsumption):
        return (
            format_description(body.subsumee)
            + " :< "
            + format_description(body.subsumer)
        )
    quality = (
        body.quality.name
        if isinstance(body.quality, AtomicConcept)
        else f"({format_description(body.quality)})"
    )
    text = f"{quality} ({format_description(body.subject)}) :: {format_region_expr(body.region)}"
    for observer in body.observers:
        text += f" <observed_by: {format_description(observer)}>"
    for ann in body.pct_annotations:
        text += " " + _format_annotation(ann)
    return text


def _format_application(app: OperatorApplication) -> str:
    strength = f" [{app.strength.value}]"
    if app.op is Operator.RESOLVE:
        outputs = ", ".join(app.outputs)
        kept = f" {outputs}" if outputs else ""
        return f"resolve {', '.join(app.inputs)} ->{kept}{strength};"
    source = app.inputs[0]
    if app.op is Operator.SCALE:
        args = app.args
        keyword = "scale_up" if args.direction is ScaleDirection.UP else "scale_down"
        if args.factor.is_quantitative:
            factor = (
                f"({format_rational(args.factor.low_factor)}, "
                f"{format_rational(args.factor.high_factor)})"
            )
        else:
            factor = args.factor.region_name
        return f"{keyword} {source} -> {app.outputs[0]} by {factor}{strength};"
    if app.op is Operator.DEUNIVERSALIZE:
        ann = _format_annotation(app.args.annotation)
        return f"deuniv {source} -> {app.outputs[0]} {ann}{strength};"
    if app.op is Operator.OBSERVE:
        observer = format_description(app.args.observer)
        return f"observe {source} -> {app.outputs[0]} by {observer}{strength};"
    keyword = app.op.value
    return f"{keyword} {source} -> {', '.join(app.outputs)}{strength};"


def _format_world(world: World) -> list[str]:
    lines = ["world {"]
    mentioned: set[str] = set()
    concept_sets: dict[str, list[str]] = {}
    for concept, members in world.concept_extensions.items():
        for member in members:
            concept_sets.setdefault(member, []).append(concept)
    for individual in sorted(world.individuals):
        concepts = sorted(concept_sets.get(individual, []))
        mentioned.add(individual)
        suffix = f" : {', '.join(concepts)}" if concepts else ""
        lines.append(f"  individual {individual}{suffix};")
    for slot in sorted(world.slot_tuples):
        for subject, target in sorted(world.slot_tuples[slot]):
            lines.append(f"  slot {slot}({subject}, {target});")
    for (subject, slot), value in sorted(
        world.data_values.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        if isinstance(value, Quantity):
            rendered = f"{format_rational(value.value)}"
            if value.unit:
                rendered += f" {value.unit}"
        elif isinstance(value, str):
            rendered = value if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", value) else _quote(value)
        else:
            rendered = format_rational(value)
        lines.append(f"  data {slot}({subject}) = {rendered};")
    for record in world.quality_records:
        text = (
            f"  quality {record.quality_id} : {record.quality_concept} "
            f"inheres {record.bearer} value {format_rational(record.value)}"
        )
        if record.unit:
            text += f" {record.unit}"
        if record.observers:
            text += " observed_by {" + ", ".join(sorted(record.observers)) + "}"
        lines.append(text + ";")
    lines.append("}")
    return lines


def _format_spec(spec: MembershipSpec) -> list[str]:
    lines = [f"regions {spec.quality} {{"]
    for region in spec.regions:
        if isinstance(region.prototypes, PointPrototypes):
            values = ", ".join(format_rational(v) for v in region.prototypes.values)
            lines.append(f"  {region.name} = points {{{values}}};")
        else:
            low = format_rational(region.prototypes.a)
            high = format_rational(region.prototypes.b)
            lines.append(f"  {region.name} = interval [{low}, {high}];")
    lines.append("}")
    return lines


def print_model(model: Model) -> str:
    """Render a model as canonical text that parses back to an equal model."""
    lines: list[str] = []
    if model.name:
        lines.append(f"model {model.name};")
    for element in model.elements:
        lines.append(f"{element.kind.value} {element.id} := {_format_body(element)};")
    for axiom in model.axioms:
        lines.append(
            f"axiom {format_description(axiom.subsumee)} :< "
            f"{format_description(axiom.subsumer)};"
        )
    for conflict in model.conflicts:
        lines.append("conflict {" + ", ".join(sorted(conflict)) + "};")
    for app in model.applications:
        lines.append(_format_application(app))
    if model.fulfilled_marks:
        lines.append("fulfilled " + ", ".join(sorted(model.fulfilled_marks)) + ";")
    for spec in model.membership_specs:
        lines.extend(_format_spec(spec))
    if model.world is not None:
        lines.extend(_format_world(model.world))
    return "\n".join(lines) + ("\n" if lines else "")
