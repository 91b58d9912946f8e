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
from typing import Callable, Optional, TypeVar, Union as TypingUnion

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
    NamedRegion,
    NaturalLanguage,
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
    UAnnotation,
    Union,
    ValueSet,
    World,
    _record,
    at_least,
    at_most,
    exactly,
    validate_model,
)

MAX_DIAGNOSTICS = 20
# Deepest the parser's own descent may go: parentheses and slot restrictions
# nest at most this deep, since each level of them is a recursive call. A
# chain of `|`, `-`, adjacency or `.slot` is read by a loop and may be as long
# as it likes; every pass over a parsed description is a step of `model.fold`,
# which keeps its own stack.
MAX_NESTING = 100
_TOO_DEEP = f"description nested more than {MAX_NESTING} levels deep"

KIND_KEYWORDS = {kind.value: kind for kind in Kind}
# Scaling is written with its direction: `scale_up` or `scale_down`.
OPERATOR_KEYWORDS = {op.value: op for op in Operator if op is not Operator.SCALE}
OPERATOR_KEYWORDS.update(scale_up=Operator.SCALE, scale_down=Operator.SCALE)
STRENGTH_KEYWORDS = {s.value: s for s in Strength}
_STATEMENT_KEYWORDS = {"model", "conflict", "fulfilled", "axiom", "world", "regions"}
_STATEMENT_KEYWORDS.update(KIND_KEYWORDS, OPERATOR_KEYWORDS)


class SourceSpan(metaclass=_record):
    """A position in a source file, by line, column and offset."""

    file: str
    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseDiagnostic(metaclass=_record):
    """A parse or validation problem at a source position."""

    span: SourceSpan
    severity: str
    message: str
    expected: Optional[str] = None

    def __str__(self) -> str:
        suffix = f" (expected {self.expected})" if self.expected else ""
        return f"{self.span}: {self.severity}: {self.message}{suffix}"


# ===== PART 1: lexer =====

# One match per token: the leading part skips the whitespace and comments
# before it, and the one capture group is the lexeme. The skip and a string
# are written unrolled, `x*(?:y x*)*`, so a run of plain characters is one
# step rather than one alternation each. The alternation ends in a catch-all
# for an unexpected character and a match at the end of the text, so the
# pattern matches at every position and a scan covers the whole text without
# a gap. Lexemes never contain a newline; only the skipped prefix moves the
# line count. `tokenize` keeps only the lexemes, and `token_positions` runs
# the same pattern again to place them when a diagnostic needs a span.
_TOKEN_RE = re.compile(
    r"""
    \s*(?://[^\n]*\s*)*
    (
      \d+(?:[./]\d+)?
    | [A-Za-z_][A-Za-z0-9_']*
    | "[^"\\\n]*(?:\\.[^"\\\n]*)*"
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
# The first characters of a primary other than a slot restriction.
_OPERAND_START = _ID_START | frozenset("{(")


def _is_id(lexeme: str) -> bool:
    return lexeme[:1] in _ID_START


def _is_num(lexeme: str) -> bool:
    return lexeme[:1].isdecimal()


def _is_str(lexeme: str) -> bool:
    return lexeme[:1] == '"'


def _is_restriction(tokens: list[str], index: int) -> bool:
    """Whether the `<` at `index` opens a slot restriction, `<slot:`."""
    return tokens[index + 1][:1] in _ID_START and tokens[index + 2] == ":"


def _is_bad(lexeme: str) -> bool:
    return (
        len(lexeme) == 1
        and lexeme not in _ONE_CHAR_TOKENS
        and not lexeme.isdecimal()
    )


_COUNTED = {"<=": at_most, ">=": at_least, "=": exactly}
_UNCOUNTED = {"SOME": SOME, "ONLY": ONLY}
_CONSTANTS = {"Thing": THING, "Nothing": NOTHING}


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
    if tokens[-2:] == ["", ""]:
        tokens.pop()
    bad = {lexeme for lexeme in set(tokens) if len(lexeme) == 1 and _is_bad(lexeme)}
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


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


# ===== PART 2: parser =====


class _Abort(Exception):
    """Internal signal: the current statement cannot be finished."""


_T = TypeVar("_T")


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
        # Atoms and numbers are immutable, so each is built once per parse
        # and shared by every mention of it.
        self.atoms: dict[str, AtomicConcept] = {}
        self.numbers: dict[str, Fraction] = {}

    # --- token plumbing ---
    # The token list ends in "" and `advance` never moves past it, so the
    # current token is always `tokens[pos]`, and a token after one that is
    # not "" exists: the hot paths below read `tokens` directly.

    def peek(self) -> str:
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

    def atom(self, name: str) -> AtomicConcept:
        """The atom `name`, shared by every mention in this parse."""
        atom = self.atoms.get(name)
        if atom is None:
            atom = self.atoms[name] = AtomicConcept(name)
        return atom

    def span(self, index: int) -> SourceSpan:
        """Where token `index` starts; the first call places every token."""
        if self.positions is None:
            self.positions = token_positions(self.text)
        return SourceSpan(self.file, *self.positions[index])

    def error(self, message: str, expected: Optional[str] = None) -> _Abort:
        if len(self.diagnostics) < MAX_DIAGNOSTICS:
            self.diagnostics.append(
                ParseDiagnostic(self.span(self.pos), "error", message, expected)
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
        if token[:1] not in _ID_START:
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

    def recover(self, exc: Exception) -> None:
        """Skip the rest of the statement `exc` stopped. A ValueError is a
        value that could not be built, such as a model record refusing its
        fields or a number too long to convert; it is reported here."""
        if isinstance(exc, ValueError):
            self.error(str(exc))
        self.sync_statement()

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """One `item`, then one more after each comma."""
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        return items

    # --- rationals ---

    def parse_rational(self) -> Fraction:
        negative = self.tokens[self.pos] == "-"
        if negative:
            self.pos += 1
        token = self.tokens[self.pos]
        if not _is_num(token):
            raise self.error("expected a number", expected="number")
        value = self.numbers.get(token)
        if value is None:
            try:
                value = Fraction(int(token)) if token.isdecimal() else Fraction(token)
            except ZeroDivisionError:
                raise self.error(f"a rational needs a nonzero denominator, found {token}")
            self.numbers[token] = value
        self.pos += 1
        if self.tokens[self.pos] == "%":
            self.pos += 1
            value /= 100
        return -value if negative else value

    # --- descriptions ---

    def parse_description(self) -> Description:
        if self.nesting > MAX_NESTING:
            raise self.error(_TOO_DEEP)
        self.nesting += 1
        try:
            return self._parse_difference()
        finally:
            self.nesting -= 1

    def _parse_difference(self) -> Description:
        """Operands joined by adjacency, then `|`, then `-`, the loosest, each
        left-associative: one loop keeps the open operand of each level."""
        tokens = self.tokens
        difference = union = None
        while True:
            node = self._parse_postfix()
            token = tokens[self.pos]
            # Adjacency: the next token starts another primary.
            while token[:1] in _OPERAND_START or (
                token == "<" and _is_restriction(tokens, self.pos)
            ):
                node = Intersection(node, self._parse_postfix())
                token = tokens[self.pos]
            union = node if union is None else Union(union, node)
            if token == "|":
                self.pos += 1
                continue
            difference = union if difference is None else Difference(difference, union)
            if token != "-":
                return difference
            self.pos += 1
            union = None

    def _parse_postfix(self) -> Description:
        tokens = self.tokens
        token = tokens[self.pos]
        if token[:1] in _ID_START:
            self.pos += 1
            node = _CONSTANTS[token] if token in _CONSTANTS else self.atom(token)
        else:
            node = self._parse_primary()
        while tokens[self.pos] == "." and tokens[self.pos + 1][:1] in _ID_START:
            node = InverseProjection(node, tokens[self.pos + 1])
            self.pos += 2
        return node

    def _parse_primary(self) -> Description:
        token = self.tokens[self.pos]
        if token == "{":
            return self._parse_braced()
        if token == "(":
            self.pos += 1
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
        token = self.tokens[self.pos]
        if _is_num(token) or _is_str(token) or token == "-":
            values = self.comma_list(self._parse_set_value)
            self.expect("}")
            return Region(ValueSet(tuple(values)))
        ids = self.comma_list(lambda: self.expect_ident("individual id"))
        self.expect("}")
        return Enumeration(tuple(ids))

    def _parse_set_value(self):
        if _is_str(self.peek()):
            return _unquote(self.advance())
        return self.parse_rational()

    def _parse_slot_restriction(self) -> SlotRestriction:
        tokens = self.tokens
        self.expect("<")
        slot = self.expect_ident("slot name")
        self.expect(":")
        modifier = EXACTLY_ONE
        token = tokens[self.pos]
        if token in _UNCOUNTED:
            self.pos += 1
            modifier = _UNCOUNTED[token]
        elif token in _COUNTED and _is_num(tokens[self.pos + 1]):
            self.pos += 1
            count = tokens[self.pos]
            if not count.isdigit() or int(count) < 1:
                raise self.error(
                    f"a cardinality count must be a whole number >= 1, found {count}"
                )
            self.pos += 1
            modifier = _COUNTED[token](int(count))
        filler = self.parse_description()
        self.expect(">")
        return SlotRestriction(slot, modifier, filler)

    # --- region expressions ---

    def _parse_unit(self) -> Optional[str]:
        """An optional `(unit)`, also written `(unit.)`."""
        if self.tokens[self.pos] != "(":
            return None
        self.pos += 1
        unit = self.expect_ident("unit")
        if self.tokens[self.pos] == ".":
            self.pos += 1
        self.expect(")")
        return unit

    def _parse_interval(self) -> Interval:
        self.expect("[")
        low = self.parse_rational()
        self.expect(",")
        high = self.parse_rational()
        unit = self._parse_unit()
        self.expect("]")
        return Interval(low, high, unit)

    def parse_region_expr(self) -> RegionExpr:
        tokens = self.tokens
        token = tokens[self.pos]
        if token == "[":
            return self._parse_interval()
        if token == "<=":
            self.pos += 1
            high = self.parse_rational()
            return Interval(Fraction(0), high, self._parse_unit())
        if token == "{":
            region = self._parse_braced()
            if isinstance(region, Enumeration):
                return ValueSet(region.ids)
            return region.expr
        name = self.expect_ident("region name")
        qualitative = True
        if tokens[self.pos : self.pos + 3] == ["(", "measured", ")"]:
            self.pos += 3
            qualitative = False
        return NamedRegion(name, qualitative)

    # --- element bodies ---

    def _scan_body_shape(self) -> str:
        """Look ahead to the statement end and report the body connective."""
        depth, index = 0, self.pos
        while True:
            token = self.tokens[index]
            if not token or (token == ";" and depth == 0):
                return "function"
            if token in "({[":
                depth += 1
            elif token in ")}]":
                depth -= 1
            elif depth == 0 and token == "::":
                return "quality"
            elif depth == 0 and token == ":<":
                return "subsumption"
            index += 1

    def parse_body(self, kind: Kind):
        token = self.tokens[self.pos]
        if token[:1] == '"':
            self.pos += 1
            return NaturalLanguage(_unquote(token))
        shape = self._scan_body_shape() if kind is Kind.GOAL else None
        if kind is Kind.F or shape == "function":
            return self._parse_function_body()
        if kind is Kind.QG or kind is Kind.QC or shape == "quality":
            return self._parse_quality_body()
        subsumee = self.parse_description()
        self.expect(":<")
        subsumer = self.parse_description()
        return Subsumption(subsumee, subsumer)

    def _parse_function_body(self) -> FunctionDesc:
        tokens = self.tokens
        head = self.expect_ident("function head")
        slots: list[SlotRestriction] = []
        while tokens[self.pos] == "<" and _is_restriction(tokens, self.pos):
            slots.append(self._parse_slot_restriction())
        return FunctionDesc(head, tuple(slots))

    def _parse_quality_body(self) -> QualityStatement:
        tokens = self.tokens
        token = tokens[self.pos]
        if token[:1] in _ID_START:
            self.pos += 1
            quality: Description = self.atom(token)
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
            token = tokens[self.pos]
            if token == "<" and tokens[self.pos + 1] == "observed_by":
                self.pos += 2
                self.expect(":")
                observers.append(self.parse_description())
                self.expect(">")
            elif token == "u" and tokens[self.pos + 1] == "(":
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
        return UAnnotation(var, tuple(path), pct)

    # --- statements ---

    def parse_strength(self, default: Optional[Strength]) -> Strength:
        tokens, pos = self.tokens, self.pos
        if tokens[pos] == "[":
            if tokens[pos + 1] in STRENGTH_KEYWORDS and tokens[pos + 2] == "]":
                self.pos += 3
                return STRENGTH_KEYWORDS[tokens[pos + 1]]
            raise self.error("expected a strength tag", expected="[strengthen|weaken|equate]")
        if default is None:
            raise self.error(
                "this operator needs an explicit strength tag",
                expected="[strengthen|weaken|equate]",
            )
        return default

    def parse_id_list(self) -> list[str]:
        return self.comma_list(lambda: self.expect_ident("element id"))

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
                        for concept in self.comma_list(
                            lambda: self.expect_ident("concept")
                        ):
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
            except (_Abort, ValueError) as exc:
                self.recover(exc)
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
        observers: list[str] = []
        if self.at("observed_by"):
            self.advance()
            self.expect("{")
            observers = self.comma_list(lambda: self.expect_ident("observer id"))
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
                values = self.comma_list(self.parse_rational)
                self.expect("}")
                regions.append(PrototypeRegion(name, PointPrototypes(tuple(values))))
            elif keyword == "interval":
                self.expect("[")
                low = self.parse_rational()
                self.expect(",")
                high = self.parse_rational()
                self.expect("]")
                regions.append(PrototypeRegion(name, IntervalPrototypes(low, high)))
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
        # element's id and the keyword of `application[i]`, `conflict[i]`,
        # `axiom[i]` and `regions[i]`. The first `fulfilled` keyword is kept
        # apart, since an element may be named `fulfilled_marks`.
        self.starts: dict[str, int] = {}
        self.fulfilled: Optional[int] = None


def _parse_statements(parser: _Parser) -> _Builder:
    build = _Builder()
    tokens = parser.tokens
    while tokens[parser.pos]:
        start = parser.pos
        keyword = tokens[start]
        try:
            if not _is_id(keyword):
                raise parser.error(f"expected a statement, found {keyword!r}")
            if keyword not in _STATEMENT_KEYWORDS:
                raise parser.error(f"unknown statement keyword {keyword!r}")
            parser.pos += 1
            if keyword in KIND_KEYWORDS:
                ident = parser.expect_ident("element id")
                parser.expect(":=")
                body = parser.parse_body(KIND_KEYWORDS[keyword])
                parser.expect(";")
                build.elements.append(Element(ident, KIND_KEYWORDS[keyword], body))
                build.starts[ident] = start + 1
            elif keyword == "model":
                build.name = parser.expect_ident("model name")
                parser.expect(";")
            elif keyword in OPERATOR_KEYWORDS:
                app = parser.parse_operator_statement(keyword)
                parser.expect(";")
                build.starts[f"application[{len(build.applications)}]"] = start
                build.applications.append(app)
            elif keyword == "conflict":
                parser.expect("{")
                ids = parser.parse_id_list()
                parser.expect("}")
                parser.expect(";")
                build.starts[f"conflict[{len(build.conflicts)}]"] = start
                build.conflicts.append(frozenset(ids))
            elif keyword == "fulfilled":
                if build.fulfilled is None:
                    build.fulfilled = start
                build.marks.update(parser.parse_id_list())
                parser.expect(";")
            elif keyword == "axiom":
                subsumee = parser.parse_description()
                parser.expect(":<")
                subsumer = parser.parse_description()
                parser.expect(";")
                build.starts[f"axiom[{len(build.axioms)}]"] = start
                build.axioms.append(Subsumption(subsumee, subsumer))
            elif keyword == "world":
                build.world = parser.parse_world_block()
            else:  # regions
                build.specs.append(parser.parse_regions_block())
                build.starts[f"regions[{len(build.specs) - 1}]"] = start
        except (_Abort, ValueError) as exc:
            parser.recover(exc)
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
    except (_Abort, ValueError) as exc:
        parser.recover(exc)
    if parser.diagnostics:
        return parser.diagnostics
    assert result is not None
    return result


# ===== PART 3: pretty-printer =====


def print_model(model: Model) -> str:
    """Render a model as canonical text that parses back to an equal model."""
    from .printer import (
        _format_application,
        _format_body,
        _format_spec,
        _format_world,
        format_description,
    )

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
