"""Span tracing of reqsmith's public functions, from outside the library.

`Tracer.install()` replaces each traced function with a timing wrapper in
every reqsmith module that binds it (a function imported with `from ...
import` is bound in the caller's module too, so `reasoner.subsumes` is
wrapped in `reasoner` and in `operators`). Spans stay in memory as
(name, start, end, parent, operation id, measure) and `uninstall()` puts
every original function back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

# (module, function, what to record from the result) for each layer boundary.
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("parser", "tokenize", lambda result: len(result[0])),
    ("parser", "parse_model", None),
    ("model", "validate_model", None),
    ("parser", "print_model", None),
    ("semantics", "translate_element", None),
    ("semantics", "eval_dl", None),
    ("reasoner", "subsumes", lambda verdict: verdict.status.value),
    ("reasoner", "collect_axioms", None),
    ("reasoner", "check_strength_tags", None),
    ("reasoner", "query", None),
    ("reasoner", "check_consistency", None),
    ("reasoner", "propagate_fulfillment", None),
    ("lint", "lint_model", len),
    ("export", "emit_owl", lambda text: len(text.encode("utf-8"))),
    ("export", "emit_report", None),
    ("membership", "membership_intervals", None),
    ("operators", "apply_reduce", None),
    ("operators", "apply_interpret", None),
    ("operators", "apply_operationalize", None),
    ("operators", "apply_resolve", None),
    ("operators", "apply_focus", None),
    ("operators", "apply_scale", None),
    ("operators", "apply_deuniversalize", None),
    ("operators", "apply_observe", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str
    measure: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("reqsmith.")]
        for module_name, function, measure in TRACED:
            original = getattr(sys.modules[f"reqsmith.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.measure = measure(result)
            return result

        return traced


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    self_time: dict[str, float] = defaultdict(float)
    by_status: dict[str, list[float]] = defaultdict(list)
    measures: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        name = "operators.apply" if span.name.startswith("operators.apply_") else span.name
        total[name] += duration
        calls[name] += 1
        self_time[name] += duration - child_time[index]
        if name == "reasoner.subsumes":
            by_status[span.measure].append(duration)
        elif isinstance(span.measure, int):
            measures[name] += span.measure

    subsumes = calls["reasoner.subsumes"]
    decided = len(by_status["proven"]) + len(by_status["refuted"])
    metrics = {
        "parser.tokenize.s": total["parser.tokenize"],
        "parser.tokens": measures["parser.tokenize"],
        "parser.parse_model.self_s": self_time["parser.parse_model"],
        "model.validate_model.s": total["model.validate_model"],
        "parser.print_model.s": total["parser.print_model"],
        "semantics.translate_element.calls": calls["semantics.translate_element"],
        "semantics.translate_element.s": total["semantics.translate_element"],
        "semantics.eval_dl.s": total["semantics.eval_dl"],
        "reasoner.subsumes.calls": subsumes,
        "reasoner.subsumes.decided_ratio": decided / subsumes if subsumes else 0.0,
        "reasoner.collect_axioms.calls": calls["reasoner.collect_axioms"],
        "reasoner.collect_axioms.s": total["reasoner.collect_axioms"],
        "reasoner.check_strength_tags.self_s": self_time["reasoner.check_strength_tags"],
        "reasoner.query.self_s": self_time["reasoner.query"],
        "reasoner.check_consistency.calls": calls["reasoner.check_consistency"],
        "reasoner.check_consistency.s": total["reasoner.check_consistency"],
        "reasoner.propagate_fulfillment.s": total["reasoner.propagate_fulfillment"],
        "lint.lint_model.self_s": self_time["lint.lint_model"],
        "lint.findings": measures["lint.lint_model"],
        "export.emit_owl.s": total["export.emit_owl"],
        "export.emit_owl.bytes": measures["export.emit_owl"],
        "export.emit_report.s": total["export.emit_report"],
        "membership.membership_intervals.calls": calls["membership.membership_intervals"],
        "membership.membership_intervals.s": total["membership.membership_intervals"],
        "operators.apply.calls": calls["operators.apply"],
        "operators.apply.s": total["operators.apply"],
    }
    for status in ("proven", "refuted", "unknown"):
        metrics[f"reasoner.subsumes.{status}"] = len(by_status[status])
        metrics[f"reasoner.subsumes.{status}_s"] = sum(by_status[status])
    return metrics


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last == "s" or last.endswith("_s"):
        return "s"
    return {"decided_ratio": "ratio", "bytes": "B"}.get(last, "count")
