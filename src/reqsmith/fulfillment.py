"""Fulfillment propagation: `fulfill` runs it without `semantics` or `reasoner`."""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .model import Kind, Model, ONE_TO_MANY_OPS, ONE_TO_ONE_OPS, Operator, _record


class FulfillmentStatus(Enum):
    FULFILLED = "fulfilled"
    UNFULFILLED = "unfulfilled"
    UNKNOWN = "unknown"


class FulfillmentState(metaclass=_record):
    """The fulfillment status of each element, and any warnings."""

    states: dict[str, FulfillmentStatus]
    threshold: Optional[int] = None
    warnings: tuple[str, ...] = ()


def propagate_fulfillment(
    model: Model, threshold: Optional[int] = None
) -> FulfillmentState:
    """Propagate fulfillment marks backwards through operator applications.

    Design artifacts count as fulfilled from the start. A one-to-one
    application fulfills its input when its output is fulfilled; a
    one-to-many application needs all outputs (or `threshold` many when
    set). Several applications on the same input act as alternatives.
    Elements dropped by a resolution stay unfulfilled. A threshold below 1
    raises ValueError.
    """
    if threshold is not None and threshold < 1:
        raise ValueError(f"threshold must be at least 1, not {threshold}")
    dropped = model.dropped_ids()
    states: dict[str, FulfillmentStatus] = {}
    for element in model.elements:
        if element.id in dropped:
            states[element.id] = FulfillmentStatus.UNFULFILLED
        elif element.id in model.fulfilled_marks or element.kind is Kind.DA:
            states[element.id] = FulfillmentStatus.FULFILLED
        else:
            states[element.id] = FulfillmentStatus.UNKNOWN

    warnings: tuple[str, ...] = ()
    if threshold is not None:
        fan_out = [
            len(app.outputs)
            for app in model.applications
            if app.op in ONE_TO_MANY_OPS
        ]
        if all(threshold > n for n in fan_out):
            warnings = (
                f"ThresholdUnreachable: no application has {threshold} outputs",
            )

    # Each application waits for a number of its outputs to be fulfilled; an
    # element that becomes fulfilled wakes the applications that output it.
    # States only move from unknown to fulfilled, so the order in which the
    # worklist runs does not change the result.
    waiting: dict[str, list[list]] = {}  # output -> [input, outputs to wait for]
    for app in model.applications:
        if app.op is not Operator.RESOLVE and app.outputs:
            need = len(app.outputs)
            if threshold is not None and app.op not in ONE_TO_ONE_OPS:
                need = threshold
            wait = [app.inputs[0], need]
            for output in app.outputs:
                waiting.setdefault(output, []).append(wait)
    fulfilled = [eid for eid, state in states.items() if state is FulfillmentStatus.FULFILLED]
    while fulfilled:
        for wait in waiting.get(fulfilled.pop(), ()):
            wait[1] -= 1
            source = wait[0]
            if wait[1] == 0 and states.get(source) is FulfillmentStatus.UNKNOWN:
                states[source] = FulfillmentStatus.FULFILLED
                fulfilled.append(source)
    return FulfillmentState(states, threshold, warnings)
