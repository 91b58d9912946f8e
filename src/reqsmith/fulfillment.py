"""Fulfillment propagation: `fulfill` runs it without `semantics` or `reasoner`."""

from enum import Enum
from typing import NamedTuple, Optional

from .model import Kind, Model, ONE_TO_MANY_OPS, ONE_TO_ONE_OPS, Operator


class FulfillmentStatus(Enum):
    FULFILLED = "fulfilled"
    UNFULFILLED = "unfulfilled"
    UNKNOWN = "unknown"


class FulfillmentState(NamedTuple):
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

    changed = True
    while changed:
        changed = False
        for app in model.applications:
            if app.op is Operator.RESOLVE:
                continue
            source = app.inputs[0]
            if states.get(source) is not FulfillmentStatus.UNKNOWN:
                continue
            done = sum(
                1
                for o in app.outputs
                if states.get(o) is FulfillmentStatus.FULFILLED
            )
            need = len(app.outputs)
            if threshold is not None and app.op not in ONE_TO_ONE_OPS:
                need = threshold
            if app.outputs and done >= need:
                states[source] = FulfillmentStatus.FULFILLED
                changed = True
    return FulfillmentState(states, threshold, warnings)
