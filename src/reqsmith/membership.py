"""Graded membership degrees of quality values against prototype regions.

A region is described either by a finite set of prototype points or by a
whole prototype interval. A completion picks one concrete prototype from
every region; each completion induces a nearest-prototype tessellation of
the value line. The membership degree of a value in a region is the measure
of completions that place the value strictly inside that region's cell:
a counting measure for point prototypes, an area measure for interval
prototypes. Degrees are computed pointwise, one queried value at a time; the
library exposes no closed-form pieces of the membership function.

Both measures are graded by one neighbour-loss rule. In ordered, disjoint
regions, only the neighbour on p's side of a region's pick can pick as
close to p, since any farther pick lies beyond the neighbour's. So the
degree is 1 minus each neighbour's chance to pick at least as close.

All arithmetic is exact over rationals.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Sequence

from .model import (
    IntervalPrototypes,
    PointPrototypes,
    PrototypeRegion,
    exact_decimal,
    regions_error,
)


class MembershipError(ValueError):
    """Raised for ill-formed prototype specs or unanswerable queries."""


# ===== helpers =====


def _prototypes(regions: Sequence[PrototypeRegion], style: type) -> list:
    """The prototypes of every region, which `regions_error` must accept for
    `style`; validation rejects a model whose regions it refuses."""
    error = regions_error(regions, style)
    if error is not None:
        raise MembershipError(error)
    return [region.prototypes for region in regions]


def _collate(regions: Sequence[PrototypeRegion], losses: Callable) -> dict[str, Fraction]:
    """Each region's degree: 1 minus its losses to its neighbours. `losses(k)`
    is the chance that region k + 1's pick is at least as close as region
    k's, and the converse."""
    degrees = [Fraction(1)] * len(regions)
    for k in range(len(regions) - 1):
        lower, upper = losses(k)
        degrees[k] -= lower
        degrees[k + 1] -= upper
    return {region.name: degree for region, degree in zip(regions, degrees)}


# ===== point prototypes =====


def membership_points(
    p: Fraction, regions: Sequence[PrototypeRegion]
) -> dict[str, Fraction]:
    """Degree of `p` in every region under the counting measure.

    Each completion selects one prototype per region; `p` belongs to the
    region whose selected prototype is strictly nearest. Ties assign `p` to
    no region, so degrees can undershoot a full partition on tie points.
    """
    values = [pp.values for pp in _prototypes(regions, PointPrototypes)]
    distances = [sorted(abs(p - q) for q in points) for points in values]

    def losses(k: int) -> tuple[Fraction, Fraction]:
        lower, upper = distances[k], distances[k + 1]
        pairs = len(lower) * len(upper)
        lower_lost = sum(bisect_right(upper, own) for own in lower)
        upper_lost = sum(bisect_right(lower, own) for own in upper)
        return Fraction(lower_lost, pairs), Fraction(upper_lost, pairs)

    return _collate(regions, losses)


# ===== interval prototypes =====


def _pair_degree_r1(
    p: Fraction, a: Fraction, b: Fraction, c: Fraction, d: Fraction
) -> Fraction:
    """Area fraction of [a,b] x [c,d] above the line x + y = 2p.

    The fraction is 1 up to t1 and 0 from t4 on. Between them it falls
    quadratically to t2, linearly from t2 to t3, and quadratically to t4.
    """
    t1, t4 = (a + c) / 2, (b + d) / 2
    t2, t3 = min((b + c) / 2, (a + d) / 2), max((b + c) / 2, (a + d) / 2)
    k = 2 * (b - a) * (d - c)
    if p <= t1:
        return Fraction(1)
    if p <= t2:
        return 1 - (2 * p - a - c) ** 2 / k
    if p <= t3:
        if b - a < d - c:
            return (2 * d + a + b - 4 * p) / (2 * (d - c))
        return (2 * b + c + d - 4 * p) / (2 * (b - a))
    if p <= t4:
        return (b + d - 2 * p) ** 2 / k
    return Fraction(0)


def membership_intervals(
    p: Fraction, regions: Sequence[PrototypeRegion]
) -> dict[str, Fraction]:
    """Degrees of `p` in an ordered family of interval-prototype regions.

    Adjacent regions lose to each other by the two-region area measure: the
    lower one's pick is nearer above the line x + y = 2p. Outermost flanks
    stay at one toward the open side, so the degrees always sum to one.
    """
    hulls = [(i.a, i.b) for i in _prototypes(regions, IntervalPrototypes)]

    def losses(k: int) -> tuple[Fraction, Fraction]:
        lower_nearer = _pair_degree_r1(p, *hulls[k], *hulls[k + 1])
        return 1 - lower_nearer, lower_nearer

    return _collate(regions, losses)


def membership_degrees(
    p: Fraction, regions: Sequence[PrototypeRegion]
) -> dict[str, Fraction]:
    """Degrees of `p` in every region, under the measure of the regions'
    prototype style: points when the first region has points, else intervals.
    """
    if regions and isinstance(regions[0].prototypes, PointPrototypes):
        return membership_points(p, regions)
    return membership_intervals(p, regions)


def format_degree(value: Fraction) -> str:
    """Render a degree: exact decimal when terminating, fraction otherwise."""
    return exact_decimal(value) or (
        f"{value.numerator}/{value.denominator} (~{float(value):.4f})"
    )
