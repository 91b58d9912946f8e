"""Graded membership degrees of quality values against prototype regions.

A region is described either by a finite set of prototype points or by a
whole prototype interval. A completion picks one concrete prototype from
every region; each completion induces a nearest-prototype tessellation of
the value line. The membership degree of a value in a region is the measure
of completions that place the value strictly inside that region's cell:
a counting measure for point prototypes, an area measure for interval
prototypes. Degrees are computed pointwise, one queried value at a time; the
library exposes no closed-form pieces of the membership function.

All arithmetic is exact over rationals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .model import IntervalPrototypes, PointPrototypes, PrototypeRegion, exact_decimal

COMPLETION_CAP = 1_000_000


class MembershipError(ValueError):
    """Raised for ill-formed prototype specs or unanswerable queries."""


# ===== helpers =====


def _prototypes(regions: Sequence[PrototypeRegion], style: type) -> list:
    """The prototypes of every region, each of which must be of `style`."""
    if not all(isinstance(region.prototypes, style) for region in regions):
        raise MembershipError(
            "point and interval prototype styles may not be mixed in one computation"
        )
    return [region.prototypes for region in regions]


# ===== point prototypes =====


def membership_points(
    p: Fraction, regions: Sequence[PrototypeRegion]
) -> dict[str, Fraction]:
    """Degree of `p` in every region under the counting measure.

    Each completion selects one prototype per region; `p` belongs to the
    region whose selected prototype is strictly nearest. Ties assign `p` to
    no region, so degrees can undershoot a full partition on tie points.
    """
    protos = _prototypes(regions, PointPrototypes)
    hulls = [(min(pp.values), max(pp.values)) for pp in protos]
    for (_, hi), (lo, _) in zip(hulls, hulls[1:]):
        if not hi < lo:
            raise MembershipError("prototype point sets must not interleave")
    total = 1
    for pp in protos:
        total *= len(pp.values)
        if total > COMPLETION_CAP:
            raise MembershipError(f"completion count exceeds cap ({COMPLETION_CAP})")
    counts = [0] * len(regions)
    for completion in itertools.product(*(pp.values for pp in protos)):
        distances = [abs(p - chosen) for chosen in completion]
        best = min(distances)
        winners = [i for i, dist in enumerate(distances) if dist == best]
        if len(winners) == 1:
            counts[winners[0]] += 1
    return {
        region.name: Fraction(count, total) for region, count in zip(regions, counts)
    }


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

    Adjacent pairs are evaluated with the two-region measure and collated:
    a region's degree is bounded by its pair with the previous region on the
    left and by its pair with the next region on the right. Outermost flanks
    stay at one toward the open side, so the degrees always sum to one.
    """
    bounds = [(i.a, i.b) for i in _prototypes(regions, IntervalPrototypes)]
    for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
        if not hi < lo:
            raise MembershipError("interval regions must be ordered and disjoint")
    degrees: dict[str, Fraction] = {}
    for index, region in enumerate(regions):
        left = Fraction(1)
        right = Fraction(1)
        if index > 0:
            a, b = bounds[index - 1]
            c, d = bounds[index]
            left = 1 - _pair_degree_r1(p, a, b, c, d)
        if index + 1 < len(regions):
            a, b = bounds[index]
            c, d = bounds[index + 1]
            right = _pair_degree_r1(p, a, b, c, d)
        degrees[region.name] = min(left, right)
    return degrees


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
