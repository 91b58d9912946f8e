"""Graded membership degrees of quality values against prototype regions.

A region is described either by a finite set of prototype points or by a
whole prototype interval. A completion picks one concrete prototype from
every region; each completion induces a nearest-prototype tessellation of
the value line. The membership degree of a value in a region is the measure
of completions that place the value strictly inside that region's cell:
a counting measure for point prototypes, an area measure (evaluated in
closed piecewise form) for interval prototypes.

All arithmetic is exact over rationals.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .model import (
    Element,
    IntervalPrototypes,
    MembershipSpec,
    NamedRegion,
    PointPrototypes,
    PrototypeRegion,
    QualityStatement,
    exact_decimal,
)

DEFAULT_COMPLETION_CAP = 1_000_000


class MembershipError(ValueError):
    """Raised for ill-formed prototype specs or unanswerable queries."""


class PieceKind(Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"


class Piece(NamedTuple):
    """One polynomial piece of a membership function.

    The domain is [lo, hi] with None standing for an unbounded side; coeffs
    are polynomial coefficients in ascending degree order.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    kind: PieceKind
    coeffs: tuple[Fraction, ...]


class MembershipFunction(NamedTuple):
    """The membership degree of one region, piece by piece."""

    region: str
    pieces: tuple[Piece, ...]

    def evaluate_piece(self, piece: Piece, p: Fraction) -> Fraction:
        total = Fraction(0)
        power = Fraction(1)
        for coeff in piece.coeffs:
            total += coeff * power
            power *= p
        return total

    def evaluate(self, p: Fraction) -> Fraction:
        for piece in self.pieces:
            if (piece.lo is None or p >= piece.lo) and (piece.hi is None or p <= piece.hi):
                return self.evaluate_piece(piece, p)
        raise MembershipError(f"pieces of {self.region} do not cover {p}")


# ===== helpers =====


def _point_regions(regions: Sequence[PrototypeRegion]) -> list[PointPrototypes]:
    protos = []
    for region in regions:
        if not isinstance(region.prototypes, PointPrototypes):
            raise MembershipError(
                "point and interval prototype styles may not be mixed in one computation"
            )
        protos.append(region.prototypes)
    return protos


def _interval_regions(
    regions: Sequence[PrototypeRegion],
) -> list[tuple[Fraction, Fraction]]:
    bounds = []
    for region in regions:
        if not isinstance(region.prototypes, IntervalPrototypes):
            raise MembershipError(
                "point and interval prototype styles may not be mixed in one computation"
            )
        bounds.append((region.prototypes.a, region.prototypes.b))
    return bounds


def _as_interval(r: Union[PrototypeRegion, IntervalPrototypes]) -> IntervalPrototypes:
    if isinstance(r, PrototypeRegion):
        if not isinstance(r.prototypes, IntervalPrototypes):
            raise MembershipError(f"region {r.name} does not use interval prototypes")
        return r.prototypes
    return r


# ===== point prototypes =====


def membership_points(
    p: Fraction,
    regions: Sequence[PrototypeRegion],
    cap: int = DEFAULT_COMPLETION_CAP,
) -> dict[str, Fraction]:
    """Degree of `p` in every region under the counting measure.

    Each completion selects one prototype per region; `p` belongs to the
    region whose selected prototype is strictly nearest. Ties assign `p` to
    no region, so degrees can undershoot a full partition on tie points.
    """
    protos = _point_regions(regions)
    hulls = [(min(pp.values), max(pp.values)) for pp in protos]
    for (_, hi), (lo, _) in zip(hulls, hulls[1:]):
        if not hi < lo:
            raise MembershipError("prototype point sets must not interleave")
    total = 1
    for pp in protos:
        total *= len(pp.values)
        if total > cap:
            raise MembershipError(f"completion count exceeds cap ({cap})")
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


def _pair_breakpoints(
    a: Fraction, b: Fraction, c: Fraction, d: Fraction
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    t1 = (a + c) / 2
    t2 = min((b + c) / 2, (a + d) / 2)
    t3 = max((b + c) / 2, (a + d) / 2)
    t4 = (b + d) / 2
    return t1, t2, t3, t4


def _pair_degree_r1(
    p: Fraction, a: Fraction, b: Fraction, c: Fraction, d: Fraction
) -> Fraction:
    """Area fraction of [a,b] x [c,d] above the line x + y = 2p."""
    t1, t2, t3, t4 = _pair_breakpoints(a, b, c, d)
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


def membership_interval_pair(
    p: Fraction,
    r1: Union[PrototypeRegion, IntervalPrototypes],
    r2: Union[PrototypeRegion, IntervalPrototypes],
) -> tuple[Fraction, Fraction]:
    """Degrees of `p` in two adjacent interval-prototype regions."""
    i1, i2 = _as_interval(r1), _as_interval(r2)
    a, b, c, d = i1.a, i1.b, i2.a, i2.b
    if not (a < b < c < d):
        raise MembershipError("interval pair must satisfy a < b < c < d")
    d1 = _pair_degree_r1(p, a, b, c, d)
    return d1, 1 - d1


def membership_intervals(
    p: Fraction, regions: Sequence[PrototypeRegion]
) -> dict[str, Fraction]:
    """Degrees of `p` in an ordered family of interval-prototype regions.

    Adjacent pairs are evaluated with the two-region measure and collated:
    a region's degree is bounded by its pair with the previous region on the
    left and by its pair with the next region on the right. Outermost flanks
    stay at one toward the open side, so the degrees always sum to one.
    """
    bounds = _interval_regions(regions)
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


def _r1_interior_pieces(
    a: Fraction, b: Fraction, c: Fraction, d: Fraction
) -> list[Piece]:
    """Pieces of the left region's degree on the transition zone [t1, t4]."""
    t1, t2, t3, t4 = _pair_breakpoints(a, b, c, d)
    k = 2 * (b - a) * (d - c)
    pieces = [
        Piece(
            t1,
            t2,
            PieceKind.QUADRATIC,
            (1 - (a + c) ** 2 / k, 4 * (a + c) / k, Fraction(-4) / k),
        )
    ]
    if t2 < t3:
        if b - a < d - c:
            denom = 2 * (d - c)
            pieces.append(
                Piece(t2, t3, PieceKind.LINEAR, ((2 * d + a + b) / denom, -4 / denom))
            )
        else:
            denom = 2 * (b - a)
            pieces.append(
                Piece(t2, t3, PieceKind.LINEAR, ((2 * b + c + d) / denom, -4 / denom))
            )
    pieces.append(
        Piece(
            t3,
            t4,
            PieceKind.QUADRATIC,
            ((b + d) ** 2 / k, -4 * (b + d) / k, Fraction(4) / k),
        )
    )
    return pieces


def _complement(piece: Piece) -> Piece:
    coeffs = list(piece.coeffs)
    coeffs[0] = 1 - coeffs[0]
    for i in range(1, len(coeffs)):
        coeffs[i] = -coeffs[i]
    return Piece(piece.lo, piece.hi, piece.kind, tuple(coeffs))


def derive_membership_function(
    regions: Sequence[PrototypeRegion],
) -> list[MembershipFunction]:
    """Build the symbolic piecewise membership function of every region."""
    bounds = _interval_regions(regions)
    for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
        if not hi < lo:
            raise MembershipError("interval regions must be ordered and disjoint")

    constant = lambda lo, hi, value: Piece(lo, hi, PieceKind.CONSTANT, (Fraction(value),))
    functions = []
    for index, region in enumerate(regions):
        pieces: list[Piece] = []
        left_pair = None if index == 0 else (bounds[index - 1] + bounds[index])
        right_pair = (
            None if index + 1 == len(regions) else (bounds[index] + bounds[index + 1])
        )
        if left_pair is None and right_pair is None:
            pieces.append(constant(None, None, 1))
        elif left_pair is None:
            t1, _, _, t4 = _pair_breakpoints(*right_pair)
            pieces.append(constant(None, t1, 1))
            pieces.extend(_r1_interior_pieces(*right_pair))
            pieces.append(constant(t4, None, 0))
        elif right_pair is None:
            t1, _, _, t4 = _pair_breakpoints(*left_pair)
            pieces.append(constant(None, t1, 0))
            pieces.extend(_complement(p) for p in _r1_interior_pieces(*left_pair))
            pieces.append(constant(t4, None, 1))
        else:
            _, _, _, left_t4 = _pair_breakpoints(*left_pair)
            right_t1, _, _, right_t4 = _pair_breakpoints(*right_pair)
            left_t1 = _pair_breakpoints(*left_pair)[0]
            pieces.append(constant(None, left_t1, 0))
            pieces.extend(_complement(p) for p in _r1_interior_pieces(*left_pair))
            pieces.append(constant(left_t4, right_t1, 1))
            pieces.extend(_r1_interior_pieces(*right_pair))
            pieces.append(constant(right_t4, None, 0))
        functions.append(MembershipFunction(region.name, tuple(pieces)))
    return functions


# ===== satisfaction of quality goals =====


def satisfaction_degree(
    qgc: Element,
    observed_value: Fraction,
    spec: Union[MembershipSpec, Sequence[PrototypeRegion]],
    target_region: str,
) -> Fraction:
    """Membership degree of an observed quality value in a named region."""
    regions = spec.regions if isinstance(spec, MembershipSpec) else tuple(spec)
    if not isinstance(qgc.body, QualityStatement):
        raise MembershipError("satisfaction degrees apply to quality elements")
    if not isinstance(qgc.body.region, NamedRegion):
        raise MembershipError("the element's region must be a named region")
    if all(r.name != target_region for r in regions):
        raise MembershipError(f"region {target_region} is not in the prototype spec")
    if regions and isinstance(regions[0].prototypes, PointPrototypes):
        degrees = membership_points(observed_value, regions)
    else:
        degrees = membership_intervals(observed_value, regions)
    return degrees[target_region]


def format_degree(value: Fraction) -> str:
    """Render a degree: exact decimal when terminating, fraction otherwise."""
    return exact_decimal(value) or (
        f"{value.numerator}/{value.denominator} (~{float(value):.4f})"
    )
