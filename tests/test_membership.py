"""Tests for graded membership degrees over prototype regions.

The interval formulas are cross-checked against an independent oracle: an
exact midpoint-grid count of the completion measure (the fraction of the
prototype rectangle lying above the line x + y = 2p). The neighbour-loss
rule is cross-checked against two references kept here: an enumeration of
every point completion, and the collation of adjacent interval pairs by
`min`.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from reqsmith.membership import (
    MembershipError,
    _pair_degree_r1,
    format_degree,
    membership_intervals,
    membership_points,
)
from reqsmith.model import IntervalPrototypes, PointPrototypes, PrototypeRegion
from reqsmith.parser import parse_model

F = Fraction


def iregion(name, a, b):
    return PrototypeRegion(name, IntervalPrototypes(F(a), F(b)))


def pregion(name, *values):
    return PrototypeRegion(name, PointPrototypes(tuple(F(v) for v in values)))


COST_INTERVALS = (
    iregion("low", 500, 700),
    iregion("medium", 800, 1000),
    iregion("high", 1200, 1500),
)

COST_POINTS = (
    pregion("low", 500, 700),
    pregion("medium", 800, 1000),
    pregion("high", 1200, 1500),
)


def grid_degree(p, a, b, c, d, n=1000):
    """Independent oracle: fraction of the n-by-n midpoint grid over
    [a, b] x [c, d] whose cell centers satisfy x + y > 2p, exactly."""
    a, b, c, d, p = F(a), F(b), F(c), F(d), F(p)
    sx = (b - a) / n
    sy = (d - c) / n
    total = 0
    for i in range(n):
        x = a + (2 * i + 1) * sx / 2
        q = (2 * p - x - c) / sy - F(1, 2)
        if q < 0:
            total += n
        else:
            j_min = math.floor(q) + 1
            total += max(0, n - j_min)
    return F(total, n * n)


# ===== point prototypes =====


def test_point_case_worked_example():
    degrees = membership_points(F(740), COST_POINTS)
    assert degrees["low"] == F(6, 8)
    assert degrees["medium"] == F(2, 8)
    assert degrees["high"] == 0


def test_point_case_own_prototype():
    degrees = membership_points(F(500), COST_POINTS)
    assert degrees["low"] == 1


def test_point_case_tie_excluded_from_both():
    regions = (pregion("a", 0), pregion("b", 10))
    degrees = membership_points(F(5), regions)
    assert degrees["a"] == 0 and degrees["b"] == 0


def test_point_case_interleaving_rejected():
    regions = (pregion("low", 500, 900), pregion("medium", 800, 1000))
    with pytest.raises(MembershipError):
        membership_points(F(740), regions)


def test_point_case_seven_regions_answer():
    # 8 ** 7 = 2,097,152 completions; only the two regions around 8.5 grade
    regions = tuple(pregion(f"r{i}", *range(10 * i, 10 * i + 8)) for i in range(7))
    degrees = membership_points(F(17, 2), regions)
    assert degrees == {"r0": F(7, 16), "r1": F(7, 16), **{f"r{i}": 0 for i in range(2, 7)}}


def test_point_case_six_regions_of_ten_within_a_tenth_of_a_second():
    regions = tuple(pregion(f"r{i}", *range(10 * i, 10 * i + 10)) for i in range(6))
    start = time.perf_counter()
    degrees = membership_points(F(19, 2), regions)
    elapsed = time.perf_counter() - start
    assert degrees == {"r0": F(9, 20), "r1": F(9, 20), **{f"r{i}": 0 for i in range(2, 6)}}
    assert elapsed < 0.1


def enumerated_points(p, regions):
    """Reference: count every completion, one prototype per region, that
    puts `p` strictly nearest to one region's pick."""
    values = [region.prototypes.values for region in regions]
    distances = [[abs(p - q) for q in points] for points in values]
    # each distance as its rank among all of them, which keeps order and ties
    rank = {d: i for i, d in enumerate(sorted({d for ds in distances for d in ds}))}
    counts = [0] * len(regions)
    for completion in itertools.product(*([rank[d] for d in ds] for ds in distances)):
        best = min(completion)
        winners = [i for i, d in enumerate(completion) if d == best]
        if len(winners) == 1:
            counts[winners[0]] += 1
    total = math.prod(len(v) for v in values)
    return {region.name: F(n, total) for region, n in zip(regions, counts)}


def breakpoints(values):
    """Every value, and the midpoint of every pair of values."""
    return sorted({(x + y) / 2 for x, y in itertools.combinations_with_replacement(values, 2)})


def test_points_agree_with_enumeration_on_random_families():
    rng = random.Random(31)
    for _ in range(2000):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        # a narrow integer range, so ties between picks are common
        points = sorted(rng.sample(range(3 * sum(sizes)), sum(sizes)))
        cuts = list(itertools.accumulate(sizes, initial=0))
        regions = tuple(
            pregion(f"r{i}", *points[lo:hi]) for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        )
        values = rng.sample(breakpoints(map(F, points)), 3) if len(points) > 1 else []
        for p in values + [F(rng.randint(-30, 90), rng.randint(1, 6))]:
            assert membership_points(p, regions) == enumerated_points(p, regions)


def test_points_agree_with_enumeration_on_the_cost_points_fixture():
    fixture = Path(__file__).parent / "fixtures" / "cost_points.dsr"
    regions = parse_model(fixture.read_text(encoding="utf-8")).membership_specs[0].regions
    values = [q for region in regions for q in region.prototypes.values]
    for p in breakpoints(values) + [F(-100000), F(1100), F(100000)]:
        assert membership_points(p, regions) == enumerated_points(p, regions)


# ===== interval pairs =====


def pair(p, r1, r2):
    """The degrees of `p` in a family of the two regions `r1` < `r2`."""
    return tuple(membership_intervals(p, (r1, r2)).values())


def test_pair_worked_example():
    d1, d2 = pair(F(740), COST_INTERVALS[0], COST_INTERVALS[1])
    assert d1 == 1 - F((2 * 740 - 1300) ** 2, 80000)
    assert d1 == F("0.595")
    assert d2 == F("0.405")


def test_pair_breakpoint_is_exactly_one():
    d1, _ = pair(F(650), COST_INTERVALS[0], COST_INTERVALS[1])
    assert d1 == 1


def test_pair_ordering_violation():
    with pytest.raises(MembershipError):
        pair(F(5), iregion("a", 0, 4), iregion("b", 3, 9))


@pytest.mark.parametrize(
    "a,b,c,d",
    [
        (500, 700, 800, 1000),  # equal widths
        (0, 1, 2, 5),  # first narrower
        (0, 6, 7, 9),  # first wider
    ],
)
def test_pair_matches_grid_oracle(a, b, c, d):
    r1, r2 = iregion("r1", a, b), iregion("r2", c, d)
    lo, hi = F(a + c, 2), F(b + d, 2)
    for k in range(25):
        p = lo - 1 + (hi - lo + 2) * F(2 * k + 1, 50)
        d1, d2 = pair(p, r1, r2)
        approx = grid_degree(p, a, b, c, d, n=400)
        assert abs(d1 - approx) <= F(1, 400)
        assert d1 + d2 == 1


def test_pair_symmetric_case():
    r1, r2 = iregion("r1", 0, 1), iregion("r2", 2, 3)
    for t in (F(1, 7), F(1, 3), F(2, 5)):
        left, _ = pair(F(3, 2) - t, r1, r2)
        _, right = pair(F(3, 2) + t, r1, r2)
        assert left == right
    assert pair(F(3, 2), r1, r2) == (F(1, 2), F(1, 2))


# ===== interval collation =====


def test_collation_worked_example():
    degrees = membership_intervals(F(740), COST_INTERVALS)
    assert degrees == {"low": F("0.595"), "medium": F("0.405"), "high": 0}
    # the low region's degree at its pair's breakpoints t1, t2 = t3 and t4
    lows = [membership_intervals(F(p), COST_INTERVALS)["low"] for p in (650, 750, 850)]
    assert lows == [1, F(1, 2), 0]


def test_collation_rightmost_saturates():
    assert membership_intervals(F(1300), COST_INTERVALS)["high"] == 1


def test_collation_middle_plateau():
    assert membership_intervals(F(900), COST_INTERVALS)["medium"] == 1


def test_collation_overlap_rejected():
    regions = (iregion("a", 0, 5), iregion("b", 4, 9))
    with pytest.raises(MembershipError):
        membership_intervals(F(2), regions)


def test_collation_partitions_to_one():
    # a one-region family therefore grades 1 everywhere
    for family in (COST_INTERVALS, (iregion("only", 10, 20),)):
        for k in range(100):
            p = 400 + F(k * 1200, 99)
            degrees = membership_intervals(p, family)
            assert sum(degrees.values()) == 1
            assert all(0 <= v <= 1 for v in degrees.values())
    assert membership_intervals(F(-1000), (iregion("only", 10, 20),)) == {"only": 1}


def test_collation_edge_monotonicity():
    samples = [400 + F(k * 1200, 39) for k in range(40)]
    lows = [membership_intervals(p, COST_INTERVALS)["low"] for p in samples]
    highs = [membership_intervals(p, COST_INTERVALS)["high"] for p in samples]
    assert all(x >= y for x, y in zip(lows, lows[1:]))
    assert all(x <= y for x, y in zip(highs, highs[1:]))


def min_collated_intervals(p, regions):
    """Reference: bound each region by its pair with the previous region
    on the left and by its pair with the next region on the right."""
    bounds = [(r.prototypes.a, r.prototypes.b) for r in regions]
    degrees = {}
    for index, region in enumerate(regions):
        left = right = F(1)
        if index > 0:
            left = 1 - _pair_degree_r1(p, *bounds[index - 1], *bounds[index])
        if index + 1 < len(regions):
            right = _pair_degree_r1(p, *bounds[index], *bounds[index + 1])
        degrees[region.name] = min(left, right)
    return degrees


def test_intervals_agree_with_the_min_collation_on_random_families():
    rng = random.Random(31)
    for _ in range(500):
        count, scale = rng.randint(1, 4), rng.choice((1, 2, 3))
        ends = sorted(F(n, scale) for n in rng.sample(range(60), 2 * count))
        regions = tuple(iregion(f"r{i}", *ends[2 * i : 2 * i + 2]) for i in range(count))
        randoms = [F(rng.randint(-70, 490), 7) for _ in range(2)]
        for p in breakpoints(ends) + randoms:
            assert membership_intervals(p, regions) == min_collated_intervals(p, regions)


# ===== mixed styles and rendering =====


def test_mixed_styles_rejected():
    mixed = (pregion("low", 500, 700), iregion("medium", 800, 1000))
    with pytest.raises(MembershipError):
        membership_intervals(F(740), mixed)
    with pytest.raises(MembershipError):
        membership_points(F(740), mixed)


@pytest.mark.parametrize(
    "value,text",
    [
        (F(119, 200), "0.595"),
        (F(3, 4), "0.75"),
        (F(1), "1"),
        (F(0), "0"),
        (F(1, 3), "1/3 (~0.3333)"),
    ],
)
def test_format_degree(value, text):
    assert format_degree(value) == text
