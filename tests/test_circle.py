"""Base dynamics: branches, itineraries, digit-stream orbits, periodic points."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import sample_unstable_neighbor
from cocyclelab import (
    BackwardItinerary,
    ExpandingMap,
    PeriodicPoint,
    apply_map,
    circle_distance,
    orbit_from_digits,
    periodic_orbits,
    periodic_points,
    shift_backward,
    shift_forward,
)
from cocyclelab import circle
from cocyclelab.circle import MAX_ENUMERATION, _preimage, window_width

ks = st.sampled_from([2, 3, 5, 8, 10])
units = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def test_map_validation():
    with pytest.raises(ValueError):
        ExpandingMap(1)
    with pytest.raises(ValueError):
        ExpandingMap(0)
    m = ExpandingMap(8)
    assert m.sigma == 8.0
    assert m.rho == 1.0 / 16.0


def test_apply_map_basics():
    m = ExpandingMap(2)
    assert apply_map(m, 0.25) == 0.5
    assert apply_map(m, 0.75) == 0.5
    assert apply_map(m, 0.0) == 0.0
    with pytest.raises(ValueError):
        apply_map(m, 1.0)
    with pytest.raises(ValueError):
        apply_map(m, -0.1)


def test_circle_distance_wraps():
    assert circle_distance(0.1, 0.9) == pytest.approx(0.2)
    assert circle_distance(0.0, 0.5) == 0.5
    assert circle_distance(0.3, 0.3) == 0.0


interior = st.floats(min_value=0.0, max_value=1.0 - 1e-9, allow_nan=False)


@given(ks, interior, st.integers(min_value=0, max_value=9))
@settings(max_examples=300, deadline=None)
def test_inverse_branch_is_right_inverse(k, y, digit):
    m = ExpandingMap(k)
    d = digit % k
    x = _preimage(k, y, d)
    assert d / k <= x < (d + 1) / k
    assert apply_map(m, x) == pytest.approx(y, abs=1e-12)
    assert math.floor(k * x) == d


def test_branch_arithmetic_clamped_below_one():
    # anchors an ulp below 1 would otherwise round (x + d)/k up to 1.0
    top = math.nextafter(1.0, 0.0)
    it = BackwardItinerary(5, top, (4, 4, 4))
    assert all(p < 1.0 for p in it.points())
    assert shift_backward(it).x0 < 1.0
    assert _preimage(3, top, 2) == math.nextafter(1.0, 0.0)


# -- backward itineraries -----------------------------------------------------

def test_itinerary_validation():
    with pytest.raises(ValueError):
        BackwardItinerary(1, 0.5, ())
    with pytest.raises(ValueError):
        BackwardItinerary(2, 1.0, ())
    with pytest.raises(ValueError):
        BackwardItinerary(2, 0.5, (2,))
    with pytest.raises(ValueError):
        BackwardItinerary(2, 0.5, (-1,))
    # digits that are not integral numbers, on their own or after plain ints
    for bad in (True, np.True_, 1.5, "1", None):
        for digits in ((bad,), (0, 1, bad, 1)):
            with pytest.raises(ValueError, match=f"branch digit must be an integer, got {bad!r}"):
                BackwardItinerary(4, 0.5, digits)
    # integral numbers of other types are stored as Python ints, in a tuple
    for digits in ((np.int64(3), 2.0, 1), [3, np.int64(2), 1.0], np.array([3, 2, 1])):
        it = BackwardItinerary(4, 0.5, digits)
        assert it.digits == (3, 2, 1) and type(it.digits) is tuple
        assert all(type(d) is int for d in it.digits)
    # a range error names the first digit out of range, on either path
    for digits in ((1, 7, -1, 9), (1, np.int64(7), -1.0, 9)):
        with pytest.raises(ValueError, match=r"branch digit 7 outside 0\.\.3"):
            BackwardItinerary(4, 0.5, digits)
    with pytest.raises(ValueError, match=r"branch digit -1 outside 0\.\.3"):
        BackwardItinerary(4, 0.5, (0, 3, -1, 4))
    # the shifts build their itineraries from stored ints
    it = BackwardItinerary(4, 0.8125, (np.int64(1), 2.0))
    fwd, back = shift_forward(it), shift_backward(it)
    assert (fwd.k, fwd.x0, fwd.digits) == (4, 0.25, (3, 1, 2))
    assert (back.k, back.x0, back.digits) == (4, (0.8125 + 1) / 4, (2,))
    assert all(type(d) is int for d in fwd.digits + back.digits)
    assert shift_backward(fwd) == it and shift_forward(back) == it


def test_points_follow_branch_recurrence():
    it = BackwardItinerary(4, 0.5, (3, 0, 2))
    pts = it.points()
    assert pts[0] == 0.5
    assert pts[1] == (0.5 + 3) / 4
    assert pts[2] == pts[1] / 4
    assert pts[3] == (pts[2] + 2) / 4


def test_preimages_walk_lazily():
    it = BackwardItinerary(4, 0.5, (3, 0, 2) * 20)
    walk = it.preimages()
    assert [next(walk) for _ in range(3)] == it.points()[1:4]
    assert it.points() == [it.x0, *it.preimages()]


@given(ks, units, st.lists(st.integers(0, 9), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_backward_points_are_preimages(k, x0, raw):
    digits = tuple(d % k for d in raw)
    m = ExpandingMap(k)
    pts = BackwardItinerary(k, x0, digits).points()
    for shallow, deep in zip(pts, pts[1:]):
        assert circle_distance(apply_map(m, deep), shallow) <= 1e-9


def test_same_leaf_contraction_exact_for_dyadics():
    # same digits contract the anchor difference by exactly 1/k per level
    k, digits = 2, (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
    a = BackwardItinerary(k, 0.25, digits).points()
    b = BackwardItinerary(k, 0.75, digits).points()
    for n, (x, y) in enumerate(zip(a, b)):
        assert y - x == 0.5 / k**n


def test_shift_backward_then_forward_round_trip():
    it = BackwardItinerary(2, 0.375, (1, 0, 1))
    back = shift_backward(it)
    assert back.depth == 2
    assert back.x0 == (0.375 + 1) / 2
    again = shift_forward(back)
    assert again.digits == it.digits
    assert again.x0 == pytest.approx(it.x0, abs=1e-15)
    with pytest.raises(ValueError):
        shift_backward(BackwardItinerary(2, 0.5, ()))


@given(ks, units, st.lists(st.integers(0, 9), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_shift_forward_prepends_current_digit(k, x0, raw):
    it = BackwardItinerary(k, x0, tuple(d % k for d in raw))
    fwd = shift_forward(it)
    assert fwd.depth == it.depth + 1
    assert fwd.digits[1:] == it.digits
    assert 0.0 <= fwd.x0 < 1.0
    # the prepended digit names which branch x0 sits in
    assert _preimage(k, fwd.x0, fwd.digits[0]) == pytest.approx(it.x0, abs=1e-12)


def test_sample_unstable_neighbor_bounds():
    # the leaf-pair builder of the holonomy tests stays on one local leaf
    it = BackwardItinerary(8, 0.5, (3, 1))
    nb = sample_unstable_neighbor(it, 0.01)
    assert nb.digits == it.digits
    assert nb.x0 == pytest.approx(0.51)
    with pytest.raises(ValueError):
        sample_unstable_neighbor(it, 1.0 / 16.0)


# -- digit-stream orbits ------------------------------------------------------

def test_float_iteration_collapses_but_digit_stream_does_not():
    # the motivating failure: float iteration of (2x) % 1 reaches the fixed
    # point 0 within 53 steps and stays there
    x = 0.6180339887498949
    for _ in range(60):
        x = (2.0 * x) % 1.0
    assert x == 0.0
    rng = np.random.default_rng(2)
    orbit = orbit_from_digits(2, rng.integers(0, 2, 200 + window_width(2)), 200)
    assert np.min(orbit[100:]) > 0.0


def test_window_width_maximal():
    for k in (2, 3, 8, 10, 512):
        w = window_width(k)
        assert k**w <= 2**62 < k ** (w + 1)
    assert window_width(2) == 62
    assert window_width(8) == 20
    with pytest.raises(ValueError):
        window_width(513)


def test_orbit_matches_base_k_reading():
    # base-10 digit stream reads off decimal expansions directly
    digits = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4,
              6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8, 8]
    orbit = orbit_from_digits(10, digits, 3)
    assert orbit[0] == pytest.approx(0.314159265358979, abs=1e-14)
    assert orbit[1] == pytest.approx(0.141592653589793, abs=1e-14)
    assert orbit[2] == pytest.approx(0.415926535897932, abs=1e-14)


def test_orbit_shift_is_the_map():
    rng = np.random.default_rng(7)
    for k in (2, 8):
        digits = rng.integers(0, k, 500 + window_width(k))
        orbit = orbit_from_digits(k, digits, 500)
        gaps = np.abs((k * orbit[:-1]) % 1.0 - orbit[1:])
        gaps = np.minimum(gaps, 1.0 - gaps)
        # register truncation k/2^62 plus float64 rounding of reg/k^w
        assert float(np.max(gaps)) <= k * 2.0**-62 + 2.0**-51


@pytest.mark.parametrize("k", [2, 3, 8, 10, 512])
def test_orbit_is_the_integer_register_reading(k):
    w = window_width(k)
    n = 300
    digits = np.random.default_rng(k).integers(0, k, n + w)
    expected = []
    for j in range(n):
        reg = 0
        for d in digits[j:j + w]:
            reg = reg * k + int(d)
        expected.append(reg / float(k**w))
    assert np.array_equal(orbit_from_digits(k, digits, n), expected)
    assert np.array_equal(orbit_from_digits(k, list(digits), n), expected)
    empty = orbit_from_digits(k, digits[:w], 0)
    assert empty.shape == (0,) and empty.dtype == np.float64


@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("k", [2, 3, 8, 10, 256])
def test_orbit_rows_match_one_dimensional_calls(k, n):
    """A (rows, m) array of streams gives each row the bits of its own 1-D call."""
    w = window_width(k)
    digits = np.random.default_rng(k).integers(0, k, (3, n + w + 5))
    digits = digits.astype(np.min_scalar_type(k - 1))[:, 5:]
    got = circle._orbit(k, digits, n)
    assert got.shape == (3, n) and got.dtype == np.float64
    for row, ds in zip(got, digits):
        assert row.tobytes() == circle._orbit(k, ds, n).tobytes()


def test_orbit_requires_window_surplus():
    with pytest.raises(ValueError):
        orbit_from_digits(2, [0, 1] * 20, 40)


def test_orbit_equidistribution():
    # Kolmogorov-Smirnov against the uniform law; Lebesgue is f-invariant
    rng = np.random.default_rng(123)
    n = 1_000_000
    digits = rng.integers(0, 8, n + window_width(8))
    orbit = np.sort(orbit_from_digits(8, digits, n))
    grid = np.arange(1, n + 1) / n
    ks_stat = float(np.max(np.abs(orbit - grid)))
    assert ks_stat <= 0.005


# -- periodic points ----------------------------------------------------------

def test_periodic_point_counts():
    # f^n has exactly k^n - 1 fixed points; minimal periods partition them
    for k, max_n in ((2, 12), (3, 7), (8, 4)):
        pts = periodic_points(ExpandingMap(k), max_n)
        for n in range(1, max_n + 1):
            fixed = sum(1 for p in pts if n % p.period == 0)
            assert fixed == k**n - 1, (k, n)


def test_periodic_points_are_exactly_periodic():
    for p in periodic_points(ExpandingMap(3), 5):
        x = p.x
        for _ in range(p.period):
            x = (3 * x) % 1
        assert x == p.x
        # and not with any smaller period
        x, seen = p.x, 0
        for step in range(1, p.period):
            x = (3 * x) % 1
            assert x != p.x


def test_periodic_orbit_structure():
    orbits = periodic_orbits(ExpandingMap(2), 6)
    all_points = [p.x for o in orbits for p in o]
    assert len(all_points) == len(set(all_points))
    assert sum(len(o) for o in orbits) == len(periodic_points(ExpandingMap(2), 6))
    for o in orbits:
        assert len(o) == o[0].period
        assert o[0].x == min(p.x for p in o)
        for a, b in zip(o, o[1:] + o[:1]):
            assert (2 * a.x) % 1 == b.x
    keys = [(o[0].period, o[0].x) for o in orbits]
    assert keys == sorted(keys)


def _minimal_period(j: int, n: int, k: int) -> int:
    # x = j/(k^n - 1) has period m | n iff (k^m - 1) * j is divisible by k^n - 1
    denom = k**n - 1
    for m in range(1, n):
        if n % m == 0 and (k**m - 1) * j % denom == 0:
            return m
    return n


def orbits_by_fractions(k: int, max_period: int) -> list[list[PeriodicPoint]]:
    """The orbits by an independent route: minimal periods by divisibility,
    each orbit walked in Fraction arithmetic, rotated to its least point,
    sorted by (period, least point)."""
    seen, orbits = set(), []
    for n in range(1, max_period + 1):
        denom = k**n - 1
        for j in range(denom):
            x = Fraction(j, denom)
            if _minimal_period(j, n, k) != n or x in seen:
                continue
            cycle = [x]
            y = (k * x) % 1
            while y != x:
                cycle.append(y)
                y = (k * y) % 1
            i = cycle.index(min(cycle))
            cycle = cycle[i:] + cycle[:i]
            seen.update(cycle)
            orbits.append([PeriodicPoint(y.numerator * (denom // y.denominator), denom, n)
                           for y in cycle])
    orbits.sort(key=lambda o: (o[0].period, o[0].x))
    return orbits


@pytest.mark.parametrize("k", range(2, 11))
def test_periodic_orbits_match_rational_enumeration(k):
    # the largest period whose k^n - 1 fixed points stay below 10^4
    max_period = max(n for n in range(1, 14) if k**n - 1 <= 10_000)
    want = orbits_by_fractions(k, max_period)
    assert periodic_orbits(ExpandingMap(k), max_period) == want
    assert periodic_points(ExpandingMap(k), max_period) == [p for o in want for p in o]


def test_periodic_orbits_enumerate_once(monkeypatch):
    calls = []

    def counting(m, max_period):
        calls.append(max_period)
        return periodic_points(m, max_period)

    monkeypatch.setattr(circle, "periodic_points", counting)
    orbits = periodic_orbits(ExpandingMap(3), 4)
    assert calls == [4]
    # fixed points of f^4 and of f^3, which share the 2 fixed points of f
    assert sum(len(o) for o in orbits) == (3**4 - 1) + (3**3 - 1) - 2


def test_fixed_points_explicit():
    orbits = periodic_orbits(ExpandingMap(8), 1)
    assert [o[0].x for o in orbits] == [Fraction(j, 7) for j in range(7)]


def test_enumeration_cap_bounds_the_walk(monkeypatch):
    # k = 2, P = 6 walks (2 - 1) + (4 - 1) + ... + (64 - 1) = 120 values of j,
    # though the top level alone has only 63
    monkeypatch.setattr(circle, "MAX_ENUMERATION", 100)
    with pytest.raises(OverflowError, match="walk 120 values"):
        periodic_points(ExpandingMap(2), 6)
    monkeypatch.setattr(circle, "MAX_ENUMERATION", 120)
    assert len(periodic_points(ExpandingMap(2), 6)) == 1 + 2 + 6 + 12 + 30 + 54


def test_enumeration_cap():
    with pytest.raises(OverflowError):
        periodic_points(ExpandingMap(10), 8)
    assert 10**8 - 1 > MAX_ENUMERATION
    with pytest.raises(ValueError):
        periodic_points(ExpandingMap(2), 0)
