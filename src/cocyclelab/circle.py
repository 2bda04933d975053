"""The expanding maps f(x) = kx mod 1 and their natural-extension bookkeeping.

A point of the natural extension is an anchor x0 together with a backward
itinerary: digits d_1, d_2, ... selecting the branch of each preimage, so
that x_{-n} = (x_{-n+1} + d_n) / k.  Backward orbits contract at rate 1/k and
are numerically stable; forward float orbits are not (see orbit_from_digits
for the honest way to follow a Lebesgue-random forward orbit).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import _integral, _real

MAX_ENUMERATION = 10_000_000
# the largest k whose digit windows fit int64 (window_width)
MAX_STREAM_K = 512


@dataclass(frozen=True, slots=True)
class ExpandingMap:
    """x -> k x mod 1 on the circle, k >= 2."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _integral("degree k", self.k))
        if self.k < 2:
            raise ValueError(f"degree k must be an integer >= 2, got {self.k!r}")

    @property
    def sigma(self) -> float:
        """Uniform expansion factor |f'|."""
        return float(self.k)

    @property
    def rho(self) -> float:
        """Radius of local unstable leaves: 1/(2k)."""
        return 1.0 / (2.0 * self.k)


def circle_distance(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def apply_map(m: ExpandingMap, x: float) -> float:
    if not 0.0 <= x < 1.0:
        raise ValueError(f"point {x} outside [0, 1)")
    return (m.k * x) % 1.0


def _preimage(k: int, y: float, digit: int) -> float:
    """(y + digit) / k, which is below 1 exactly but can round up to 1.0."""
    x = (y + digit) / k
    return math.nextafter(1.0, 0.0) if x >= 1.0 else x


@dataclass(frozen=True, slots=True)
class BackwardItinerary:
    """Anchor x0 plus inverse-branch digits; a natural-extension point.

    digits[0] selects the branch containing x_{-1}, digits[1] the one
    containing x_{-2}, and so on.
    """

    k: int
    x0: float
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", _integral("degree k", self.k))
        if self.k < 2:
            raise ValueError("degree k must be >= 2")
        object.__setattr__(self, "x0", _real("anchor x0", self.x0))
        if not 0.0 <= self.x0 < 1.0:
            raise ValueError(f"anchor {self.x0} outside [0, 1)")
        # plain ints (what the commands pass) are checked in one pass over
        # their types; anything else goes digit by digit through _integral
        digits = tuple(self.digits)
        if not set(map(type, digits)) <= {int}:
            digits = tuple(_integral("branch digit", d) for d in digits)
        if digits and not (min(digits) >= 0 and max(digits) < self.k):
            bad = next(d for d in digits if not 0 <= d < self.k)
            raise ValueError(f"branch digit {bad} outside 0..{self.k - 1}")
        object.__setattr__(self, "digits", digits)

    @property
    def depth(self) -> int:
        return len(self.digits)

    def preimages(self) -> Iterator[float]:
        """x_{-1}, x_{-2}, ..., x_{-depth}, lazily, via stable branch arithmetic."""
        k, x = self.k, self.x0
        for d in self.digits:
            x = _preimage(k, x, d)
            yield x

    def points(self) -> list[float]:
        """[x0, x_{-1}, ..., x_{-depth}]: the anchor, then preimages()."""
        return [self.x0, *self.preimages()]


def shift_forward(it: BackwardItinerary) -> BackwardItinerary:
    """The natural-extension image: anchor f(x0), branch digit of x0 prepended."""
    d = int(math.floor(it.k * it.x0))
    y = it.k * it.x0 - d
    if y >= 1.0:  # guard the floor/round seam
        y, d = y - 1.0, d + 1
    return BackwardItinerary(it.k, y, (d,) + it.digits)


def shift_backward(it: BackwardItinerary) -> BackwardItinerary:
    """Drop the anchor: the natural-extension preimage, one level shallower."""
    if it.depth < 1:
        raise ValueError("cannot shift backward past recorded depth")
    return BackwardItinerary(it.k, _preimage(it.k, it.x0, it.digits[0]), it.digits[1:])


# -- forward orbits ----------------------------------------------------------
#
# Iterating (k*x) % 1 in float64 sheds log2(k) mantissa bits per step; for
# k a power of two an x whose lowest set bit is 2^-p reaches the fixed point
# 0 after exactly ceil(p/log2 k) steps, and p can reach 1074 (x = 2^-1000
# takes 334 steps at k = 8).  That is the true orbit of the dyadic rational the
# float denotes, but it is useless for sampling Lebesgue-typical behavior.
# A Lebesgue-random point has iid uniform base-k digits, and its orbit is
# the digit shift; we simulate it exactly by reading each window of w
# consecutive digits as one base-k integer, below k^w <= 2^62 in int64.


def window_width(k: int) -> int:
    """Digits per window so that k^width is close to (and at most) 2^62."""
    if k > MAX_STREAM_K:
        raise ValueError(f"digit-stream orbits support k <= {MAX_STREAM_K}")
    w = int(62 / math.log2(k))
    while k ** (w + 1) <= 2**62:
        w += 1
    return w


def _orbit(k: int, digits, n: int) -> np.ndarray:
    """x_0 .. x_{n-1} from a digit stream; each window of w digits read as one int64.

    p holds the windows of s = 1, 2, 4, ... digits; v joins them by the bits of w.
    Windows run along the last axis, so a (rows, m) array of streams gives the
    (rows, n) orbits, each row the bits of a 1-D call on it.
    """
    w = window_width(k)
    p = np.asarray(digits)[..., :n + w].astype(np.int64, copy=False)
    v, used, s = 0, 0, 1
    while s <= w:
        if w & s:
            v = v * k**s + p[..., used:used + n]
            used += s
        if 2 * s <= w:
            p = p[..., :-s] * k**s + p[..., s:]
        s *= 2
    return v / float(k**w)


def orbit_from_digits(k: int, digits, n: int) -> np.ndarray:
    """First n points of the orbit encoded by a base-k digit stream.

    digits must hold at least n + window_width(k) entries; x_j is the
    rational 0.d_{j+1} d_{j+2} ... d_{j+w} read in base k, which matches
    every float orbit point of a Lebesgue-random seed to 62 bits.
    """
    w = window_width(k)
    if len(digits) < n + w:
        raise ValueError(f"need {n + w} digits, got {len(digits)}")
    return _orbit(k, digits, n)


# -- periodic points ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PeriodicPoint:
    """x = numerator/(k^n - 1) with minimal period n, held as ints; as_float
    divides them, which Python rounds correctly, so it is float(x)."""

    numerator: int
    denominator: int
    period: int

    @property
    def x(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def as_float(self) -> float:
        return self.numerator / self.denominator


def periodic_points(m: ExpandingMap, max_period: int) -> list[PeriodicPoint]:
    """All periodic points of minimal period <= max_period, exact rationals.

    f^n fixes exactly the k^n - 1 rationals j/(k^n - 1), and f maps
    j/(k^n - 1) to (k j mod (k^n - 1))/(k^n - 1).  Points come orbit by
    orbit in orbit order, each orbit starting at its least point, the
    orbits ordered by (period, least point).
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    k = m.k
    walk = k * (k**max_period - 1) // (k - 1) - max_period  # sum of k^n - 1, the j walked
    if walk > MAX_ENUMERATION:
        raise OverflowError(f"periods <= {max_period} walk {walk} values of j, "
                            f"above the enumeration cap {MAX_ENUMERATION}")
    out = []
    for n in range(1, max_period + 1):
        denom = k**n - 1
        for j in range(denom):
            # j is the least point of its cycle and n its minimal period iff
            # the walk from j stays above j and returns after n steps
            cycle = [j]
            y = j * k % denom
            while y > j:
                cycle.append(y)
                y = y * k % denom
            if y == j and len(cycle) == n:
                out.extend(PeriodicPoint(i, denom, n) for i in cycle)
    return out


def periodic_orbits(m: ExpandingMap, max_period: int) -> list[list[PeriodicPoint]]:
    """Periodic points grouped into orbits, each starting at its smallest
    point, sorted by (period, representative)."""
    pts = periodic_points(m, max_period)
    orbits = []
    i = 0
    while i < len(pts):
        orbits.append(pts[i:i + pts[i].period])
        i += pts[i].period
    return orbits
