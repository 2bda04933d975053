"""Exact-ish SL(2,R) arithmetic and the rules on projective directions.

Mat2 is the validated det = 1 type for inputs and single evaluations:
its one constructor refuses an entry that is not a real number (a bool,
a string, None), stores floats, checks them for finiteness and
renormalizes by sqrt(det), after an exact power-of-two scale when det
over- or underflows.  Value types, here and across the package, are
slotted frozen dataclasses, with no per-instance __dict__.  Per-point
evaluations and computed products are kept as raw entries (_mul) or as
cocycle.ScaledMatrix, not as Mat2: for a product of large matrices the
determinant is cancellation noise.  _mul_stacked is _mul's twin for
entries stacked in one (2, 2, ...) array, with _mul's bits; it serves
cocycle._reduce only.  Directions in RP^1 are angles in [0, pi); each
rule on them is written once, here, on floats or arrays: the wrap
(_wrap), the signed shorter-arc step (_arc), the metric
min(|p - q|, pi - |p - q|) (_dist) and the angles of M (cos t, sin t)
over entry and angle arrays (_pushed_angles, one np.arctan2 per call).
ProjPoint is the validated scalar type; loops carry plain float arrays.
Array cos and sin of orbit angles go through _cos_sin, which gives numpy's
bits in octant order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, _as_float, _real

DET_TOL = 1e-9
PI = math.pi


def _renorm(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise NumericOverflowError("non-finite matrix entries; use scaled products for long chains")
    det = a * d - b * c
    if not sys.float_info.min <= abs(det) < math.inf:
        # det over- or underflowed: scale by the power of two that brings the
        # largest entry into [0.5, 1), which is exact, and decide on that
        e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        a, b, c, d = (math.ldexp(v, -e) for v in (a, b, c, d))
        det = a * d - b * c
    if not det > 0.0:
        raise ValueError(f"determinant {det} not positive; not in SL(2,R) up to scale")
    if abs(det - 1.0) <= DET_TOL:
        return a, b, c, d
    s = 1.0 / math.sqrt(det)
    return a * s, b * s, c * s, d * s


@dataclass(frozen=True, slots=True)
class Mat2:
    """A 2x2 real matrix with det = 1, renormalized on construction."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        entries = [_as_float(v) for v in (self.a, self.b, self.c, self.d)]
        for name, v, x in zip("abcd", (self.a, self.b, self.c, self.d), entries):
            if x is None:
                raise ValueError(f"matrix entry {name} must be a real number, got {v!r}")
        a, b, c, d = _renorm(*entries)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def diagonal(s: float) -> "Mat2":
        """diag(s, 1/s) for s > 0."""
        if not s > 0.0:
            raise ValueError("diagonal entry must be positive")
        return Mat2(s, 0.0, 0.0, 1.0 / s)

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(*(_real("matrix entry", v) for v in (a, b, c, d)))

    def to_rows(self) -> list[list[float]]:
        return [[self.a, self.b], [self.c, self.d]]

    def __matmul__(self, other: "Mat2") -> "Mat2":
        """self @ other.  Raises NumericOverflowError if entries leave float range."""
        return Mat2(*_mul(self.a, self.b, self.c, self.d, other.a, other.b, other.c, other.d))


def _mul(a1, b1, c1, d1, a2, b2, c2, d2):
    """Entries of [[a1, b1], [c1, d1]] @ [[a2, b2], [c2, d2]]; floats or numpy arrays."""
    return a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2


def _mul_stacked(left, right):
    """_mul on stacked entry arrays: left @ right for arrays of shape (2, 2, ...).

    Entry [i, j] is left[i, 0] * right[0, j] + left[i, 1] * right[1, j],
    _mul's products and sums in _mul's order, so the bits of _mul.
    """
    return left[:, 0:1] * right[0] + left[:, 1:2] * right[1]


def _s_max(a: float, b: float, c: float, d: float) -> float:
    """Largest singular value: hypot((a+d)/2,(c-b)/2) + hypot((a-d)/2,(c+b)/2)."""
    return (math.hypot(a + d, c - b) + math.hypot(a - d, c + b)) * 0.5


def op_norm(m: Mat2) -> float:
    """Largest singular value."""
    return _s_max(m.a, m.b, m.c, m.d)


def _wrap(t):
    """t mod pi in [0, pi); floats or numpy arrays."""
    w = t % PI
    return w - PI * (w >= PI)  # tiny negative t % pi rounds up to pi; map that to 0


def _arc(s, t):
    """Signed step from s to t along the shorter projective arc, in [-pi/2, pi/2)."""
    return (t - s + PI / 2.0) % PI - PI / 2.0


def _dist(p, q):
    """Projective metric min(|p - q|, pi - |p - q|); bounded by pi/2."""
    d = abs(p - q)
    return np.minimum(d, PI - d)


def _cos_sin(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(np.cos(t), np.sin(t)) with their bits, evaluated one octant at a time.

    libm's cos and sin branch on the argument's range, and on angles in orbit
    order, which is random, those branches mispredict; an element's value does
    not depend on the order the elements are evaluated in.  So the angles are
    keyed by octant, 4 t / pi cast to uint8 mod 8, taken in key order by a
    stable counting sort, and the values scattered back.  The key only orders
    the work: the cast of a negative, huge or non-finite angle, which varies by
    platform, moves no bit and warns of nothing.  The outputs are new arrays of
    t's shape; t is not modified.
    """
    with np.errstate(invalid="ignore"):
        key = (t * (4.0 / PI)).astype(np.uint8)
    key &= 7
    order = np.argsort(key, axis=None, kind="stable")
    del key
    ts = t.take(order)
    sn = np.sin(ts)
    np.cos(ts, out=ts)
    c = np.empty_like(ts)
    c[order] = ts
    ts[order] = sn  # the cosines are in c, so ts takes the sines
    return c.reshape(t.shape), ts.reshape(t.shape)


def _pushed_angles(a, b, c, d, ts) -> np.ndarray:
    """arctan2 of [[a, b], [c, d]] (cos t, sin t), before wrapping, elementwise over
    entry arrays and an angle array of one shape: one numpy call per step, and an
    element's bits do not depend on the array it sits in."""
    x, y = np.cos(ts), np.sin(ts)
    return np.arctan2(c * x + d * y, a * x + b * y)


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """A direction in RP^1, stored as an angle in [0, pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", _wrap(_real("angle", self.angle)))

    def vector(self) -> tuple[float, float]:
        """The unit representative with angle in [0, pi)."""
        return math.cos(self.angle), math.sin(self.angle)


def _svd_raw(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """(s_max, s_min, left, right) with M = R(left) diag(s_max, s_min) R(right).

    Closed form: with E=(a+d)/2, F=(a-d)/2, G=(c+b)/2, H=(c-b)/2 the
    singular values are hypot(E,H) +- hypot(F,G), left = (a2+a1)/2 and
    right = (a2-a1)/2 for a1 = atan2(G,F), a2 = atan2(H,E).  Assumes
    det >= 0.  Note the right factor is R(right), not its transpose, so
    the most-expanded input direction has angle -right.
    """
    e = 0.5 * (a + d)
    f = 0.5 * (a - d)
    g = 0.5 * (c + b)
    h = 0.5 * (c - b)
    q = math.hypot(e, h)
    r = math.hypot(f, g)
    s_max = q + r
    s_min = q - r
    a1 = math.atan2(g, f)
    a2 = math.atan2(h, e)
    left = 0.5 * (a2 + a1)
    right = 0.5 * (a2 - a1)
    return s_max, s_min, left, right
