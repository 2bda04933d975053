"""Exact-ish SL(2,R) arithmetic and the induced projective circle action.

Mat2 is the validated det = 1 type for inputs and single evaluations:
it renormalizes by sqrt(det) at construction.  A valid Mat2 costs one
determinant: within DET_TOL of 1 the entries are kept as given.  Only the
rest are checked for finiteness and renormalized, after an exact
power-of-two scale when det over- or underflows.  Value types,
here and across the package, are slotted frozen dataclasses, with no
per-instance __dict__.  Computed products are kept as raw entries (_mul)
or as cocycle.ScaledMatrix, not as chains of Mat2: for a product of
large matrices the determinant is cancellation noise.  _mul_stacked is
_mul's twin for entries stacked in one (2, 2, ...) array, with _mul's
bits; it serves cocycle._reduce only.  Directions in
RP^1 are angles in [0, pi); each rule on them is written once, here, on
floats or arrays: the wrap (_wrap), the signed shorter-arc step (_arc),
the metric min(|p - q|, pi - |p - q|) (_dist) and the angle of
M (cos t, sin t) (_pushed_angle, one float).  ProjPoint is the validated
scalar type; projective loops carry plain float arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, _real

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
        # one determinant decides a valid matrix: a non-finite entry makes it inf or nan
        if abs(self.a * self.d - self.b * self.c - 1.0) <= DET_TOL:
            return
        a, b, c, d = _renorm(self.a, self.b, self.c, self.d)
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
    def rotation(angle: float) -> "Mat2":
        c, s = math.cos(angle), math.sin(angle)
        return Mat2(c, -s, s, c)

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(*(_real("matrix entry", v) for v in (a, b, c, d)))

    def to_rows(self) -> list[list[float]]:
        return [[self.a, self.b], [self.c, self.d]]

    def inverse(self) -> "Mat2":
        # adjugate; det is already 1
        return Mat2(self.d, -self.b, -self.c, self.a)

    def trace(self) -> float:
        return self.a + self.d

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return self.a * x + self.b * y, self.c * x + self.d * y

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return mat_product(self, other)


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


def mat_product(m1: Mat2, m2: Mat2) -> Mat2:
    """m1 @ m2.  Raises NumericOverflowError if entries leave float range."""
    return Mat2(*_mul(m1.a, m1.b, m1.c, m1.d, m2.a, m2.b, m2.c, m2.d))


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


def _pushed_angle(m: Mat2, t: float) -> float:
    """atan2 of m (cos t, sin t), before wrapping."""
    x, y = math.cos(t), math.sin(t)
    return math.atan2(m.c * x + m.d * y, m.a * x + m.b * y)


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """A direction in RP^1, stored as an angle in [0, pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", _wrap(_real("angle", self.angle)))

    @staticmethod
    def from_vector(x: float, y: float) -> "ProjPoint":
        if x == 0.0 and y == 0.0:
            raise ValueError("zero vector has no direction")
        return ProjPoint(math.atan2(y, x))

    def vector(self) -> tuple[float, float]:
        """The unit representative with angle in [0, pi)."""
        return math.cos(self.angle), math.sin(self.angle)


def proj_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Projective metric; bounded by pi/2."""
    return float(_dist(p.angle, q.angle))


def projective_action(m: Mat2, p: ProjPoint) -> ProjPoint:
    return ProjPoint(_pushed_angle(m, p.angle))


def projective_derivative(m: Mat2, p: ProjPoint) -> float:
    """Derivative of the circle map induced by m at p, in the angle metric.

    For det = 1 this is 1 / |m v|^2 with v the unit representative; it lies
    in [cond(m)^-1, cond(m)] where cond = |m| |m^-1|.
    """
    x, y = p.vector()
    wx, wy = m.apply(x, y)
    return 1.0 / (wx * wx + wy * wy)


@dataclass(frozen=True, slots=True)
class SvdPair:
    """Singular data of a Mat2: s_max >= 1 >= s_min > 0 with s_max*s_min = 1,
    u_dir the left (image) direction of s_max, v_dir the right one."""

    s_max: float
    s_min: float
    u_dir: ProjPoint
    v_dir: ProjPoint


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


def svd2(m: Mat2) -> SvdPair:
    """Closed-form SVD.  u_dir = direction of m v_max, v_dir = direction v_max."""
    s_max, s_min, left, right = _svd_raw(m.a, m.b, m.c, m.d)
    return SvdPair(s_max, s_min, ProjPoint(left), ProjPoint(-right))


def is_hyperbolic(m: Mat2, tol: float = 1e-9) -> bool:
    """|trace| > 2 + tol: real eigenvalues off the unit circle."""
    return abs(m.a + m.d) > 2.0 + tol
