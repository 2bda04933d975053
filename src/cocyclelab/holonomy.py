"""Unstable holonomies of the cocycle over backward itineraries.

For two natural-extension points on one local unstable leaf (same branch
digits, nearby anchors) the u-holonomy is the limit of

    H_n = A^n_(y) . (A^n_(x))^{-1},   A^n_(z) = A(z_{-1}) ... A(z_{-n}),

which converges geometrically whenever the cocycle is fiber bunched.
Forming H_n directly is numerically hopeless: both factors grow like
exp(2 n lambda) and the limit is O(1), so float cancellation destroys all
digits beyond depth ~13.  Instead we accumulate the telescoping series

    H_n = I + sum_m P_{m-1}(y) [A(y_{-m}) A(x_{-m})^{-1} - I] P_{m-1}(x)^{-1}

with P held in scaled form (unit-size matrix + log scale) and the bracket
computed to relative accuracy from the twist increment: with
beta = 2 pi (g(y_{-m}) - g(x_{-m})),

    A(y) A(x)^{-1} - I = A0 (R(beta) - I) A0^{-1},

and R(beta) - I is evaluated through sin(beta) and -2 sin^2(beta/2).
Every term is then exact to relative rounding error and the series sums
without cancellation.

Stable holonomies of this family are trivial: points on one stable leaf
share the anchor, the cocycle matrix depends on the anchor alone, and the
defining limit telescopes to the identity at every finite depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circle import BackwardItinerary, ExpandingMap, shift_forward
from .cocycle import TWO_PI, CocycleSpec, _product_step, evaluate
from .errors import (HolonomyDivergedError, LeafMismatchError, NumericOverflowError,
                     _integral, _real)
from .sl2 import Mat2, _mul, _s_max


@dataclass(frozen=True, slots=True)
class HolonomyResult:
    """Outcome of a u-holonomy limit.

    h is the limit as a det-1 matrix when the Cauchy criterion was met;
    for a diverged limit it is the raw partial sum if that still looks
    like a group element, else None.  cauchy_residual is the operator
    norm of the last correction term, residuals the full trace of them.
    """

    h: Mat2 | None
    depth_used: int
    cauchy_residual: float
    converged: bool
    residuals: tuple[float, ...]


def _check_same_leaf(m: ExpandingMap, x_it: BackwardItinerary, y_it: BackwardItinerary):
    if x_it.k != m.k or y_it.k != m.k:
        raise ValueError("itineraries and map must share the same degree k")
    if x_it.digits != y_it.digits:
        raise LeafMismatchError("backward digits differ: not on one local unstable leaf")
    # the series contracts the real anchor gap y0 - x0, so a pair that is
    # close only across the seam at 0 is not on one local leaf
    if not abs(y_it.x0 - x_it.x0) < m.rho:
        raise LeafMismatchError(
            f"anchors {x_it.x0} and {y_it.x0} farther apart than the leaf radius {m.rho}"
        )


# the latest u_holonomy call: (spec, m, x_it, y_it, tol, max_depth, result) or None.
# The argument objects are held, so their ids stay theirs, and matched by identity:
# holonomy_equivariance_residual's "here" is the pair its caller has just walked.
# The result is a frozen value, so handing it out again is safe.  The slot goes
# once the work counters live in the package and the caller passes "here" in.
_last: tuple | None = None


def u_holonomy(spec: CocycleSpec, m: ExpandingMap, x_it: BackwardItinerary,
               y_it: BackwardItinerary, tol: float = 1e-8,
               max_depth: int = 60) -> HolonomyResult:
    """The unstable holonomy from the fiber over x_it to the fiber over y_it.

    Stops at the first depth whose correction term has operator norm at
    most tol (Cauchy criterion; no extrapolation).  Both itineraries must
    record at least max_depth digits, so non-convergence is a statement
    about the cocycle rather than about missing data; x_it's backward
    orbit (its preimages()) is walked only down to the depth used.  A call
    with the very objects (and equal tol, max_depth) of the latest one
    returns that call's result without walking the series again.
    """
    global _last
    max_depth = _integral("max_depth", max_depth)
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    tol = _real("tol", tol)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    last = _last
    if (last is not None and last[0] is spec and last[1] is m and last[2] is x_it
            and last[3] is y_it and last[4] == tol and last[5] == max_depth):
        return last[6]
    _last = None
    _check_same_leaf(m, x_it, y_it)
    if x_it.depth < max_depth or y_it.depth < max_depth:
        raise ValueError(f"need itineraries of depth >= {max_depth}")
    result = _walk(spec, m, x_it, y_it, tol, max_depth)
    _last = (spec, m, x_it, y_it, tol, max_depth, result)
    return result


def _walk(spec: CocycleSpec, m: ExpandingMap, x_it: BackwardItinerary,
          y_it: BackwardItinerary, tol: float, max_depth: int) -> HolonomyResult:
    """u_holonomy's series, on checked arguments."""
    # real (unwrapped) anchor gap: preimages under a shared branch digit
    # contract the real difference, y_{-m} - x_{-m} = (y0 - x0) / k^m
    delta = y_it.x0 - x_it.x0
    if delta == 0.0:
        return HolonomyResult(Mat2.identity(), 0, 0.0, True, ())

    # the adjugate of the det-1 base is its inverse
    b = spec.base
    ia, ib, ic, id_ = b.d, -b.b, -b.c, b.a

    # factored partial products P_m = A(z_{-1}) ... A(z_{-m}) = exp(s) * M
    xa, xb, xc, xd, sx = 1.0, 0.0, 0.0, 1.0, 0.0
    ya, yb, yc, yd, sy = 1.0, 0.0, 0.0, 1.0, 0.0

    ha, hb, hc, hd = 1.0, 0.0, 0.0, 1.0
    residuals: list[float] = []
    converged = False
    depth_used = max_depth

    for depth, xm in zip(range(1, max_depth + 1), x_it.preimages()):
        delta /= m.k

        # bracket: A0 (R(beta) - I) A0^{-1} at relative accuracy in delta
        beta = TWO_PI * spec.twist_gap(xm, delta)
        sn = math.sin(beta)
        cm1 = -2.0 * math.sin(0.5 * beta) ** 2
        bracket = _mul(*_mul(b.a, b.b, b.c, b.d, cm1, -sn, sn, cm1), ia, ib, ic, id_)

        # P_{m-1}(y) . bracket . P_{m-1}(x)^{-1}; the inverse of a scaled
        # det-1 product is exp(s) * adj(M)
        ca, cb, cc, cd = _mul(*_mul(ya, yb, yc, yd, *bracket), xd, -xb, -xc, xa)
        try:
            scale = math.exp(sx + sy)
        except OverflowError:
            raise NumericOverflowError("holonomy partial products overflowed") from None
        ca, cb, cc, cd = ca * scale, cb * scale, cc * scale, cd * scale

        res = _s_max(ca, cb, cc, cd)
        if not math.isfinite(res):
            raise NumericOverflowError("non-finite holonomy correction term")
        residuals.append(res)
        ha += ca
        hb += cb
        hc += cc
        hd += cd

        if res <= tol:
            converged = True
            depth_used = depth
            break

        # extend both factored products one level down the leaf: P <- P . A(z)
        ym = (xm + delta) % 1.0
        xa, xb, xc, xd, sx = _product_step(*evaluate(spec, xm), sx, xa, xb, xc, xd)
        ya, yb, yc, yd, sy = _product_step(*evaluate(spec, ym), sy, ya, yb, yc, yd)

    h = _as_group_element(ha, hb, hc, hd, converged)
    return HolonomyResult(h, depth_used, residuals[-1], converged, tuple(residuals))


def _as_group_element(a, b, c, d, converged: bool) -> Mat2 | None:
    det = a * d - b * c
    if converged:
        if abs(det - 1.0) > 1e-8:
            raise NumericOverflowError(
                f"converged holonomy drifted off SL(2): det = {det}"
            )
        return Mat2(a, b, c, d)
    if 0.5 < det < 2.0:
        return Mat2(a, b, c, d)
    return None


def holonomy_equivariance_residual(spec: CocycleSpec, m: ExpandingMap,
                                   x_it: BackwardItinerary, y_it: BackwardItinerary,
                                   tol: float = 1e-8, max_depth: int = 60) -> float:
    """Operator-norm defect of A(y) h_{x,y} = h_{fx,fy} A(x).

    Both holonomies come from u_holonomy: h_{x,y} is the result of the
    latest call when the caller has just made it with these objects (as
    cmd_holonomy does), and h_{fx,fy} is walked afresh over the shifted
    itineraries, so this still checks the limit end to end.  Raises
    HolonomyDivergedError if either limit misses its Cauchy criterion,
    and LeafMismatchError if the forward images split across an inverse
    branch boundary.
    """
    here = u_holonomy(spec, m, x_it, y_it, tol=tol, max_depth=max_depth)
    ahead = u_holonomy(spec, m, shift_forward(x_it), shift_forward(y_it),
                       tol=tol, max_depth=max_depth)
    if not (here.converged and ahead.converged):
        raise HolonomyDivergedError(
            "holonomy limit did not converge; equivariance residual undefined"
        )
    # per-point products stay raw entries: A(y) h and h' A(x) through _mul, no Mat2
    h, g = here.h, ahead.h
    la, lb, lc, ld = _mul(*evaluate(spec, y_it.x0), h.a, h.b, h.c, h.d)
    ra, rb, rc, rd = _mul(g.a, g.b, g.c, g.d, *evaluate(spec, x_it.x0))
    res = _s_max(la - ra, lb - rb, lc - rc, ld - rd)
    if not math.isfinite(res):
        raise NumericOverflowError("non-finite holonomy equivariance residual")
    return res
