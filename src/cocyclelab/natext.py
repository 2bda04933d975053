"""A smooth skew product realizing the natural extension of x -> kx mod 1.

On S^1 x D (D the open unit ball of R^N, N = 2k charts) define

    g(x, v) = (f(x), h(x)/(2N) + lam * v)

where h: S^1 -> [0,1]^N stacks smooth plateau bumps, one per chart, wide
enough that the k preimages of any point are separated: |h(x) - h(y)| >=
delta whenever f(x) = f(y), x != y.  With lam < delta/(4N) the k images
of the fiber map stay disjoint, g is a diffeomorphism onto its image, and
iterating g backward along an itinerary contracts the fiber at rate lam.
The limit point iota(x_hat) conjugates g to the shift on backward
itineraries: nested disks of radius lam^n pin it down, so a depth-n
itinerary determines iota to within lam^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circle import BackwardItinerary, ExpandingMap, apply_map, circle_distance, shift_backward
from .errors import ResolutionError

# aligned_anchor's 2^-49 lattice keeps x + d exact for digits d < k <= 8
MAX_ANCHOR_K = 8


def _plateau(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for t <= 0, 0 for t >= 1, exp-mollified between.

    Clamping t to [1e-3, 1 - 1e-3] (np.clip's values, NaN included, in two
    ufunc calls) moves no value: past either end one of the two
    exponentials underflows to exactly 0, so a / (a + b) is 1 or 0.
    """
    t = np.minimum(np.maximum(t, 1e-3), 1.0 - 1e-3)
    a = np.exp(-1.0 / (1.0 - t))
    b = np.exp(-1.0 / t)
    return a / (a + b)


# max |p'| of the plateau profile p, with a 5% margin.  The maximum is exactly
# 2, at t = 1/2: with s = t - 1/2 and w = 4s/(1 - 4s^2), p = (1 - tanh w)/2 and
#     |p'(t)| = 2(1 + 4s^2) / ((1 - 4s^2)^2 cosh^2 w),
# while (1 + 4s^2)/(1 - 4s^2)^2 = 1/(1 - 4s^2) + w^2/2 <= 1 + w^2 <= cosh^2 w
# (the first step is 4s^2/(1 - 4s^2) <= w^2/2, i.e. 1 - 4s^2 <= 2).
_PLATEAU_SLOPE = 2.0 * 1.05


@dataclass(frozen=True, slots=True)
class NatExtRealization:
    """The data of one realized extension; build with build_realization."""

    map: ExpandingMap
    n_charts: int
    centers: tuple[float, ...]
    r_inner: float
    r_outer: float
    delta: float
    lam: float
    # centers as a read-only float array, which the bump rows subtract;
    # derived in __post_init__, so replace() rebuilds it
    _centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        centers = np.array(self.centers, dtype=np.float64)
        centers.flags.writeable = False
        object.__setattr__(self, "_centers", centers)

    @property
    def ambient_dim(self) -> int:
        return 1 + self.n_charts

    def h(self, x: float) -> np.ndarray:
        """Bump vector at one circle point, shape (N,): h_many([x])[0], bit for bit."""
        return self._bumps(x - self._centers)

    def h_many(self, xs: np.ndarray) -> np.ndarray:
        """Bump vector rows for an array of circle points: shape (len, N)."""
        xs = np.asarray(xs, dtype=np.float64)
        return self._bumps(xs[:, None] - self._centers)

    def _bumps(self, offsets: np.ndarray) -> np.ndarray:
        """Plateau bumps of the offsets x - center, read as circle distances."""
        d = np.abs(np.mod(offsets + 0.5, 1.0) - 0.5)
        t = (d - self.r_inner) / (self.r_outer - self.r_inner)
        return _plateau(t)

    def fiber_step(self, x: float, v: np.ndarray) -> np.ndarray:
        """The fiber half of g.  apply_g and iota must share this op
        bitwise, or the conjugacy residual picks up rounding noise far
        above the lam^depth truncation term it is meant to measure."""
        return self.h(x) / (2.0 * self.n_charts) + self.lam * v


class EmbeddedPoint(NamedTuple):
    base: float
    fiber: np.ndarray


def build_realization(m: ExpandingMap, grid_n: int = 4096) -> NatExtRealization:
    """Choose chart layout and contraction rate for the map x -> kx.

    2k plateau bumps centered at i/(2k), full height inside radius 1/(4k),
    zero outside 3/(8k).  Plateaus of adjacent charts tile the circle, so
    any two distinct preimages x, y of one point (which sit 1/k apart, two
    chart spacings) activate disjoint chart sets and |h(x) - h(y)| >= sqrt 2
    at plateau points; delta is certified from a grid scan minus the
    Lipschitz overshoot, then lam = 0.9 * delta / (4N) < delta / (4N).
    """
    k = m.k
    n = 2 * k
    centers = tuple(i / n for i in range(n))
    r_in = 1.0 / (4.0 * k)
    r_out = 3.0 / (8.0 * k)

    real = NatExtRealization(m, n, centers, r_in, r_out, delta=1.0, lam=0.0)
    delta = separation_certificate(real, grid_n)
    if not delta > 0.0:
        raise ResolutionError(
            f"separation certificate {delta:.3g} not positive at grid {grid_n}; refine the grid"
        )
    lam = 0.9 * delta / (4.0 * n)
    return NatExtRealization(m, n, centers, r_in, r_out, delta, lam)


def separation_certificate(real: NatExtRealization, grid_n: int = 4096) -> float:
    """Certified lower bound for min |h(x) - h(y)| over f(x) = f(y), x != y.

    Grid minimum minus a Lipschitz correction: at any point at most one
    coordinate of h is mid-transition (transition bands of adjacent charts
    are disjoint), so the pair difference moves at most sqrt(2) * slope
    per unit of x.
    """
    k = real.map.k
    xs = np.arange(grid_n, dtype=np.float64) / grid_n
    hx = real.h_many(xs)
    worst = math.inf
    for j in range(1, k):
        hy = real.h_many(np.mod(xs + j / k, 1.0))
        gap = np.sqrt(np.sum((hx - hy) ** 2, axis=1))
        worst = min(worst, float(np.min(gap)))
    band = real.r_outer - real.r_inner
    lip = math.sqrt(2.0) * _PLATEAU_SLOPE / band
    return worst - lip * 0.5 / grid_n


def apply_g(real: NatExtRealization, x: float, v: np.ndarray) -> EmbeddedPoint:
    """One forward step of the skew product."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (real.n_charts,):
        raise ValueError(f"fiber point must have shape ({real.n_charts},)")
    nv = float(np.linalg.norm(v))
    if not nv < 1.0:
        raise ValueError(f"fiber point has norm {nv} >= 1, outside the open ball")
    fx = apply_map(real.map, x)
    return EmbeddedPoint(fx, real.fiber_step(x, v))


def iota(real: NatExtRealization, it: BackwardItinerary) -> EmbeddedPoint:
    """Embed a backward itinerary: the nested-disk limit point over its anchor.

    Computed by running the fiber contraction up the precomputed backward
    orbit from (x_{-depth}, 0); the true limit lies within lam^depth.  The
    base coordinate is read off the stored orbit instead of being pushed
    through f at each step: same map (inverse branches are exact right
    inverses), but no forward rounding drift feeding the bumps.
    """
    if it.k != real.map.k:
        raise ValueError("itinerary degree does not match the realization")
    pts = it.points()
    v = np.zeros(real.n_charts)
    for j in range(it.depth, 0, -1):
        v = real.fiber_step(pts[j], v)
    return EmbeddedPoint(it.x0, v)


def conjugacy_residual(real: NatExtRealization, it: BackwardItinerary) -> tuple[float, float]:
    """(residual, bound): |g(iota(f-hat^{-1} x_hat)) - iota(x_hat)|, bound lam^depth.

    Both embeddings are read off the same depth-d itinerary, the left side
    through its depth-(d-1) backward shift, so each lies within lam^d of
    the true iota image and the residual checks that apply_g really is the
    shift conjugated by iota.  The two finite evaluations share every
    fiber_step; with an anchor whose digit sums stay exactly representable
    (see aligned_anchor) the residual is exactly zero.
    """
    if it.depth < 1:
        raise ValueError("need depth >= 1")
    a = iota(real, it)
    b = iota(real, shift_backward(it))
    gb = apply_g(real, b.base, b.fiber)
    err = math.hypot(circle_distance(gb.base, a.base), float(np.linalg.norm(gb.fiber - a.fiber)))
    return err, real.lam**it.depth


def aligned_anchor(real: NatExtRealization, rng) -> float:
    """A uniform anchor from the 2^-49 lattice.

    On this lattice x + d is exactly representable for every digit d < k
    (k <= 8 needs 3 bits of headroom), so the stored backward orbit
    round-trips through f bitwise and conjugacy_residual measures the
    fiber identity alone rather than anchor quantization.
    """
    if real.map.k > MAX_ANCHOR_K:
        raise ValueError(f"anchor lattice leaves headroom only for k <= {MAX_ANCHOR_K}")
    return float(rng.integers(0, 2**49)) / 2.0**49
