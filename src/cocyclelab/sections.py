"""Projective sections over the circle and the degree obstruction.

An invariant projective section xi (an su-state candidate) must satisfy
xi(f(x)) = A(x) xi(x); comparing degrees of both sides as maps into RP^1
(a circle, so half-turns count) forces k deg(xi) = deg(xi) + d where d is
the twist degree of A.  Over one k-to-1 cover the same argument applies
with 2d.  When neither linear equation has an integer solution no
continuous invariant section can exist, which is the mechanism that keeps
these cocycles away from zero exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import ExpandingMap
from .cocycle import CocycleSpec, _evaluated_entries, oseledets_stable_direction, rng_from
from .errors import DegreeCheckError, NoHyperbolicityError, ResolutionError
from .sl2 import PI, _arc, _dist, _pushed_angles, _wrap

MAX_GAP = PI / 4.0


@dataclass(frozen=True, slots=True, eq=False)
class ProjectiveLoop:
    """Directions sampled at j/N, j = 0..N-1, as angles in [0, pi).

    N must be a power of two so refinement by doubling nests exactly.
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        n = s.shape[0]
        if s.ndim != 1 or n < 8 or n & (n - 1):
            raise ValueError("need a 1-d sample array whose length is a power of two >= 8")
        if not np.all(np.isfinite(s)):
            raise ValueError("non-finite loop samples")
        object.__setattr__(self, "samples", _wrap(s))

    @property
    def n(self) -> int:
        return int(self.samples.shape[0])

    def value(self, x):
        """Angle at x (float or array) by interpolation along the shorter projective arc."""
        return self._interpolate(*_interpolation(x, self.n))

    def _interpolate(self, j0, j1, w):
        s0 = self.samples[j0]  # value's apply step, on _interpolation's plan
        return _wrap(s0 + w * _arc(s0, self.samples[j1]))


def _interpolation(x, n: int):
    """value's plan at x on n samples: the indices of the samples around x and a weight."""
    t = np.mod(x, 1.0) * n
    j = np.floor(t).astype(np.int64)
    return j % n, (j + 1) % n, t - j  # x mod 1 can round up to 1.0


def winding_number(loop: ProjectiveLoop) -> int:
    """Degree of the loop as a map into RP^1; half-turns count as one.

    Lifts sample to sample by the nearest representative; a jump of pi/4
    or more aborts with ResolutionError since the lift is then unreliable
    (re-sample with n doubled).
    """
    steps = _arc(loop.samples, np.roll(loop.samples, -1))  # sample j to sample j + 1
    jumps = np.flatnonzero(np.abs(steps) >= MAX_GAP)
    if jumps.size:
        j = int(jumps[0])
        raise ResolutionError(
            f"projective jump {abs(steps[j]):.3f} >= pi/4 between samples "
            f"{j} and {(j + 1) % loop.n} of {loop.n}; refine the grid"
        )
    return int(round(float(np.sum(steps)) / PI))


def _push(spec: CocycleSpec, xs: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Angles of A(x) v(t) in [0, pi), one per point (x, t) of xs and angles in [0, pi)."""
    return _wrap(_pushed_angles(*_evaluated_entries(spec, xs), angles))


def _action_loop(spec: CocycleSpec, angle: float, grid_n: int) -> ProjectiveLoop:
    return ProjectiveLoop(_push(spec, np.arange(grid_n) / grid_n, np.full(grid_n, angle)))


def twist_degree(spec: CocycleSpec, grid_n: int = 4096, max_grid: int = 1 << 16) -> int:
    """Degree of x -> A(x) v in RP^1, checked over two reference vectors.

    The value is independent of v (the family of loops is a homotopy), so
    disagreement between v = e1 and v = e2 marks a genuine sampling bug.
    Refines the grid on ResolutionError up to max_grid.
    """
    n = grid_n
    while True:
        try:
            d1 = winding_number(_action_loop(spec, 0.0, n))
            d2 = winding_number(_action_loop(spec, 0.5 * PI, n))
        except ResolutionError:
            if 2 * n > max_grid:
                raise
            n *= 2
            continue
        if d1 != d2:
            raise DegreeCheckError(f"winding {d1} from e1 but {d2} from e2 at grid {n}")
        return d1


@dataclass(frozen=True, slots=True)
class ObstructionReport:
    """Solvability of the degree equations for invariant sections.

    single: k*m = m + d  over the base circle;
    pair:   k*m = m + 2d over the orientation double cover.
    Degrees are the exact rational solutions d/(k-1) and 2d/(k-1);
    a section can only exist when the relevant one is an integer.
    """

    k: int
    twist_degree: int
    single_section_solvable: bool
    single_degree: Fraction
    pair_section_solvable: bool
    pair_degree: Fraction
    obstructed: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "twist_degree": self.twist_degree,
            "single_section_solvable": self.single_section_solvable,
            "single_degree": str(self.single_degree),
            "pair_section_solvable": self.pair_section_solvable,
            "pair_degree": str(self.pair_degree),
            "obstructed": self.obstructed,
        }


def degree_obstruction(k: int, d: int) -> ObstructionReport:
    """Decide k*m = m + d and its double-cover variant over the integers."""
    if k < 2:
        raise ValueError("k must be >= 2")
    single = Fraction(d, k - 1)
    pair = Fraction(2 * d, k - 1)
    s_ok = single.denominator == 1
    p_ok = pair.denominator == 1
    return ObstructionReport(k, d, s_ok, single, p_ok, pair, not (s_ok or p_ok))


def stable_direction_loop(spec: CocycleSpec, m: ExpandingMap, grid_n: int = 4096,
                          direction_steps: int = 256) -> ProjectiveLoop:
    """Finite-time stable directions over a grid; constant loop if no gap."""
    samples = np.empty(grid_n)
    try:
        for j in range(grid_n):
            samples[j] = oseledets_stable_direction(
                spec, m, j / grid_n, n=direction_steps
            ).angle
    except NoHyperbolicityError:
        samples[:] = 0.0
    return ProjectiveLoop(samples)


def section_consistency_search(spec: CocycleSpec, m: ExpandingMap,
                               grid_n: int = 4096, n_iterations: int = 40,
                               direction_steps: int = 256, seed=None,
                               init: ProjectiveLoop | None = None) -> tuple[ProjectiveLoop, float]:
    """Best-effort search for a continuous section with xi(fx) = A(x) xi(x).

    Seeds from the finite-time stable directions (constant loop if the
    cocycle shows no gap), optionally jitters the seed, then repeatedly
    re-selects xi(y) <- A(x) xi(x) through inverse branch 0.  The returned
    residual is the sup over grid points y of the projective spread of the
    current value of xi(y) together with its k branch updates
    A(x_d) xi(x_d), f(x_d) = y; it can only vanish if a genuine invariant
    continuous section exists, so a residual bounded away from zero across
    seeds is evidence of obstruction.
    """
    if grid_n < 8 or grid_n & (grid_n - 1):
        raise ValueError("grid_n must be a power of two >= 8")
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")

    if init is None:
        init = stable_direction_loop(spec, m, grid_n, direction_steps)
    elif init.n != grid_n:
        raise ValueError("init loop grid does not match grid_n")
    loop = init
    if seed is not None:
        loop = ProjectiveLoop(init.samples + rng_from(seed).uniform(-0.3, 0.3, size=grid_n))

    xs = np.arange(grid_n) / grid_n / m.k  # inverse branch 0
    plan = _interpolation(xs, grid_n)
    for _ in range(n_iterations):
        loop = ProjectiveLoop(_push(spec, xs, loop._interpolate(*plan)))

    return loop, section_residual(spec, m, loop)


def section_residual(spec: CocycleSpec, m: ExpandingMap, loop: ProjectiveLoop) -> float:
    """sup over grid points of the spread of {xi(y)} u {A(x) xi(x): f(x) = y}."""
    ys = np.arange(loop.n) / loop.n
    cands = [loop.samples]
    spread = np.zeros(loop.n)
    for d in range(m.k):  # one branch at a time keeps memory at k + 1 columns
        xs = (ys + d) / m.k
        new = _push(spec, xs, loop.value(xs))
        for c in cands:
            spread = np.maximum(spread, _dist(new, c))
        cands.append(new)
    return float(np.max(spread))
