"""Shared generators and assertions for the test suite."""

import math
from dataclasses import replace

import numpy as np

from cocyclelab import (BackwardItinerary, CocycleSpec, ExpandingMap, Mat2, ProjPoint,
                        full_twist_spec)
from cocyclelab.sl2 import _dist, _pushed_angles

BASE = Mat2.diagonal(2.0)


def example_spec() -> CocycleSpec:
    """diag(2, 1/2) composed with one full rotation per circle turn."""
    return full_twist_spec(BASE)


def with_pull_every(spec: CocycleSpec, every: int) -> CocycleSpec:
    """A copy of spec whose derived pull period is every, not its own."""
    spec = replace(spec)
    object.__setattr__(spec, "_pull_every", every)
    return spec


def example_map(k: int = 8) -> ExpandingMap:
    return ExpandingMap(k)


def rotation(angle: float) -> Mat2:
    """R(angle) = [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(angle), math.sin(angle)
    return Mat2(c, -s, s, c)


def random_sl2(rng: np.random.Generator, spread: float = 2.0) -> Mat2:
    """Haar-ish SL(2) sample: rotation * diag(s, 1/s) * rotation."""
    s = float(np.exp(rng.uniform(0.0, np.log(spread))))
    u = rotation(float(rng.uniform(0.0, 2.0 * np.pi)))
    w = rotation(float(rng.uniform(0.0, 2.0 * np.pi)))
    return u @ Mat2.diagonal(s) @ w


def as_array(m: Mat2) -> np.ndarray:
    return np.array(m.to_rows())


def det(m: Mat2) -> float:
    return m.a * m.d - m.b * m.c


def proj_distance(p: ProjPoint, q: ProjPoint) -> float:
    """The projective metric on ProjPoints, by sl2._dist; bounded by pi/2."""
    return float(_dist(p.angle, q.angle))


def projective_action(m: Mat2, p: ProjPoint) -> ProjPoint:
    """The direction of m v for v in the direction p, by sl2._pushed_angles."""
    return ProjPoint(_pushed_angles(m.a, m.b, m.c, m.d, np.array([p.angle]))[0])


def sample_unstable_neighbor(it: BackwardItinerary, offset: float) -> BackwardItinerary:
    """Same local unstable leaf: same digits, anchor shifted by offset.

    |offset| must stay below the leaf radius 1/(2k).
    """
    rho = 1.0 / (2.0 * it.k)
    if not abs(offset) < rho:
        raise ValueError(f"offset {offset} leaves the local leaf (radius {rho})")
    return BackwardItinerary(it.k, it.x0 + offset, it.digits)
