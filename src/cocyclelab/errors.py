"""Failure modes that callers are expected to branch on.

Plain ValueError is reserved for malformed arguments (bad ranges, wrong
shapes).  The classes below mark conditions that are legitimate outcomes
of a computation rather than caller mistakes.  _integral and _real are
the checks every layer runs on numeric inputs: they accept a number and
never coerce a bool or a string into one.
"""

import math

import numpy as np


def _integral(name: str, v) -> int:
    """v as an int if it is an integral number; never truncates."""
    if type(v) is int:
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _real(name: str, v) -> float:
    """v as a float if it is a finite int, float or numpy real; never a bool."""
    if type(v) is float and math.isfinite(v):
        return v
    if isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int past the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite real number, got {v!r}")


class NumericOverflowError(ArithmeticError):
    """A matrix product or partial sum left the representable range.

    Long unscaled products of expanding matrices overflow around
    n ~ 700 / lyapunov_exponent; callers should switch to scaled products.
    """


class NoHyperbolicityError(RuntimeError):
    """Singular-value gap of a finite product too small to certify a splitting."""

    def __init__(self, gap: float, required: float):
        super().__init__(
            f"singular value ratio {gap:.3g} below required {required:.3g}; "
            "no reliable stable direction at this depth"
        )
        self.gap = gap
        self.required = required


class LeafMismatchError(ValueError):
    """Two backward itineraries do not lie on one local unstable leaf."""


class HolonomyDivergedError(RuntimeError):
    """A holonomy limit failed its Cauchy criterion within the depth budget."""


class ResolutionError(RuntimeError):
    """A grid too coarse to certify its result; refine it.

    A projective loop's winding count is only trustworthy when consecutive
    samples move by less than pi/4 in the projective metric; a grid-scanned
    separation certificate is only positive once the grid outruns its
    Lipschitz correction.
    """


class DegreeCheckError(RuntimeError):
    """Winding counts from independent reference vectors disagree."""
