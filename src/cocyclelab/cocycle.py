"""SL(2,R) cocycles A(x) = A0 R(2 pi g(x)) over x -> kx mod 1.

The twist g is an integer winding plus a real trigonometric polynomial,
so the family is closed under composing with further rotations; that is
what makes the perturbation model below exact rather than approximate.

Lyapunov exponents are estimated two independent ways: vector norm
growth along random orbits, and the negative fiber average of
phi(x, v) = log |A(x) v| over the stable direction field.  Random
orbits are simulated through base-k digit streams (orbit_from_digits);
iterating the float map directly would shed mantissa bits and silently
sample the wrong invariant measure.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .circle import ExpandingMap, _orbit, orbit_from_digits, window_width
from .errors import NoHyperbolicityError, NumericOverflowError, _integral, _real
from .sl2 import Mat2, ProjPoint, _cos_sin, _mul, _mul_stacked, _s_max, _svd_raw, op_norm

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

DEFAULT_SEED = 31415926

# orbit points per array pass in the product loops; bounds their scratch memory
_BLOCK = 4096
# norm-growth samples reduced together, one row each; memory grows with it
_ROWS = 4
# a full norm-growth block runs its own levels down to _NARROW matrices per row,
# then up to _BATCH such blocks finish together (_block_products)
_NARROW = 64
_BATCH = 8
# bytes of the never-written array dropped before norm growth; see lyapunov_norm_growth
_HEAP_CHUNK = 1 << 20
_BITS = struct.Struct("4d").pack  # the exact bits of entries (a, b, c, d), _ladder's key


def rng_from(*keys) -> np.random.Generator:
    """Deterministic generator from a path of non-negative integers.

    Nested tuples flatten, so rng_from((seed, trial), 3) and
    rng_from(seed, trial, 3) agree.  Distinct paths give independent
    streams; this is the only seeding convention used in the package.
    A component is never truncated: a bool, a string or a non-integral
    float raises ValueError.
    """
    flat: list[int] = []
    stack = list(keys)
    while stack:
        k = stack.pop(0)
        if isinstance(k, (tuple, list)):
            stack = list(k) + stack
        else:
            v = _integral("seed component", k)
            if v < 0:
                raise ValueError("seed components must be non-negative")
            flat.append(v)
    if not flat:
        raise ValueError("empty seed path")
    return np.random.default_rng(flat)


@dataclass(frozen=True, slots=True)
class TwistTerm:
    """One trigonometric term amp * sin(2 pi freq x + phase)."""

    freq: int
    amp: float
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "freq", _integral("frequency", self.freq))
        if self.freq < 1:
            raise ValueError(f"frequency must be a positive integer, got {self.freq!r}")
        object.__setattr__(self, "amp", _real("amp", self.amp))
        object.__setattr__(self, "phase", _real("phase", self.phase))


@dataclass(frozen=True, slots=True)
class CocycleSpec:
    """A(x) = base . R(2 pi g(x)), g(x) = winding*x + sum of twist terms.

    winding is the degree of x -> R(2 pi g(x)) as a circle-valued map;
    trig terms alone cannot carry degree.  theta is the Holder exponent
    the bunching test is run against (1 = Lipschitz).
    """

    base: Mat2
    winding: int = 0
    terms: tuple[TwistTerm, ...] = ()
    theta: float = 1.0
    # _trig_sum's Horner plan: the terms in descending frequency as (step, w), step the
    # frequency less the next term's (the last term's own frequency; 0 for a shared
    # one) and w = amp cos phase + i amp sin phase, built once here, not per call;
    # derived in __post_init__, so replace() rebuilds it
    _plan: tuple[tuple[int, complex], ...] = field(init=False, repr=False, compare=False)
    # tree levels per pull in _reduce, from the sup norm; derived likewise
    _pull_every: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "winding", _integral("winding", self.winding))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "theta", _real("theta", self.theta))
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"Holder exponent theta must be in (0, 1], got {self.theta}")
        terms = sorted(self.terms, key=lambda t: t.freq, reverse=True)
        plan = []
        for t, lower in zip(terms, [t.freq for t in terms[1:]] + [0]):
            plan.append((t.freq - lower, complex(t.amp * math.cos(t.phase),
                                                 t.amp * math.sin(t.phase))))
        object.__setattr__(self, "_plan", tuple(plan))
        object.__setattr__(self, "_pull_every", _pull_period(op_norm(self.base)))

    def twist(self, x: float) -> float:
        g = self.winding * x
        if self._plan:
            a = TWO_PI * x
            g = g + _trig_sum(self._plan, math.cos(a), math.sin(a))
        return g

    def twist_gap(self, x: float, delta: float) -> float:
        """g(x + delta) - g(x) to full relative accuracy in delta.

        Uses sin(a+h) - sin(a) = 2 cos(a + h/2) sin(h/2); the naive
        difference of two twist values loses all significant digits once
        delta drops below 1e-8, which backward orbits reach by depth ~9.
        """
        g = self.winding * delta
        for t in self.terms:
            hf = math.pi * t.freq * delta
            g += 2.0 * t.amp * math.cos(math.pi * t.freq * (2.0 * x + delta) + t.phase) * math.sin(hf)
        return g

    def twist_lipschitz(self) -> float:
        return abs(self.winding) + sum(abs(t.amp) * TWO_PI * t.freq for t in self.terms)

    def sup_norm(self) -> float:
        """sup_x |A(x)|; right rotation factors do not move singular values."""
        return op_norm(self.base)

    def lipschitz(self) -> float:
        """A Lipschitz constant for x -> A(x) in operator norm."""
        return self.sup_norm() * TWO_PI * self.twist_lipschitz()


def _pull_period(sigma: float) -> int:
    """The largest L >= 1 with 2^L log2(max(sigma, sqrt 2)) <= 256, for sigma = sup |A|.

    A node multiplies about 2^L leaves or pulled nodes since the last pull, so
    its squared entries stay below about 2^512.  Tested exactly, as sigma <=
    2^(2^(8 - L)): sigma <= 2 gives 8 (the float sqrt 2 is above the real one).
    """
    every = 8
    while every > 1 and sigma > 2.0 ** 2 ** (8 - every):
        every -= 1
    return every


def _cis_power(c, s, n: int):
    """(cos, sin)(n t) from (c, s) = (cos, sin)(t) for n >= 1, by binary powering."""
    pc = ps = None
    while True:
        if n & 1:
            pc, ps = (c, s) if pc is None else (pc * c - ps * s, pc * s + ps * c)
        n >>= 1
        if not n:
            return pc, ps
        c, s = c * c - s * s, 2.0 * c * s


def _trig_sum(plan, c, s):
    """sum of amp sin(2 pi f x + phase) over a plan, from (c, s) = (cos, sin)(2 pi x).

    The sum is Im sum_j w_j z^(f_j), with z = c + i s and w_j = amp e^(i phase),
    and Horner's rule over the descending plan forms it with one complex product
    per term: add w_j, then multiply by z^step (_cis_power across a gap), so one
    sine and cosine per point serve every term.  At a float that is Python's
    complex arithmetic.  An array runs the same operations on real pairs in four
    work arrays, in the order CPython's complex product uses (re pc - im ps,
    im pc + re ps), so each element gets the float call's bits; numpy's complex
    multiply may be fused and is not bitwise Python's.  c and s are not modified.
    """
    if isinstance(c, float):
        z, acc = complex(c, s), 0j
        for step, w in plan:
            acc = acc + w
            if step:
                acc = acc * (z if step == 1 else complex(*_cis_power(c, s, step)))
        return acc.imag
    step, w = plan[0]
    # 0.0 + w.real is the float call's first sum 0j + w, which takes -0.0 to 0.0
    re, im = np.full_like(c, 0.0 + w.real), np.full_like(c, 0.0 + w.imag)
    t, u = np.empty_like(c), np.empty_like(c)
    for term in plan[1:]:
        if step:
            pc, ps = (c, s) if step == 1 else _cis_power(c, s, step)
            np.multiply(re, pc, out=t)
            np.multiply(im, ps, out=u)
            t -= u
            np.multiply(im, pc, out=u)
            np.multiply(re, ps, out=im)
            im += u
            re, t = t, re
        step, w = term
        re += w.real
        im += w.imag
    # the lowest term's product needs only its imaginary part
    pc, ps = (c, s) if step == 1 else _cis_power(c, s, step)
    np.multiply(re, ps, out=re)
    np.multiply(im, pc, out=im)
    im += re
    return im


def full_twist_spec(base: Mat2) -> CocycleSpec:
    """The canonical degree-one family A(x) = base . R(2 pi x)."""
    return CocycleSpec(base=base, winding=1, terms=())


def spec_to_json(spec: CocycleSpec) -> dict:
    return {
        "base": spec.base.to_rows(),
        "winding": spec.winding,
        "twist": [{"freq": t.freq, "amp": t.amp, "phase": t.phase} for t in spec.terms],
        "theta": spec.theta,
    }


def spec_from_json(data: dict) -> CocycleSpec:
    try:
        # a misspelt key would otherwise fall back to its default without a word
        unknown = sorted(set(data) - {"base", "winding", "twist", "theta"})
        unknown += sorted({f"twist.{key}" for t in data.get("twist", [])
                           for key in set(t) - {"freq", "amp", "phase"}})
        if unknown:
            raise ValueError(f"unknown cocycle description keys: {unknown}")
        base = Mat2.from_rows(data["base"])
        terms = tuple(
            TwistTerm(t["freq"], t["amp"], t.get("phase", 0.0))
            for t in data.get("twist", [])
        )
        return CocycleSpec(
            base=base,
            winding=data.get("winding", 0),
            terms=terms,
            theta=data.get("theta", 1.0),
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed cocycle description: {e}") from e


def evaluate(spec: CocycleSpec, x: float) -> tuple[float, float, float, float]:
    """The entries (a, b, c, d) of the cocycle matrix at x, as _entries gives them."""
    ang = TWO_PI * spec.twist(x)
    cs, sn = math.cos(ang), math.sin(ang)
    b = spec.base
    return _mul(b.a, b.b, b.c, b.d, cs, -sn, sn, cs)


def _angles(spec: CocycleSpec, xs: np.ndarray) -> np.ndarray:
    """TWO_PI * g(x) over an array or at a float, with CocycleSpec.twist's bits."""
    if isinstance(xs, float):
        return TWO_PI * spec.twist(xs)
    if not spec._plan:
        return TWO_PI * (spec.winding * xs)
    a = TWO_PI * xs
    c, s = _cos_sin(a)
    del a
    # _trig_sum, a block's peak on a twist with terms, runs with a freed and
    # before winding * xs is formed; addition commutes, so the bits hold
    g = _trig_sum(spec._plan, c, s)
    del c, s
    g += spec.winding * xs
    g *= TWO_PI  # in place on an array: multiplication commutes too
    return g


def _entries(spec: CocycleSpec, xs: np.ndarray):
    """The entries (a, b, c, d) of A(x) = base . R(2 pi g(x)) over an array xs.

    At a float x (a numpy float64 too) they are floats from math.cos and math.sin,
    which give np.cos's and np.sin's bits: an array element's (sl2._cos_sin's), and
    evaluate's.
    """
    ang = _angles(spec, xs)
    cs, sn = (math.cos(ang), math.sin(ang)) if isinstance(xs, float) else _cos_sin(ang)
    del ang  # one array fewer while the entries are built, a norm-growth block's peak
    b = spec.base
    # evaluate's _mul(b.a, b.b, b.c, b.d, cs, -sn, sn, cs) in place, with its bits
    # (x - y*z is x + y*(-z)): no -sn array or sum temporaries are held
    ea, eb, ec, ed = cs * b.a, cs * b.b, cs * b.c, cs * b.d
    ea += sn * b.b
    eb -= sn * b.a
    ec += sn * b.d
    ed -= sn * b.c
    return ea, eb, ec, ed


def _evaluated_entries(spec: CocycleSpec, xs: np.ndarray):
    """_entries(spec, xs)'s four arrays, each of xs's shape, with their bits, from one
    counted evaluate call per point of xs in C order; grid loops take their entries here."""
    flat = np.fromiter(chain.from_iterable(map(evaluate, repeat(spec), xs.ravel().tolist())),
                       np.float64, 4 * xs.size)
    return tuple(np.moveaxis(flat.reshape(*xs.shape, 4), -1, 0))


# -- scaled products ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScaledMatrix:
    """A matrix product held as exp(log_scale) * M with |M|_F = sqrt(2).

    The true product has det = 1, so det(M) = exp(-2 log_scale); singular
    value ratios of M equal those of the true product.  _reduce pulls its
    root to norm sqrt(2), though not every level below it.
    """

    a: float
    b: float
    c: float
    d: float
    log_scale: float

    def stable_direction(self, min_gap: float) -> ProjPoint:
        """The input direction most contracted by the product.

        Raises NoHyperbolicityError unless s_max/s_min, inf once s_min
        underflows, is at least min_gap.
        """
        s_max, s_min, _, right = _svd_raw(self.a, self.b, self.c, self.d)
        gap = s_max / s_min if s_min > 0.0 else math.inf
        if not gap >= min_gap:
            raise NoHyperbolicityError(gap, min_gap)
        return ProjPoint(-right + 0.5 * math.pi)


def _product_step(ma, mb, mc, md, logs, ea, eb, ec, ed):
    # left-multiply by E = [[ea,eb],[ec,ed]], then pull Frobenius norm to sqrt(2)
    na, nb, nc, nd = _mul(ea, eb, ec, ed, ma, mb, mc, md)
    fr = math.sqrt(na * na + nb * nb + nc * nc + nd * nd)
    if not fr > 0.0 or not math.isfinite(fr):
        raise NumericOverflowError("degenerate step in scaled product")
    inv = SQRT2 / fr
    return na * inv, nb * inv, nc * inv, nd * inv, logs + math.log(fr / SQRT2)


def _pull(p):
    """Scale each matrix of the stack p to Frobenius norm sqrt(2), in place.

    Returns the log of each matrix's scale over sqrt(2).  The squared norm
    is summed entry by entry, in _product_step's order: a reduction over
    the outer axis of the (4, ...) squares adds them left to right.
    """
    fr = np.add.reduce(np.square(p.reshape((4,) + p.shape[2:])))
    np.sqrt(fr, out=fr)
    p *= SQRT2 / fr
    fr /= SQRT2
    return np.log(fr, out=fr)


def _reduce(ea, eb, ec, ed, every: int):
    """E[..., n-1] ... E[..., 0] for n >= 1 along the last axis, by pairwise halving.

    Returns (a, b, c, d, log_scale) over the leading axes, each product
    exp(log_scale) [[a, b], [c, d]].  A pair's later (odd-indexed) matrix is
    its left factor and its log the sum of its halves'; an odd leftover
    carries up unchanged.  Levels whose index (from 1) every divides, and the
    root's, are pulled to Frobenius norm sqrt(2), the scale's log joining the
    pair's (_pull_period keeps the levels between from overflowing).  Every
    row takes the same tree, so it gets the bits of a 1-D call.  _first_level,
    _levels and _root split the work for _block_products.  A zero, infinite
    or NaN entry reaches the next pull as a log of -inf, inf or NaN, and all
    logs sum into the root, so one finiteness test there finds it.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m, logs, _ = _levels(*_first_level(ea, eb, ec, ed, every), every)
        return _root(m, logs)


def _first_level(ea, eb, ec, ed, every: int):
    """_reduce's first level: the four entry arrays into one (2, 2, ...) stack of
    pair products (empty for n = 1) and their logs, never copying the entries
    into a full-size stack.  Before the first pull every log is 0, and logs is
    None.  Call it under _reduce's errstate."""
    n = ea.shape[-1]
    h = n & ~1
    m = np.array(_mul(ea[..., 1:h:2], eb[..., 1:h:2], ec[..., 1:h:2], ed[..., 1:h:2],
                      ea[..., :h:2], eb[..., :h:2], ec[..., :h:2], ed[..., :h:2]))
    m = m.reshape((2, 2) + m.shape[1:])
    # n <= 2 is the root's level; at n = 1 it pulls no pair and gives the logs' shape
    logs = _pull(m) if every == 1 or n <= 2 else None
    if h < n:
        last = np.array(((ea[..., -1:], eb[..., -1:]), (ec[..., -1:], ed[..., -1:])))
        m = np.concatenate((m, last), axis=-1)
        if logs is not None:
            logs = np.concatenate((logs, np.zeros(logs.shape[:-1] + (1,))), axis=-1)
    return m, logs


def _levels(m, logs, every: int, level: int = 1, width: int = 1):
    """_reduce's later levels on the stack m after its level-th, until it holds
    at most width matrices along the last axis; returns (m, logs, level), logs
    None until the first pull, as _first_level's.  Call it under _reduce's
    errstate."""
    while m.shape[-1] > width:
        n = m.shape[-1]
        h = n & ~1
        level += 1
        p = _mul_stacked(m[..., 1:h:2], m[..., :h:2])
        level_log = None if logs is None else logs[..., 1:h:2] + logs[..., :h:2]
        if level % every == 0 or n == 2:
            pulled = _pull(p)  # with no logs yet, 0 + pulled: its bits, as no log is -0.0
            level_log = pulled if level_log is None else np.add(level_log, pulled, out=level_log)
        if h < n:
            p = np.concatenate((p, m[..., -1:]), axis=-1)
            if level_log is not None:
                last = np.zeros(level_log.shape[:-1] + (1,)) if logs is None else logs[..., -1:]
                level_log = np.concatenate((level_log, last), axis=-1)
        m, logs = p, level_log
    return m, logs, level


def _root(m, logs):
    """(a, b, c, d, log_scale) of a fully reduced stack, after one finiteness test."""
    if not np.isfinite(logs).all():
        raise NumericOverflowError("degenerate step in scaled product")
    return m[0, 0, ..., 0], m[0, 1, ..., 0], m[1, 0, ..., 0], m[1, 1, ..., 0], logs[..., 0]


def _product_of_blocks(spec: CocycleSpec, blocks) -> ScaledMatrix:
    """Scaled product of A over consecutive orbit blocks (first point first): each
    block reduced by _reduce on its entry arrays, then folded in by _product_step."""
    ma, mb, mc, md, logs = 1.0, 0.0, 0.0, 1.0, 0.0
    for xs in blocks:
        ea, eb, ec, ed, block_log = map(float, _reduce(
            *_entries(spec, np.asarray(xs, dtype=np.float64)), spec._pull_every))
        ma, mb, mc, md, logs = _product_step(ma, mb, mc, md, logs + block_log, ea, eb, ec, ed)
    return ScaledMatrix(ma, mb, mc, md, logs)


def cocycle_product(spec: CocycleSpec, m: ExpandingMap, x: float, n: int) -> ScaledMatrix:
    """A^n(x) = A(f^{n-1}x) ... A(x) as a ScaledMatrix, stable to n = 10^7.

    The base orbit is the true float orbit of x; for k a power of two this
    is the exact orbit of the dyadic rational x denotes.  It is generated
    and multiplied out _BLOCK points at a time, so memory stays flat in n.

    A float orbit that reaches a fixed point x* of x -> (k x) % 1.0 stays
    there: for k a power of two every orbit reaches 0, after ceil(p/log2 k)
    steps when the lowest set bit of x is 2^-p (p <= 1074).  Each block is
    grown by doubling, 1, 2, 4, ... points, until it is full or its last
    point is fixed; then the orbit stops at its first visit to x*.  That
    block's head before x* (at most 4 points on a section's grid at k = 8)
    folds in one _product_step per point, and the r steps left are A(x*)^r,
    left-multiplied by binary powering through _ladder's cached squares (the
    4096 seed products of a section at k = 8 share two ladders).  The head
    and A(x*) take _entries' float path and build no numpy scalar.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"point {x} outside [0, 1)")
    k = float(m.k)
    fixed = None  # (head before x*, x*, steps left at x*) once the orbit settles

    def blocks(x):
        nonlocal fixed
        for lo in range(0, n, _BLOCK):
            size = min(_BLOCK, n - lo)
            xs, start = [x], 0
            while (y := (k * x) % 1.0) != x and len(xs) < size:
                start = len(xs)
                xs += [x := (k * x) % 1.0 for _ in range(min(start, size - start))]
            if y == x:
                i = xs.index(x, start)
                fixed = (xs[:i], y, n - lo - i)
                return
            x = y
            yield xs

    p = _product_of_blocks(spec, blocks(x))
    if fixed is None:
        return p
    head, x, r = fixed
    ma, mb, mc, md, logs = p.a, p.b, p.c, p.d, p.log_scale
    for h in head:
        ma, mb, mc, md, logs = _product_step(ma, mb, mc, md, logs, *_entries(spec, h))
    for ea, eb, ec, ed, e_log in _ladder(_BITS(*_entries(spec, x)), r.bit_length()):
        if r & 1:
            ma, mb, mc, md, logs = _product_step(ma, mb, mc, md, logs + e_log, ea, eb, ec, ed)
        r >>= 1
    return ScaledMatrix(ma, mb, mc, md, logs)


@functools.lru_cache(maxsize=32)
def _ladder(bits: bytes, depth: int) -> tuple:
    """A^(2^j), j < depth, as (a, b, c, d, log_scale) by scaled squaring, for
    the A whose entries _BITS packed: specs that compare equal can differ in
    the sign of a zero base entry, and so in A(x*)'s bits."""
    rungs = [(*struct.unpack("4d", bits), 0.0)]
    while len(rungs) < depth:
        ea, eb, ec, ed, e_log = rungs[-1]
        rungs.append(_product_step(ea, eb, ec, ed, e_log + e_log, ea, eb, ec, ed))
    return tuple(rungs)


def _product_along(spec: CocycleSpec, xs) -> ScaledMatrix:
    """Scaled product of A over an explicit orbit segment (first entry first)."""
    return _product_of_blocks(spec, (xs[lo:lo + _BLOCK] for lo in range(0, len(xs), _BLOCK)))


# -- Lyapunov estimators ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LyapunovEstimate:
    value: float
    std_error: float
    n_steps: int
    n_samples: int
    seed: object
    method: str
    degenerate: bool = False

    def to_dict(self) -> dict:
        seed = list(self.seed) if isinstance(self.seed, (tuple, list)) else self.seed
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_steps": self.n_steps,
            "n_samples": self.n_samples,
            "seed": seed,
            "method": self.method,
            "degenerate": self.degenerate,
        }


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _block_products(spec: CocycleSpec, k: int, digits: np.ndarray, start: int, stop: int):
    """The product of each block of orbit steps start .. stop - 1, in order.

    digits holds one stream per row; each block yields (a, b, c, d, log_scale)
    over the rows, with _reduce's bits.  Full _BLOCK blocks go in batches of
    up to _BATCH: each runs its wide levels alone, down to _NARROW matrices per
    row, in one expression that frees its arrays before the next block; then
    the batch runs its narrow levels together along a new axis, from the wide
    levels' count, so they cost their numpy calls once.  A last, shorter block
    goes to _reduce.
    """
    every = spec._pull_every
    # the narrow stacks of a batch, allocated before any block so that they
    # do not split the heap the blocks' scratch arrays reuse
    m = np.empty((2, 2, _BATCH, digits.shape[0], _NARROW))
    logs = np.empty((_BATCH, digits.shape[0], _NARROW))
    tail = stop - (stop - start) % _BLOCK
    for lo in range(start, tail, _BATCH * _BLOCK):
        batch = range(lo, min(lo + _BATCH * _BLOCK, tail), _BLOCK)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for j, b in enumerate(batch):
                m[:, :, j], wide_logs, level = _levels(
                    *_first_level(*_entries(spec, _orbit(k, digits[:, b:], _BLOCK)), every),
                    every, width=_NARROW)
                logs[j] = 0.0 if wide_logs is None else wide_logs
            narrow, narrow_logs, _ = _levels(m[:, :, :len(batch)], logs[:len(batch)], every, level)
            root = _root(narrow, narrow_logs)
        yield from zip(*root)
    if tail < stop:
        yield _reduce(*_entries(spec, _orbit(k, digits[:, tail:], stop - tail)), every)


def _norm_growth_group(spec: CocycleSpec, k: int, n_steps: int, burn_in: int,
                       rngs: list[np.random.Generator]) -> list[float]:
    """One norm-growth value per generator, the samples advanced in lockstep.

    Each generator draws its digit stream and then its starting angle.  The
    stream is drawn in chunks of at most _BLOCK digits, which give the bits
    of one draw of the whole stream, straight into its row of one
    (samples, steps + w) array of the smallest unsigned dtype that holds
    k - 1: one byte per step for k <= 256, and no int64 copy of the whole
    stream.  _block_products turns it into block products, each block's
    orbit one _orbit call over every row; the vectors then take the
    products in order, so the bits are those of one _reduce call per block.
    """
    w = window_width(k)
    total = burn_in + n_steps
    digits = np.empty((len(rngs), total + w), dtype=np.min_scalar_type(k - 1))
    vs = []
    for ds, rng in zip(digits, rngs):
        for lo in range(0, ds.size, _BLOCK):
            ds[lo:lo + _BLOCK] = rng.integers(0, k, size=min(_BLOCK, ds.size - lo))
        theta0 = rng.random() * math.pi
        vs.append((math.cos(theta0), math.sin(theta0)))

    # sum log |A(x_j) v_j| over the counted steps block by block: it telescopes,
    # so log|M v| of each block product M = exp(log_scale) [[a, b], [c, d]] is
    # the block's share; no block straddles the burn-in.
    acc = [0.0] * len(rngs)
    for start, stop, counted in ((0, burn_in, False), (burn_in, total, True)):
        for block in _block_products(spec, k, digits, start, stop):
            rows = zip(*(v.tolist() for v in block))
            for i, (a, b, c, d, log_scale) in enumerate(rows):
                vx, vy = vs[i]
                wx = a * vx + b * vy
                wy = c * vx + d * vy
                nrm = math.sqrt(wx * wx + wy * wy)
                if counted:
                    acc[i] += log_scale + math.log(nrm)
                vs[i] = (wx / nrm, wy / nrm)
    return [s / n_steps for s in acc]


def lyapunov_norm_growth(spec: CocycleSpec, m: ExpandingMap, n_steps: int,
                         n_samples: int = 32, seed=DEFAULT_SEED,
                         burn_in: int | None = None) -> LyapunovEstimate:
    """Mean per-step log growth of a unit vector over random orbits.

    Each sample follows an independent Lebesgue-random orbit (digit-stream
    simulation) from an independent random starting direction; a short
    burn-in lets the vector align before averaging starts.  Bitwise
    reproducible for a fixed seed.
    """
    n_steps, n_samples = _integral("n_steps", n_steps), _integral("n_samples", n_samples)
    if n_steps < 1 or n_samples < 1:
        raise ValueError("n_steps and n_samples must be >= 1")
    if burn_in is None:
        burn_in = min(100, max(1, n_steps // 10))
    burn_in = _integral("burn_in", burn_in)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")

    # glibc maps a request above its mmap threshold (128 KiB at start-up) and
    # trims free heap above its trim threshold, so each block's arrays (~1.1 MB,
    # most 128 KiB or just above) would be mapped and faulted in afresh.  numpy
    # takes this array straight from malloc, glibc maps it, and freeing that
    # mapping raises the two thresholds to its size and twice that (mallopt(3)),
    # so the blocks reuse the heap.  It is never written: no page faults.  It
    # is traced like any array, so it stays below a run's own traced peak.
    np.empty(_HEAP_CHUNK, dtype=np.uint8)
    values = []
    for lo in range(0, n_samples, _ROWS):
        rngs = [rng_from(seed, i) for i in range(lo, min(lo + _ROWS, n_samples))]
        values += _norm_growth_group(spec, m.k, n_steps, burn_in, rngs)
    mean, se = _mean_stderr(values)
    return LyapunovEstimate(mean, se, n_steps, n_samples, seed, "norm_growth")


def phi(spec: CocycleSpec, x: float, p: ProjPoint) -> float:
    """log |A(x) v| for the unit representative v of p."""
    vx, vy = p.vector()
    a, b, c, d = evaluate(spec, x)
    return math.log(math.hypot(a * vx + b * vy, c * vx + d * vy))


def oseledets_stable_direction(spec: CocycleSpec, m: ExpandingMap, x: float,
                               n: int = 256, min_gap: float = 1e3) -> ProjPoint:
    """The most-contracted input direction of A^n(x), a proxy for E^s(x).

    Requires the singular value ratio of the finite product to certify a
    gap of at least min_gap, else raises NoHyperbolicityError.  The base
    orbit is the float orbit of x (exact for k a power of two); the
    direction error from orbit truncation decays like the square of the
    contraction, so modest n already pins E^s to near machine precision.
    """
    return cocycle_product(spec, m, x, n).stable_direction(min_gap)


def _furstenberg_sample(spec: CocycleSpec, m: ExpandingMap, n_direction: int,
                        rng: np.random.Generator) -> float:
    w = window_width(m.k)
    digits = rng.integers(0, m.k, size=n_direction + w)
    xs = orbit_from_digits(m.k, digits, n_direction)
    return -phi(spec, float(xs[0]), _product_along(spec, xs).stable_direction(1e3))


def lyapunov_furstenberg(spec: CocycleSpec, m: ExpandingMap, n_direction: int = 256,
                         n_samples: int = 32, seed=DEFAULT_SEED) -> LyapunovEstimate:
    """Space average of -phi(x, E^s(x)) over random x.

    The stable direction is a function of the forward orbit alone, so a
    finite product of length n_direction determines it; lambda is then
    minus the fiber average of phi over the stable field.  If any sample
    fails the hyperbolicity gap the cocycle is flagged degenerate and the
    estimate reported as 0.
    """
    n_direction = _integral("n_direction", n_direction)
    n_samples = _integral("n_samples", n_samples)
    if n_direction < 8 or n_samples < 1:
        raise ValueError("need n_direction >= 8 and n_samples >= 1")

    try:
        values = [_furstenberg_sample(spec, m, n_direction, rng_from(seed, i))
                  for i in range(n_samples)]
    except NoHyperbolicityError:
        return LyapunovEstimate(0.0, 0.0, n_direction, n_samples, seed,
                                "furstenberg", degenerate=True)
    mean, se = _mean_stderr(values)
    return LyapunovEstimate(mean, se, n_direction, n_samples, seed, "furstenberg")


# -- C0 geometry of the family ------------------------------------------------


class C0Gap(NamedTuple):
    grid: float
    certified: float


def c0_distance(s1: CocycleSpec, s2: CocycleSpec, grid_n: int = 4096) -> C0Gap:
    """sup_x |A(x) - B(x)| by grid scan plus a Lipschitz overshoot bound."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    best = 0.0
    for j in range(grid_n):
        x = j / grid_n
        a1, b1, c1, d1 = evaluate(s1, x)
        a2, b2, c2, d2 = evaluate(s2, x)
        s_max = _s_max(a1 - a2, b1 - b2, c1 - c2, d1 - d2)
        if s_max > best:
            best = s_max
    pad = (s1.lipschitz() + s2.lipschitz()) * 0.5 / grid_n
    return C0Gap(best, best + pad)


class BunchingReport(NamedTuple):
    bunched: bool
    margin: float
    sup_certified: float
    sup_grid: float
    theta: float


def u_bunching_check(spec: CocycleSpec, m: ExpandingMap, theta: float | None = None,
                     grid_n: int = 4096) -> BunchingReport:
    """Fiber bunching against base expansion: sup |A||A^-1| sigma^-theta < 1.

    The sup is certified by a grid scan padded with the Lipschitz constant
    of x -> |A(x)||A(x)^-1|.  margin = 1 - certified value; bunched means
    the certified value is below 1, i.e. u-holonomies converge at rate
    margin-ish per backward level.
    """
    if theta is None:
        theta = spec.theta
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    grid_norm = 0.0
    for j in range(grid_n):
        grid_norm = max(grid_norm, _s_max(*evaluate(spec, j / grid_n)))
    # |A^-1| = |A| in SL(2); rounding is monotone, so squaring the largest
    # norm gives the largest square
    grid_cond = grid_norm * grid_norm
    la = spec.lipschitz()
    sup_norm = grid_norm + la * 0.5 / grid_n
    l_cond = 2.0 * sup_norm * la
    weight = m.sigma ** (-theta)
    sup_cert = (grid_cond + l_cond * 0.5 / grid_n) * weight
    return BunchingReport(sup_cert < 1.0, 1.0 - sup_cert, sup_cert, grid_cond * weight, theta)


def perturb(spec: CocycleSpec, epsilon: float, seed) -> CocycleSpec:
    """B = A . R(2 pi epsilon g) for a random trig polynomial with sup |g| <= 1.

    Rotations commute, so B stays inside the family: the perturbation just
    adds epsilon-scaled twist terms.  |B - A|_C0 <= 2 pi epsilon sup|A|.
    epsilon = 0 returns spec itself.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    if epsilon == 0.0:
        return spec
    rng = rng_from(seed)
    degree = 8
    amps = rng.uniform(-1.0, 1.0, size=degree)
    phases = rng.uniform(0.0, TWO_PI, size=degree)
    amps /= np.sum(np.abs(amps))
    new = tuple(
        TwistTerm(f + 1, epsilon * float(amps[f]), float(phases[f]))
        for f in range(degree)
    )
    return replace(spec, terms=spec.terms + new)
