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

import ctypes
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .circle import ExpandingMap, _orbit, orbit_from_digits, window_width
from .errors import NoHyperbolicityError, NumericOverflowError, _integral, _real
from .sl2 import Mat2, ProjPoint, _mul, _mul_stacked, _s_max, _svd_raw, op_norm

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

DEFAULT_SEED = 31415926

# orbit points per array pass in the product loops; bounds their scratch memory
_BLOCK = 4096
# longest orbit block reduced in Python floats (_reduce_short); from about 16
# points on an 8-term twist, and 32 on the example, _reduce is faster
_SHORT = 16
# norm-growth samples reduced together, one row each; memory grows with it
_ROWS = 4
# bytes of the C heap chunk freed before norm growth; see _keep_heap_resident
_HEAP_CHUNK = 4 << 20


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
    # the terms sorted by frequency as (frequency step, amp cos phase, amp sin phase),
    # which _trig_sum reads; derived in __post_init__, so replace() rebuilds it
    _plan: tuple[tuple[int, float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "winding", _integral("winding", self.winding))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "theta", _real("theta", self.theta))
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"Holder exponent theta must be in (0, 1], got {self.theta}")
        plan, f = [], 0
        for t in sorted(self.terms, key=lambda t: t.freq):
            plan.append((t.freq - f, t.amp * math.cos(t.phase), t.amp * math.sin(t.phase)))
            f = t.freq
        object.__setattr__(self, "_plan", tuple(plan))

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

    Each term is amp cos(phase) sin(2 pi f x) + amp sin(phase) cos(2 pi f x).
    (cos, sin)(2 pi f x) advances from term to term by complex products on
    real pairs, so one sine and cosine per point serve every term.  c and s
    may be floats or arrays: every operation is elementwise and unfused, so
    an array element gets the bits of the float call.
    """
    total, fc, fs = 0.0, 1.0, 0.0
    for step, ac, as_ in plan:
        if step:
            pc, ps = (c, s) if step == 1 else _cis_power(c, s, step)
            fc, fs = fc * pc - fs * ps, fc * ps + fs * pc
        total = total + (ac * fs + as_ * fc)
    return total


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
    """TWO_PI * g(x) over an array or at a float, by CocycleSpec.twist's expression and bits."""
    g = spec.winding * xs
    if spec._plan:
        a = TWO_PI * xs
        g = g + _trig_sum(spec._plan, np.cos(a), np.sin(a))
    return TWO_PI * g


def _entries(spec: CocycleSpec, xs: np.ndarray):
    """The entries (a, b, c, d) of A(x) = base . R(2 pi g(x)) over an array xs.

    At a float x they are numpy scalars: numpy's scalar ufuncs run the
    loops its array calls run, so they carry the bits of an array element.
    """
    ang = _angles(spec, xs)
    cs, sn = np.cos(ang), np.sin(ang)
    b = spec.base
    return _mul(b.a, b.b, b.c, b.d, cs, -sn, sn, cs)


# -- scaled products ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScaledMatrix:
    """A matrix product held as exp(log_scale) * M with |M|_F = sqrt(2).

    The true product has det = 1, so det(M) = exp(-2 log_scale); singular
    value ratios of M equal those of the true product.
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
    is summed entry by entry, in _product_step's order.
    """
    a, b, c, d = p[0, 0], p[0, 1], p[1, 0], p[1, 1]
    fr = a * a
    fr += b * b
    fr += c * c
    fr += d * d
    np.sqrt(fr, out=fr)
    p *= SQRT2 / fr
    fr /= SQRT2
    return np.log(fr, out=fr)


def _reduce(ea, eb, ec, ed):
    """E[..., n-1] ... E[..., 0] for n >= 1 along the last axis, by pairwise halving.

    Returns (a, b, c, d, log_scale) as arrays over the leading axes, each
    product being exp(log_scale) times [[a, b], [c, d]].  At each level the
    later (odd-indexed) matrix of a pair is the left factor; each pair
    product is pulled to Frobenius norm sqrt(2) and the log of that scale
    joins the sum of its halves' logs.  An odd leftover carries to the next
    level unchanged.  Every row is reduced by the same tree, so a row gives
    the same bits as a 1-D call on it.

    The first level multiplies the four entry arrays into one (2, 2, ...)
    stack of pair products (for n = 1 it is empty and the lone matrix is
    the leftover); every later level works on that stack.  The entries are
    never copied into a full-size stack, which would only add to the ~1.5 MB
    of arrays a (4, 4096) block allocates and frees; _keep_heap_resident is
    what keeps those pages in the C heap from block to block.  A zero,
    infinite or NaN norm at any level makes its log -inf, inf or NaN, and
    every log is summed into the root, so one finiteness test on the root
    logs finds it.
    """
    n = ea.shape[-1]
    h = n & ~1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = np.array(_mul(ea[..., 1:h:2], eb[..., 1:h:2], ec[..., 1:h:2], ed[..., 1:h:2],
                          ea[..., :h:2], eb[..., :h:2], ec[..., :h:2], ed[..., :h:2]))
        m = m.reshape((2, 2) + m.shape[1:])
        logs = _pull(m)
        if h < n:
            last = np.array(((ea[..., -1:], eb[..., -1:]), (ec[..., -1:], ed[..., -1:])))
            m = np.concatenate((m, last), axis=-1)
            logs = np.concatenate((logs, np.zeros(logs.shape[:-1] + (1,))), axis=-1)
        while m.shape[-1] > 1:
            n = m.shape[-1]
            h = n & ~1
            p = _mul_stacked(m[..., 1:h:2], m[..., :h:2])
            level_log = _pull(p)
            level_log += logs[..., 1:h:2] + logs[..., :h:2]
            if h < n:
                p = np.concatenate((p, m[..., -1:]), axis=-1)
                level_log = np.concatenate((level_log, logs[..., -1:]), axis=-1)
            m, logs = p, level_log
    if not np.isfinite(logs).all():
        raise NumericOverflowError("degenerate step in scaled product")
    return m[0, 0, ..., 0], m[0, 1, ..., 0], m[1, 0, ..., 0], m[1, 1, ..., 0], logs[..., 0]


def _reduce_short(ms):
    """_reduce on a short list ms of entry tuples (a, b, c, d), in Python floats.

    _reduce's bitwise twin, as sl2._mul_stacked is _mul's: the same tree
    (the odd-indexed matrix the left factor through _mul, an odd leftover
    carried with log 0.0), each node's squared norm summed in _pull's
    order, and every log from one np.log call on the collected norms,
    since math.log does not always give np.log's bits.  A zero, infinite
    or NaN norm raises before it divides.  For the few points a settled
    orbit leaves, this skips _reduce's per-call array overhead; it goes
    once stable_direction_loop batches its rows through _reduce (ROADMAP
    items 2 and 4).
    """
    n = len(ms)
    norms = []
    while len(ms) > 1:
        level = []
        for i in range(1, len(ms), 2):
            a, b, c, d = _mul(*ms[i], *ms[i - 1])
            fr = math.sqrt(a * a + b * b + c * c + d * d)
            if not 0.0 < fr < math.inf:
                raise NumericOverflowError("degenerate step in scaled product")
            inv = SQRT2 / fr
            level.append((a * inv, b * inv, c * inv, d * inv))
            norms.append(fr / SQRT2)
        ms = level + ms[len(ms) & ~1:]
    logs = iter(np.log(norms).tolist())
    tree = [0.0] * n
    while len(tree) > 1:
        tree = [next(logs) + (tree[i] + tree[i - 1]) for i in range(1, len(tree), 2)] \
            + tree[len(tree) & ~1:]
    return (*ms[0], tree[0])


def _product_of_blocks(spec: CocycleSpec, blocks) -> ScaledMatrix:
    """Scaled product of A over consecutive orbit blocks (first point first).

    A block of at most _SHORT points is reduced by _reduce_short on the
    entries of each point (_entries on a float runs numpy's scalar ufuncs,
    the loops the array path runs), a longer one by _reduce on entry
    arrays; the two give the same bits.
    """
    ma, mb, mc, md, logs = 1.0, 0.0, 0.0, 1.0, 0.0
    for xs in blocks:
        if len(xs) <= _SHORT:
            block = _reduce_short([tuple(map(float, _entries(spec, x))) for x in xs])
        else:
            block = map(float, _reduce(*_entries(spec, np.asarray(xs, dtype=np.float64))))
        ea, eb, ec, ed, block_log = block
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
    point is fixed; then the orbit stops at its first visit to x*, and the
    r steps left are A(x*)^r, left-multiplied by binary powering in about
    2 log2 r scalar steps.  The head before x* is often a short block,
    which _product_of_blocks reduces in Python floats with _reduce's bits.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"point {x} outside [0, 1)")
    k = float(m.k)
    fixed = None  # (x*, steps left at x*) once the orbit settles

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
                fixed = (y, n - lo - i)
                if i:
                    yield xs[:i]
                return
            x = y
            yield xs

    p = _product_of_blocks(spec, blocks(x))
    if fixed is None:
        return p
    x, r = fixed
    ea, eb, ec, ed = map(float, _entries(spec, x))
    ma, mb, mc, md, logs, e_log = p.a, p.b, p.c, p.d, p.log_scale, 0.0
    while True:
        if r & 1:
            ma, mb, mc, md, logs = _product_step(ma, mb, mc, md, logs + e_log, ea, eb, ec, ed)
        r >>= 1
        if not r:
            return ScaledMatrix(ma, mb, mc, md, logs)
        ea, eb, ec, ed, e_log = _product_step(ea, eb, ec, ed, e_log + e_log, ea, eb, ec, ed)


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


def _keep_heap_resident() -> None:
    """Free one _HEAP_CHUNK-byte chunk through the C allocator, if there is one.

    glibc serves a request above its mmap threshold (128 KiB at start-up)
    from a fresh mapping, and hands free heap above its trim threshold back
    to the system.  A (4, 4096) norm-growth block allocates and frees ~1.5 MB
    of arrays, most of them just above 128 KiB, so without this every block
    maps and faults its pages in afresh.  Freeing a mapped chunk raises the
    two thresholds to its size and twice that (mallopt(3), dynamic mmap
    threshold), and the blocks then reuse the heap.  The chunk is never
    written, so it costs no page faults.  Another C allocator just frees it;
    where no C malloc is found this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
        malloc, free = libc.malloc, libc.free
    except (OSError, TypeError, AttributeError):
        return
    malloc.argtypes, malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
    free.argtypes, free.restype = (ctypes.c_void_p,), None
    free(malloc(_HEAP_CHUNK))


def _norm_growth_group(spec: CocycleSpec, k: int, n_steps: int, burn_in: int,
                       rngs: list[np.random.Generator]) -> list[float]:
    """One norm-growth value per generator, the samples advanced in lockstep.

    Each generator draws its digit stream and then its starting angle.  The
    stream is drawn in chunks of at most _BLOCK digits, which give the bits
    of one draw of the whole stream, straight into the smallest unsigned
    dtype that holds k - 1: one byte per step for k <= 256, and no int64
    copy of the whole stream.
    """
    w = window_width(k)
    total = burn_in + n_steps
    digits, vs = [], []
    for rng in rngs:
        ds = np.empty(total + w, dtype=np.min_scalar_type(k - 1))
        for lo in range(0, ds.size, _BLOCK):
            ds[lo:lo + _BLOCK] = rng.integers(0, k, size=min(_BLOCK, ds.size - lo))
        digits.append(ds)
        theta0 = rng.random() * math.pi
        vs.append((math.cos(theta0), math.sin(theta0)))

    # sum log |A(x_j) v_j| over the counted steps block by block: it telescopes,
    # so log|M v| of each block product M = exp(log_scale) [[a, b], [c, d]] is
    # the block's share; no block straddles the burn-in.  One _reduce call
    # takes the block of every sample, one row each.
    acc = [0.0] * len(rngs)
    for start, stop, counted in ((0, burn_in, False), (burn_in, total, True)):
        for lo in range(start, stop, _BLOCK):
            xs = np.stack([_orbit(k, ds[lo:], min(_BLOCK, stop - lo)) for ds in digits])
            rows = zip(*(v.tolist() for v in _reduce(*_entries(spec, xs))))
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
    if n_steps < 1 or n_samples < 1:
        raise ValueError("n_steps and n_samples must be >= 1")
    if burn_in is None:
        burn_in = min(100, max(1, n_steps // 10))
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")

    _keep_heap_resident()
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
