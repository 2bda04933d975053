"""Smooth skew-product model of the inverse limit: charts, embedding, conjugacy."""

import math

import numpy as np
import pytest

from cocyclelab import (
    BackwardItinerary,
    ExpandingMap,
    aligned_anchor,
    apply_g,
    apply_map,
    build_realization,
    circle_distance,
    conjugacy_residual,
    iota,
    rng_from,
    separation_certificate,
    shift_backward,
    shift_forward,
)
from cocyclelab.natext import _PLATEAU_SLOPE, _plateau

FROZEN_DELTA = {2: 1.4084130770586694, 8: 1.3910116211153922}


@pytest.fixture(scope="module")
def real8():
    return build_realization(ExpandingMap(8))


@pytest.fixture(scope="module")
def real2():
    return build_realization(ExpandingMap(2))


def random_itinerary(real, seed: int, depth: int = 20) -> BackwardItinerary:
    rng = rng_from(271, seed)
    x0 = aligned_anchor(real, rng)
    digits = tuple(int(d) for d in rng.integers(0, real.map.k, size=depth))
    return BackwardItinerary(real.map.k, x0, digits)


# -- chart layout ----------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 8])
def test_build_geometry(k, real2, real8):
    real = {2: real2, 8: real8}[k]
    assert real.n_charts == 2 * k
    assert real.ambient_dim == 2 * k + 1
    assert real.centers == tuple(i / (2 * k) for i in range(2 * k))
    assert real.r_outer < 1.0 / (2 * k)  # charts stay inside one leaf radius
    assert real.delta == pytest.approx(FROZEN_DELTA[k], abs=1e-12)
    assert 0.0 < real.lam == 0.9 * real.delta / (8.0 * k)
    assert real.lam < real.delta / (4.0 * real.n_charts)


def test_plateaus_cover_the_circle(real8):
    # every point lies in the full-height plateau of some chart, so the
    # largest bump coordinate is exactly 1 everywhere
    xs = rng_from(11).random(500)
    h = real8.h_many(xs)
    assert np.all(np.max(h, axis=1) == 1.0)
    assert np.all((0.0 <= h) & (h <= 1.0))


def test_bump_profile(real8):
    c = real8.centers[3]
    assert real8.h(c)[3] == 1.0
    assert real8.h((c + real8.r_inner * 0.999) % 1.0)[3] == 1.0
    assert real8.h((c + real8.r_outer) % 1.0)[3] == 0.0
    # monotone decay across the transition band
    ds = np.linspace(real8.r_inner, real8.r_outer, 50)
    vals = [real8.h((c + d) % 1.0)[3] for d in ds]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k", [2, 8])
def test_h_is_the_row_of_h_many_bitwise(k, real2, real8):
    # fiber_step takes h(x), the separation certificate h_many; both rows
    # come from one bump body, so a point's bump vector has one value
    real = {2: real2, 8: real8}[k]
    edges = [(c + s * r) % 1.0 for c in real.centers for s in (-1.0, 1.0)
             for r in (real.r_inner, real.r_outer)]
    xs = [0.0, math.nextafter(1.0, 0.0), *edges, *rng_from(31, k).random(2000).tolist()]
    for x in xs:
        got, want = real.h(x), real.h_many([x])[0]
        assert got.shape == (real.n_charts,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), x


def special_wraps() -> np.ndarray:
    """Points y of (-0.5, 1.5) where a wrap to [0, 1) could go wrong: signed
    zeros, the ends, 1.0, 0.5 and their floating-point neighbours."""
    ys = [-0.0, 0.0, -0.5, 0.5, 1.0, 1.5, 5e-324, -5e-324]
    ys += [math.nextafter(y, to) for y in ys for to in (-math.inf, math.inf)]
    return np.array([y for y in ys if -0.5 <= y < 1.5])


@pytest.mark.parametrize("k", [2, 8])
def test_bumps_match_the_np_mod_formula_bitwise(k, real2, real8):
    """_bumps wraps y = offset + 0.5 with y - floor(y); the bump rows first
    computed with np.mod(y, 1.0) must come out with the same bits, on the
    special wraps, small negative y (offsets just below -0.5, down to where
    the sum rounds to 0) and y just above 1, whose wrap rounds once."""
    real = {2: real2, 8: real8}[k]
    rng = rng_from(43, k)
    offsets = np.concatenate([special_wraps() - 0.5, rng.uniform(-1.0, 1.0, size=20_000),
                              -0.5 - 10.0 ** -rng.uniform(0.5, 320.0, size=10_000),
                              0.5 + 10.0 ** -rng.uniform(1.0, 17.0, size=10_000)])
    edges = np.array([s * r for s in (-1.0, 1.0) for r in (real.r_inner, real.r_outer)])
    offsets = np.concatenate([offsets, edges, np.nextafter(edges, -1.0), np.nextafter(edges, 1.0),
                              edges - 1.0, edges + 1.0])
    offsets = offsets[(-1.0 < offsets) & (offsets < 1.0)].reshape(-1, 1) + np.zeros(real.n_charts)
    d = np.abs(np.mod(offsets + 0.5, 1.0) - 0.5)
    want = _plateau((d - real.r_inner) / (real.r_outer - real.r_inner))
    assert np.array_equal(real._bumps(offsets).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k", [2, 8])
def test_separation_certificate_is_a_lower_bound(k, real2, real8):
    """Brute-force the branch-pair gap on a finer grid than the certificate
    used; the certified value must stay below every observed gap."""
    real = {2: real2, 8: real8}[k]
    cert = separation_certificate(real, 4096)
    assert cert > 0.0
    n = 16384
    xs = np.arange(n) / n
    hx = real.h_many(xs)
    observed = math.inf
    for j in range(1, k):
        hy = real.h_many(np.mod(xs + j / k, 1.0))
        observed = min(observed, float(np.min(
            np.sqrt(np.sum((hx - hy) ** 2, axis=1)))))
    assert cert <= observed
    assert cert >= 0.9 * observed  # and it is not drastically pessimistic


def masked_plateau(t: np.ndarray) -> np.ndarray:
    """The plateau profile as first written, one boolean mask per regime, NaN to NaN."""
    t = np.asarray(t, dtype=np.float64)
    out = np.full_like(t, math.nan)
    out[t <= 0.0] = 1.0
    out[t >= 1.0] = 0.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / (1.0 - tm))
        b = np.exp(-1.0 / tm)
    out[mid] = a / (a + b)
    return out


def test_plateau_matches_the_masked_formula_bitwise():
    rng = rng_from(14)
    tiny = 10.0 ** -rng.uniform(3.0, 320.0, size=100_000)  # down to subnormals
    t = np.concatenate([
        rng.uniform(-0.5, 1.5, size=300_000),
        rng.uniform(-1e-3, 0.0, size=50_000),
        rng.uniform(1.0, 1.0 + 1e-3, size=50_000),
        rng.uniform(0.0, 2e-3, size=200_000),
        1.0 - rng.uniform(0.0, 2e-3, size=200_000),
        np.linspace(0.0, 1.0, 100_001),
        tiny, 1.0 - tiny, -tiny, 1.0 + tiny,
        [0.0, -0.0, 1.0, 1e-3, 1.0 - 1e-3, 2e-3, 1.0 - 2e-3, 5e-324, -5e-324,
         math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), -math.inf, math.inf,
         math.nan, -math.nan],
    ])
    assert t.size >= 1_000_000
    got, want = _plateau(t), masked_plateau(t)
    # NaN maps to NaN (its payload bits are numpy's business); the rest to the bit
    nan = np.isnan(t)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def plateau_slope(t: np.ndarray) -> np.ndarray:
    """|p'(t)| = 2(1 + 4s^2) / ((1 - 4s^2)^2 cosh^2 w), s = t - 1/2, w = 4s/(1 - 4s^2),
    with 1/cosh^2 w written as 4e / (1 + e)^2, e = exp(-2|w|), so nothing overflows."""
    s = t - 0.5
    q = 1.0 - 4.0 * s * s
    e = np.exp(-2.0 * np.abs(4.0 * s / q))
    return 2.0 * (1.0 + 4.0 * s * s) / (q * q) * (4.0 * e / (1.0 + e) ** 2)


def test_plateau_slope_is_two_at_the_midpoint_and_at_most_two_elsewhere():
    t = np.linspace(0.0, 1.0, 2_000_001)[1:-1]
    assert np.max(plateau_slope(t)) <= 2.0
    assert plateau_slope(np.array([0.5]))[0] == 2.0
    # the closed form agrees with the profile's own difference quotients
    mid = np.linspace(0.01, 0.99, 9801)
    h = 1e-6
    fd = (_plateau(mid - h) - _plateau(mid + h)) / (2.0 * h)
    assert np.allclose(fd, plateau_slope(mid), rtol=1e-6, atol=1e-9)
    # the grid scan the certificate used to run finds the same maximum
    g = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
    scanned = float(np.max(np.abs(np.diff(_plateau(g))))) / (g[1] - g[0])
    assert 2.0 * (1.0 - 1e-9) <= scanned <= 2.0 * (1.0 + 1e-9)
    assert _PLATEAU_SLOPE == 2.0 * 1.05


# -- the skew product -------------------------------------------------------------

def test_apply_g_guards(real8):
    with pytest.raises(ValueError):
        apply_g(real8, 0.3, np.zeros(5))
    with pytest.raises(ValueError):
        apply_g(real8, 0.3, np.full(16, 0.25))  # norm 1, not inside the ball
    p = apply_g(real8, 0.3, np.zeros(16))
    assert p.base == apply_map(real8.map, 0.3)


def test_fiber_contraction_rate(real8):
    """g moves the base and contracts fiber differences by exactly lam."""
    rng = rng_from(12)
    for _ in range(20):
        x = float(rng.random())
        v1 = rng.uniform(-0.2, 0.2, size=16)
        v2 = rng.uniform(-0.2, 0.2, size=16)
        d1 = apply_g(real8, x, v1).fiber - apply_g(real8, x, v2).fiber
        assert np.allclose(d1, real8.lam * (v1 - v2), rtol=0, atol=1e-16)


def test_fixed_point_of_g(real2):
    """The all-zero itinerary over x = 0 embeds to the attracting fixed
    point of g over the fixed point of doubling."""
    it = BackwardItinerary(2, 0.0, (0,) * 40)
    got = iota(real2, it)
    want = real2.h(0.0) / (2.0 * real2.n_charts * (1.0 - real2.lam))
    assert np.allclose(got.fiber, want, rtol=1e-12, atol=0)
    img = apply_g(real2, 0.0, got.fiber)
    assert img.base == 0.0
    assert np.allclose(img.fiber, got.fiber, rtol=1e-12, atol=0)


# -- the embedding ------------------------------------------------------------------

def folded_fiber(real, it: BackwardItinerary) -> np.ndarray:
    """iota's fiber as first written: one h(x) per level, folded deepest first."""
    pts = it.points()
    v = np.zeros(real.n_charts)
    for j in range(it.depth, 0, -1):
        v = real.fiber_step(real.h(pts[j]), v)
    return v


@pytest.mark.parametrize("k", [2, 8])
def test_iota_is_the_per_level_fold_bitwise(k, real2, real8):
    """iota takes its bump rows from one h_many call; its fiber must carry the
    bits of the fold that calls h once per level, on random itineraries and on
    ones whose points sit on plateau edges, where the bumps leave saturation."""
    real = {2: real2, 8: real8}[k]
    rng = rng_from(97, k)
    its = [random_itinerary(real, seed=s, depth=d) for s in range(40) for d in (0, 1, 7, 20)]
    edges = [(c + s * r) % 1.0 for c in real.centers for s in (-1.0, 1.0)
             for r in (real.r_inner, real.r_outer)]
    for x in edges + [math.nextafter(x, 2.0) for x in edges]:
        digits = tuple(int(d) for d in rng.integers(0, k, size=12))
        it = BackwardItinerary(k, x, digits)
        for _ in range(3):  # the edge point moves into the folded levels
            it = shift_forward(it)
            its.append(it)
    for it in its:
        got = iota(real, it)
        assert got.base == it.x0
        assert got.fiber.tobytes() == folded_fiber(real, it).tobytes(), it


def test_iota_depth_control(real2):
    """A depth-d itinerary pins its embedding to within lam^d: every deeper
    continuation of its digits lands in that ball."""
    it = BackwardItinerary(2, 0.25, (0, 1, 0, 1, 0))
    shallow = iota(real2, it).fiber
    rng = rng_from(5)
    for _ in range(20):
        deeper = it.digits + tuple(int(d) for d in rng.integers(0, 2, size=35))
        deep = iota(real2, BackwardItinerary(2, 0.25, deeper)).fiber
        gap = float(np.linalg.norm(deep - shallow))
        assert 0.0 < gap <= real2.lam**5
    with pytest.raises(ValueError):
        iota(real2, BackwardItinerary(8, 0.25, (0,) * 5))


@pytest.mark.parametrize("k", [2, 8])
def test_digit_differences_separate_embeddings(k, real2, real8):
    """Changing the level-j digit moves the embedding by about
    lam^{j-1} delta / (2N): the deeper the disagreement, the closer the
    points, but never closer than half the certified separation scale."""
    real = {2: real2, 8: real8}[k]
    n2 = 2.0 * real.n_charts
    rng = rng_from(313, k)
    for j in range(1, 11):
        x0 = aligned_anchor(real, rng)
        digits = [int(d) for d in rng.integers(0, k, size=14)]
        other = list(digits)
        other[j - 1] = (digits[j - 1] + 1) % k
        a = iota(real, BackwardItinerary(k, x0, tuple(digits)))
        b = iota(real, BackwardItinerary(k, x0, tuple(other)))
        gap = float(np.linalg.norm(a.fiber - b.fiber))
        scale = real.lam ** (j - 1) / n2
        assert gap >= 0.5 * real.delta * scale
        # per level at most 4 coordinates differ, each by at most 1
        assert gap <= 2.0 * scale / (1.0 - real.lam)


def test_embedding_is_injective_in_bulk(real8):
    """10^4 itineraries over a deliberately coarse anchor lattice (forcing
    same-anchor collisions); every same-anchor pair must separate by at
    least the certified amount for its first digit disagreement."""
    rng = rng_from(929)
    n, depth = 10_000, 20
    anchors = rng.integers(0, 256, size=n) / 256.0
    digit_rows = rng.integers(0, 8, size=(n, depth))
    fibers = np.empty((n, real8.n_charts))
    for i in range(n):
        it = BackwardItinerary(8, float(anchors[i]), tuple(int(d) for d in digit_rows[i]))
        fibers[i] = iota(real8, it).fiber
    order = np.lexsort((anchors,))
    floor = real8.delta / (4.0 * real8.n_charts)  # half the level-1 scale
    checked = 0
    for start in range(0, n):
        i = order[start]
        for later in range(start + 1, n):
            j = order[later]
            if anchors[i] != anchors[j]:
                break
            row_i, row_j = digit_rows[i], digit_rows[j]
            diff = np.nonzero(row_i != row_j)[0]
            if diff.size == 0:
                continue  # identical itineraries denote the same point
            level = int(diff[0]) + 1
            gap = float(np.linalg.norm(fibers[i] - fibers[j]))
            assert gap >= floor * real8.lam ** (level - 1)
            checked += 1
    assert checked > 50_000  # the lattice did force plenty of collisions


# -- conjugacy ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 8])
def test_conjugacy_identity_is_exact(k, real2, real8):
    """iota intertwines the backward shift with g.  Both sides are finite
    sums of the same fiber_step calls, so on anchors whose digit sums are
    exactly representable the residual is not just small, it is zero."""
    real = {2: real2, 8: real8}[k]
    rng = rng_from(555, k)
    for _ in range(200):
        x0 = aligned_anchor(real, rng)
        digits = tuple(int(d) for d in rng.integers(0, k, size=20))
        it = BackwardItinerary(k, x0, digits)
        err, bound = conjugacy_residual(real, it)
        assert bound == real.lam**20
        assert err == 0.0


@pytest.mark.parametrize("k", [2, 8])
def test_conjugacy_shares_the_rows_of_the_backward_shift_bitwise(k, real2, real8):
    """conjugacy_residual folds the shifted itinerary from rows[1:] of its one
    h_many call and applies g at x_{-1}.  Those are shift_backward's anchor
    and bump rows bit for bit, so the residual is the one computed with a
    second iota; off the aligned lattice it is nonzero, so its bits show."""
    real = {2: real2, 8: real8}[k]
    rng = rng_from(556, k)
    nonzero = 0
    for depth in (1, 2, 7, 20):
        for _ in range(25):
            digits = tuple(int(d) for d in rng.integers(0, k, size=depth))
            it = BackwardItinerary(k, float(rng.random()), digits)
            pts, back = it.points(), shift_backward(it)
            rows = real.h_many(pts[1:])
            assert back.x0 == pts[1]
            assert real.h_many(back.points()[1:]).tobytes() == rows[1:].tobytes()
            a, b = iota(real, it), iota(real, back)
            gb = apply_g(real, b.base, b.fiber)
            want = math.hypot(circle_distance(gb.base, a.base),
                              float(np.linalg.norm(gb.fiber - a.fiber)))
            assert conjugacy_residual(real, it) == (want, real.lam**depth)
            nonzero += want > 0.0
    assert nonzero >= 20, nonzero


def test_conjugacy_requires_depth(real8):
    with pytest.raises(ValueError):
        conjugacy_residual(real8, BackwardItinerary(8, 0.3, ()))


@pytest.mark.parametrize("k", [2, 8])
def test_truncation_tail_matches_rate(k, real2, real8):
    """The depth-d embedding moves by ~lam^{d-1}/(2N) when one more digit
    arrives: below lam^{d-1} sqrt(2)/(2N) and above lam^{d-1}/(2N),
    since some bump coordinate is 1 at every point."""
    real = {2: real2, 8: real8}[k]
    rng = rng_from(477, k)
    for depth in range(4, 13):
        it = random_itinerary(real, seed=depth + 100 * k, depth=depth)
        truncated = BackwardItinerary(k, it.x0, it.digits[:-1])
        gap = float(np.linalg.norm(iota(real, it).fiber - iota(real, truncated).fiber))
        bound = real.lam ** (depth - 1)
        assert gap <= bound * math.sqrt(2.0) / (2.0 * real.n_charts)
        assert gap >= bound * 0.99 / (2.0 * real.n_charts)


def test_aligned_anchor_guard():
    real10 = build_realization(ExpandingMap(10), grid_n=1024)
    with pytest.raises(ValueError):
        aligned_anchor(real10, rng_from(1))
    xs = [aligned_anchor(build_realization(ExpandingMap(2), grid_n=512), rng_from(2, i))
          for i in range(50)]
    assert all(0.0 <= x < 1.0 and x * 2.0**49 == int(x * 2.0**49) for x in xs)
