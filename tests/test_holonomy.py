"""u-holonomy limits: direct-product oracle, group laws, and divergence."""

import math

import numpy as np
import pytest

from _util import (as_array, det, example_map, example_spec, sample_unstable_neighbor,
                   with_pull_every)
from cocyclelab import (
    BackwardItinerary,
    ExpandingMap,
    HolonomyDivergedError,
    HolonomyResult,
    LeafMismatchError,
    Mat2,
    NumericOverflowError,
    full_twist_spec,
    holonomy_equivariance_residual,
    u_holonomy,
)
from cocyclelab import holonomy


def leaf_pair(k: int, seed: int, depth: int = 60):
    """A same-leaf pair with the anchor in a branch-cell interior, so the
    forward images also share a leaf (needed by the equivariance check)."""
    rng = np.random.default_rng([97, seed])
    cell = int(rng.integers(0, k))
    x0 = (cell + float(rng.uniform(0.15, 0.85))) / k
    off = float(rng.uniform(0.2, 0.9)) / (2.0 * k * k)
    if rng.random() < 0.5:
        off = -off
    digits = tuple(int(d) for d in rng.integers(0, k, size=depth))
    x_it = BackwardItinerary(k, x0, digits)
    return x_it, sample_unstable_neighbor(x_it, off)


def naive_holonomy(spec, m, x_it, depth: int, delta0: float) -> np.ndarray:
    """H_n = P_n(y) P_n(x)^{-1} formed directly; valid while the products
    are mild enough that the cancellation loses fewer than ~6 digits."""
    from cocyclelab import evaluate

    xs = x_it.points()
    delta = delta0
    px = np.eye(2)
    py = np.eye(2)
    for j in range(1, depth + 1):
        delta /= m.k
        xm = xs[j]
        ym = (xm + delta) % 1.0
        px = px @ np.reshape(evaluate(spec, xm), (2, 2))
        py = py @ np.reshape(evaluate(spec, ym), (2, 2))
    return py @ np.linalg.inv(px)


# -- exact special cases -------------------------------------------------------

def test_identical_itineraries_give_identity():
    x_it, _ = leaf_pair(8, 0)
    res = u_holonomy(example_spec(), example_map(), x_it, x_it)
    assert res.converged
    assert res.depth_used == 0
    assert res.residuals == ()
    assert res.h.to_rows() == [[1.0, 0.0], [0.0, 1.0]]


def test_zero_offset_neighbor_gives_identity():
    x_it, _ = leaf_pair(8, 1)
    y_it = sample_unstable_neighbor(x_it, 0.0)
    res = u_holonomy(example_spec(), example_map(), x_it, y_it)
    assert res.converged and res.h.to_rows() == [[1.0, 0.0], [0.0, 1.0]]


# -- argument validation -------------------------------------------------------

def test_rejects_mismatched_leaves():
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 3)
    other_digits = (1,) + x_it.digits[1:]
    with pytest.raises(LeafMismatchError):
        u_holonomy(spec, m, x_it, BackwardItinerary(8, x_it.x0, other_digits))
    far = BackwardItinerary(8, (x_it.x0 + 0.3) % 1.0, x_it.digits)
    with pytest.raises(LeafMismatchError):
        u_holonomy(spec, m, x_it, far)
    # 0.01 apart across the seam at 0, but the series contracts the real gap -0.99
    straddling = [BackwardItinerary(8, x0, (5,) * 64) for x0 in (0.999, 0.009)]
    with pytest.raises(LeafMismatchError):
        u_holonomy(spec, m, *straddling)
    with pytest.raises(ValueError):
        u_holonomy(spec, ExpandingMap(2), x_it, y_it)


def test_rejects_shallow_itineraries_and_bad_tol():
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 4, depth=10)
    with pytest.raises(ValueError):
        u_holonomy(spec, m, x_it, y_it)  # default max_depth 60 > 10
    with pytest.raises(ValueError):
        u_holonomy(spec, m, x_it, y_it, tol=0.0, max_depth=10)
    res = u_holonomy(spec, m, x_it, y_it, max_depth=10)
    assert res.depth_used <= 10


@pytest.mark.parametrize("kwargs", [
    {"max_depth": 0},  # was an IndexError at residuals[-1]
    {"max_depth": -3},  # likewise
    {"max_depth": 2.5},  # was a TypeError from range
    {"max_depth": True},
    {"tol": math.inf},  # was accepted, "converging" at depth 1
    {"tol": math.nan},
    {"tol": "1e-8"},
], ids=repr)
def test_rejects_malformed_depth_and_tol(kwargs, monkeypatch):
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 5)
    monkeypatch.setattr(holonomy, "_last", None)
    u_holonomy(spec, m, x_it, y_it)
    # checked before the memory of the call just made is consulted
    with pytest.raises(ValueError):
        u_holonomy(spec, m, x_it, y_it, **kwargs)


def test_accepts_integral_depth_and_int_tol():
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 5)
    want = u_holonomy(spec, m, x_it, y_it, tol=1e-8, max_depth=60)
    got = u_holonomy(spec, m, x_it, y_it, tol=1, max_depth=np.int64(60))
    assert got.depth_used <= want.depth_used
    assert u_holonomy(spec, m, x_it, y_it, max_depth=60.0) == want


# -- agreement with the direct product -----------------------------------------

@pytest.mark.parametrize("k", [8, 2])
@pytest.mark.parametrize("depth", [5, 10, 15])
def test_partial_sums_match_direct_product(k, depth):
    """The telescoped series equals P_n(y) P_n(x)^{-1} identically; at
    shallow depths the direct float product still has digits to compare."""
    spec, m = example_spec(), ExpandingMap(k)
    for seed in (10, 11, 12):
        x_it, y_it = leaf_pair(k, seed, depth=depth)
        res = u_holonomy(spec, m, x_it, y_it, tol=1e-300, max_depth=depth)
        assert not res.converged
        assert len(res.residuals) == depth
        want = naive_holonomy(spec, m, x_it, depth, y_it.x0 - x_it.x0)
        assert res.h is not None
        assert np.linalg.norm(as_array(res.h) - want, 2) <= 1e-10


# -- bunched regime: k = 8 ------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_bunched_pairs_converge_geometrically(seed):
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 20 + seed)
    res = u_holonomy(spec, m, x_it, y_it, tol=1e-8)
    assert res.converged
    assert res.cauchy_residual <= 1e-8
    assert res.depth_used < 60
    # certified bunching constant is 1/2; allow slack for the prefactor
    for i in range(5, len(res.residuals) - 1):
        assert res.residuals[i + 1] <= 0.6 * res.residuals[i]
    assert res.h is not None
    assert det(res.h) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_equivariance_at_k8(seed):
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 30 + seed)
    defect = holonomy_equivariance_residual(spec, m, x_it, y_it, tol=1e-8)
    assert defect <= 1e-7


@pytest.mark.parametrize("seed", range(2))
def test_composition_along_a_leaf(seed):
    spec, m = example_spec(), example_map()
    rng = np.random.default_rng([55, seed])
    cell = int(rng.integers(0, 8))
    x0 = (cell + float(rng.uniform(0.3, 0.7))) / 8
    digits = tuple(int(d) for d in rng.integers(0, 8, size=60))
    x_it = BackwardItinerary(8, x0, digits)
    y_it = sample_unstable_neighbor(x_it, 1.0 / 512)
    z_it = sample_unstable_neighbor(x_it, -1.0 / 400)
    h_xy = u_holonomy(spec, m, x_it, y_it).h
    h_yz = u_holonomy(spec, m, y_it, z_it).h
    h_xz = u_holonomy(spec, m, x_it, z_it).h
    gap = np.linalg.norm(as_array(h_yz @ h_xy) - as_array(h_xz), 2)
    assert gap <= 1e-7


# -- unbunched regime: k = 2 -----------------------------------------------------

def witness_pair(x0: float, off: float, digit: int):
    """Backward orbit pinned to one fixed-point branch of doubling; along
    it the partial products grow at the full rate 2^m and the correction
    terms grow instead of shrinking."""
    x_it = BackwardItinerary(2, x0, (digit,) * 60)
    return x_it, sample_unstable_neighbor(x_it, off)


@pytest.mark.parametrize("x0,off,digit", [
    (0.11, 0.01, 0),
    (0.07, -0.013, 0),
    (0.93, 0.011, 1),
])
def test_unbunched_witness_orbits_diverge(x0, off, digit):
    spec, m = example_spec(), ExpandingMap(2)
    x_it, y_it = witness_pair(x0, off, digit)
    res = u_holonomy(spec, m, x_it, y_it, tol=1e-8, max_depth=60)
    assert not res.converged
    assert res.depth_used == 60
    assert min(res.residuals) >= 1e-2
    assert res.residuals[-1] > 1e8  # growth like 2^m, not decay


def test_unbunched_typical_pairs_converge_marginally_at_best():
    """Lebesgue-typical k=2 pairs shrink at mean rate e^{2 lambda}/2 ~ 0.78
    per level, so the 1e-8 criterion either fails inside 60 levels or fires
    only in the last quarter; the bunched k=8 pairs above need ~11."""
    spec, m = example_spec(), ExpandingMap(2)
    stalled = 0
    for seed in range(40, 52):
        x_it, y_it = leaf_pair(2, seed)
        res = u_holonomy(spec, m, x_it, y_it, tol=1e-8, max_depth=60)
        assert res.depth_used >= 45
        if not res.converged:
            stalled += 1
            assert 1e-8 < res.residuals[-1] < 1e-3
    assert stalled >= 6  # fixed seeds: 8 of these 12 stall outright


# -- bits of the lazy walk ----------------------------------------------------------

def reference_holonomy(spec, m, x_it, y_it, tol: float = 1e-8, max_depth: int = 60):
    """The telescoped series folded over the whole list x_it.points(): the bracket
    cm1 I + sn K with K = A0 J A0^{-1} built from a Mat2 of the base's adjugate, the
    y products stepped by A(x_{-m}) R(beta), and both products pulled through
    _product_step at the depths 2^L divides (L = spec._pull_every), the scale
    taken afresh at every depth.  The fields of HolonomyResult as a tuple, for a
    pair with distinct anchors."""
    from cocyclelab.cocycle import TWO_PI, _product_step, evaluate
    from cocyclelab.holonomy import _as_group_element
    from cocyclelab.sl2 import Mat2, _mul, _s_max

    b = spec.base
    b_inv = Mat2(b.d, -b.b, -b.c, b.a)
    k_mat = _mul(*_mul(b.a, b.b, b.c, b.d, 0.0, -1.0, 1.0, 0.0),
                 b_inv.a, b_inv.b, b_inv.c, b_inv.d)
    xs = x_it.points()
    delta = y_it.x0 - x_it.x0
    px, py = (1.0, 0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0, 0.0)
    h = [1.0, 0.0, 0.0, 1.0]
    residuals = []
    for depth in range(1, max_depth + 1):
        delta /= m.k
        beta = TWO_PI * spec.twist_gap(xs[depth], delta)
        sn, cm1 = math.sin(beta), -2.0 * math.sin(0.5 * beta) ** 2
        bracket = [sn * v for v in k_mat]
        bracket[0] += cm1
        bracket[3] += cm1
        xa, xb, xc, xd, sx = px
        term = _mul(*_mul(*py[:4], *bracket), xd, -xb, -xc, xa)
        scale = math.exp(sx + py[4])
        term = [v * scale for v in term]
        residuals.append(_s_max(*term))
        h = [hv + tv for hv, tv in zip(h, term)]
        if residuals[-1] <= tol:
            group = _as_group_element(*h, True)
            return group, depth, residuals[-1], True, tuple(residuals)
        ex = evaluate(spec, xs[depth])
        ey = _mul(*ex, 1.0 + cm1, -sn, sn, 1.0 + cm1)
        if depth % 2 ** spec._pull_every == 0:
            px = _product_step(*ex, px[4], *px[:4])
            py = _product_step(*ey, py[4], *py[:4])
        else:
            px = (*_mul(*px[:4], *ex), px[4])
            py = (*_mul(*py[:4], *ey), py[4])
    return _as_group_element(*h, False), max_depth, residuals[-1], False, tuple(residuals)


def result_bits(res) -> tuple:
    """The fields of a HolonomyResult, with floats as hex strings."""
    h = None if res[0] is None else tuple(v.hex() for v in (res[0].a, res[0].b, res[0].c, res[0].d))
    return h, res[1], res[2].hex(), res[3], tuple(r.hex() for r in res[4])


@pytest.mark.parametrize("k,seeds", [(8, range(20, 30)), (3, range(60, 64))])
def test_lazy_walk_matches_the_fold_over_points(k, seeds):
    spec, m = example_spec(), ExpandingMap(k)
    for seed in seeds:
        x_it, y_it = leaf_pair(k, seed)
        res = u_holonomy(spec, m, x_it, y_it)
        assert res.converged or k != 8
        got = (res.h, res.depth_used, res.cauchy_residual, res.converged, res.residuals)
        assert result_bits(got) == result_bits(reference_holonomy(spec, m, x_it, y_it))


@pytest.mark.parametrize("x0,off,digit", [
    (0.11, 0.01, 0),
    (0.07, -0.013, 0),
    (0.93, 0.011, 1),
])
def test_lazy_walk_matches_the_fold_on_diverging_witnesses(x0, off, digit):
    spec, m = example_spec(), ExpandingMap(2)
    x_it, y_it = witness_pair(x0, off, digit)
    res = u_holonomy(spec, m, x_it, y_it)
    assert not res.converged
    got = (res.h, res.depth_used, res.cauchy_residual, res.converged, res.residuals)
    assert result_bits(got) == result_bits(reference_holonomy(spec, m, x_it, y_it))


# diag(2^20, 2^-20) has pull period L = 3: its walks pull at depths 8, 16, ...
PULLED = full_twist_spec(Mat2.diagonal(2.0 ** 20))


@pytest.mark.parametrize("k", [8, 3, 2])
def test_pulled_walk_matches_the_fold_and_a_walk_pulled_at_every_level(k):
    """Past its first pull the walk keeps the reference's bits, and it agrees with
    the same walk pulled at every level (2^0 = 1) to 1e-13 relative.  The pair
    does not converge: its terms grow past 1e100 by depth 12, so the check runs
    where each pull changes the rounding of every later term."""
    assert PULLED._pull_every == 3
    every_level = with_pull_every(PULLED, 0)
    m = ExpandingMap(k)
    for seed in range(70, 74):
        x_it, y_it = leaf_pair(k, seed)
        res = u_holonomy(PULLED, m, x_it, y_it, tol=1e-300, max_depth=20)
        got = (res.h, res.depth_used, res.cauchy_residual, res.converged, res.residuals)
        want = reference_holonomy(PULLED, m, x_it, y_it, tol=1e-300, max_depth=20)
        assert result_bits(got) == result_bits(want)
        # 12 levels: the rounding of every-level pulls drifts by about 6e-15 a level
        res = u_holonomy(PULLED, m, x_it, y_it, tol=1e-300, max_depth=12)
        ref = u_holonomy(every_level, m, x_it, y_it, tol=1e-300, max_depth=12)
        assert res.residuals[-1] > 1e100
        for r, q in zip(res.residuals, ref.residuals, strict=True):
            assert abs(r - q) <= 1e-13 * q


@pytest.mark.parametrize("scale", [2.0 ** 100, 2.0 ** 511, 1e300])
def test_a_base_near_float_range_raises_and_returns_no_overflowed_residual(scale):
    """Raw steps between pulls overflow to inf (pull period 1: two factors of up
    to 1e300 between pulls), and the walk raises rather than return them."""
    spec, m = full_twist_spec(Mat2.diagonal(scale)), example_map()
    assert spec._pull_every == 1
    for seed in range(3):
        with pytest.raises(NumericOverflowError):
            u_holonomy(spec, m, *leaf_pair(8, seed), tol=1e-300)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_y_factor_from_the_x_factor_at_the_seam(k):
    """A(y_{-m}) = A(x_{-m}) R(beta_m) where y_{-m} = x_{-m} + delta_m lies next to
    1.0 and, in float, wraps to 0: the walk's y factor matches evaluate at the
    wrapped preimage to a few ulps of the largest entry (each side rounds an angle
    near 2 pi, whose ulp is 8.9e-16, and multiplies by a base of norm 2)."""
    from cocyclelab import evaluate
    from cocyclelab.cocycle import TWO_PI
    from cocyclelab.sl2 import _mul

    spec = example_spec()
    x_it = BackwardItinerary(k, 1.0 - 0.3 / k, (k - 1,) * 60)
    delta = 0.2 / k
    wrapped = 0
    for xm in x_it.preimages():
        delta /= k
        beta = TWO_PI * spec.twist_gap(xm, delta)
        sn, c = math.sin(beta), 1.0 - 2.0 * math.sin(0.5 * beta) ** 2
        got = _mul(*evaluate(spec, xm), c, -sn, sn, c)
        want = evaluate(spec, (xm + delta) % 1.0)
        wrapped += xm + delta >= 1.0
        assert max(abs(g - w) for g, w in zip(got, want)) <= 16 * math.ulp(max(map(abs, want)))
    assert wrapped >= 1


def test_equivariance_refuses_diverged_limits():
    spec, m = example_spec(), ExpandingMap(2)
    x_it, y_it = witness_pair(0.11, 0.01, 0)
    with pytest.raises(HolonomyDivergedError):
        holonomy_equivariance_residual(spec, m, x_it, y_it)


def test_equivariance_detects_branch_split():
    spec, m = example_spec(), example_map()
    x_it = BackwardItinerary(8, 0.999 / 8, (3,) * 60)
    y_it = sample_unstable_neighbor(x_it, 0.002 / 8)
    with pytest.raises(LeafMismatchError):
        holonomy_equivariance_residual(spec, m, x_it, y_it)


def test_equivariance_raises_on_a_non_finite_residual(monkeypatch):
    """Both sides are raw entries, so a product past float range shows as a
    non-finite residual, which raises as a Mat2 product did.  With
    h = diag(1.7e308, 1/1.7e308) one of h A(x)'s top entries overflows,
    since max(|A(x)_11|, |A(x)_12|) >= sqrt(2) for the example."""
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, seed=0)
    huge = HolonomyResult(Mat2.diagonal(1.7e308), 1, 0.0, True, (0.0,))
    monkeypatch.setattr(holonomy, "u_holonomy", lambda *args, **kwargs: huge)
    with pytest.raises(NumericOverflowError):
        holonomy_equivariance_residual(spec, m, x_it, y_it)


# -- the memory of the latest call ------------------------------------------------

@pytest.fixture
def walks(monkeypatch) -> list:
    """The pairs u_holonomy walks from here on, starting with an empty memory."""
    walked, walk = [], holonomy._walk
    monkeypatch.setattr(holonomy, "_last", None)

    def counted(spec, m, x_it, y_it, tol, max_depth):
        walked.append((x_it, y_it))
        return walk(spec, m, x_it, y_it, tol, max_depth)

    monkeypatch.setattr(holonomy, "_walk", counted)
    return walked


def _bits(res) -> tuple:
    return result_bits((res.h, res.depth_used, res.cauchy_residual, res.converged,
                        res.residuals))


def test_a_repeated_call_returns_the_walked_result(walks):
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 21)
    first = u_holonomy(spec, m, x_it, y_it)
    again = u_holonomy(spec, m, x_it, y_it)
    assert again is first and walks == [(x_it, y_it)]
    assert _bits(again) == result_bits(reference_holonomy(spec, m, x_it, y_it))
    # other tol or max_depth: walked afresh
    u_holonomy(spec, m, x_it, y_it, tol=1e-9)
    u_holonomy(spec, m, x_it, y_it, tol=1e-9, max_depth=59)
    assert len(walks) == 3


def test_the_equivariance_check_reuses_its_callers_holonomy(walks):
    """As cmd_holonomy calls it: the residual's h_{x,y} is the caller's result
    and only the forward pair is walked, with the bits of a cold memory."""
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 31)
    cold = holonomy_equivariance_residual(spec, m, x_it, y_it)
    assert len(walks) == 2
    holonomy._last = None
    walks.clear()
    u_holonomy(spec, m, x_it, y_it)
    warm = holonomy_equivariance_residual(spec, m, x_it, y_it)
    assert len(walks) == 2 and walks[0] == (x_it, y_it) and walks[1][0] is not x_it
    assert warm.hex() == cold.hex()


def test_memory_holds_only_the_latest_call(walks):
    spec, m = example_spec(), example_map()
    here, other = leaf_pair(8, 22), leaf_pair(8, 23)
    results = [u_holonomy(spec, m, *pair) for pair in (here, other, here)]
    assert walks == [here, other, here]
    assert results[2] is not results[0]
    for res, pair in zip(results, (here, other, here)):
        assert _bits(res) == result_bits(reference_holonomy(spec, m, *pair))


def test_memory_matches_objects_not_equal_values(walks):
    """An equal but distinct spec (a -0.0 base entry) or itinerary is walked
    afresh: the memory compares by identity, so the sign of a zero cannot
    pass from one spec to the other."""
    m = example_map()
    spec = full_twist_spec(Mat2(2.0, 0.0, 0.0, 0.5))
    signed = full_twist_spec(Mat2(2.0, -0.0, 0.0, 0.5))
    assert signed == spec and signed is not spec
    assert math.copysign(1.0, signed.base.b) == -1.0
    x_it, y_it = leaf_pair(8, 24)
    u_holonomy(spec, m, x_it, y_it)
    res = u_holonomy(signed, m, x_it, y_it)
    assert len(walks) == 2
    assert _bits(res) == result_bits(reference_holonomy(signed, m, x_it, y_it))
    twin = BackwardItinerary(8, y_it.x0, y_it.digits)
    assert twin == y_it and twin is not y_it
    u_holonomy(signed, m, x_it, twin)
    assert len(walks) == 3


def test_a_call_that_raises_leaves_nothing_behind(walks, monkeypatch):
    spec, m = example_spec(), example_map()
    x_it, y_it = leaf_pair(8, 25)
    u_holonomy(spec, m, x_it, y_it)
    assert holonomy._last is not None
    # a leaf check fails before the walk
    far = BackwardItinerary(8, (x_it.x0 + 0.3) % 1.0, x_it.digits)
    with pytest.raises(LeafMismatchError):
        u_holonomy(spec, m, x_it, far)
    assert holonomy._last is None
    # the walk itself fails, and fails again when the call is repeated
    monkeypatch.setattr(holonomy, "_s_max", lambda *entries: math.nan)
    for _ in range(2):
        with pytest.raises(NumericOverflowError):
            u_holonomy(spec, m, x_it, y_it)
        assert holonomy._last is None
    assert len(walks) == 3
