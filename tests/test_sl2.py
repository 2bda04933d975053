"""Closed-form 2x2 kernels against numpy oracles and algebraic laws."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _util import as_array, det, proj_distance, projective_action, random_sl2, rotation
from cocyclelab import Mat2, NumericOverflowError, ProjPoint, op_norm
from cocyclelab.sl2 import DET_TOL, _pushed_angles, _s_max, _svd_raw

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def sl2_from_seed(seed: int, spread: float = 4.0) -> Mat2:
    return random_sl2(np.random.default_rng(seed), spread)


# -- Mat2 construction and group arithmetic ----------------------------------

def test_identity_and_diagonal():
    i = Mat2.identity()
    assert i.to_rows() == [[1.0, 0.0], [0.0, 1.0]]
    d = Mat2.diagonal(2.0)
    assert d.a == 2.0 and d.d == 0.5 and d.b == d.c == 0.0
    assert det(d) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        Mat2.diagonal(0.0)
    with pytest.raises(ValueError):
        Mat2.diagonal(-1.0)


def test_rotation_entries():
    r = rotation(math.pi / 2)
    assert r.a == pytest.approx(0.0, abs=1e-15)
    assert r.b == -1.0 and r.c == 1.0


def test_rejects_singular_and_nonfinite():
    with pytest.raises(ValueError):
        Mat2(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Mat2(1.0, 2.0, 2.0, 4.0)  # det 0
    with pytest.raises(ValueError):
        Mat2(-1.0, 0.0, 0.0, 1.0)  # det < 0: orientation-reversing
    with pytest.raises(NumericOverflowError):
        Mat2(math.nan, 0.0, 0.0, 1.0)
    with pytest.raises(NumericOverflowError):
        Mat2(math.inf, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", [True, np.True_, "0.25", None], ids=repr)
def test_rejects_entries_that_are_not_real_numbers(bad):
    with pytest.raises(ValueError, match=f"matrix entry a must be a real number, got {bad!r}"):
        Mat2(bad, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="matrix entry d"):
        Mat2(1.0, 0.0, 0.0, bad)


def test_det_renormalized_to_one():
    # constructor divides by sqrt(det): scale-invariant representation
    m = Mat2(3.0, 0.0, 0.0, 3.0)
    assert m.a == pytest.approx(1.0, rel=1e-15)
    assert det(m) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**1000, 2.0**-1000])
def test_det_out_of_float_range_is_rescaled(scale):
    # det = scale^2 overflows to inf or underflows to 0; the matrix is
    # still scale * identity, which is in SL(2,R) up to scale
    assert Mat2(scale, 0.0, 0.0, scale).to_rows() == [[1.0, 0.0], [0.0, 1.0]]


def test_det_out_of_float_range_keeps_shape_and_sign():
    m = Mat2(1e300, 0.0, 0.0, 1e100)  # det 1e400 overflows
    assert m.a == pytest.approx(1e100, rel=1e-15)
    assert m.d == pytest.approx(1e-100, rel=1e-15)
    assert m.b == m.c == 0.0
    with pytest.raises(ValueError, match="not positive"):
        Mat2(1e200, 1e200, 1e200, -1e200)  # det -inf: still orientation-reversing
    with pytest.raises(ValueError, match="not positive"):
        Mat2(1.0, 1.0, 1.0, 1.0)  # det 0 is singular at any scale
    with pytest.raises(ValueError, match="not positive"):
        Mat2(1e-200, 1e-200, 1e-200, 1e-200)
    with pytest.raises(ValueError, match="not positive"):
        Mat2(0.0, 0.0, 0.0, 0.0)


def _sqrt_det_renormalization(a, b, c, d):
    """The construction rule written out for a det inside float range:
    entries as floats, finiteness, then det > 0, then divide by sqrt(det)
    unless det is within DET_TOL of 1.  Mat2 adds a power-of-two rescale
    only when det leaves float range (test_det_out_of_float_range_*)."""
    a, b, c, d = (float(v) for v in (a, b, c, d))
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise NumericOverflowError("non-finite matrix entries; use scaled products for long chains")
    det = a * d - b * c
    if not det > 0.0:
        raise ValueError(f"determinant {det} not positive; not in SL(2,R) up to scale")
    if abs(det - 1.0) <= DET_TOL:
        return a, b, c, d
    s = 1.0 / math.sqrt(det)
    return a * s, b * s, c * s, d * s


def _outcome(build, entries):
    """Entries as (type, hex bits), or the exception's type and message."""
    try:
        m = build(*entries)
    except (ValueError, NumericOverflowError) as e:
        return type(e), str(e)
    values = (m.a, m.b, m.c, m.d) if isinstance(m, Mat2) else m
    return [(type(v), float(v).hex()) for v in values]


_EPS = DET_TOL / 4.0
_NONFINITE = [
    tuple(bad if i == j else (1.0, 0.0, 0.0, 1.0)[j] for j in range(4))
    for bad in (math.nan, math.inf, -math.inf) for i in range(4)
]
SQRT_DET_CASES = [
    (math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3)),
    (1.0, 0.0, 0.0, -1e-300),
    *_NONFINITE,
    (1, 0, 0, 1),  # integers are stored as floats
    (2, 1, 1, 1),
    (1, 5, 0, 1),
    (2, 0, 0, 1),  # integer det 2: renormalized to floats
    (-1, 0, 0, -1),
    (1.0, 0.0, 0.0, 1.0),  # det exactly 1
    (2.0, 3.0, 1.0, 2.0),
    (2.0, 0.0, 0.0, 0.5),
    (3.0, 0.0, 0.0, 3.0),  # det 9 and 3: renormalized
    (2.0, 1.0, 1.0, 2.0),
    (1.0 + _EPS, 0.0, 0.0, 1.0),  # within DET_TOL
    (1.0 - _EPS, 0.0, 0.0, 1.0),
    (2.0, 3.0, 1.0 - _EPS, 2.0),
    (1.0 + DET_TOL, 0.0, 0.0, 1.0),  # at the edge of DET_TOL
    (1.0 + 4.0 * DET_TOL, 0.0, 0.0, 1.0),  # just outside: rescaled
    (1.0 - 4.0 * DET_TOL, 0.0, 0.0, 1.0),
    (1.0, 2.0, 2.0, 4.0),  # det 0
    (1.0, 0.0, 0.0, -0.0),  # det -0
    (-1.0, 0.0, 0.0, 1.0),  # det < 0
    (0.0, 1.0, 1.0, 0.0),
]


@pytest.mark.parametrize("entries", SQRT_DET_CASES, ids=repr)
def test_constructor_matches_sqrt_det_renormalization(entries):
    """Mat2 equals the sqrt(det) renormalization of its entries as floats."""
    assert _outcome(Mat2, entries) == _outcome(_sqrt_det_renormalization, entries)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=4),
       st.integers(min_value=-12, max_value=0))
@settings(max_examples=300, deadline=None)
def test_constructor_renormalizes_at_the_det_tol_edge(entries, log_off):
    """Mat2 keeps a det within DET_TOL of 1 and divides any other by sqrt(det)."""
    # scale a random matrix to det 1, then move det off 1 by about 10^log_off
    a, b, c, d = entries
    det = a * d - b * c
    assume(1e-6 < abs(det) < 1e12)
    s = (1.0 + 10.0**log_off) / math.sqrt(abs(det))
    scaled = (a * s, b * s, c * s, d * s)
    assert _outcome(Mat2, scaled) == _outcome(_sqrt_det_renormalization, scaled)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_product_closure_det_one(seed):
    rng = np.random.default_rng(seed)
    m = random_sl2(rng)
    for _ in range(20):
        m = m @ random_sl2(rng)
    # det is evaluated with cancellation ~ eps * cond(m); cond = op_norm^2
    assert abs(det(m) - 1.0) <= 1e-13 * max(1.0, op_norm(m) ** 2)


def test_matmul_against_numpy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m1, m2 = random_sl2(rng), random_sl2(rng)
        np.testing.assert_allclose(
            as_array(m1 @ m2), as_array(m1) @ as_array(m2), rtol=0, atol=1e-12)


def test_trace_and_apply():
    m = Mat2.from_rows([[2.0, 1.0], [1.0, 1.0]])
    assert m.a + m.d == 3.0
    # m (1, 2) = (4, 3), read as directions
    [pushed] = _pushed_angles(m.a, m.b, m.c, m.d, np.array([math.atan2(2.0, 1.0)]))
    assert pushed == pytest.approx(math.atan2(3.0, 4.0), rel=1e-15)


def test_arctan2_bits_do_not_depend_on_the_array():
    """np.arctan2 gives an element the same bits in a full array, in a strided view,
    in a one-element slice and on floats: the premise of _pushed_angles, so that a
    push's angle at a point does not depend on the grid the point is pushed with."""
    rng = np.random.default_rng(31)
    n = 4099  # odd, so that vector loops end in a remainder
    ys, xs = rng.standard_normal((2, n)) * np.exp(rng.uniform(-20.0, 20.0, (2, n)))
    ys[:6] = [0.0, -0.0, 1.0, -1.0, 0.0, 1e-300]
    xs[:6] = [1.0, -1.0, 0.0, 0.0, -0.0, 1e300]
    full = np.arctan2(ys, xs)
    columns = np.stack([xs, ys, xs, ys], axis=-1)  # as a gather's entry columns lie
    strided = np.arctan2(columns[:, 1], columns[:, 0])
    sliced = [np.arctan2(ys[j:j + 1], xs[j:j + 1])[0] for j in range(n)]
    floats = [np.arctan2(y, x) for y, x in zip(ys.tolist(), xs.tolist())]
    for want in (strided, sliced, floats):
        assert np.array_equal(full.view(np.int64), np.array(want).view(np.int64))


# -- operator norm and SVD ----------------------------------------------------

def test_op_norm_against_numpy():
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = random_sl2(rng, spread=20.0)
        assert op_norm(m) == pytest.approx(float(np.linalg.norm(as_array(m), 2)),
                                           rel=1e-12)


@pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
def test_s_max_matches_svd_raw_bitwise(scale):
    """op_norm's closed form halves after the hypots, _svd_raw before them;
    halving is exact, so both give the same float."""
    rng = np.random.default_rng(int(math.log10(scale)) + 200)
    for a, b, c, d in (rng.normal(size=(10000, 4)) * scale).tolist():
        assert _s_max(a, b, c, d) == _svd_raw(a, b, c, d)[0]


def test_svd2_reconstruction_and_values():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = random_sl2(rng, spread=50.0)
        s_max, s_min, left, right = _svd_raw(m.a, m.b, m.c, m.d)
        ref = np.linalg.svd(as_array(m), compute_uv=False)
        assert s_max == pytest.approx(float(ref[0]), rel=1e-12)
        assert s_min == pytest.approx(float(ref[1]), rel=1e-10)
        assert s_max * s_min == pytest.approx(1.0, abs=1e-9)
        # the most-expanded input direction has angle -right, its image angle left
        vx, vy = ProjPoint(-right).vector()
        wx, wy = m.a * vx + m.b * vy, m.c * vx + m.d * vy
        assert math.hypot(wx, wy) == pytest.approx(s_max, rel=1e-9)
        assert proj_distance(ProjPoint(math.atan2(wy, wx)), ProjPoint(left)) <= 1e-7


def test_svd2_of_rotation_is_degenerate():
    r = rotation(1.234)
    s_max, s_min, _, _ = _svd_raw(r.a, r.b, r.c, r.d)
    assert s_max == pytest.approx(1.0, abs=1e-15)
    assert s_min == pytest.approx(1.0, abs=1e-15)


def test_svd2_diagonal_axes():
    s_max, _, left, right = _svd_raw(3.0, 0.0, 0.0, 1.0 / 3.0)
    assert s_max == pytest.approx(3.0)
    assert ProjPoint(-right).angle == pytest.approx(0.0, abs=1e-12)
    assert ProjPoint(left).angle == pytest.approx(0.0, abs=1e-12)


# -- projective points and metric ---------------------------------------------

def test_projpoint_normalization():
    assert ProjPoint(math.pi).angle == 0.0
    assert ProjPoint(-0.1).angle == pytest.approx(math.pi - 0.1)
    assert ProjPoint(3 * math.pi + 0.25).angle == pytest.approx(0.25)
    assert ProjPoint(-1e-20).angle == 0.0  # -1e-20 % pi rounds up to pi
    with pytest.raises(ValueError):
        ProjPoint(math.nan)


def test_projpoint_vector_round_trip():
    for a in np.linspace(0.0, math.pi, 37, endpoint=False):
        p = ProjPoint(float(a))
        x, y = p.vector()
        assert proj_distance(ProjPoint(math.atan2(y, x)), p) <= 1e-12
        # antipodal representative names the same projective point
        assert proj_distance(ProjPoint(math.atan2(-y, -x)), p) <= 1e-12


@given(angles, angles)
@settings(max_examples=200, deadline=None)
def test_proj_distance_symmetric_bounded(a, b):
    p, q = ProjPoint(a), ProjPoint(b)
    d = proj_distance(p, q)
    assert 0.0 <= d <= math.pi / 2 + 1e-15
    assert d == proj_distance(q, p)
    assert proj_distance(p, p) == 0.0


@given(angles, angles, angles)
@settings(max_examples=200, deadline=None)
def test_proj_distance_triangle(a, b, c):
    p, q, r = ProjPoint(a), ProjPoint(b), ProjPoint(c)
    assert proj_distance(p, r) <= proj_distance(p, q) + proj_distance(q, r) + 1e-12


# -- projective action --------------------------------------------------------

@given(seeds, seeds, angles)
@settings(max_examples=200, deadline=None)
def test_action_is_a_group_action(s1, s2, a):
    m1, m2 = sl2_from_seed(s1), sl2_from_seed(s2)
    p = ProjPoint(a)
    lhs = projective_action(m1 @ m2, p)
    rhs = projective_action(m1, projective_action(m2, p))
    assert proj_distance(lhs, rhs) <= 1e-9


def test_action_fixed_points_of_diagonal():
    d = Mat2.diagonal(2.0)
    assert proj_distance(projective_action(d, ProjPoint(0.0)), ProjPoint(0.0)) == 0.0
    half_pi = ProjPoint(math.pi / 2)
    assert proj_distance(projective_action(d, half_pi), half_pi) <= 1e-15


def test_rotation_acts_as_translation():
    for t in (0.1, 0.7, 2.0):
        r = rotation(t)
        p = ProjPoint(0.3)
        assert projective_action(r, p).angle == pytest.approx((0.3 + t) % math.pi,
                                                              abs=1e-12)
