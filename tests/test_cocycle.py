"""Cocycle products and Lyapunov estimators against naive oracles."""

import ctypes
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import (BASE, as_array, example_map, example_spec, proj_distance, random_sl2,
                   rotation, with_pull_every)
from cocyclelab import (
    CocycleSpec,
    ExpandingMap,
    Mat2,
    NoHyperbolicityError,
    ProjPoint,
    TwistTerm,
    c0_distance,
    cocycle_product,
    evaluate,
    full_twist_spec,
    lyapunov_furstenberg,
    lyapunov_norm_growth,
    oseledets_stable_direction,
    perturb,
    phi,
    rng_from,
    spec_from_json,
    spec_to_json,
    u_bunching_check,
)
from cocyclelab.circle import _orbit, window_width
from cocyclelab.cocycle import (
    _BITS,
    _BLOCK,
    _ROWS,
    _SHORT,
    DEFAULT_SEED,
    _angles,
    _entries,
    _keep_heap_resident,
    _ladder,
    _block_products,
    _mean_stderr,
    _norm_growth_group,
    _product_along,
    _product_step,
    _pull,
    _pull_period,
    _reduce,
    _reduce_short,
    _trig_sum,
)
from cocyclelab.errors import NumericOverflowError
from cocyclelab.sl2 import _mul, _mul_stacked, _s_max

TWO_PI = 2.0 * math.pi
# pull schedules the product kernels are held to: a pull at every tree level
# (the schedule before pulls were spaced, whose bits are pinned), every
# second level, and every eighth, which the example's sup norm 2 gives
PULL_EVERY = (1, 2, 8)


def constant_spec(s: float = 2.0) -> CocycleSpec:
    return CocycleSpec(base=Mat2.diagonal(s))


def rotation_spec() -> CocycleSpec:
    return CocycleSpec(base=rotation(0.7))


# -- seeding ------------------------------------------------------------------

def test_rng_path_determinism():
    a = rng_from(7, 3).integers(0, 2**32, size=8)
    b = rng_from(7, 3).integers(0, 2**32, size=8)
    assert np.array_equal(a, b)
    c = rng_from(7, 4).integers(0, 2**32, size=8)
    assert not np.array_equal(a, c)


def test_rng_nested_tuples_flatten():
    flat = rng_from(5, 2, 9).integers(0, 2**32, size=4)
    nested = rng_from((5, 2), 9).integers(0, 2**32, size=4)
    deeper = rng_from(((5,), 2, (9,))).integers(0, 2**32, size=4)
    assert np.array_equal(flat, nested)
    assert np.array_equal(flat, deeper)


def test_rng_rejects_bad_paths():
    with pytest.raises(ValueError):
        rng_from(-1)
    with pytest.raises(ValueError):
        rng_from()
    with pytest.raises(ValueError):
        rng_from(())
    # a component is never truncated or parsed: each of these once became an int
    for bad in (1.5, True, np.True_, "7", (7, 2.5)):
        with pytest.raises(ValueError):
            rng_from(bad)
    want = rng_from(7, 3).integers(0, 2**32, size=4)
    assert np.array_equal(rng_from(np.int64(7), np.uint8(3)).integers(0, 2**32, size=4), want)


# -- spec arithmetic ----------------------------------------------------------

def test_twist_term_validation():
    with pytest.raises(ValueError):
        TwistTerm(0, 1.0, 0.0)
    for bad in (True, np.True_, 1.5, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            TwistTerm(bad, 1.0, 0.0)
    with pytest.raises(ValueError):
        TwistTerm(-2, 1.0, 0.0)
    with pytest.raises(ValueError):
        TwistTerm(1, math.inf, 0.0)
    for bad in (True, False, np.True_, 1.5, "1"):
        with pytest.raises(ValueError, match="winding must be an integer"):
            CocycleSpec(base=BASE, winding=bad)
    with pytest.raises(ValueError):
        CocycleSpec(base=BASE, winding=1, theta=0.0)
    with pytest.raises(ValueError):
        CocycleSpec(base=BASE, winding=1, theta=1.5)


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3.0])
def test_integral_frequency_and_winding_are_stored_as_int(value):
    term = TwistTerm(value, 0.1, 0.0)
    spec = CocycleSpec(base=BASE, winding=value, terms=(term,))
    assert type(term.freq) is int and type(spec.winding) is int
    assert spec == CocycleSpec(base=BASE, winding=3, terms=(TwistTerm(3, 0.1, 0.0),))
    data = spec_to_json(spec)
    assert json.dumps(data["winding"]) == "3" and json.dumps(data["twist"][0]["freq"]) == "3"


def test_evaluate_at_zero_is_base():
    # the full-twist family has g(0) = 0, so A(0) is the base matrix exactly
    got = evaluate(example_spec(), 0.0)
    assert got == (BASE.a, BASE.b, BASE.c, BASE.d)
    assert [type(v) for v in got] == [float] * 4


def test_evaluate_matches_manual_product():
    spec = CocycleSpec(base=BASE, winding=2,
                       terms=(TwistTerm(3, 0.4, 1.1), TwistTerm(1, -0.2, 0.0)))
    for x in (0.0, 0.1, 0.37, 0.9, 0.999):
        g = 2 * x + 0.4 * math.sin(TWO_PI * 3 * x + 1.1) - 0.2 * math.sin(TWO_PI * x)
        want = as_array(BASE) @ as_array(rotation(TWO_PI * g))
        assert np.allclose(np.reshape(evaluate(spec, x), (2, 2)), want, atol=1e-14)


@given(x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       delta=st.floats(min_value=1e-30, max_value=1e-2))
@settings(max_examples=150, deadline=None)
def test_twist_gap_matches_difference(x, delta):
    """The relative-form gap agrees with the naive difference while the
    naive difference still has digits, and stays finite-precision after."""
    spec = CocycleSpec(base=BASE, winding=1,
                       terms=(TwistTerm(2, 0.3, 0.5), TwistTerm(5, 0.1, 2.0)))
    gap = spec.twist_gap(x, delta)
    assert abs(gap) <= spec.twist_lipschitz() * delta * (1.0 + 1e-12)
    if delta > 1e-5:
        naive = spec.twist(x + delta) - spec.twist(x)
        assert gap == pytest.approx(naive, abs=1e-11)


def twisted_spec() -> CocycleSpec:
    """The example with eight perturbation terms, so every twist term is exercised."""
    spec = perturb(example_spec(), 0.05, seed=(4, 2))
    assert len(spec.terms) == 8
    return spec


def test_angles_match_scalar_twist_bitwise():
    spec = twisted_spec()
    xs = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)],
                         np.random.default_rng(11).random(2000)])
    expected = np.array([TWO_PI * spec.twist(float(x)) for x in xs])
    assert np.array_equal(_angles(spec, xs), expected)


def per_term_twist(spec: CocycleSpec, x: float) -> float:
    """g(x) one sine per term, in the order the terms are given."""
    g = spec.winding * x
    for t in spec.terms:
        g += t.amp * math.sin(TWO_PI * t.freq * x + t.phase)
    return g


TRIG_SPECS = {
    "unsorted": CocycleSpec(base=BASE, winding=1, terms=(
        TwistTerm(5, 0.2, 0.4), TwistTerm(2, -0.3, 1.7), TwistTerm(9, 0.05, 5.9),
        TwistTerm(1, 0.1, 0.0))),
    "shared-frequency": CocycleSpec(base=BASE, winding=-2, terms=(
        TwistTerm(3, 0.25, 0.1), TwistTerm(3, -0.4, 2.2), TwistTerm(1, 0.3, 4.0),
        TwistTerm(3, 0.1, 6.0))),
    "sparse": CocycleSpec(base=BASE, winding=0, terms=(
        TwistTerm(7, 0.5, 0.3), TwistTerm(64, -0.02, 1.0), TwistTerm(513, 0.001, 2.5))),
    "freq-3000": CocycleSpec(base=BASE, winding=3, terms=(TwistTerm(3000, 1e-4, 0.9),)),
    "perturbed": twisted_spec(),
}


def twist_scale(spec: CocycleSpec) -> float:
    return abs(spec.winding) + sum(abs(t.amp) * t.freq for t in spec.terms)


def trig_points(seed: int) -> np.ndarray:
    return np.concatenate([[0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)],
                           np.random.default_rng(seed).random(1000)])


@pytest.mark.parametrize("name", sorted(TRIG_SPECS))
def test_angles_match_scalar_twist_bitwise_on_every_shape(name):
    spec = TRIG_SPECS[name]
    xs = trig_points(14)
    expected = np.array([TWO_PI * spec.twist(float(x)) for x in xs])
    assert np.array_equal(_angles(spec, xs), expected)
    # a 2-D block gives each row the bits of the 1-D call
    block = xs[:1000].reshape(4, 250)
    assert np.array_equal(_angles(spec, block), expected[:1000].reshape(4, 250))


@pytest.mark.parametrize("name", sorted(TRIG_SPECS))
def test_twist_matches_per_term_sines(name):
    """The recurrence agrees with one sine per term to a few ulps of the
    largest term magnitudes it sums."""
    spec = TRIG_SPECS[name]
    tol = 1e-14 * twist_scale(spec)
    worst = max(abs(spec.twist(x) - per_term_twist(spec, x)) for x in map(float, trig_points(15)))
    assert worst <= tol


terms_st = st.lists(
    st.builds(TwistTerm,
              freq=st.one_of(st.integers(1, 12), st.integers(13, 3000)),
              amp=st.floats(-1.0, 1.0),
              phase=st.floats(0.0, TWO_PI)),
    min_size=1, max_size=6)


@given(terms=terms_st, winding=st.integers(-3, 3),
       xs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
# subnormal amplitudes, where the relative bound alone underflows to 0.0 and the
# two sums differ by one subnormal ulp
@example(terms=[TwistTerm(1, 2.2250738585e-313, 1.0)], winding=0, xs=[0.9375])
@example(terms=[TwistTerm(1, 5e-324, 1.0)], winding=0, xs=[0.8125])
# paths hypothesis rarely draws: a shared frequency (a Horner step of 0), a gap
# that _cis_power bridges, signed zero and subnormal amplitudes, a lone -0.0
# term whose zero sum meets -0.0 from negative winding at x = 0 (the float sum
# starts at 0j + w, so the array's must start at 0.0 + amp cos phase), and
# negative winding
@example(terms=[TwistTerm(3, 0.25, 0.1), TwistTerm(3, -0.4, 2.2), TwistTerm(1, 0.3, 4.0)],
         winding=1, xs=[0.0, 0.3, 0.7])
@example(terms=[TwistTerm(3, 0.2, 0.5), TwistTerm(3000, 1e-3, 1.1)], winding=0,
         xs=[0.123, 0.5, 0.999])
@example(terms=[TwistTerm(7, -0.0, 1.2), TwistTerm(2, 0.0, 0.3), TwistTerm(1, -5e-324, 2.0),
                TwistTerm(5, 2.2250738585e-313, 0.0)], winding=0, xs=[0.0, 0.4, 0.8125])
@example(terms=[TwistTerm(1, -0.0, 0.0)], winding=-2, xs=[0.0, 0.5])
@example(terms=[TwistTerm(2, 0.5, 0.7), TwistTerm(4, -0.1, 3.0)], winding=-3,
         xs=[0.0, 0.25, 0.6])
# four terms sharing one gap step of 3
@example(terms=[TwistTerm(3, 0.3, 0.2), TwistTerm(6, -0.2, 1.7), TwistTerm(9, 0.15, 3.1),
                TwistTerm(12, 0.05, 5.0)], winding=1, xs=[0.0, 0.37, 0.81])
@settings(max_examples=100, deadline=None)
def test_trig_sum_scalar_and_array_agree(terms, winding, xs):
    spec = CocycleSpec(base=BASE, winding=winding, terms=tuple(terms))
    arr = np.array(xs)
    scalar = [spec.twist(x) for x in xs]
    # bits, not ==, so the sign of a zero counts
    assert _angles(spec, arr).tobytes() == (TWO_PI * np.array(scalar)).tobytes()
    tol = max(1e-14 * twist_scale(spec), 4 * 5e-324)
    assert all(abs(g - per_term_twist(spec, x)) <= tol for g, x in zip(scalar, xs))


@pytest.mark.parametrize("name", sorted(TRIG_SPECS))
def test_trig_sum_leaves_its_cosines_and_sines_unmodified(name):
    """The array path works in its own buffers, in place, never in c or s."""
    a = TWO_PI * trig_points(16)
    c, s = np.cos(a), np.sin(a)
    c0, s0 = c.copy(), s.copy()
    _trig_sum(TRIG_SPECS[name]._plan, c, s)
    assert np.array_equal(c, c0) and np.array_equal(s, s0)


def test_replace_rebuilds_the_term_plan():
    spec = TRIG_SPECS["unsorted"]
    fewer = replace(spec, terms=spec.terms[:2])
    assert fewer.twist(0.3) == pytest.approx(per_term_twist(fewer, 0.3),
                                             abs=1e-14 * twist_scale(fewer))
    assert replace(fewer, terms=()).twist(0.3) == spec.winding * 0.3
    assert replace(fewer, terms=spec.terms).twist(0.3) == spec.twist(0.3)
    # the plan is derived: it takes no part in equality, hashing or repr
    stale = replace(spec)
    object.__setattr__(stale, "_plan", ())
    assert stale == spec and hash(stale) == hash(spec) and repr(stale) == repr(spec)


@pytest.mark.parametrize("spec", [example_spec(), twisted_spec()], ids=["example", "perturbed"])
def test_evaluate_matches_rotation_product_bitwise(spec):
    """evaluate builds A(x) straight from its entries; the oracle forms
    base . R(2 pi g(x)) through a rotation Mat2 and Mat2's @."""
    xs = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)],
                         np.random.default_rng(12).random(500)])
    for x in map(float, xs):
        want = spec.base @ rotation(TWO_PI * spec.twist(x))
        assert evaluate(spec, x) == (want.a, want.b, want.c, want.d)


def ill_conditioned_spec() -> CocycleSpec:
    """R(0.3) diag(1e4, 1e-4) R(0.7) twisted once per turn: |A(x)|^2 = 1e8, so
    det of an evaluated matrix carries cancellation error near 1e-9."""
    return CocycleSpec(base=rotation(0.3) @ Mat2.diagonal(1e4) @ rotation(0.7), winding=1)


@pytest.mark.parametrize("spec", [example_spec(), twisted_spec(), ill_conditioned_spec()],
                         ids=["example", "perturbed", "ill-conditioned"])
def test_entries_match_evaluate_bitwise(spec):
    """Scalar and array evaluation return the same entries, in hex so that the
    sign of a zero counts: evaluate adds no renormalization of its own, even
    where det drifts past DET_TOL, and _entries' in-place sums are _mul's."""
    xs = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)],
                         np.random.default_rng(13).random(2000)])
    ea, eb, ec, ed = _entries(spec, xs)
    for j, x in enumerate(map(float, xs)):
        want = [v.hex() for v in evaluate(spec, x)]
        assert [float(e[j]).hex() for e in (ea, eb, ec, ed)] == want


def test_twist_lipschitz_bounds_numeric_slope():
    spec = CocycleSpec(base=BASE, winding=3,
                       terms=(TwistTerm(4, 0.25, 0.3), TwistTerm(7, -0.15, 1.9)))
    lip = spec.twist_lipschitz()
    assert lip == pytest.approx(3 + 0.25 * TWO_PI * 4 + 0.15 * TWO_PI * 7)
    xs = np.linspace(0.0, 1.0, 20001)
    slopes = np.diff([spec.twist(float(x)) for x in xs]) / np.diff(xs)
    assert np.max(np.abs(slopes)) <= lip + 1e-9


def test_spec_json_round_trip():
    spec = CocycleSpec(base=random_sl2(np.random.default_rng(5), 3.0), winding=-2,
                       terms=(TwistTerm(2, 0.125, 0.75),), theta=0.5)
    again = spec_from_json(spec_to_json(spec))
    assert again == spec
    with pytest.raises(ValueError):
        spec_from_json({"winding": 1})  # no base
    with pytest.raises(ValueError):
        spec_from_json({"base": [[1.0, 0.0]]})
    identity = [[1.0, 0.0], [0.0, 1.0]]
    assert spec_from_json({"base": identity, "winding": 2.0}).winding == 2
    for bad in ({"winding": 1.7}, {"winding": True}, {"winding": "1"},
                {"twist": [{"freq": 1.5, "amp": 0.1}]}):
        with pytest.raises(ValueError, match="must be an integer"):
            spec_from_json({"base": identity, **bad})


@pytest.mark.parametrize("base", [Mat2(1, 0, 0, 1), Mat2(2, 1, np.int64(1), 1),
                                  Mat2(np.float32(2.0), 0, 0, 0.5)], ids=repr)
def test_spec_json_bytes_survive_a_round_trip(base):
    # Mat2 stores every entry as a float, so a spec built from ints writes the
    # bytes of its own round trip
    text = json.dumps(spec_to_json(CocycleSpec(base=base)))
    assert json.dumps(spec_to_json(spec_from_json(json.loads(text)))) == text
    assert all(type(v) is float for row in base.to_rows() for v in row)


# -- scaled products ----------------------------------------------------------

def naive_product(spec: CocycleSpec, m: ExpandingMap, x: float, n: int) -> np.ndarray:
    prod = np.eye(2)
    for _ in range(n):
        prod = np.reshape(evaluate(spec, x), (2, 2)) @ prod
        x = (m.k * x) % 1.0
    return prod


@pytest.mark.parametrize("k,n", [(2, 1), (8, 1), (8, 7), (8, 25), (3, 12)])
def test_product_matches_naive_matmul(k, n):
    spec = example_spec()
    m = ExpandingMap(k)
    for x in (0.0, 0.125, 0.3125, 0.819):
        want = naive_product(spec, m, x, n)
        got = cocycle_product(spec, m, x, n)
        have = math.exp(got.log_scale) * np.array([[got.a, got.b], [got.c, got.d]])
        assert np.linalg.norm(have - want, 2) <= 1e-10 * np.linalg.norm(want, 2)


def test_product_identity_at_zero_steps():
    got = cocycle_product(example_spec(), example_map(), 0.3, 0)
    assert got.log_scale == 0.0
    assert (got.a, got.b, got.c, got.d) == (1.0, 0.0, 0.0, 1.0)


def test_product_rejects_bad_args():
    with pytest.raises(ValueError):
        cocycle_product(example_spec(), example_map(), 0.3, -1)
    with pytest.raises(ValueError):
        cocycle_product(example_spec(), example_map(), 1.0, 3)


def test_product_survives_depth_constant_cocycle():
    """exp(n log 2) overflows float64 past n ~ 1024; the scaled form keeps
    the log of the norm exact to quadrature error."""
    got = cocycle_product(constant_spec(), example_map(), 0.5, 50_000)
    # one rounding of ~eps per log-accumulation step
    log_norm = got.log_scale + math.log(_s_max(got.a, got.b, got.c, got.d))
    assert log_norm == pytest.approx(50_000 * math.log(2.0), rel=1e-11)
    # s_min underflowed, as it should: only an infinite gap meets min_gap = inf
    assert proj_distance(got.stable_direction(math.inf), ProjPoint(math.pi / 2)) <= 1e-12


def test_scaled_matrix_frobenius_normalization():
    got = cocycle_product(example_spec(), example_map(), 0.819, 40)
    fr = math.sqrt(got.a**2 + got.b**2 + got.c**2 + got.d**2)
    assert fr == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_contracted_direction_of_diagonal_product():
    # diag(2, 1/2)^n contracts e2 hardest; ProjPoint(pi/2) is that axis
    got = cocycle_product(constant_spec(), example_map(), 0.25, 30)
    assert proj_distance(got.stable_direction(1e3), ProjPoint(math.pi / 2)) <= 1e-12
    # one factor has s_max/s_min = 4, below the required gap
    with pytest.raises(NoHyperbolicityError) as exc:
        cocycle_product(constant_spec(), example_map(), 0.25, 1).stable_direction(1e3)
    assert exc.value.gap == pytest.approx(4.0, rel=1e-12) and exc.value.required == 1e3


@pytest.mark.parametrize("n", [1, 2, 3, 7, 255, 4095, 4096, 4097, 8193])
def test_product_along_matches_sequential_fold(n):
    """The pairwise block reduction against one _product_step per point."""
    spec = twisted_spec()
    xs = np.random.default_rng(n).random(n)
    ma, mb, mc, md, logs = 1.0, 0.0, 0.0, 1.0, 0.0
    for x in xs.tolist():
        ma, mb, mc, md, logs = _product_step(ma, mb, mc, md, logs, *evaluate(spec, x))
    got = _product_along(spec, xs)
    assert np.max(np.abs(np.subtract([got.a, got.b, got.c, got.d], [ma, mb, mc, md]))) <= 1e-12
    assert got.log_scale == pytest.approx(logs, rel=1e-12)


def test_reduce_rejects_degenerate_products():
    zero = np.zeros(2)
    for every in PULL_EVERY:
        with pytest.raises(NumericOverflowError, match="degenerate step"):
            _reduce(zero, zero, zero, zero, every)
        with np.errstate(invalid="ignore"), pytest.raises(NumericOverflowError,
                                                          match="degenerate step"):
            _reduce(np.array([1.0, math.inf]), zero, zero, np.ones(2), every)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 4096, 4097])
def test_reduce_rows_match_one_dimensional_calls(n):
    """Reducing along the last axis gives each row the bits of its own 1-D call."""
    spec = twisted_spec()
    entries = _entries(spec, np.random.default_rng(n).random((3, n)))
    for every in PULL_EVERY:
        got = _reduce(*entries, every)
        for r in range(3):
            want = _reduce(*(e[r] for e in entries), every)
            assert [float(v[r]) for v in got] == [float(v) for v in want]


def test_reduce_rejects_one_degenerate_row():
    ea, eb, ec, ed = (np.ones((3, 5)), np.zeros((3, 5)), np.zeros((3, 5)), np.ones((3, 5)))
    ea[1], ed[1] = 0.0, 0.0
    for every in PULL_EVERY:
        with pytest.raises(NumericOverflowError, match="degenerate step"):
            _reduce(ea, eb, ec, ed, every)


def test_pull_sums_the_squares_left_to_right():
    """_pull's squared norm is ((a^2 + b^2) + c^2) + d^2, _product_step's sum.
    On the first matrix, pairwise summation (a^2 + b^2) + (c^2 + d^2) would
    round up one ulp where the left-to-right sum does not."""
    e = 8.8e-9
    assert ((1.0 + 0.0) + e * e) + e * e != (1.0 + 0.0) + (e * e + e * e)
    rng = np.random.default_rng(5)
    mats = [(1.0, 0.0, e, e), (0.0, 1.0, e, -e), (e, -1.0, e, 0.0)]
    mats += [tuple(rng.normal(size=4).tolist()) for _ in range(9)]
    p = np.array(mats).T.reshape(2, 2, 3, 4)
    logs = _pull(p)
    norms = [math.sqrt(a * a + b * b + c * c + d * d) for a, b, c, d in mats]
    want = [[v * (math.sqrt(2.0) / fr) for v in m] for m, fr in zip(mats, norms)]
    assert hex_bits(p.reshape(4, 12).T) == hex_bits(want)
    assert hex_bits([logs]) == hex_bits([np.log(np.array(norms) / math.sqrt(2.0))])


def reduce_by_entry_arrays(ea, eb, ec, ed, every):
    """The reduction on four separate entry arrays, as it stood before the
    entries were stacked: _mul on strided slices and a range check per
    pulled level.  Level j (the first is 1) is pulled when every divides j,
    and so is the root's; at every = 1 this is the old oracle unchanged."""
    logs = np.zeros(ea.shape)
    depth = 0
    while ea.shape[-1] > 1:
        n = ea.shape[-1]
        h = n & ~1
        depth += 1
        na, nb, nc, nd = _mul(ea[..., 1:h:2], eb[..., 1:h:2], ec[..., 1:h:2], ed[..., 1:h:2],
                              ea[..., :h:2], eb[..., :h:2], ec[..., :h:2], ed[..., :h:2])
        pair_logs = logs[..., 1:h:2] + logs[..., :h:2]
        if depth % every == 0 or n == 2:
            fr = np.sqrt(na * na + nb * nb + nc * nc + nd * nd)
            if not (fr.min() > 0.0 and fr.max() < math.inf):
                raise NumericOverflowError("degenerate step in scaled product")
            inv = math.sqrt(2.0) / fr
            na, nb, nc, nd = na * inv, nb * inv, nc * inv, nd * inv
            pair_logs = pair_logs + np.log(fr / math.sqrt(2.0))
        level = [na, nb, nc, nd, pair_logs]
        if h < n:
            level = [np.concatenate((v, w[..., -1:]), axis=-1)
                     for v, w in zip(level, (ea, eb, ec, ed, logs))]
        ea, eb, ec, ed, logs = level
    return ea[..., 0], eb[..., 0], ec[..., 0], ed[..., 0], logs[..., 0]


def hex_bits(values) -> list[list[str]]:
    """float.hex of every entry, so -0.0 and 0.0 differ."""
    return [[float(x).hex() for x in np.ravel(v)] for v in values]


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 4095, 4096, 4097])
@pytest.mark.parametrize("make_spec", [example_spec, twisted_spec], ids=["example", "perturbed"])
def test_stacked_reduce_matches_entry_array_reduce_bitwise(make_spec, n):
    spec = make_spec()
    rng = np.random.default_rng(n)
    for shape in ((n,), (1, n), (2, n), (3, n), (4, n)):
        entries = _entries(spec, rng.random(shape))
        for every in PULL_EVERY:
            got = _reduce(*entries, every)
            assert [v.shape for v in got] == [shape[:-1]] * 5
            assert hex_bits(got) == hex_bits(reduce_by_entry_arrays(*entries, every))


# ±0, subnormals, 1e±150 and everything between; no product overflows
stack_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-150, -1e-150, 1e150, -1e150]),
    st.floats(min_value=-1e150, max_value=1e150),
)


@given(st.integers(1, 5).flatmap(lambda m: st.lists(stack_entries, min_size=8 * m,
                                                    max_size=8 * m)))
@settings(max_examples=300, deadline=None)
def test_stacked_product_is_mul_bitwise(values):
    left, right = np.array(values).reshape(2, 2, 2, -1)
    got = _mul_stacked(left, right)
    want = _mul(*left.reshape(4, -1), *right.reshape(4, -1))
    assert hex_bits(got.reshape(4, -1)) == hex_bits(want)


def identity_entries(n: int):
    return np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)


def zero_at_an_inner_level():
    # E1 E0 = diag(1, 0) and E3 E2 = diag(0, 1): the level-1 product is zero
    ea, eb, ec, ed = identity_entries(8)
    ed[0] = 0.0
    ea[2] = 0.0
    return ea, eb, ec, ed


def inf_in_the_last_pair():
    ea, eb, ec, ed = identity_entries(8)
    ea[7] = math.inf
    return ea, eb, ec, ed


def inf_in_the_odd_leftover():
    ea, eb, ec, ed = identity_entries(5)
    eb[4] = -math.inf
    return ea, eb, ec, ed


def nan_entry():
    ea, eb, ec, ed = identity_entries(6)
    ec[3] = math.nan
    return ea, eb, ec, ed


def zero_pair():
    # diag(0, 1) diag(1, 0) = 0
    return np.array([1.0, 0.0]), np.zeros(2), np.zeros(2), np.array([0.0, 1.0])


def inf_pair():
    ea, eb, ec, ed = identity_entries(2)
    ed[1] = math.inf
    return ea, eb, ec, ed


def zero_below_unpulled_levels():
    # E3 E2 = 0 at level 1 of a 40-matrix tree; at every = 8 no level pulls
    # before the root (level 6), at every = 2 levels 2, 4 and 6 do
    ea, eb, ec, ed = identity_entries(40)
    ed[2] = 0.0
    ea[3] = 0.0
    return ea, eb, ec, ed


def nan_in_the_odd_leftover():
    ea, eb, ec, ed = identity_entries(3)
    ea[2] = math.nan
    return ea, eb, ec, ed


def as_tuples(entries) -> list[tuple[float, float, float, float]]:
    """Entry arrays (ea, eb, ec, ed) as the per-matrix tuples _reduce_short takes."""
    return list(zip(*(np.asarray(e, dtype=np.float64).tolist() for e in entries)))


@pytest.mark.parametrize("make", [zero_at_an_inner_level, inf_in_the_last_pair,
                                  inf_in_the_odd_leftover, nan_entry, zero_pair, inf_pair,
                                  nan_in_the_odd_leftover, zero_below_unpulled_levels],
                         ids=lambda f: f.__name__)
def test_degenerate_products_raise_and_warn_nothing(make):
    # no np.errstate here: a RuntimeWarning would be an error; at every = 2
    # and 8 the degenerate node sits at a level that is not pulled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for every in PULL_EVERY:
            with pytest.raises(NumericOverflowError, match="degenerate step"):
                _reduce(*make(), every)
            with pytest.raises(NumericOverflowError, match="degenerate step"):
                _reduce_short(as_tuples(make()), every)


def reduce_outcome(reduce, *args):
    try:
        return hex_bits(reduce(*args))
    except NumericOverflowError:
        return "degenerate"


@pytest.mark.parametrize("n", range(1, _SHORT + 2))
def test_short_reduce_is_reduce_bitwise(n):
    """_reduce_short gives _reduce's bits, or its error, on entries from 1e-150 to 1e150."""
    rng = np.random.default_rng([21, n])
    finite = 0
    for spread in (0, 1, 10, 75, 150):
        for _ in range(20):
            entries = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-spread, spread, (4, n))
            for every in PULL_EVERY:
                want = reduce_outcome(_reduce, *entries, every)
                assert reduce_outcome(_reduce_short, as_tuples(entries), every) == want
                finite += want != "degenerate"
    assert finite >= 40 * len(PULL_EVERY)


def test_short_reduce_takes_the_logs_of_np_log():
    """The pair's norm sqrt(0.66^2 + 1) / sqrt(2) is one where math.log and np.log
    can differ in the last bit (they do with numpy 2.4 on x86-64 Linux)."""
    entries = (np.array([1.0, 0.66]), np.zeros(2), np.zeros(2), np.ones(2))
    for every in PULL_EVERY:
        assert hex_bits(_reduce_short(as_tuples(entries), every)) == \
            hex_bits(_reduce(*entries, every))


@pytest.mark.parametrize("every", PULL_EVERY)
def test_reductions_follow_the_pull_schedule_bitwise(every):
    """_reduce and _reduce_short give reduce_by_entry_arrays' bits for n = 1 to
    2^every + 3, so odd leftovers carry across pulled and unpulled levels."""
    spec = twisted_spec()
    rng = np.random.default_rng([23, every])
    for n in range(1, 2**every + 4):
        entries = _entries(spec, rng.random(n))
        want = hex_bits(reduce_by_entry_arrays(*entries, every))
        assert hex_bits(_reduce(*entries, every)) == want, n
        assert hex_bits(_reduce_short(as_tuples(entries), every)) == want, n


# (sup norm, pull period): each threshold of _pull_period and the next float up
PULL_PERIODS = [(1.0, 8), (math.sqrt(2.0), 8), (2.0, 8), (np.nextafter(2.0, 3.0), 7),
                (4.0, 7), (np.nextafter(4.0, 5.0), 6), (16.0, 6), (256.0, 5), (2.0**16, 4),
                (np.nextafter(2.0**16, 2.0**17), 3), (2.0**32, 3), (2.0**64, 2),
                (np.nextafter(2.0**64, 2.0**65), 1), (2.0**128, 1), (2.0**256, 1)]


@pytest.mark.parametrize("sigma,every", PULL_PERIODS, ids=repr)
def test_pull_period_is_the_largest_that_fits_256_bits(sigma, every):
    """2^L log2(max(sigma, sqrt 2)) <= 256, as max(sigma, sqrt 2)^(2^L) <= 2^256
    in exact rationals on the floats."""
    assert _pull_period(sigma) == every
    fits = [lag for lag in range(1, 12)
            if Fraction(max(float(sigma), math.sqrt(2.0))) ** 2**lag <= 2**256]
    assert every == max(fits, default=1)


def test_pull_period_is_derived_from_the_base():
    spec = example_spec()
    assert spec._pull_every == _pull_period(spec.sup_norm()) == 8
    wide = replace(spec, base=Mat2.diagonal(2.0**20))
    assert wide._pull_every == 3
    assert perturb(wide, 0.05, seed=1)._pull_every == 3
    # derived: it takes no part in equality, hashing or repr
    other = with_pull_every(spec, 1)
    assert other == spec and hash(other) == hash(spec) and repr(other) == repr(spec)


# sup norms at and just past each threshold of _pull_period named below, and
# 2^256, about the largest at which a pull at every level survives these inputs
# (at 2^256.01 a first-level square overflows)
OVERFLOW_SIGMAS = [2.0, np.nextafter(2.0, 3.0), 4.0, np.nextafter(4.0, 5.0), 2.0**16,
                   np.nextafter(2.0**16, 2.0**17), 2.0**64, np.nextafter(2.0**64, 2.0**65),
                   2.0**256]


@pytest.mark.parametrize("sigma", OVERFLOW_SIGMAS, ids=repr)
def test_spaced_pulls_do_not_overflow(sigma):
    """Products of 4095 and 4097 points, and norm growth over 2 _BLOCK + 1
    steps, at the spec's own pull period raise nothing and give the log scale
    of a pull at every level within 1e-13 relative."""
    spec = perturb(full_twist_spec(Mat2.diagonal(float(sigma))), 0.05, seed=3)
    every_level = with_pull_every(spec, 1)
    rng = np.random.default_rng(31)
    for n in (_BLOCK - 1, _BLOCK + 1):
        xs = rng.random(n)
        got, want = _product_along(spec, xs), _product_along(every_level, xs)
        assert got.log_scale == pytest.approx(want.log_scale, rel=1e-13, abs=0.0)
        assert math.hypot(got.a, got.b, got.c, got.d) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    digits = np.random.default_rng(37).integers(0, 3, size=(2, 2 * _BLOCK + 1 + 64))
    got = list(_block_products(spec, 3, digits.astype(np.uint8), 0, 2 * _BLOCK + 1))
    want = list(_block_products(every_level, 3, digits.astype(np.uint8), 0, 2 * _BLOCK + 1))
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g[4] == pytest.approx(w[4], rel=1e-13, abs=0.0)


def test_cocycle_product_streams_the_float_orbit():
    """Blockwise orbit generation gives the product of the whole-list orbit bitwise."""
    spec, m, x, n = twisted_spec(), ExpandingMap(3), 0.3, 2 * _BLOCK + 5
    xs = []
    for _ in range(n):
        xs.append(x)
        x = (3.0 * x) % 1.0
    assert cocycle_product(spec, m, 0.3, n) == _product_along(spec, xs)


def log_norm(p) -> float:
    return p.log_scale + math.log(_s_max(p.a, p.b, p.c, p.d))


# (k, x) whose float orbit settles on a fixed point: every dyadic x at even k
# reaches 0, 0.3 takes about 18 steps at k = 8 and 2^-1000 takes 334; 0.5 is
# fixed for odd k
SETTLING_ORBITS = [(k, x) for k in (2, 4, 8)
                   for x in (0.0, 0.5, 1 / 4096, 1365 / 4096, 2731 / 4096, 4095 / 4096)]
SETTLING_ORBITS += [(8, 0.3), (8, 2.0**-1000), (3, 0.5), (5, 0.5)]


@pytest.mark.parametrize("k,x", SETTLING_ORBITS, ids=repr)
def test_product_tail_at_a_fixed_point_matches_the_dense_tree(k, x):
    """A(x*)^r by squaring after the orbit settles, against every point reduced."""
    n_max = 50_000
    xs = [x]
    for _ in range(n_max - 1):
        xs.append((k * xs[-1]) % 1.0)
    settle = next(i for i, y in enumerate(xs) if (k * y) % 1.0 == y)
    steps = {1, settle - 1, settle, settle + 1, 256, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5, n_max}
    for spec in (example_spec(), twisted_spec()):
        for n in sorted(s for s in steps if s >= 1):
            got = cocycle_product(spec, ExpandingMap(k), x, n)
            want = _product_along(spec, xs[:n])
            assert log_norm(got) == pytest.approx(log_norm(want), rel=1e-13), n
            try:
                e_want = want.stable_direction(1e3)
            except NoHyperbolicityError:
                continue
            assert proj_distance(got.stable_direction(1e3), e_want) <= 1e-13, n


def product_bits(spec, k, x, n) -> list[str]:
    p = cocycle_product(spec, ExpandingMap(k), x, n)
    return [v.hex() for v in (p.a, p.b, p.c, p.d, p.log_scale)]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_ladder_cache_changes_no_product(k):
    """cocycle_product's bits with a cold ladder cache, a warm one and after
    cache_clear(), for two specs whose orbits settle on the same x* = 0."""
    specs = (example_spec(), twisted_spec())
    points = (0.0, 0.5, 3 / 64, 0.1, 0.7)
    cases = [(spec, x, n) for spec in specs for x in points for n in (1, 2, 255, 256, 4097)]
    cold = []
    for spec, x, n in cases:
        _ladder.cache_clear()
        cold.append(product_bits(spec, k, x, n))
    _ladder.cache_clear()
    for _ in range(2):  # the first pass fills the cache, the second reads it
        assert [product_bits(spec, k, x, n) for spec, x, n in cases] == cold
    assert _ladder.cache_info().hits >= len(cases)
    _ladder.cache_clear()
    assert [product_bits(spec, k, x, n) for spec, x, n in reversed(cases)] == cold[::-1]


def test_ladder_cache_is_bounded_and_keyed_by_bits():
    """At most maxsize ladders stay cached, and a ladder is keyed by A(x*)'s
    bits: specs equal but for the sign of a zero base entry get their own."""
    _ladder.cache_clear()
    size = _ladder.cache_info().maxsize
    assert size is not None and size <= 64
    for j in range(size + 10):
        spec = CocycleSpec(base=Mat2.diagonal(2.0 + j), winding=1)
        cocycle_product(spec, ExpandingMap(2), 0.5, 300)
    assert _ladder.cache_info().currsize == size
    plus = CocycleSpec(base=Mat2(2.0, 0.0, 0.0, 0.5), winding=1)
    minus = CocycleSpec(base=Mat2(2.0, -0.0, 0.0, 0.5), winding=1)
    assert plus == minus
    rungs = [_ladder(_BITS(*_entries(s, 0.0)), 3) for s in (plus, minus)]
    assert [math.copysign(1.0, r[1]) for r in rungs[0]] == [1.0] * 3
    assert [math.copysign(1.0, r[1]) for r in rungs[1]] == [-1.0] * 3


def test_entries_at_a_float_are_evaluates_floats():
    """_entries' float path gives Python floats with evaluate's bits, at a
    float and at a numpy float64."""
    for spec in (example_spec(), twisted_spec()):
        for x in (0.0, 0.5, 0.1, np.nextafter(1.0, 0.0)):
            want = [v.hex() for v in evaluate(spec, x)]
            for arg in (x, np.float64(x)):
                got = _entries(spec, arg)
                assert [type(v) for v in got] == [float] * 4
                assert [v.hex() for v in got] == want


def test_numpy_cos_and_sin_are_math_bitwise():
    """np.cos and np.sin on float64 arrays give math.cos's and math.sin's bits.

    Code that relies on it: evaluate (math) and _entries (numpy) must agree,
    _entries' float path takes math.cos and math.sin for numpy's bits, and
    sl2._pushed_angles takes cos and sin of its angles from numpy for math's.
    """
    rng = np.random.default_rng(29)
    subnormal = rng.integers(1, 2**52, size=2000).view(np.float64)
    xs = np.concatenate([rng.uniform(0.0, TWO_PI, size=20000),
                         rng.uniform(-1e6, 1e6, size=5000), [1e6, -1e6, 0.0, -0.0],
                         subnormal, -subnormal])
    for np_f, math_f in ((np.cos, math.cos), (np.sin, math.sin)):
        got = np_f(xs)
        bad = [x for x, v in zip(xs.tolist(), got.tolist()) if v.hex() != math_f(x).hex()]
        assert not bad, (f"np.{np_f.__name__} differs from math.{math_f.__name__} at "
                         f"{len(bad)} points, first {bad[0]!r}: evaluate and _entries, "
                         "_entries' float path and sl2._pushed_angles rely on their bits")


# -- norm-growth estimator ----------------------------------------------------

def vector_recurrence_sample(spec, k, n_steps, burn_in, rng) -> float:
    """One norm-growth sample stepped a vector at a time, the scalar oracle."""
    total = burn_in + n_steps
    digits = rng.integers(0, k, size=total + window_width(k))
    theta0 = rng.random() * math.pi
    vx, vy = math.cos(theta0), math.sin(theta0)
    b = spec.base
    acc = 0.0
    ang = _angles(spec, _orbit(k, digits, total))
    for j, (cs, sn) in enumerate(zip(np.cos(ang).tolist(), np.sin(ang).tolist())):
        rx = cs * vx - sn * vy
        ry = sn * vx + cs * vy
        wx = b.a * rx + b.b * ry
        wy = b.c * rx + b.d * ry
        nrm = math.sqrt(wx * wx + wy * wy)
        if j >= burn_in:
            acc += math.log(nrm)
        vx, vy = wx / nrm, wy / nrm
    return acc / n_steps


@pytest.mark.parametrize("k,n_steps,burn_in", [
    (8, 5000, 0), (3, 4097, 1), (2, 100, 4096), (8, 9000, 5000),
    # streams of _BLOCK - 1, _BLOCK, _BLOCK + 1 and 2 _BLOCK + 3 digits (with the
    # window's w): the chunked draws must end where one whole draw ends
    (5, _BLOCK - 1 - 26, 0), (7, _BLOCK - 22, 0), (10, _BLOCK + 1 - 18, 0),
    (100, 2 * _BLOCK + 3 - 9, 0), (512, _BLOCK - 1 - 6, 1),
])
def test_norm_growth_sample_matches_vector_recurrence(k, n_steps, burn_in):
    spec = twisted_spec()
    got = _norm_growth_group(spec, k, n_steps, burn_in, [rng_from(7, k, i) for i in range(3)])
    want = [vector_recurrence_sample(spec, k, n_steps, burn_in, rng_from(7, k, i))
            for i in range(3)]
    assert got == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n_samples", sorted({1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1}))
def test_norm_growth_groups_keep_each_sample_seed(n_samples):
    """Sample i runs on rng_from(seed, i) wherever the group boundaries fall."""
    spec, seed = twisted_spec(), (DEFAULT_SEED, 5)
    est = lyapunov_norm_growth(spec, ExpandingMap(3), n_steps=700, n_samples=n_samples,
                               seed=seed, burn_in=70)
    mean, se = _mean_stderr([vector_recurrence_sample(spec, 3, 700, 70, rng_from(seed, i))
                             for i in range(n_samples)])
    assert est.value == pytest.approx(mean, abs=1e-14)
    assert est.std_error == pytest.approx(se, abs=1e-14)


def per_block_norm_growth(spec, k, n_steps, burn_in, rngs) -> list[float]:
    """_norm_growth_group as it stood before its blocks shared their narrow
    levels: one _orbit call per row, stacked, and one reduction per block,
    here reduce_by_entry_arrays on the spec's pull schedule."""
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
    acc = [0.0] * len(rngs)
    for start, stop, counted in ((0, burn_in, False), (burn_in, total, True)):
        for lo in range(start, stop, _BLOCK):
            xs = np.stack([_orbit(k, ds[lo:], min(_BLOCK, stop - lo)) for ds in digits])
            block = reduce_by_entry_arrays(*_entries(spec, xs), spec._pull_every)
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


# (burn_in, n_steps): 0, 1, 7, 8, 9 and 17 full counted blocks, with and
# without a partial last block, and burn-ins of one partial, one full plus
# one partial, and two full blocks
BLOCK_COUNTS = [
    (100, 1000), (0, _BLOCK), (100, 7 * _BLOCK + 5), (2 * _BLOCK, 8 * _BLOCK),
    (_BLOCK + 904, 9 * _BLOCK + 1), (100, 17 * _BLOCK + 300),
]


@pytest.mark.parametrize("burn_in,n_steps", BLOCK_COUNTS)
@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("make_spec", [example_spec, twisted_spec], ids=["example", "perturbed"])
def test_norm_growth_matches_per_block_reduce_bitwise(make_spec, k, burn_in, n_steps):
    """Blocks that finish their narrow levels together give each sample the
    bits of one reduction per block, on each pull schedule."""
    for every in PULL_EVERY:
        spec = with_pull_every(make_spec(), every)
        rngs = [rng_from(9, k, i) for i in range(3)]
        got = _norm_growth_group(spec, k, n_steps, burn_in, rngs)
        rngs = [rng_from(9, k, i) for i in range(3)]
        want = per_block_norm_growth(spec, k, n_steps, burn_in, rngs)
        assert [v.hex() for v in got] == [v.hex() for v in want], every


def test_norm_growth_memory_stays_small():
    """Traced peak of norm growth at the lyap defaults; grouping more samples
    per reduction (and so more scratch rows) would break the bound."""
    tracemalloc.start()
    try:
        lyapunov_norm_growth(example_spec(), example_map(8), n_steps=100_000, n_samples=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def _norm_growth_peak(spec: CocycleSpec) -> int:
    tracemalloc.start()
    try:
        lyapunov_norm_growth(spec, example_map(8), n_steps=10_000, n_samples=8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_twist_terms_add_little_to_norm_growth_memory():
    """An 8-term twist's sum runs in place in a few block-sized buffers, so
    its traced peak stays within 32 KiB of the example's.  A temporary per
    operation would put it about 250 KB above."""
    assert _norm_growth_peak(twisted_spec()) <= _norm_growth_peak(example_spec()) + 32 * 1024


def test_norm_growth_digits_stay_one_byte_per_step():
    """Traced peak of 4 samples at 10**6 steps: each stream is drawn into one
    byte per step in block-size chunks, never as one int64 draw (12.0 MB)."""
    tracemalloc.start()
    try:
        lyapunov_norm_growth(example_spec(), example_map(8), n_steps=10**6, n_samples=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7_000_000


# warm norm growth on an 8-term spec, then the minor faults of three more calls
_FAULT_PROBE = """
import resource
from cocyclelab import ExpandingMap, Mat2, full_twist_spec, lyapunov_norm_growth, perturb

spec = perturb(full_twist_spec(Mat2.diagonal(2.0)), 0.05, 1)
lyapunov_norm_growth(spec, ExpandingMap(8), n_steps=10_000, n_samples=8)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    lyapunov_norm_growth(spec, ExpandingMap(8), n_steps=10_000, n_samples=8)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc heap behaviour")
def test_norm_growth_blocks_do_not_refault_the_heap():
    """Each block reuses the C heap the last one freed.  Left to glibc's
    start-up thresholds, every block's arrays are mapped, unmapped and faulted
    in afresh: about 6 000 minor faults over these three calls."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) <= 500


def _no_c_library(name):
    raise OSError("no C library here")


@pytest.mark.parametrize("fake_cdll", [_no_c_library, lambda name: object()],
                         ids=["no-library", "no-malloc"])
def test_norm_growth_runs_without_a_c_malloc(fake_cdll, monkeypatch):
    """Where no C malloc is found the heap helper does nothing, and the
    estimate keeps its bits."""
    want = lyapunov_norm_growth(twisted_spec(), ExpandingMap(3), n_steps=500, n_samples=2)
    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    _keep_heap_resident()
    assert lyapunov_norm_growth(twisted_spec(), ExpandingMap(3), n_steps=500, n_samples=2) == want


def test_norm_growth_constant_diagonal_is_log2():
    est = lyapunov_norm_growth(constant_spec(), example_map(), n_steps=2000,
                               n_samples=4, seed=(DEFAULT_SEED, 0))
    assert est.value == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.std_error <= 1e-12
    assert est.method == "norm_growth"


@pytest.mark.parametrize("base", [Mat2.identity(), rotation(0.7)])
def test_norm_growth_isometries_vanish(base):
    est = lyapunov_norm_growth(CocycleSpec(base=base), example_map(),
                               n_steps=2000, n_samples=4)
    assert abs(est.value) <= 1e-14


def test_norm_growth_pinned_regression():
    """Frozen first-run value for the canonical example; catches any drift
    in seeding, digit-stream simulation, or product order."""
    est = lyapunov_norm_growth(example_spec(), example_map(8), n_steps=100_000,
                               n_samples=32, seed=(DEFAULT_SEED, 0))
    assert est.value == pytest.approx(0.22356619697188698, abs=1e-12)
    assert est.std_error == pytest.approx(0.0002651262274570716, abs=1e-12)


def test_norm_growth_pulled_at_every_level_keeps_the_old_bits():
    """At a pull period of 1 the tree is the one every level was pulled in, so
    the lyap defaults give the values frozen before pulls were spaced."""
    est = lyapunov_norm_growth(with_pull_every(example_spec(), 1), example_map(8),
                               n_steps=100_000, n_samples=32, seed=(DEFAULT_SEED, 0))
    assert est.value.hex() == (0.2235661969718866).hex()
    assert est.std_error.hex() == (0.00026512622745706655).hex()


def test_norm_growth_rejects_bad_sizes():
    with pytest.raises(ValueError):
        lyapunov_norm_growth(example_spec(), example_map(), n_steps=0)
    with pytest.raises(ValueError):
        lyapunov_norm_growth(example_spec(), example_map(), n_steps=10, n_samples=0)
    with pytest.raises(ValueError):
        lyapunov_norm_growth(example_spec(), example_map(), n_steps=2000, burn_in=-100)


# -- stable directions and the space-average estimator -------------------------

def test_oseledets_direction_constant_diagonal():
    e = oseledets_stable_direction(constant_spec(), example_map(), 0.3, n=64)
    assert proj_distance(e, ProjPoint(math.pi / 2)) <= 1e-12


def test_oseledets_direction_stabilizes_in_n():
    x = 0.4375  # dyadic, so the k=8 float orbit is exact
    e1 = oseledets_stable_direction(example_spec(), example_map(), x, n=200)
    e2 = oseledets_stable_direction(example_spec(), example_map(), x, n=400)
    assert proj_distance(e1, e2) <= 1e-6


def test_oseledets_rejects_isometries():
    with pytest.raises(NoHyperbolicityError):
        oseledets_stable_direction(rotation_spec(), example_map(), 0.3, n=64)


def test_phi_values():
    spec = constant_spec()
    assert phi(spec, 0.0, ProjPoint(0.0)) == pytest.approx(math.log(2.0), abs=1e-15)
    assert phi(spec, 0.0, ProjPoint(math.pi / 2)) == pytest.approx(-math.log(2.0), abs=1e-15)


def test_furstenberg_constant_diagonal_is_log2():
    est = lyapunov_furstenberg(constant_spec(), example_map(), n_direction=64,
                               n_samples=8)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-9)
    assert est.method == "furstenberg"
    assert not est.degenerate


@pytest.mark.parametrize("base", [Mat2.identity(), rotation(0.7)])
def test_furstenberg_flags_isometries_degenerate(base):
    est = lyapunov_furstenberg(CocycleSpec(base=base), example_map(),
                               n_direction=64, n_samples=4)
    assert est.degenerate
    assert est.value == 0.0 and est.std_error == 0.0


def test_estimators_agree_on_example():
    ng = lyapunov_norm_growth(example_spec(), example_map(), n_steps=20_000,
                              n_samples=16, seed=(DEFAULT_SEED, 0))
    fb = lyapunov_furstenberg(example_spec(), example_map(), n_direction=256,
                              n_samples=64, seed=(DEFAULT_SEED, 1))
    sigma = math.hypot(ng.std_error, fb.std_error)
    assert abs(ng.value - fb.value) <= 3.0 * sigma
    assert ng.value > 0.2 and fb.value > 0.1


def test_estimate_serialization():
    est = lyapunov_norm_growth(constant_spec(), example_map(), n_steps=100,
                               n_samples=2, seed=(3, 1))
    d = est.to_dict()
    assert d["seed"] == [3, 1] and d["method"] == "norm_growth"
    json.dumps(d)  # payload must be JSON-clean


# -- C0 geometry ---------------------------------------------------------------

def test_c0_distance_self_is_zero():
    gap = c0_distance(example_spec(), example_spec())
    assert gap.grid == 0.0
    assert 0.0 < gap.certified <= example_spec().lipschitz() / 4096


def test_c0_distance_constant_shift():
    a = constant_spec(2.0)
    b = CocycleSpec(base=Mat2.diagonal(2.0) @ rotation(0.01))
    gap = c0_distance(a, b)
    want = float(np.linalg.norm(as_array(a.base) - as_array(b.base), 2))
    assert gap.grid == pytest.approx(want, rel=1e-12)
    assert gap.certified >= gap.grid


def test_perturb_zero_is_identity():
    spec = example_spec()
    assert perturb(spec, 0.0, seed=1) is spec


def test_perturb_is_small_and_deterministic():
    spec = example_spec()
    eps = 0.05
    p1 = perturb(spec, eps, seed=(9, 7))
    p2 = perturb(spec, eps, seed=(9, 7))
    assert p1 == p2
    gap = c0_distance(spec, p1)
    assert 0.0 < gap.certified <= TWO_PI * eps * spec.sup_norm() * 1.01
    with pytest.raises(ValueError):
        perturb(spec, -0.1, seed=1)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_perturbed_family_stays_rotation_twisted(seed):
    """Perturbations only add twist terms, so dilation data is untouched."""
    p = perturb(example_spec(), 0.05, seed=seed)
    assert p.base == example_spec().base
    assert p.winding == 1
    assert all(t.freq >= 1 for t in p.terms)
    assert sum(abs(t.amp) for t in p.terms) <= 0.05 + 1e-15


# -- fiber bunching ------------------------------------------------------------

def test_bunching_example_k8():
    rep = u_bunching_check(example_spec(), ExpandingMap(8))
    assert rep.bunched
    # sup |A||A^-1| = 4 against sigma = 8: margin 1 - 4/8 = 1/2 minus grid pad
    assert rep.margin == pytest.approx(0.5, abs=2e-3)
    assert rep.sup_grid <= rep.sup_certified


def test_bunching_fails_at_k2():
    rep = u_bunching_check(example_spec(), ExpandingMap(2))
    assert not rep.bunched
    assert rep.margin < 0.0  # 1 - 4/2 = -1 up to grid pad
    assert rep.margin == pytest.approx(-1.0, abs=5e-3)


def test_bunching_theta_tradeoff():
    # weaker Holder exponent weakens the base contraction it can use:
    # theta = 1/3 gives 4 / 8^(1/3) = 2 > 1, not bunched
    rep = u_bunching_check(example_spec(), ExpandingMap(8), theta=1.0 / 3.0)
    assert not rep.bunched
    with pytest.raises(ValueError):
        u_bunching_check(example_spec(), ExpandingMap(8), theta=0.0)


@pytest.mark.parametrize("grid_n", [0, 1])
def test_bunching_rejects_coarse_grid(grid_n):
    with pytest.raises(ValueError, match="grid_n"):
        u_bunching_check(example_spec(), ExpandingMap(8), grid_n=grid_n)


def test_bunching_identity_always():
    rep = u_bunching_check(CocycleSpec(base=Mat2.identity()), ExpandingMap(2))
    assert rep.bunched
    assert rep.margin == pytest.approx(0.5, abs=1e-12)
