"""Projective loops, degree obstructions, and the invariant-section search."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from _util import example_map, example_spec, proj_distance, rotation, with_pull_every
from cocyclelab import (
    CocycleSpec,
    ExpandingMap,
    Mat2,
    ProjPoint,
    ProjectiveLoop,
    ResolutionError,
    TwistTerm,
    cocycle_product,
    degree_obstruction,
    evaluate,
    perturb,
    section_consistency_search,
    section_residual,
    stable_direction_loop,
    twist_degree,
    winding_number,
)
from cocyclelab.sections import _interpolation, _push
from cocyclelab.sl2 import _arc, _dist, _pushed_angles, _wrap

PI = math.pi


def smooth_loop(degree: int, n: int = 256, wobble: float = 0.4,
                seed: int = 0) -> ProjectiveLoop:
    rng = np.random.default_rng([13, seed])
    t = np.arange(n) / n
    s = PI * degree * t
    for f in (1, 2, 3):
        s += wobble / f * float(rng.uniform(-1, 1)) * np.sin(2 * PI * f * t + float(rng.uniform(0, 2 * PI)))
    return ProjectiveLoop(np.mod(s, PI))


def unwrap_degree(loop: ProjectiveLoop) -> int:
    """Independent lift: pi-periodic unwrap via doubled angles."""
    closed = np.append(loop.samples, loop.samples[0])
    lift = np.unwrap(2.0 * closed) / 2.0
    return int(round((lift[-1] - lift[0]) / PI))


# -- loops ----------------------------------------------------------------------

def test_loop_validation():
    with pytest.raises(ValueError):
        ProjectiveLoop(np.zeros(7))  # not a power of two
    with pytest.raises(ValueError):
        ProjectiveLoop(np.zeros(4))  # too short
    with pytest.raises(ValueError):
        ProjectiveLoop(np.zeros((8, 2)))
    with pytest.raises(ValueError):
        ProjectiveLoop(np.array([0.0] * 7 + [math.nan]))
    loop = ProjectiveLoop(np.linspace(-5.0, 9.0, 16))
    assert np.all((0.0 <= loop.samples) & (loop.samples < PI))


def test_loop_value_interpolates_on_grid():
    loop = smooth_loop(2, n=64)
    for j in (0, 1, 31, 63):
        assert loop.value(j / 64) == pytest.approx(loop.samples[j], abs=1e-15)
    assert loop.value(1.0) == pytest.approx(loop.samples[0], abs=1e-15)
    # -1e-20 % 1.0 rounds to 1.0, one past the last sample index
    assert loop.value(-1e-20) == loop.samples[0]
    assert ProjectiveLoop(np.linspace(0, 1, 8)).value(-1e-20) == 0.0


def value_by_floats(loop: ProjectiveLoop, x: float) -> float:
    """The interpolation in Python floats and ints, one point at a time."""
    t = (x % 1.0) * loop.n
    j = int(t)
    s0, s1 = float(loop.samples[j % loop.n]), float(loop.samples[(j + 1) % loop.n])
    step = (s1 - s0 + PI / 2.0) % PI - PI / 2.0
    v = (s0 + (t - j) * step) % PI
    return 0.0 if v >= PI else v


def test_loop_value_stays_below_pi():
    # s0 + t * step = -1e-20 here, and np.mod(-1e-20, pi) rounds up to pi
    samples = np.zeros(8)
    samples[1] = PI - 1e-3
    loop = ProjectiveLoop(samples)
    assert loop.value(1.25e-18) == 0.0
    assert isinstance(loop.value(1.25e-18), float)
    xs = np.append(np.random.default_rng(5).uniform(-1.0, 2.0, size=1000), 1.25e-18)
    values = loop.value(xs)
    assert np.all((0.0 <= values) & (values < PI))


def test_loop_value_on_an_array_is_the_scalar_value():
    loop = smooth_loop(3, n=64, seed=7)
    rng = np.random.default_rng(11)
    xs = np.concatenate([np.arange(64) / 64, [1.0, -1e-20, 0.0, -0.0],
                         rng.uniform(-2.0, 3.0, size=1000)])
    values = loop.value(xs)
    assert values.shape == xs.shape
    for want in ([loop.value(x) for x in xs.tolist()],
                 [value_by_floats(loop, x) for x in xs.tolist()]):
        assert np.array_equal(values.view(np.int64), np.array(want).view(np.int64))


def value_by_arrays(loop: ProjectiveLoop, x):
    """value's body before its plan and apply steps were split, in numpy."""
    t = np.mod(x, 1.0) * loop.n
    j = np.floor(t).astype(np.int64)
    s0 = loop.samples[j % loop.n]
    s1 = loop.samples[(j + 1) % loop.n]
    return _wrap(s0 + (t - j) * _arc(s0, s1))


@pytest.mark.parametrize("k,grid_n", [(2, 64), (3, 256), (8, 4096)])
def test_search_interpolation_plan_is_value_bitwise(k, grid_n):
    """The plan section_consistency_search makes once for its branch-0 points,
    applied to a loop, gives value's bits; so do the edge points' plans."""
    loop = smooth_loop(3, n=grid_n, seed=k)
    xs = np.arange(grid_n) / grid_n / k
    edges = [1.0, -1e-20, -0.0, 1.25e-18]
    for x in (xs, np.array(edges), *edges):
        got = loop._interpolate(*_interpolation(x, loop.n))
        for want in (value_by_arrays(loop, x), np.array(
                [value_by_floats(loop, v) for v in np.atleast_1d(x).tolist()])):
            assert np.array_equal(np.atleast_1d(got).view(np.int64),
                                  np.atleast_1d(want).view(np.int64))
    # s0 + w * step = -1e-20 at 1.25e-18, as in test_loop_value_stays_below_pi
    pinned = ProjectiveLoop(np.where(np.arange(8) == 1, PI - 1e-3, 0.0))
    assert pinned._interpolate(*_interpolation(1.25e-18, 8)) == 0.0


def test_search_matches_sweeps_through_value():
    """section_consistency_search's sweeps equal sweeps written with value."""
    spec, m = example_spec(), ExpandingMap(8)
    init = stable_direction_loop(spec, m, 64, 32)
    loop, _ = section_consistency_search(spec, m, grid_n=64, n_iterations=5, init=init)
    want, xs = init, np.arange(64) / 64 / 8
    for _ in range(5):
        want = ProjectiveLoop(_push(spec, xs, want.value(xs)))
    assert np.array_equal(loop.samples.view(np.int64), want.samples.view(np.int64))


def test_loop_value_takes_shorter_arc():
    # adjacent samples 0.1 and pi - 0.1 are 0.2 apart through 0, not 2.9
    # through pi/2; the midpoint must sit at 0, not at pi/2
    loop = ProjectiveLoop(np.tile([0.1, PI - 0.1], 4))
    mid = loop.value(1.0 / 16.0)
    assert min(mid, PI - mid) <= 1e-12


def test_max_adjacent_gap_projective():
    # the gap between samples 0.1 and pi - 0.1 is taken through 0
    loop = ProjectiveLoop(np.tile([0.1, PI - 0.1], 4))
    gaps = _dist(loop.samples, np.roll(loop.samples, -1))
    assert np.max(gaps) == pytest.approx(0.2, abs=1e-12)


# -- winding numbers --------------------------------------------------------------

@pytest.mark.parametrize("degree", [-3, -1, 0, 1, 2, 5])
def test_winding_of_synthetic_loops(degree):
    for seed in (0, 1, 2):
        loop = smooth_loop(degree, seed=seed)
        assert winding_number(loop) == degree
        assert unwrap_degree(loop) == degree


def winding_by_sequential_lift(loop: ProjectiveLoop) -> int:
    """Lift sample to sample in Python floats; raise on a jump of pi/4 or more."""
    s = loop.samples
    lift = float(s[0])
    for j in range(1, loop.n + 1):
        target = float(s[j % loop.n])
        step = (target - lift + PI / 2.0) % PI - PI / 2.0
        if abs(step) >= PI / 4.0:
            raise ResolutionError(
                f"projective jump {abs(step):.3f} >= pi/4 between samples "
                f"{j - 1} and {j % loop.n} of {loop.n}; refine the grid"
            )
        lift += step
    return int(round((lift - float(s[0])) / PI))


@pytest.mark.parametrize("degree", range(-3, 4))
def test_winding_matches_sequential_lift(degree):
    for seed in range(6):
        loop = smooth_loop(degree, n=128, wobble=0.8, seed=seed)
        assert winding_number(loop) == winding_by_sequential_lift(loop) == degree


@pytest.mark.parametrize("at", [0, 17, 127])
def test_winding_names_the_first_jump_as_the_lift_does(at):
    # a ramp of pi/3 over samples at + 1, ..., at + 128 (indices mod 128) moves
    # each pair by pi/384 except (at, at + 1), which jumps back by pi/3
    ramp = PI / 3 * (np.arange(-at - 1, 127 - at) % 128) / 127
    loop = ProjectiveLoop(smooth_loop(2, n=128, seed=at).samples - ramp)
    with pytest.raises(ResolutionError) as want:
        winding_by_sequential_lift(loop)
    with pytest.raises(ResolutionError) as got:
        winding_number(loop)
    assert str(got.value) == str(want.value)
    assert f"between samples {at} and {(at + 1) % 128} of 128" in str(got.value)


def test_winding_needs_resolution():
    coarse = ProjectiveLoop(np.mod(5 * PI * np.arange(8) / 8, PI))
    with pytest.raises(ResolutionError):
        winding_number(coarse)


def test_rotate_loop_adds_windings():
    a, b = smooth_loop(2, seed=4), smooth_loop(-1, seed=5)
    assert winding_number(ProjectiveLoop(a.samples + b.samples)) == 1


# -- degree of the twist ----------------------------------------------------------

def pushed_by_floats(m: tuple[float, float, float, float], t: float, atan2=np.arctan2) -> float:
    """The angle of m (cos t, sin t), before wrapping, for m's entries, written out in
    Python floats but for atan2: numpy's by default, or math.atan2."""
    ma, mb, mc, md = m
    x, y = math.cos(t), math.sin(t)
    return float(atan2(mc * x + md * y, ma * x + mb * y))


def wrapped(a: float) -> float:
    """a mod pi in [0, pi), written out on a float."""
    a %= PI
    return 0.0 if a >= PI else a


@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("perturbed", [False, True], ids=["example", "perturbed"])
def test_push_matches_projective_action_bitwise(k, perturbed):
    """_push on float angles against ProjPoint(_pushed_angles(...)) on one point and
    the numpy reference on floats, bitwise; the reference is within 1 ulp of math.atan2."""
    spec = perturb(example_spec(), 0.05, seed=(9, k)) if perturbed else example_spec()
    assert len(spec.terms) == (8 if perturbed else 0)
    rng = np.random.default_rng([17, k])
    n = 256
    xs = (np.arange(n) / n + rng.integers(0, k, size=n)) / k  # inverse branches of a grid
    angles = np.concatenate([[0.0, PI - 1e-12], rng.uniform(0.0, PI, size=n - 2)])
    got = _push(spec, xs, angles)
    assert np.all((0.0 <= got) & (got < PI))
    points = list(zip(xs.tolist(), angles.tolist()))
    by_action = [ProjPoint(_pushed_angles(*evaluate(spec, x), np.array([t]))[0]).angle
                 for x, t in points]
    by_numpy = np.array([pushed_by_floats(evaluate(spec, x), t) for x, t in points])
    for want in (by_action, [wrapped(a) for a in by_numpy.tolist()]):
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
    by_math = np.array([pushed_by_floats(evaluate(spec, x), t, math.atan2) for x, t in points])
    ulp = np.spacing(np.maximum(np.abs(by_numpy), np.abs(by_math)))
    assert np.all(np.abs(by_numpy - by_math) <= ulp)


def test_twist_degree_of_example_is_two():
    # one full rotation per circle turn is two half-turns in RP^1; the
    # constant base factor acts by a homeomorphism and cannot change it
    assert twist_degree(example_spec()) == 2


def test_twist_degree_constant_and_winding_scaling():
    assert twist_degree(CocycleSpec(base=Mat2.diagonal(2.0))) == 0
    assert twist_degree(CocycleSpec(base=rotation(0.3), winding=-1)) == -2
    assert twist_degree(CocycleSpec(base=Mat2.diagonal(2.0), winding=3), grid_n=8) == 6


def test_twist_degree_refinement_cap():
    spec = CocycleSpec(base=Mat2.diagonal(2.0), winding=3)
    with pytest.raises(ResolutionError):
        twist_degree(spec, grid_n=8, max_grid=16)


# -- integer obstruction ------------------------------------------------------------

def test_degree_equations_exhaustive():
    for k in range(2, 65):
        for d in range(-8, 9):
            rep = degree_obstruction(k, d)
            assert rep.single_section_solvable == (d % (k - 1) == 0)
            assert rep.pair_section_solvable == ((2 * d) % (k - 1) == 0)
            assert rep.obstructed == (not rep.single_section_solvable
                                      and not rep.pair_section_solvable)
            assert rep.single_degree == Fraction(d, k - 1)
            assert rep.pair_degree == Fraction(2 * d, k - 1)


def test_degree_obstruction_cases():
    # k=4, d=2: 2/3 and 4/3 both non-integral, so fully obstructed
    rep = degree_obstruction(4, 2)
    assert rep.obstructed and not rep.single_section_solvable
    # k=8, d=2 (the example): 2/7 and 4/7, obstructed
    assert degree_obstruction(8, twist_degree(example_spec())).obstructed
    # k=2 kills every obstruction: the degree equation is solvable over Z
    rep2 = degree_obstruction(2, 2)
    assert rep2.single_section_solvable and not rep2.obstructed
    # k=3, d=2: single 2/2=1 solvable
    assert not degree_obstruction(3, 2).obstructed
    with pytest.raises(ValueError):
        degree_obstruction(1, 2)
    d = degree_obstruction(4, 2).to_dict()
    assert d["single_degree"] == "2/3" and d["obstructed"] is True


# -- section search -----------------------------------------------------------------

def test_stable_direction_loop_constant_cocycle():
    loop = stable_direction_loop(CocycleSpec(base=Mat2.diagonal(2.0)),
                                 example_map(), grid_n=64, direction_steps=32)
    assert np.allclose(loop.samples, PI / 2, atol=1e-12)


def test_stable_direction_loop_without_gap_is_constant():
    loop = stable_direction_loop(CocycleSpec(base=rotation(0.7)),
                                 example_map(), grid_n=64, direction_steps=32)
    assert np.all(loop.samples == 0.0)


# sha256 of the newline-joined float.hex of every sample, as the code gave them
# once product trees were pulled every eighth level (both specs have sup norm 2).
# Every k = 8 grid orbit settles on x* = 0 within 4 steps, and its head is folded
# one _product_step per point, so that digest holds at any pull period
PINNED_LOOPS = [
    (example_spec(), 8, 4096, 256,
     "fb81aba1b5d6be7420694f3e97cbfc7bd8e011f8e31b6cd825bef44de82ac326"),
    (CocycleSpec(base=Mat2.diagonal(2.0), terms=(TwistTerm(1, 0.05, 0.0),)), 3, 256, 64,
     "0df8876fb78d68e73bcb8729b868b2a55c09ac251e5a3d38690ff7e503a59ae1"),
]


@pytest.mark.parametrize("spec,k,grid_n,steps,digest", PINNED_LOOPS,
                         ids=["example-k8", "near-diagonal-k3"])
def test_stable_direction_loop_pinned_bits(spec, k, grid_n, steps, digest):
    """Every sample keeps its bits: settled (k = 8) and unsettled (k = 3) orbits."""
    loop = stable_direction_loop(spec, ExpandingMap(k), grid_n, steps)
    text = "\n".join(float(v).hex() for v in loop.samples)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_stable_direction_loop_pulled_at_every_level_keeps_the_old_bits():
    """At a pull period of 1 the k = 3 loop gives the digest pinned before pulls
    were spaced.  Every k = 8 grid orbit settles on 0 within 4 steps and reaches
    no tree, so the k = 8 pull schedule is pinned on a product that does: the
    orbit of 2^-900 first reaches 0 at step 300, so its first 256 points form
    one _reduce block, whose bits differ between periods 1 and 8."""
    spec, k, grid_n, steps, _ = PINNED_LOOPS[1]
    loop = stable_direction_loop(with_pull_every(spec, 1), ExpandingMap(k), grid_n, steps)
    text = "\n".join(float(v).hex() for v in loop.samples)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2d4a6ecbc134aef516c589cda77e832f2044d02763832dfc9729c23e028c15e6")
    spec = example_spec()
    assert spec._pull_every == 8
    pinned = {1: ("0x1.2584545058f5fp-134", "0x1.6232bdd7abcd3p+7"),
              8: ("0x1.2584545058f60p-134", "0x1.6232bdd7abcd2p+7")}
    for every, (c, log_scale) in pinned.items():
        p = cocycle_product(with_pull_every(spec, every), example_map(), 2.0 ** -900, 256)
        assert tuple(float(v).hex() for v in (p.a, p.b, p.c, p.d, p.log_scale)) == (
            "0x1.6a09e667f3bcdp+0", "-0x1.1c5831add62e4p-641", c,
            "0x1.6a09e667f3bcdp-512", log_scale)


def test_search_validation():
    spec, m = example_spec(), example_map()
    with pytest.raises(ValueError):
        section_consistency_search(spec, m, grid_n=100)
    with pytest.raises(ValueError):
        section_consistency_search(spec, m, grid_n=256, n_iterations=0)
    with pytest.raises(ValueError):
        section_consistency_search(spec, m, grid_n=256,
                                   init=ProjectiveLoop(np.zeros(64)))


def test_search_finds_section_of_constant_cocycle():
    """diag(2, 1/2) has the genuine constant sections e1 and e2; e2 repels
    the iteration, so any start converges onto one of them."""
    const = CocycleSpec(base=Mat2.diagonal(2.0))
    for seed in (None, (77, 0), (77, 1)):
        loop, resid = section_consistency_search(
            const, example_map(), grid_n=256, n_iterations=60,
            direction_steps=64, seed=seed)
        assert resid <= 1e-9
        angle = loop.samples[0]
        assert min(angle, PI - angle) <= 1e-9 or abs(angle - PI / 2) <= 1e-9


def test_search_residual_stays_large_on_example():
    """k=8: the degree equations are unsolvable, so no continuous section
    exists and the consistency residual cannot approach zero."""
    spec, m = example_spec(), example_map()
    worst = math.inf
    for seed in (None, (5, 0), (5, 1), (5, 2)):
        _, resid = section_consistency_search(spec, m, grid_n=256,
                                              n_iterations=30,
                                              direction_steps=64, seed=seed)
        worst = min(worst, resid)
    assert worst >= 0.2


def test_search_residual_stays_large_at_k2_too():
    """k=2: the degree equation is solvable, yet the family takes elliptic
    values, so no continuous invariant section exists either; the integer
    test is an obstruction, not a construction."""
    _, resid = section_consistency_search(example_spec(), ExpandingMap(2),
                                          grid_n=256, n_iterations=60,
                                          direction_steps=64)
    assert resid >= 0.2


def test_search_rotation_control():
    # a constant rotation moves every direction by its angle; the spread
    # of candidate directions at any point is exactly that angle
    rot = CocycleSpec(base=rotation(0.7))
    loop, resid = section_consistency_search(rot, example_map(), grid_n=256,
                                             n_iterations=30, direction_steps=64)
    assert resid == pytest.approx(0.7, abs=1e-9)
    assert section_residual(rot, example_map(), loop) == resid


def residual_by_points(spec, m, loop):
    """Per-point, per-candidate spread: the residual's definition written out."""
    worst = 0.0
    for j in range(loop.n):
        y = j / loop.n
        cands = [ProjPoint(loop.samples[j])]
        for d in range(m.k):
            x = (y + d) / m.k
            cands.append(ProjPoint(_pushed_angles(*evaluate(spec, x),
                                                  np.array([loop.value(x)]))[0]))
        for i in range(len(cands)):
            for l in range(i + 1, len(cands)):
                worst = max(worst, proj_distance(cands[i], cands[l]))
    return worst


@pytest.mark.parametrize("k", [2, 3, 8])
def test_section_residual_matches_pointwise_definition(k):
    spec = perturb(example_spec(), 0.05, seed=(4, 2))
    jitter = np.random.default_rng([21, k]).uniform(-0.3, 0.3, size=128)
    loop = ProjectiveLoop(smooth_loop(1, n=128, seed=k).samples + jitter)
    got = section_residual(spec, ExpandingMap(k), loop)
    assert type(got) is float
    assert got == residual_by_points(spec, ExpandingMap(k), loop)
