"""Acceptance gate: the eleven headline checks, one verdict line each.

Run with -s to see the verdict lines as they print:

    pytest tests/test_acceptance.py -v -s

Each check states its claim, tolerance, and measured margin; a FAIL line
is followed by the assertion that stops the suite.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from _util import as_array, example_map, example_spec
from cocyclelab import (
    BackwardItinerary,
    CocycleSpec,
    ExpandingMap,
    Mat2,
    build_realization,
    conjugacy_residual,
    degree_obstruction,
    holonomy_equivariance_residual,
    iota,
    lyapunov_furstenberg,
    lyapunov_norm_growth,
    rng_from,
    sample_unstable_neighbor,
    spec_to_json,
    twist_degree,
    u_bunching_check,
    u_holonomy,
)
from cocyclelab.cli import RUNNERS, build_parser, resolve_config
from cocyclelab.natext import aligned_anchor
from cocyclelab.reports import canonical_payload, make_report

BASELINES = pathlib.Path(__file__).resolve().parent.parent / "baselines"
LOG2 = math.log(2.0)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {n}: {detail}"


def run_command(argv: list[str]):
    args = build_parser().parse_args(argv)
    cfg, spec, map_ = resolve_config(args)
    results, code, _ = RUNNERS[args.command](cfg, spec, map_)
    return cfg, results, code


def write_spec(tmp_path, spec: CocycleSpec, name: str) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(spec_to_json(spec)))
    return str(path)


def test_criterion_01_constant_cocycle_exactness(tmp_path):
    """Constant diag(2, 1/2): the exponent is log 2 on the nose."""
    spec_file = write_spec(tmp_path, CocycleSpec(base=Mat2.diagonal(2.0)), "const.json")
    t0 = time.perf_counter()
    _, results, code = run_command(
        ["lyap", "--spec", spec_file, "--steps", "10000", "--samples", "8"])
    elapsed = time.perf_counter() - t0
    gaps = [abs(est["value"] - LOG2) for est in results["estimates"].values()]
    ok = (code == 0 and len(gaps) == 2 and max(gaps) <= 1e-4 and elapsed < 1.0)
    verdict(1, ok, f"both estimators within {max(gaps):.2e} of log 2 "
                   f"(tol 1e-4) in {elapsed:.2f}s (budget 1s)")


def test_criterion_02_degenerate_cocycles_report_zero():
    """Isometric cocycles: tiny exponent, and the direction-average path
    must flag degeneracy rather than emit noise."""
    m = example_map()
    worst = 0.0
    flags = []
    for base in (Mat2.identity(), Mat2.rotation(0.7)):
        spec = CocycleSpec(base=base)
        ng = lyapunov_norm_growth(spec, m, n_steps=10_000, n_samples=4)
        worst = max(worst, abs(ng.value))
        fb = lyapunov_furstenberg(spec, m, n_direction=256, n_samples=4)
        flags.append(fb.degenerate and fb.value == 0.0)
    ok = worst <= 1e-6 and all(flags)
    verdict(2, ok, f"|lambda| <= {worst:.2e} (tol 1e-6), "
                   f"degeneracy flagged: {flags}")


def test_criterion_03_estimators_agree_on_example():
    """Example spec, k=8, full default sizes: the two estimators must agree
    within 3 combined standard errors, and reproduce the frozen first run."""
    t0 = time.perf_counter()
    cfg, results, code = run_command(["lyap"])
    elapsed = time.perf_counter() - t0
    cc = results["cross_check"]
    with open(BASELINES / "lyap_example_k8.json") as f:
        frozen = json.load(f)
    report = make_report("lyap", cfg, results, started="")
    frozen_match = canonical_payload(report) == canonical_payload(frozen)
    ok = (code == 0 and cc["pass"] and elapsed < 30.0 and frozen_match
          and results["estimates"]["norm_growth"]["value"] > 0.2)
    verdict(3, ok, f"cross-estimator delta {cc['delta']:.4f} <= "
                   f"{cc['tolerance']:.4f} (3 sigma), {elapsed:.1f}s "
                   f"(budget 30s), frozen baseline match: {frozen_match}")


def test_criterion_04_bunching_threshold():
    """sup|A||A^-1| = 4: bunched against sigma = 8 with margin 1/2, not
    bunched against sigma = 2."""
    r8 = u_bunching_check(example_spec(), ExpandingMap(8))
    r2 = u_bunching_check(example_spec(), ExpandingMap(2))
    ok = (r8.bunched and abs(r8.margin - 0.5) <= 2e-3 and not r2.bunched)
    verdict(4, ok, f"k=8 margin {r8.margin:.4f} (want 0.5 +- 2e-3, "
                   f"bunched={r8.bunched}); k=2 bunched={r2.bunched} (want False)")


def test_criterion_05_holonomy_suite():
    """Identity on the diagonal; equivariance and composition within 10x
    the 1e-8 stopping tolerance over 100 pairs; geometric decay <= 0.6
    per level beyond depth 5."""
    spec, m = example_spec(), example_map()
    k = 8
    it0 = BackwardItinerary(8, 0.3, (1,) * 60)
    ident = u_holonomy(spec, m, it0, it0)
    id_exact = ident.h.to_rows() == [[1.0, 0.0], [0.0, 1.0]] and ident.converged
    worst_ratio = 0.0
    worst_equiv = 0.0
    worst_comp = 0.0
    all_converged = True
    for i in range(100):
        rng = rng_from(31415926, i)
        cell = int(rng.integers(0, k))
        x0 = (cell + 0.05 + 0.65 * rng.random()) / k
        offset = (1.0 + 3.0 * rng.random()) / (8.0 * k * k)
        digits = tuple(int(d) for d in rng.integers(0, k, size=60))
        x_it = BackwardItinerary(k, x0, digits)
        y_it = BackwardItinerary(k, x0 + offset, digits)
        res = u_holonomy(spec, m, x_it, y_it, tol=1e-8)
        all_converged &= res.converged
        for j in range(5, len(res.residuals) - 1):
            worst_ratio = max(worst_ratio, res.residuals[j + 1] / res.residuals[j])
        worst_equiv = max(worst_equiv, holonomy_equivariance_residual(
            spec, m, x_it, y_it, tol=1e-8))
        z_it = sample_unstable_neighbor(x_it, -offset * 0.7)
        h_yz = u_holonomy(spec, m, y_it, z_it, tol=1e-8).h
        h_xz = u_holonomy(spec, m, x_it, z_it, tol=1e-8).h
        comp = float(np.linalg.norm(
            as_array(h_yz) @ as_array(res.h) - as_array(h_xz), 2))
        worst_comp = max(worst_comp, comp)
    ok = (id_exact and all_converged and worst_ratio <= 0.6
          and worst_equiv <= 1e-7 and worst_comp <= 1e-7)
    verdict(5, ok, f"identity exact: {id_exact}; 100 pairs converged: "
                   f"{all_converged}; worst decay ratio {worst_ratio:.3f} "
                   f"(tol 0.6); equivariance {worst_equiv:.2e}, composition "
                   f"{worst_comp:.2e} (tol 1e-7)")


def test_criterion_06_degree_suite():
    """Winding 2 for the full twist; k=4, d=2 unsolvable; exhaustive
    divisibility agreement for k <= 64, |d| <= 8."""
    d_plain = twist_degree(CocycleSpec(base=Mat2.identity(), winding=1))
    d_example = twist_degree(example_spec())
    rep42 = degree_obstruction(4, 2)
    exhaustive = all(
        degree_obstruction(k, d).single_section_solvable == (d % (k - 1) == 0)
        and degree_obstruction(k, d).pair_section_solvable == ((2 * d) % (k - 1) == 0)
        for k in range(2, 65) for d in range(-8, 9)
    )
    ok = (d_plain == 2 and d_example == 2
          and not rep42.single_section_solvable and rep42.obstructed
          and exhaustive)
    verdict(6, ok, f"twist degree {d_plain} (want 2); (k=4,d=2) single "
                   f"solvable={rep42.single_section_solvable} (want False); "
                   f"exhaustive k<=64,|d|<=8: {exhaustive}")


def test_criterion_07_periodic_witness(tmp_path):
    """The fixed point 0 carries trace 2.5 for the Example; a rotation
    cocycle shows no hyperbolic periodic product up to period 12."""
    _, res_example, code1 = run_command(["scan-periodic"])
    w = res_example["witness"]
    witness_found = (code1 == 0 and w is not None and w["period"] == 1
                     and w["x_float"] == 0.0 and w["trace"] == 2.5
                     and w["hyperbolic"])
    rot_file = write_spec(tmp_path, CocycleSpec(base=Mat2.rotation(0.7)), "rot.json")
    _, res_rot, code2 = run_command(
        ["scan-periodic", "--spec", rot_file, "--k", "2", "--max-period", "12"])
    # distinct points of exact period n for n <= 12, k = 2: Moebius sums
    # of 2^d - 1 over d | n, totalling 8031
    control_clean = (code2 == 0 and res_rot["n_hyperbolic"] == 0
                     and res_rot["witness"] is None
                     and res_rot["n_points"] == 8031)
    ok = witness_found and control_clean
    verdict(7, ok, f"witness p=0 period 1 trace {w and w['trace']} (want 2.5); "
                   f"rotation control: {res_rot['n_hyperbolic']} hyperbolic "
                   f"among {res_rot['n_points']} points up to period 12 (want 0)")


def test_criterion_08_robust_positivity():
    """200 perturbations of size 0.05: every perturbed exponent stays
    above half the unperturbed one."""
    t0 = time.perf_counter()
    _, results, code = run_command(["robustness"])
    elapsed = time.perf_counter() - t0
    s = results["summary"]
    ok = (code == 0 and s["pass"] and s["n_below_threshold"] == 0
          and len(results["trials"]) == 200 and elapsed < 600.0
          and s["min"] >= results["threshold"])
    verdict(8, ok, f"min perturbed exponent {s['min']:.4f} >= threshold "
                   f"{results['threshold']:.4f} over 200 trials (eps 0.05), "
                   f"{elapsed:.0f}s (budget 600s)")


def test_criterion_09_continuity_trend():
    """Exponent of A_j approaches the Example's as the twist decays like
    1/j: small deltas by j = 100, and deltas ranked like the C0 gaps."""
    _, results, code = run_command(["continuity"])
    rows = {r["j"]: r for r in results["rows"]}
    close = all(rows[j]["delta"] <= 0.05 for j in (100, 300))
    trend = results["trend"]
    ok = (code == 0 and close and trend["pass"] and trend["spearman"] > 0.0)
    verdict(9, ok, f"|lambda(A_j) - lambda(A)| = "
                   f"{rows[100]['delta']:.4f}/{rows[300]['delta']:.4f} at "
                   f"j=100/300 (tol 0.05); spearman {trend['spearman']:.2f} > 0")


def test_criterion_10_natural_extension_realization():
    """Both realizations certify separation, contract below delta/(4N),
    conjugate iota with the shift to within lambda^20 on 1000 itineraries,
    and embed injectively on collision-forcing samples."""
    details = []
    ok = True
    for k in (2, 8):
        real = build_realization(ExpandingMap(k))
        ok &= real.delta > 0.0 and real.lam < real.delta / (4.0 * real.n_charts)
        rng = rng_from(31415926, k)
        worst = 0.0
        for _ in range(1000):
            x0 = aligned_anchor(real, rng)
            digits = tuple(int(d) for d in rng.integers(0, k, size=20))
            err, bound = conjugacy_residual(real, BackwardItinerary(k, x0, digits))
            worst = max(worst, err)
        ok &= worst <= real.lam**20
        anchors = rng.integers(0, 64, size=1000) / 64.0
        digit_rows = rng.integers(0, k, size=(1000, 20))
        seen = {}
        collisions = 0
        for i in range(1000):
            it = BackwardItinerary(k, float(anchors[i]),
                                   tuple(int(d) for d in digit_rows[i]))
            p = iota(real, it).point
            key = (p.base, p.fiber.tobytes())
            ident = (float(anchors[i]), digit_rows[i].tobytes())
            if key in seen and seen[key] != ident:
                collisions += 1
            seen[key] = ident
        ok &= collisions == 0
        details.append(f"k={k}: delta {real.delta:.3f}, lam {real.lam:.4f}, "
                       f"conjugacy max {worst:.1e} <= {real.lam**20:.1e}, "
                       f"collisions {collisions}")
    verdict(10, ok, "; ".join(details))


def test_criterion_11_byte_identical_reruns(tmp_path):
    """Every command, rerun and rethreaded, emits the same results payload."""
    fast = {
        "lyap": ["--steps", "1500", "--samples", "4", "--direction-steps", "64"],
        "robustness": ["--trials", "2", "--steps", "800", "--samples", "2"],
        "continuity": ["--steps", "800", "--samples", "2"],
        "scan-periodic": ["--max-period", "3"],
        "holonomy": ["--pairs", "3"],
        "bunching": ["--grid", "512"],
        "degree": ["--grid", "512"],
        "section": ["--grid", "256", "--iterations", "8",
                    "--direction-steps", "64", "--restarts", "2"],
        "natext": ["--grid", "512", "--samples", "10", "--depth", "12"],
    }
    mismatches = []
    for command in sorted(RUNNERS):
        payloads = set()
        for workers in ("1", "3", "1"):
            cfg, results, _ = run_command(
                [command, *fast[command], "--workers", workers])
            report = make_report(command, cfg, results, started="")
            payloads.add(canonical_payload(report))
        if len(payloads) != 1:
            mismatches.append(command)
    ok = not mismatches
    verdict(11, ok, "all 9 commands byte-identical across reruns and "
                    "worker counts" if ok else f"diverging: {mismatches}")
