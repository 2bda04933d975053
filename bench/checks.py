"""Correctness checks on one cocyclelab command's report and CSV.

Every check uses a tolerance, never a byte comparison, so a later change
that reorders float arithmetic (and re-freezes a baseline under the
ROADMAP policy) still passes.  Each function returns a list of problems;
an empty list means the invocation passed.
"""

from __future__ import annotations

import csv
import math

# The example's exponent: mean of 42 default-size norm-growth runs, one per
# seed (0.22320 +- 0.00004).  The default seed alone gives 0.22357, 1.5
# std errors high; centred there the 4-sigma check below would fail by
# chance on about one run in 170.
LAMBDA_EXAMPLE = 0.22320
# The Furstenberg estimate (32 samples) has heavy tails: over 10 000 seeds
# its |value - LAMBDA_EXAMPLE| / std_error exceeded 5 twice and reached 6.4
# once, so it is checked at 8 std errors.
FURSTENBERG_Z = 8.0
# The cross-check verdict failed by chance on 86 of those 10 000 seeds
# (0.86%); a run fails when its failed verdicts are more than chance at
# the upper end of that rate makes likelier than VERDICT_ALPHA.
VERDICT_CHANCE = 0.011
VERDICT_ALPHA = 1e-4
SUP_NORM_EXAMPLE = 2.0  # sup |A| = |diag(2, 1/2)|
CROSS_CHECK_FLOOR = 1e-9  # cli.CROSS_CHECK_FLOOR
EXIT_CROSS_CHECK = 3


def _lyap(cfg, res, code):
    problems = []
    ng = res["estimates"]["norm_growth"]
    fb = res["estimates"]["furstenberg"]
    tol = max(4.0 * ng["std_error"], 1e-3)
    if not abs(ng["value"] - LAMBDA_EXAMPLE) <= tol:
        problems.append(f"norm growth {ng['value']} not within {tol:.2g} of {LAMBDA_EXAMPLE}")
    if (ng["n_steps"], ng["n_samples"], fb["n_steps"], fb["n_samples"]) != (
            cfg["steps"], cfg["samples"], cfg["direction_steps"], cfg["samples"]):
        problems.append("estimates do not report the configured steps and samples")
    if fb["degenerate"]:
        problems.append("furstenberg estimate flagged degenerate")
    fb_tol = max(FURSTENBERG_Z * fb["std_error"], 1e-3)
    if not abs(fb["value"] - LAMBDA_EXAMPLE) <= fb_tol:
        problems.append(f"furstenberg {fb['value']} not within {fb_tol:.2g} of {LAMBDA_EXAMPLE}")
    # The verdict is a 3-sigma test, so on about one seed in a hundred it
    # fails by chance: here check that it is computed and reported right;
    # verdict_problems checks how often it fails over a run.
    xc = res["cross_check"]
    delta = abs(ng["value"] - fb["value"])
    want_tol = max(3.0 * math.hypot(ng["std_error"], fb["std_error"]), CROSS_CHECK_FLOOR)
    if not (math.isclose(xc["delta"], delta, rel_tol=1e-12, abs_tol=1e-15)
            and math.isclose(xc["tolerance"], want_tol, rel_tol=1e-12)):
        problems.append("cross-check delta or tolerance disagrees with the estimates")
    if xc["pass"] != (xc["delta"] <= xc["tolerance"]):
        problems.append("cross-check verdict disagrees with its delta and tolerance")
    if code != (0 if xc["pass"] else EXIT_CROSS_CHECK):
        problems.append(f"exit code {code} does not match cross-check pass={xc['pass']}")
    return problems


def _section(cfg, res, code):
    problems = []
    if not res["obstruction"]["obstructed"]:
        problems.append("section not obstructed")
    if not res["min_residual"] >= math.pi / 4:
        problems.append(f"min residual {res['min_residual']} below pi/4")
    if len(res["runs"]) != cfg["restarts"]:
        problems.append("wrong number of restarts")
    return problems


def _robustness(cfg, res, code):
    problems = []
    if not res["summary"]["pass"]:
        problems.append("perturbed exponents fell below the threshold")
    if len(res["trials"]) != cfg["trials"]:
        problems.append("wrong number of trials")
    c0_max = 2.0 * math.pi * cfg["epsilon"] * SUP_NORM_EXAMPLE
    worst = max(t["c0_grid"] for t in res["trials"])
    if not worst <= c0_max:
        problems.append(f"c0 distance {worst} above 2 pi eps sup|A| = {c0_max}")
    return problems


def _scan_periodic(cfg, res, code):
    problems = []
    w = res["witness"]
    if not (w and w["period"] == 1 and w["representative"] == "0"
            and abs(w["trace"] - 2.5) <= 1e-9):
        problems.append(f"unexpected periodic witness {w}")
    want = periodic_point_count(cfg["k"], cfg["max_period"])
    if res["n_points"] != want:
        problems.append(f"n_points {res['n_points']} != {want}")
    return problems


def _holonomy(cfg, res, code):
    problems = []
    s = res["summary"]
    if s["n_converged"] != s["n_pairs"] or s["n_pairs"] != cfg["pairs"]:
        problems.append(f"{s['n_converged']} of {s['n_pairs']} holonomy pairs converged")
    eq = [p["equivariance_residual"] for p in res["pairs"]]
    if None in eq or not max(eq) <= 1e-7:
        problems.append("equivariance residual missing or above 1e-7")
    return problems


def _natext(cfg, res, code):
    c = res["conjugacy"]
    if c["pass"] and c["max_residual"] <= c["bound"] and res["lambda_bound_ok"]:
        return []
    return [f"natural-extension conjugacy failed: {c}"]


def _bunching(cfg, res, code):
    if res["bunched"] and abs(res["margin"] - 0.5) <= 2e-3:
        return []
    return [f"bunching margin {res['margin']} not 0.5 +- 2e-3"]


def _degree(cfg, res, code):
    if res["twist_degree"] == 2 and res["obstruction"]["obstructed"]:
        return []
    return [f"twist degree {res['twist_degree']}, obstruction {res['obstruction']}"]


CHECKS = {
    "lyap": _lyap,
    "section": _section,
    "robustness": _robustness,
    "scan-periodic": _scan_periodic,
    "holonomy": _holonomy,
    "natext": _natext,
    "bunching": _bunching,
    "degree": _degree,
}


def periodic_point_count(k: int, max_period: int) -> int:
    """Points of minimal period <= max_period under x -> kx: |Fix(f^n)| = k^n - 1."""
    prim = {}
    for n in range(1, max_period + 1):
        prim[n] = k**n - 1 - sum(prim[d] for d in range(1, n) if n % d == 0)
    return sum(prim.values())


def verdict_problems(verdicts: list[bool]) -> list[str]:
    """A problem if the failed lyap cross-checks among `verdicts` (one per
    distinct seed) are more than chance explains: P(at least that many) <
    VERDICT_ALPHA at the rate VERDICT_CHANCE."""
    n, failed = len(verdicts), verdicts.count(False)
    p = VERDICT_CHANCE
    tail = math.fsum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(failed, n + 1))
    if failed and tail < VERDICT_ALPHA:
        return [f"{failed} of {n} lyap cross-checks failed; chance gives that with p = {tail:.2g}"]
    return []


def check_invocation(command, report, csv_path, code, validator) -> list[str]:
    """All problems with one command's exit code, report and CSV."""
    if report is None:
        return [f"exit code {code}, no report"]
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        return [f"report fails the schema: {errors[0]}"]
    if report["command"] != command:
        return [f"report is for {report['command']}, not {command}"]
    problems = CHECKS[command](report["config"], report["results"], code)
    if command != "lyap" and code != 0:
        problems.append(f"exit code {code}")
    try:
        with open(csv_path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        problems.append(f"no CSV: {e}")
    else:
        if len(rows) < 2:
            problems.append("CSV has no data rows")
    return problems
