"""Command line laboratory: one subcommand per standard experiment.

Every run emits a single JSON report (stdout or --out) whose config and
results payloads are bitwise reproducible for a fixed seed.  Exit codes:
0 success, 1 bad configuration, 2 numeric or convergence failure, 3 an
embedded cross-check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
from bisect import bisect_left, bisect_right
from dataclasses import replace

import numpy as np

from . import __version__
from .circle import MAX_STREAM_K, ExpandingMap, BackwardItinerary, periodic_orbits
from .cocycle import (
    DEFAULT_SEED,
    CocycleSpec,
    TwistTerm,
    _evaluated_entries,
    c0_distance,
    full_twist_spec,
    lyapunov_furstenberg,
    lyapunov_norm_growth,
    perturb,
    rng_from,
    spec_from_json,
    spec_to_json,
    u_bunching_check,
)
from .errors import (
    DegreeCheckError,
    HolonomyDivergedError,
    LeafMismatchError,
    NoHyperbolicityError,
    NumericOverflowError,
    ResolutionError,
)
from .holonomy import holonomy_equivariance_residual, u_holonomy
from .natext import MAX_ANCHOR_K, aligned_anchor, build_realization, conjugacy_residual
from .reports import dump_report, make_report, utc_now, write_csv
from .sections import (
    degree_obstruction,
    section_consistency_search,
    stable_direction_loop,
    twist_degree,
)
from .sl2 import DET_TOL, Mat2, _mul

CROSS_CHECK_FLOOR = 1e-9

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CROSS_CHECK = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class ConfigError(Exception):
    pass


# command -> (command help, {setting: (default, flag help)}); each setting
# gets the flag --<setting with dashes>, in this order
COMMANDS: dict[str, tuple[str, dict[str, tuple]]] = {
    "lyap": ("Lyapunov exponent, two independent estimators", {
        "steps": (100_000, "orbit steps per norm-growth sample"),
        "samples": (32, "independent samples per estimator"),
        "direction_steps": (256, "product length fixing the stable direction"),
        "burn_in": (None, "alignment steps before averaging begins"),
        "method": ("both", None)}),
    "robustness": ("exponent under many C0-small perturbations", {
        "epsilon": (0.05, "perturbation size"), "trials": (200, "number of perturbations"),
        "steps": (10_000, None), "samples": (8, None), "burn_in": (None, None),
        "c0_grid": (2048, "grid certifying each C0 distance")}),
    "continuity": ("exponent along a C0-converging sequence", {
        "steps": (30_000, None), "samples": (16, None), "burn_in": (None, None),
        "j_values": ([10, 30, 100, 300],
                     "comma separated twist denominators, e.g. 10,30,100,300"),
        "c0_grid": (2048, "grid certifying each C0 distance")}),
    "scan-periodic": ("hyperbolicity of periodic orbit products", {
        "max_period": (5, None), "tol": (1e-9, "margin in |trace| > 2 + tol")}),
    "holonomy": ("u-holonomies over random unstable pairs", {
        "pairs": (20, "number of random pairs"), "tol": (1e-8, "Cauchy stopping tolerance"),
        "max_depth": (60, None)}),
    "bunching": ("certified fiber-bunching inequality", {
        "grid": (4096, None), "theta": (None, "Holder exponent (default: from the spec)")}),
    "degree": ("twist degree and the section obstruction", {"grid": (4096, None)}),
    "section": ("search for an invariant projective section", {
        "grid": (4096, None), "iterations": (40, None), "direction_steps": (256, None),
        "restarts": (4, "searches: the first from the stable directions, the rest jittered")}),
    "natext": ("smooth natural-extension realization checks", {
        "grid": (4096, "grid certifying the separation constant"),
        "samples": (200, "random itineraries for the conjugacy check"),
        "depth": (20, "itinerary depth for the conjugacy check")}),
}

DEFAULTS: dict[str, dict] = {
    cmd: {key: default for key, (default, _) in settings.items()}
    for cmd, (_, settings) in COMMANDS.items()
}

COMMON_DEFAULTS = {"k": 8, "seed": DEFAULT_SEED}

# settings that must be >= 1
COUNT_KEYS = frozenset({"steps", "samples", "direction_steps", "trials", "c0_grid",
                        "max_period", "pairs", "max_depth", "grid", "iterations",
                        "restarts", "depth"})
# commands whose grid samples a projective loop: a power of two >= 8
LOOP_GRID_COMMANDS = ("degree", "section")
# commands whose k is bounded: (largest k, what bounds it)
K_LIMITS = {cmd: (MAX_STREAM_K, "digit-stream orbits")
            for cmd in ("lyap", "robustness", "continuity")}
K_LIMITS["natext"] = (MAX_ANCHOR_K, "anchor lattice headroom")
# settings whose default is null, and the type of a non-null value
NULLABLE_TYPES = {"burn_in": int, "theta": float}
METHODS = ("both", "norm-growth", "furstenberg")


@functools.cache
def build_parser() -> _Parser:
    # one parser per process: parse_args leaves it as it was
    p = _Parser(prog="cocyclelab", description=__doc__)
    p.add_argument("--version", action="version", version=f"cocyclelab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, (cmd_help, settings) in COMMANDS.items():
        sp = sub.add_parser(cmd, help=cmd_help)
        sp.add_argument("--config", help="JSON file of settings; flags override it")
        sp.add_argument("--spec", help="JSON file describing the cocycle "
                        "(default: diag(2, 1/2) with a full twist)")
        sp.add_argument("--k", type=int, help="degree of the base map x -> kx mod 1")
        sp.add_argument("--seed", type=int, help="root seed for all randomness")
        sp.add_argument("--workers", type=int,
                        help="accepted and ignored; sampling is single-threaded")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--csv", help="also write the tabular results as CSV")
        for key, (default, flag_help) in settings.items():
            # a list setting arrives as one comma separated string
            want = NULLABLE_TYPES.get(key) or (str if isinstance(default, list)
                                               else type(default))
            sp.add_argument("--" + key.replace("_", "-"), type=want, help=flag_help,
                            choices=METHODS if key == "method" else None)
    return p


def resolve_config(args: argparse.Namespace) -> tuple[dict, CocycleSpec, ExpandingMap]:
    """defaults <- config file <- explicit flags, plus the resolved spec."""
    cmd = args.command
    cfg = dict(COMMON_DEFAULTS)
    cfg.update(DEFAULTS[cmd])

    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        # "workers" is accepted and ignored, like the --workers flag
        unknown = set(file_cfg) - set(cfg) - {"spec", "workers"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({k: v for k, v in file_cfg.items() if k in cfg})

    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val

    if isinstance(cfg.get("j_values"), str):
        try:
            cfg["j_values"] = [int(t) for t in cfg["j_values"].split(",") if t]
        except ValueError as e:
            raise ConfigError(f"bad --j-values: {e}") from e
    _validate(cfg, cmd)

    spec_data = None
    if args.spec:
        try:
            with open(args.spec) as f:
                spec_data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read spec file: {e}") from e
    elif "spec" in file_cfg:
        spec_data = file_cfg["spec"]

    try:
        if spec_data is None:
            spec = full_twist_spec(Mat2.diagonal(2.0))
        else:
            spec = spec_from_json(spec_data)
            # finite reals, as spec_from_json checked; 1.0 * keeps int rows in float arithmetic
            (a, b), (c, d) = spec_data["base"]
            det = 1.0 * a * d - 1.0 * b * c
            if abs(det - 1.0) > DET_TOL:
                print(f"warning: spec base has determinant {det:g}; rescaled to 1",
                      file=sys.stderr)
        map_ = ExpandingMap(cfg["k"])
    except ValueError as e:
        raise ConfigError(str(e)) from e

    cfg["spec"] = spec_to_json(spec)
    cfg["command"] = cmd
    return cfg, spec, map_


def _validate(cfg: dict, cmd: str) -> None:
    """Each setting must have the type of its default and a usable value.

    A bool is never an int; an int is accepted where a float is expected
    and stored as that float, so the report records what actually ran.
    """
    defaults = {**COMMON_DEFAULTS, **DEFAULTS[cmd]}
    for key, val in cfg.items():
        if key in NULLABLE_TYPES:
            if val is None:
                continue
            want = NULLABLE_TYPES[key]
        else:
            want = type(defaults[key])
        if want is float and type(val) is int:
            val = cfg[key] = float(val)
        if isinstance(val, bool) or not isinstance(val, want):
            raise ConfigError(f"{key} must be of type {want.__name__}, got {val!r}")
        if want is float and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
        if key == "k" and cmd in K_LIMITS and val > K_LIMITS[cmd][0]:
            limit, why = K_LIMITS[cmd]
            raise ConfigError(f"k must satisfy k <= {limit} for {cmd} ({why}), got {val}")
        if key in COUNT_KEYS and val < 1:
            raise ConfigError(f"{key} must be >= 1, got {val}")
        if key == "grid" and cmd in LOOP_GRID_COMMANDS and (val < 8 or val & (val - 1)):
            raise ConfigError(f"grid must be a power of two >= 8 for {cmd}, got {val}")
        if key in ("burn_in", "tol", "seed", "epsilon") and not val >= 0:
            raise ConfigError(f"{key} must be >= 0, got {val}")
        if key == "method" and val not in METHODS:
            raise ConfigError(f"method must be one of {list(METHODS)}, got {val!r}")
        if key == "j_values" and not (val and all(type(j) is int and j >= 1 for j in val)):
            raise ConfigError(f"j_values must be a non-empty list of positive integers, got {val}")


def _csv(records: list[dict], columns: list[str]) -> tuple[list[str], list[list]]:
    """CSV header and rows: the named fields of each record, bools as 0/1."""
    return columns, [[int(r[c]) if isinstance(r[c], bool) else r[c] for c in columns]
                     for r in records]


def cmd_lyap(cfg, spec, map_):
    method = cfg["method"]
    estimates = {}
    if method in ("both", "norm-growth"):
        est = lyapunov_norm_growth(spec, map_, cfg["steps"], cfg["samples"],
                                   seed=(cfg["seed"], 0), burn_in=cfg["burn_in"])
        estimates["norm_growth"] = est.to_dict()
    if method in ("both", "furstenberg"):
        est = lyapunov_furstenberg(spec, map_, cfg["direction_steps"], cfg["samples"],
                                   seed=(cfg["seed"], 1))
        estimates["furstenberg"] = est.to_dict()
    results = {"estimates": estimates}
    code = EXIT_OK
    if method == "both":
        ng, fb = estimates["norm_growth"], estimates["furstenberg"]
        delta = abs(ng["value"] - fb["value"])
        tol = max(3.0 * math.hypot(ng["std_error"], fb["std_error"]), CROSS_CHECK_FLOOR)
        ok = delta <= tol
        results["cross_check"] = {"delta": delta, "tolerance": tol, "pass": ok}
        if not ok:
            code = EXIT_CROSS_CHECK
    csv = _csv([estimates[m] for m in sorted(estimates)],
               ["method", "value", "std_error", "n_steps", "n_samples"])
    return results, code, csv


def cmd_robustness(cfg, spec, map_):
    base = lyapunov_norm_growth(spec, map_, cfg["steps"], cfg["samples"],
                                seed=(cfg["seed"], 0), burn_in=cfg["burn_in"])
    threshold = 0.5 * base.value
    trials = []
    values = []
    for t in range(cfg["trials"]):
        pspec = perturb(spec, cfg["epsilon"], seed=(cfg["seed"], t + 1, 0))
        gap = c0_distance(spec, pspec, grid_n=cfg["c0_grid"])
        est = lyapunov_norm_growth(pspec, map_, cfg["steps"], cfg["samples"],
                                   seed=(cfg["seed"], t + 1, 1), burn_in=cfg["burn_in"])
        values.append(est.value)
        trials.append({"trial": t, "c0_grid": gap.grid, "c0_certified": gap.certified,
                       "value": est.value, "std_error": est.std_error})
    n_below = sum(1 for v in values if v < threshold)
    results = {
        "baseline": base.to_dict(),
        "threshold": threshold,
        "trials": trials,
        "summary": {
            "min": min(values),
            "median": statistics.median(values),
            "max": max(values),
            "n_below_threshold": n_below,
            "pass": n_below == 0,
        },
    }
    csv = _csv(trials, ["trial", "c0_grid", "c0_certified", "value", "std_error"])
    return results, EXIT_OK if n_below == 0 else EXIT_CROSS_CHECK, csv


def _spearman(xs: list[float], ys: list[float]) -> float:
    """Rank correlation, ties given their average rank; 0.0 for constant or single input."""
    def ranks(vs):
        s = sorted(vs)
        return [(bisect_left(s, v) + bisect_right(s, v) - 1) / 2 for v in vs]
    try:
        return statistics.correlation(ranks(xs), ranks(ys))
    except statistics.StatisticsError:
        return 0.0


def cmd_continuity(cfg, spec, map_):
    base = lyapunov_norm_growth(spec, map_, cfg["steps"], cfg["samples"],
                                seed=(cfg["seed"], 0), burn_in=cfg["burn_in"])
    rows = []
    for idx, j in enumerate(cfg["j_values"]):
        jspec = replace(spec, terms=spec.terms + (TwistTerm(1, 1.0 / j, 0.0),))
        gap = c0_distance(spec, jspec, grid_n=cfg["c0_grid"])
        est = lyapunov_norm_growth(jspec, map_, cfg["steps"], cfg["samples"],
                                   seed=(cfg["seed"], 1, idx), burn_in=cfg["burn_in"])
        rows.append({"j": j, "c0_certified": gap.certified, "value": est.value,
                     "std_error": est.std_error, "delta": abs(est.value - base.value)})
    sp = _spearman([r["c0_certified"] for r in rows], [r["delta"] for r in rows])
    ok = sp > 0.0
    results = {"baseline": base.to_dict(), "rows": rows,
               "trend": {"spearman": sp, "pass": ok}}
    csv = _csv(rows, ["j", "c0_certified", "value", "std_error", "delta"])
    return results, EXIT_OK if ok else EXIT_CROSS_CHECK, csv


def _fraction_str(j: int, denom: int) -> str:
    """str(Fraction(j, denom)) for 0 <= j < denom, without building the Fraction."""
    g = math.gcd(j, denom)
    return str(j // g) if g == denom else f"{j // g}/{denom // g}"


def cmd_scan_periodic(cfg, spec, map_):
    table = []
    witness = None
    n_hyp = n_points = 0
    for denom, block in periodic_orbits(map_, cfg["max_period"]):
        period = block.shape[1]
        n_points += block.size
        # numerators and denom are below 2^53, so each quotient has int/int's bits
        orbits = block / denom
        ea, eb, ec, ed = _evaluated_entries(spec, orbits)
        # raw entries, not Mat2: its sqrt(det) rescaling is cancellation noise for large
        # factors; column by column from the identity, each orbit's float fold bitwise
        m = len(block)
        a, b, c, d = np.ones(m), np.zeros(m), np.zeros(m), np.ones(m)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(period):
                a, b, c, d = _mul(ea[:, j], eb[:, j], ec[:, j], ed[:, j], a, b, c, d)
            traces = a + d
        overflowed = np.flatnonzero(~np.isfinite(traces))  # a non-finite entry reaches a or d
        if overflowed.size:
            representative = _fraction_str(int(block[overflowed[0], 0]), denom)
            raise NumericOverflowError(f"orbit product at {representative} left float range")
        hyperbolic = np.abs(traces) > 2.0 + cfg["tol"]
        n_hyp += int(np.count_nonzero(hyperbolic))
        for least, x, trace, hyp in zip(block[:, 0].tolist(), orbits[:, 0].tolist(),
                                        traces.tolist(), hyperbolic.tolist()):
            entry = {"period": period, "representative": _fraction_str(least, denom),
                     "trace": trace, "hyperbolic": hyp}
            table.append(entry)
            if hyp and witness is None:
                witness = dict(entry, x_float=x)
    results = {
        "max_period": cfg["max_period"],
        "n_points": n_points,
        "n_orbits": len(table),
        "n_hyperbolic": n_hyp,
        "witness": witness,
        "orbits": table[:500],
        "orbits_truncated": len(table) > 500,
    }
    csv = _csv(table, ["period", "representative", "trace", "hyperbolic"])
    return results, EXIT_OK, csv


def cmd_holonomy(cfg, spec, map_):
    k = map_.k
    pairs = []
    n_conv = 0
    max_equiv = None
    max_resid = 0.0
    for i in range(cfg["pairs"]):
        rng = rng_from(cfg["seed"], i)
        cell = int(rng.integers(0, k))
        u = 0.05 + 0.65 * rng.random()
        x0 = (cell + u) / k
        offset = (1.0 + 3.0 * rng.random()) / (8.0 * k * k)
        digits = tuple(rng.integers(0, k, size=cfg["max_depth"]).tolist())
        x_it = BackwardItinerary(k, x0, digits)
        y_it = BackwardItinerary(k, x0 + offset, digits)
        res = u_holonomy(spec, map_, x_it, y_it, tol=cfg["tol"], max_depth=cfg["max_depth"])
        entry = {"pair": i, "x0": x0, "y0": x0 + offset,
                 "converged": res.converged, "depth_used": res.depth_used,
                 "cauchy_residual": res.cauchy_residual,
                 "equivariance_residual": None}
        if res.converged:
            n_conv += 1
            try:
                eq = holonomy_equivariance_residual(spec, map_, x_it, y_it,
                                                    tol=cfg["tol"], max_depth=cfg["max_depth"])
                entry["equivariance_residual"] = eq
                max_equiv = eq if max_equiv is None else max(max_equiv, eq)
            except (HolonomyDivergedError, LeafMismatchError):
                pass
        max_resid = max(max_resid, res.cauchy_residual)
        pairs.append(entry)
    results = {
        "pairs": pairs,
        "summary": {"n_pairs": len(pairs), "n_converged": n_conv,
                    "max_cauchy_residual": max_resid,
                    "max_equivariance_residual": max_equiv},
    }
    csv = _csv(pairs, ["pair", "x0", "y0", "converged", "depth_used", "cauchy_residual",
                       "equivariance_residual"])
    return results, EXIT_OK, csv


def cmd_bunching(cfg, spec, map_):
    rep = u_bunching_check(spec, map_, theta=cfg["theta"], grid_n=cfg["grid"])
    results = {"k": map_.k, "sigma": map_.sigma, "theta": rep.theta,
               "bunched": rep.bunched, "margin": rep.margin,
               "sup_certified": rep.sup_certified, "sup_grid": rep.sup_grid}
    csv = _csv([results], ["k", "theta", "bunched", "margin", "sup_certified", "sup_grid"])
    return results, EXIT_OK, csv


def cmd_degree(cfg, spec, map_):
    d = twist_degree(spec, grid_n=cfg["grid"])
    rep = degree_obstruction(map_.k, d)
    results = {"k": map_.k, "twist_degree": d, "obstruction": rep.to_dict()}
    csv = (["k", "twist_degree", "single_solvable", "single_degree",
            "pair_solvable", "pair_degree", "obstructed"],
           [[map_.k, d, int(rep.single_section_solvable), str(rep.single_degree),
             int(rep.pair_section_solvable), str(rep.pair_degree), int(rep.obstructed)]])
    return results, EXIT_OK, csv


def cmd_section(cfg, spec, map_):
    init = stable_direction_loop(spec, map_, cfg["grid"], cfg["direction_steps"])
    runs = []
    for r in range(cfg["restarts"]):
        seed = None if r == 0 else (cfg["seed"], r)
        _, residual = section_consistency_search(
            spec, map_, grid_n=cfg["grid"], n_iterations=cfg["iterations"],
            direction_steps=cfg["direction_steps"], seed=seed, init=init)
        runs.append({"restart": r, "jittered": r > 0, "residual": residual})
    residuals = [r["residual"] for r in runs]
    d = twist_degree(spec, grid_n=cfg["grid"])
    results = {
        "runs": runs,
        "min_residual": min(residuals),
        "max_residual": max(residuals),
        "obstruction": degree_obstruction(map_.k, d).to_dict(),
    }
    csv = _csv(runs, ["restart", "jittered", "residual"])
    return results, EXIT_OK, csv


def cmd_natext(cfg, spec, map_):
    real = build_realization(map_, grid_n=cfg["grid"])
    depth = cfg["depth"]
    max_resid = 0.0
    for i in range(cfg["samples"]):
        rng = rng_from(cfg["seed"], i)
        x0 = aligned_anchor(real, rng)
        digits = tuple(rng.integers(0, map_.k, size=depth).tolist())
        it = BackwardItinerary(map_.k, x0, digits)
        resid, bound = conjugacy_residual(real, it)
        max_resid = max(max_resid, resid)
    ok = max_resid <= bound
    results = {
        "k": map_.k,
        "n_charts": real.n_charts,
        "ambient_dim": real.ambient_dim,
        "delta": real.delta,
        "lambda": real.lam,
        "lambda_bound_ok": real.lam < real.delta / (4 * real.n_charts),
        "conjugacy": {"n_samples": cfg["samples"], "depth": depth,
                      "max_residual": max_resid, "bound": bound, "pass": ok},
    }
    csv = (["k", "n_charts", "delta", "lambda", "conjugacy_max_residual", "bound"],
           [[map_.k, real.n_charts, real.delta, real.lam, max_resid, bound]])
    return results, EXIT_OK if ok else EXIT_CROSS_CHECK, csv


RUNNERS = {
    "lyap": cmd_lyap,
    "robustness": cmd_robustness,
    "continuity": cmd_continuity,
    "scan-periodic": cmd_scan_periodic,
    "holonomy": cmd_holonomy,
    "bunching": cmd_bunching,
    "degree": cmd_degree,
    "section": cmd_section,
    "natext": cmd_natext,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, spec, map_ = resolve_config(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    started = utc_now()
    try:
        results, code, csv = RUNNERS[args.command](cfg, spec, map_)
    except (NumericOverflowError, NoHyperbolicityError, HolonomyDivergedError,
            ResolutionError, DegreeCheckError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    report = make_report(args.command, cfg, results, started)
    target = args.out or "the report to stdout"
    try:
        dump_report(report, args.out)
        if args.csv:
            target = args.csv
            header, rows = csv
            write_csv(args.csv, header, rows)
    except OSError as e:
        print(f"error: cannot write {target}: {e.strerror or e}", file=sys.stderr)
        return EXIT_CONFIG
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
