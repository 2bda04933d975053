"""The per-point calls a traced benchmark run counts, at the totals it requires.

A traced run of bench/run.py counts `evaluate` calls (cocycle.evals), the
steps passed to `cocycle_product` (cocycle.steps), the length of what
`periodic_points` returns (part of circle.points), the `u_holonomy` calls
and how many of them converged (holonomy.calls, holonomy.converged) and the
`NatExtRealization.fiber_step` calls (natext.fiber_steps), and bench/run.py's
expected_counts requires exact totals that follow from a command's config.
The formulas are restated here, so that a change dropping or adding one
per-point call fails the suite and not only a traced benchmark run.  The
trace wraps only plain functions, so every entry point it counts must stay one.
"""

import importlib
import inspect
import json
import pkgutil

import pytest

import cocyclelab
from cocyclelab import circle, cocycle, holonomy, natext
from cocyclelab.cli import main


def _namespaces() -> list:
    """The package and every module of it, each of which may have imported the names."""
    return [cocyclelab] + [importlib.import_module(f"cocyclelab.{info.name}")
                           for info in pkgutil.iter_modules(cocyclelab.__path__)
                           if info.name != "__main__"]


@pytest.fixture
def counted(monkeypatch) -> dict:
    """Counts of evaluate calls, cocycle_product steps, periodic points, u_holonomy
    calls (and converged ones) and fiber steps from here on, by wrapping the
    functions in every namespace that imported them, and the method in its class."""
    counts = {"evals": 0, "product_steps": 0, "periodic_points": 0,
              "holonomy_calls": 0, "holonomy_converged": 0, "fiber_steps": 0}
    evaluate, product = cocycle.evaluate, cocycle.cocycle_product
    periodic_points, u_holonomy = circle.periodic_points, holonomy.u_holonomy
    fiber_step = natext.NatExtRealization.fiber_step

    def counted_evaluate(spec, x):
        counts["evals"] += 1
        return evaluate(spec, x)

    def counted_product(spec, m, x, n):
        counts["product_steps"] += n
        return product(spec, m, x, n)

    def counted_periodic_points(m, max_period):
        result = periodic_points(m, max_period)
        counts["periodic_points"] += len(result)
        return result

    def counted_u_holonomy(*args, **kwargs):
        result = u_holonomy(*args, **kwargs)
        counts["holonomy_calls"] += 1
        counts["holonomy_converged"] += result.converged
        return result

    def counted_fiber_step(self, hx, v):
        counts["fiber_steps"] += 1
        return fiber_step(self, hx, v)

    wrappers = {id(evaluate): counted_evaluate, id(product): counted_product,
                id(periodic_points): counted_periodic_points,
                id(u_holonomy): counted_u_holonomy}
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(ns, attr, wrappers[id(value)])
    monkeypatch.setattr(natext.NatExtRealization, "fiber_step", counted_fiber_step)
    return counts


def _periodic_point_count(k: int, max_period: int) -> int:
    """Points of minimal period <= max_period: |Fix(f^n)| = k^n - 1, less shorter periods."""
    prim = {}
    for n in range(1, max_period + 1):
        prim[n] = k**n - 1 - sum(prim[d] for d in range(1, n) if n % d == 0)
    return sum(prim.values())


# command -> the counts its resolved config gives, as bench/run.py:expected_counts
# requires them; every count a command's entry does not name is 0, but for the
# evaluate calls of holonomy, which follow its series' depths.  No command but
# section calls cocycle_product, whose steps the trace adds to cocycle.steps
EXPECTED = {
    "section": lambda c: {
        "evals": c["restarts"] * (c["iterations"] + c["k"]) * c["grid"] + 2 * c["grid"],
        "product_steps": c["grid"] * c["direction_steps"]},
    "degree": lambda c: {"evals": 2 * c["grid"]},
    "bunching": lambda c: {"evals": c["grid"]},
    "robustness": lambda c: {"evals": 2 * c["trials"] * c["c0_grid"]},
    # the traced circle.points of scan-periodic is the length of periodic_points' result
    "scan-periodic": lambda c: {"evals": _periodic_point_count(c["k"], c["max_period"]),
                                "periodic_points": _periodic_point_count(c["k"],
                                                                         c["max_period"])},
    "lyap": lambda c: {"evals": c["samples"]},
    # each pair: its holonomy, then the two inside the equivariance residual, which
    # runs only after a converged one (every pair converges at the default k = 8)
    "holonomy": lambda c: {"holonomy_calls": 3 * c["pairs"],
                           "holonomy_converged": 3 * c["pairs"]},
    # iota over depth d and over its shift (d - 1), then one step of g
    "natext": lambda c: {"fiber_steps": c["samples"] * 2 * c["depth"]},
}
UNCHECKED = {"holonomy": {"evals"}}

RUNS = [
    ["section", "--grid", "64", "--iterations", "3", "--direction-steps", "32",
     "--restarts", "2"],
    ["section", "--k", "2", "--grid", "32", "--iterations", "2", "--direction-steps", "64",
     "--restarts", "1"],
    # at odd k most grid orbits never settle on a fixed point, so their products
    # run every block instead of ending in a power of A(x*)
    ["section", "--k", "3", "--spec", "near-diagonal.json", "--grid", "32", "--iterations", "2",
     "--direction-steps", "64", "--restarts", "1"],
    ["degree", "--grid", "256"],
    ["bunching", "--grid", "300"],
    ["robustness", "--trials", "2", "--steps", "200", "--samples", "1", "--c0-grid", "50"],
    ["scan-periodic", "--max-period", "4"],
    ["scan-periodic", "--k", "3", "--max-period", "5"],
    ["lyap", "--steps", "500", "--samples", "3", "--direction-steps", "32"],
    ["holonomy", "--pairs", "12"],
    ["natext", "--grid", "512", "--samples", "6", "--depth", "9"],
]


# spec files the runs name, written to their working directory.  At odd k the
# example spec's products along the orbit of 1/4 have no gap (A(1/4) has trace 0,
# A(3/4) A(1/4) = I), so its stable direction loop stops at the first gap
# failure and makes fewer than g·d steps
SPECS = {"near-diagonal.json": {"base": [[2.0, 0.0], [0.0, 0.5]],
                                "twist": [{"freq": 1, "amp": 0.05}]}}


@pytest.mark.parametrize("args", RUNS, ids=" ".join)
def test_counted_calls_match_the_config(args, counted, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, spec in SPECS.items():
        (tmp_path / name).write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    want = {name: 0 for name in counted if name not in UNCHECKED.get(args[0], ())}
    want.update(EXPECTED[args[0]](config))
    assert {name: counted[name] for name in want} == want


# every entry point bench/tracer.py counts, as module.name or module.Class.method
TRACED_ENTRY_POINTS = [
    "cli.main", "reports.dump_report", "reports.write_csv", "circle.periodic_points",
    "circle.orbit_from_digits", "circle.BackwardItinerary.points",
    "cocycle.lyapunov_norm_growth", "cocycle.lyapunov_furstenberg", "cocycle.cocycle_product",
    "cocycle.evaluate", "cocycle.oseledets_stable_direction", "sl2.Mat2.__post_init__",
    "sl2._svd_raw", "sections.stable_direction_loop", "sections.section_consistency_search",
    "sections.section_residual", "sections.winding_number", "holonomy.u_holonomy",
    "natext.NatExtRealization.fiber_step",
]


@pytest.mark.parametrize("name", TRACED_ENTRY_POINTS)
def test_traced_entry_point_is_a_plain_function(name):
    """The trace wraps a module's own plain functions (and the methods named in
    its class), so a cache or decorator object in that place would count 0."""
    module, *path = name.split(".")
    mod = importlib.import_module(f"cocyclelab.{module}")
    if len(path) == 2:
        fn = vars(getattr(mod, path[0]))[path[1]]
    else:
        fn = vars(mod)[path[0]]
        assert fn.__module__ == mod.__name__
    assert inspect.isfunction(fn)


def test_counted_calls_hold_with_a_warm_ladder_cache(counted, tmp_path, monkeypatch):
    """One section config run twice in one process: the second run finds A(0)'s
    squares in cocycle._ladder's cache, which must neither hide nor add a
    counted call, nor change a result."""
    monkeypatch.chdir(tmp_path)
    cocycle._ladder.cache_clear()
    totals, results = [], []
    for run in range(2):
        counted.update(evals=0, product_steps=0)
        out = tmp_path / f"report{run}.json"
        assert main([*RUNS[0], "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        totals.append({"evals": counted["evals"], "product_steps": counted["product_steps"]})
        results.append(report["results"])
    assert cocycle._ladder.cache_info().hits > 0
    assert totals[0] == totals[1] == EXPECTED["section"](report["config"])
    assert results[0] == results[1]
