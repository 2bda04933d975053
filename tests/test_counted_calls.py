"""The per-point calls a traced benchmark run counts, at the totals it requires.

A traced run of bench/run.py counts `evaluate` calls (cocycle.evals) and the
steps passed to `cocycle_product` (cocycle.steps), and bench/run.py's
expected_counts requires exact totals that follow from a command's config.
The formulas are restated here, so that a change dropping or adding one
per-point call fails the suite and not only a traced benchmark run.
"""

import importlib
import json
import pkgutil

import pytest

import cocyclelab
from cocyclelab import cocycle
from cocyclelab.cli import main


def _namespaces() -> list:
    """The package and every module of it, each of which may have imported the names."""
    return [cocyclelab] + [importlib.import_module(f"cocyclelab.{info.name}")
                           for info in pkgutil.iter_modules(cocyclelab.__path__)
                           if info.name != "__main__"]


@pytest.fixture
def counted(monkeypatch) -> dict:
    """Counts of evaluate calls and cocycle_product steps from here on, by
    wrapping both in every namespace that imported them."""
    counts = {"evals": 0, "product_steps": 0}
    evaluate, product = cocycle.evaluate, cocycle.cocycle_product

    def counted_evaluate(spec, x):
        counts["evals"] += 1
        return evaluate(spec, x)

    def counted_product(spec, m, x, n):
        counts["product_steps"] += n
        return product(spec, m, x, n)

    wrappers = {id(evaluate): counted_evaluate, id(product): counted_product}
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(ns, attr, wrappers[id(value)])
    return counts


def _periodic_point_count(k: int, max_period: int) -> int:
    """Points of minimal period <= max_period: |Fix(f^n)| = k^n - 1, less shorter periods."""
    prim = {}
    for n in range(1, max_period + 1):
        prim[n] = k**n - 1 - sum(prim[d] for d in range(1, n) if n % d == 0)
    return sum(prim.values())


# command -> (evaluate calls, cocycle_product steps) from the resolved config,
# as bench/run.py:expected_counts requires them; no command but section
# calls cocycle_product, whose steps the trace adds to cocycle.steps
EXPECTED = {
    "section": lambda c: (c["restarts"] * (c["iterations"] + c["k"]) * c["grid"] + 2 * c["grid"],
                          c["grid"] * c["direction_steps"]),
    "degree": lambda c: (2 * c["grid"], 0),
    "bunching": lambda c: (c["grid"], 0),
    "robustness": lambda c: (2 * c["trials"] * c["c0_grid"], 0),
    "scan-periodic": lambda c: (_periodic_point_count(c["k"], c["max_period"]), 0),
    "lyap": lambda c: (c["samples"], 0),
}

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
    want_evals, want_steps = EXPECTED[args[0]](config)
    assert (counted["evals"], counted["product_steps"]) == (want_evals, want_steps)



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
        totals.append((counted["evals"], counted["product_steps"]))
        results.append(report["results"])
    assert cocycle._ladder.cache_info().hits > 0
    assert totals[0] == totals[1] == EXPECTED["section"](report["config"])
    assert results[0] == results[1]
