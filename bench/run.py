"""cocyclelab benchmark: the CLI experiments, run the way a researcher runs them.

    python3 bench/run.py --workload lyap-long --seed 1 --seconds 30 --trace 0

Each command of a workload runs in a fresh single-threaded process
(bench/child.py, ``--workers 1``) on the package under ``src/``.  One pass
runs every command of the workload once; the run repeats passes until
``--seconds`` have gone by, checks every report (checks.py) and prints a
table of each metric's median, quartiles and sample count, then one JSON
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(tracer.py) with ``--trace 1``.  README.md describes the metrics, the
workloads and what each layer metric is predicted to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
SCHEMA = os.path.join(SRC, "cocyclelab", "schemas", "report.schema.json")

# commands of one pass; each also gets --workers 1 --seed --out --csv
WORKLOADS = {
    "lyap-long": [["lyap"]],
    "section-grid": [["section"]],
    "perturb-sweep": [["robustness", "--trials", "25"]],
    "certify-mix": [["scan-periodic"], ["holonomy", "--pairs", "1000"], ["natext"],
                    ["bunching"], ["degree"]],
}

SETUP_CHILDREN = 5  # set-up-only processes per timed run, besides one per command
DEFAULT_SEED = 31415926  # cocyclelab's own default, so pass 0 runs the CLI defaults
SEED_STRIDE = 1_000_003  # pass i runs the cocyclelab seed seed + i * SEED_STRIDE
CHILD_TIMEOUT_S = 150
# Timed seconds are scaled to a machine on which child.py's probe kernel
# takes PROBE_REF_S (its typical time on a 2.1 GHz Xeon vCPU, Python 3.11).
PROBE_REF_S = 0.0011
NOT_APPLICABLE = 1.0  # accuracy ratio on a workload that computes no such estimate

CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "lambda_se_rel": "ratio", "xcheck_tol_rel": "ratio"}
LAYER_TIMES = ("cli", "reports", "circle", "cocycle", "sl2", "sections", "holonomy", "natext")
PER_LAYER_COUNTS = {
    "cli.commands": "count", "reports.bytes_out": "bytes", "circle.points": "count",
    "cocycle.steps": "count", "cocycle.steps_per_s": "1/s", "cocycle.evals": "count",
    "cocycle.gap_failures": "count", "sl2.mat2_new": "count", "sl2.svd_calls": "count",
    "sections.grid_points": "count", "sections.refinements": "count",
    "holonomy.depth_total": "count", "holonomy.converged_ratio": "ratio",
    "natext.fiber_steps": "count",
}


class Run:
    """Work directory, schema validator and tallies of one benchmark run."""

    def __init__(self, workdir: str):
        import jsonschema

        with open(SCHEMA) as f:
            schema = json.load(f)
        self.validator = jsonschema.Draft202012Validator(schema)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict[int, bool] = {}  # lyap cross-check verdict per cocyclelab seed
        self.setups: list[float] = []
        self._n = 0

    def child(self, cli_args: list[str], trace: bool = False) -> dict:
        """Run one fresh process; returns its result with the report and trace."""
        self._n += 1
        stem = os.path.join(self.workdir, f"c{self._n}")
        paths = {ext: f"{stem}.{ext}" for ext in ("result", "report", "csv", "trace")}
        argv = [sys.executable, CHILD, paths["result"], paths["trace"] if trace else "-"]
        if cli_args:
            argv += cli_args + ["--out", paths["report"], "--csv", paths["csv"]]
        env = dict(os.environ, **CHILD_ENV)
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(argv, env=env, cwd=self.workdir, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0:
            return {"error": f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        out = _load(paths["result"])
        if not trace:
            self.setups.append(out["setup_s"] * PROBE_REF_S / out["setup_probe_s"])
        out["report"] = _load(paths["report"]) if os.path.exists(paths["report"]) else None
        out["csv"] = paths["csv"]
        out["trace"] = _load(paths["trace"]) if trace else None
        return out

    def run_pass(self, workload: str, cli_seed: int, trace: bool = False) -> list[dict]:
        """Every command of the workload once, each checked; one dict per command."""
        results = []
        for cmd in WORKLOADS[workload]:
            args = cmd + ["--workers", "1", "--seed", str(cli_seed)]
            r = self.child(args, trace)
            if "error" in r:
                problems = [r["error"]]
            else:
                problems = checks.check_invocation(cmd[0], r["report"], r["csv"],
                                                   r["exit_code"], self.validator)
                if trace and not problems:
                    problems = count_problems(cmd[0], r["report"], r["trace"]["counts"])
                xc = (r["report"] or {}).get("results", {}).get("cross_check")
                if xc is not None:
                    self.verdicts[cli_seed] = xc["pass"]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {' '.join(args)}: {'; '.join(problems)}", file=sys.stderr)
            r["command"], r["problems"] = cmd[0], problems
            results.append(r)
        return results


def _load(path: str):
    with open(path) as f:
        return json.load(f)


def _ok(pass_results) -> bool:
    return all(not r["problems"] for r in pass_results)


def _scaled_wall(r: dict) -> float:
    return r["wall_s"] * PROBE_REF_S / r["wall_probe_s"]


def _rms(values) -> float:
    return math.sqrt(math.fsum(v * v for v in values) / len(values))


def expected_counts(command: str, cfg: dict) -> dict:
    """Per-command counter totals that follow from the resolved config alone."""
    def burn_in(steps):
        return cfg["burn_in"] if cfg["burn_in"] is not None else tracer.default_burn_in(steps)

    g = cfg.get("grid")
    if command == "lyap":
        s, n, d = cfg["samples"], cfg["steps"], cfg["direction_steps"]
        return {"cocycle.steps": s * (n + burn_in(n)) + s * d, "circle.points": s * d,
                "cocycle.evals": s, "cocycle.gap_failures": 0}
    if command == "section":
        r, it, d = cfg["restarts"], cfg["iterations"], cfg["direction_steps"]
        return {"cocycle.steps": g * d, "cocycle.evals": r * (it + cfg["k"]) * g + 2 * g,
                "sections.grid_points": g + r * (it + 1) * g + 2 * g,
                "sections.refinements": 0, "cocycle.gap_failures": 0}
    if command == "robustness":
        t, s, n = cfg["trials"], cfg["samples"], cfg["steps"]
        return {"cocycle.steps": (t + 1) * s * (n + burn_in(n)),
                "cocycle.evals": 2 * t * cfg["c0_grid"]}
    if command == "scan-periodic":
        p = checks.periodic_point_count(cfg["k"], cfg["max_period"])
        return {"circle.points": p, "cocycle.evals": p}
    if command == "holonomy":
        # each pair: its holonomy plus the two inside the equivariance residual
        return {"holonomy.calls": 3 * cfg["pairs"], "holonomy.converged": 3 * cfg["pairs"]}
    if command == "natext":
        # iota over depth d and over its shift (d - 1), then one step of g
        return {"natext.fiber_steps": cfg["samples"] * 2 * cfg["depth"]}
    if command == "bunching":
        return {"cocycle.evals": g}
    if command == "degree":
        return {"cocycle.evals": 2 * g, "sections.grid_points": 2 * g,
                "sections.refinements": 0}
    raise KeyError(command)


def count_problems(command: str, report: dict, counts: dict) -> list[str]:
    want = dict(expected_counts(command, report["config"]), **{"cli.commands": 1})
    return [f"traced {name} = {counts.get(name, 0)}, config gives {n}"
            for name, n in want.items() if counts.get(name, 0) != n]


def _stats(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def timed_metrics(run: Run, passes: list[list[dict]]) -> dict:
    raw_walls = [sum(r["wall_s"] for r in p) for p in passes]
    walls = [sum(_scaled_wall(r) for r in p) for p in passes]
    rss = [max(r["maxrss_kb"] for r in p) / 1024.0 for p in passes]
    ng_rel, xc_rel = [], []
    for res in (r["report"]["results"] for p in passes for r in p):
        if "estimates" in res:  # lyap
            ng = res["estimates"]["norm_growth"]
            ng_rel.append(ng["std_error"] / ng["value"])
            xc_rel.append(res["cross_check"]["tolerance"] / abs(ng["value"]))
        elif "trials" in res:  # robustness: the baseline and every trial
            for est in [res["baseline"]] + res["trials"]:
                ng_rel.append(est["std_error"] / est["value"])
    samples = {"wall_s": walls, "setup_s": run.setups, "peak_rss_mb": rss}
    metrics = {name: _stats(v)[0] for name, v in samples.items()}
    metrics["lambda_se_rel"] = _rms(ng_rel) if ng_rel else NOT_APPLICABLE
    metrics["xcheck_tol_rel"] = _rms(xc_rel) if xc_rel else NOT_APPLICABLE
    for name, unit in END_TO_END.items():
        if name in samples:
            med, q1, q3 = _stats(samples[name])
            print(f"{name:16s} {med:12.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"n={len(samples[name])}")
        else:
            n = len(ng_rel) if name == "lambda_se_rel" else len(xc_rel)
            note = f"rms over {n} estimates" if n else "not applicable"
            print(f"{name:16s} {metrics[name]:12.6g} {unit:6s} {note}")
    med, q1, q3 = _stats(raw_walls)
    print(f"{'unscaled wall':16s} {med:12.6g} s      q1 {q1:.6g} q3 {q3:.6g}; probe kernel "
          f"median {statistics.median(r['wall_probe_s'] for p in passes for r in p):.4g} s")
    return metrics


def traced_metrics(untraced: list[dict], traced: list[list[dict]]) -> dict:
    """Times are medians over the traced passes; counts are the first pass's.

    The untraced pass's wall time is given probe-scaled and unscaled, with
    its probe kernel's median time, so that the scaling can be checked.
    """
    def total(p, key):
        out: dict[str, float] = {}
        for r in p:
            for name, v in r["trace"][key].items():
                out[name] = out.get(name, 0) + v
        return out

    def times(p):
        self_s = total(p, "self_s")
        m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYER_TIMES}
        m["step_s"] = sum(r["trace"]["step_s"] for r in p)
        m["wall_s"] = sum(r["wall_s"] for r in p)
        return m

    per_pass = [times(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    counts = total(traced[0], "counts")
    metrics.update({name: counts.get(name, 0) for name in PER_LAYER_COUNTS})
    step_s = metrics.pop("step_s")
    metrics["cocycle.steps_per_s"] = counts.get("cocycle.steps", 0) / step_s if step_s else 0.0
    calls = counts.get("holonomy.calls", 0)
    metrics["holonomy.converged_ratio"] = counts.get("holonomy.converged", 0) / calls if calls else 0.0
    metrics["trace_overhead_s"] = metrics.pop("wall_s") - sum(r["wall_s"] for r in untraced)
    metrics["untraced.wall_s"] = sum(_scaled_wall(r) for r in untraced)
    metrics["untraced.wall_unscaled_s"] = sum(r["wall_s"] for r in untraced)
    metrics["untraced.probe_s"] = statistics.median(r["wall_probe_s"] for r in untraced)
    for name, v in metrics.items():
        print(f"{name:26s} {v:14.6g} {PER_LAYER_COUNTS.get(name, 's')}")
    return metrics


def repeat_problems(traced: list[list[dict]]) -> list[str]:
    """Counts must repeat exactly between traced passes of the same input.

    reports.bytes_out is left out: report timestamps drop their microseconds
    field when it is zero, so report sizes may differ by a few bytes.
    """
    first = [r["trace"]["counts"] for r in traced[0]]
    problems = []
    for p in traced[1:]:
        for a, r in zip(first, p):
            b = r["trace"]["counts"]
            for name in sorted(set(a) | set(b)):
                if name != "reports.bytes_out" and a.get(name) != b.get(name):
                    problems.append(f"{r['command']}: {name} {a.get(name)} then {b.get(name)}")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "cocyclelab", "cli.py")):
        print(f"error: no cocyclelab sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(ROOT, ".bench-work"), exist_ok=True)
    workdir = os.path.join(ROOT, ".bench-work",
                           f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _measure(args, Run(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, run: Run) -> int:
    start = time.perf_counter()
    cmds = " | ".join(" ".join(c) for c in WORKLOADS[args.workload])
    print(f"workload {args.workload}: {cmds}  (seed {args.seed}, {args.seconds:g} s)")

    metrics, units = None, END_TO_END
    if args.trace:
        untraced = run.run_pass(args.workload, args.seed)
        traced = [run.run_pass(args.workload, args.seed, trace=True) for _ in range(2)]
        if _ok(untraced) and all(_ok(t) for t in traced):
            problems = repeat_problems(traced)
            for msg in problems:
                print(f"COUNT MISMATCH {msg}", file=sys.stderr)
            run.attempted += 1
            run.failed += bool(problems)
            metrics, units = traced_metrics(untraced, traced), PER_LAYER_COUNTS
            kept = os.path.join(ROOT, ".bench-work", f"trace-{args.workload}-{args.seed}.json")
            with open(kept, "w") as f:
                json.dump([dict(r["trace"], command=r["command"]) for r in traced[0]], f)
            print(f"spans and per-function totals of the first traced pass: {kept}")
    else:
        for _ in range(SETUP_CHILDREN):
            r = run.child([])
            if "error" in r:
                print(f"FAILED set-up: {r['error']}", file=sys.stderr)
                return 1
        passes = []
        while True:
            t0 = time.perf_counter()
            passes.append(run.run_pass(args.workload, args.seed + len(passes) * SEED_STRIDE))
            # another pass unless it would overshoot the budget by over half a pass
            now = time.perf_counter()
            if now - start + (now - t0) / 2 >= args.seconds:
                break
        good = [p for p in passes if _ok(p)]
        if good:
            metrics = timed_metrics(run, good)
        print(f"passes {len(passes)}")

    if run.verdicts:
        # one more check over the run: how often the lyap cross-check failed
        verdicts = list(run.verdicts.values())
        problems = checks.verdict_problems(verdicts)
        for msg in problems:
            print(f"FAILED {msg}", file=sys.stderr)
        print(f"lyap cross-check verdicts failed {verdicts.count(False)} of {len(verdicts)}")
        run.attempted += 1
        run.failed += bool(problems)

    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"failed_frac {run.failed / run.attempted:.6g}, "
          f"elapsed {time.perf_counter() - start:.1f} s")
    if metrics is None:
        print("no pass completed without a failed check", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "s")}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
