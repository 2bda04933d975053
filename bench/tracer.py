"""Traced-run recorder: spans and counts at the boundary of each cocyclelab module.

The recorder patches the package from outside; the program itself carries
no instrumentation.  Every public module-level function is wrapped in the
module that defines it and in every module that imported it by name (cli
does ``from .cocycle import ...``), including function references held in
module-level dicts such as ``cli.RUNNERS``.  A few private functions and
methods are wrapped too, where they are the layer's own boundary:
``sl2._svd_raw`` (the closed-form SVD), the ``Mat2``/``ProjPoint``
constructors, ``BackwardItinerary.points`` and
``NatExtRealization.fiber_step``.

Hot calls are aggregated per function (calls, inclusive and self seconds)
instead of being stored as one span each; section-grid makes millions of
them.  Only spans near the root (the command and its runner) are kept
individually.  A layer's self time is the time inside its spans minus the
time inside the spans they caused, and minus the tracer's own cost for each
wrapped call they made (measured when the recorder is installed and again
when it writes, see ``wrapped_call_cost``).  Work done inside a function
that is not a boundary (the fused norm-growth loop, say) is charged to the
boundary that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("cli", "reports", "circle", "cocycle", "sl2", "sections", "holonomy", "natext")

# spans at stack depth below this are kept one by one; deeper ones are only aggregated
KEEP_SPAN_DEPTH = 2


def default_burn_in(n_steps: int) -> int:
    """lyapunov_norm_growth's burn-in when none is given."""
    return min(100, max(1, n_steps // 10))


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


def _counters(mods):
    """Per-function count hooks: name -> (on_return, on_error).

    on_return(add, args, kwargs, result) and on_error(add, exc) call
    add(counter, amount).  Step and grid-point counts follow from the
    arguments of public entry points, so they are the work each call was
    asked to do.
    """
    cocycle, circle, sections = mods["cocycle"], mods["circle"], mods["sections"]
    errors = importlib.import_module("cocyclelab.errors")
    ng_args = _bound(cocycle.lyapunov_norm_growth)
    fb_args = _bound(cocycle.lyapunov_furstenberg)
    prod_args = _bound(cocycle.cocycle_product)
    orbit_args = _bound(circle.orbit_from_digits)
    sdl_args = _bound(sections.stable_direction_loop)
    scs_args = _bound(sections.section_consistency_search)
    res_args = _bound(sections.section_residual)

    def one(counter):
        return lambda add, args, kwargs, result: add(counter, 1)

    def norm_growth(add, args, kwargs, result):
        a = ng_args(args, kwargs)
        burn_in = a["burn_in"]
        if burn_in is None:
            burn_in = default_burn_in(a["n_steps"])
        add("cocycle.steps", a["n_samples"] * (a["n_steps"] + burn_in))

    def furstenberg(add, args, kwargs, result):
        a = fb_args(args, kwargs)
        add("cocycle.steps", a["n_samples"] * a["n_direction"])
        # a failed gap inside a sample is caught there and flags the estimate
        add("cocycle.gap_failures", int(result.degenerate))

    def output_bytes(path_index):
        def hook(add, args, kwargs, result):
            path = args[path_index] if len(args) > path_index else kwargs.get("path")
            if path:
                add("reports.bytes_out", os.path.getsize(path))
        return hook

    def holonomy(add, args, kwargs, result):
        add("holonomy.calls", 1)
        add("holonomy.converged", int(result.converged))
        add("holonomy.depth_total", result.depth_used)

    def gap_failure(add, exc):
        if isinstance(exc, errors.NoHyperbolicityError):
            add("cocycle.gap_failures", 1)

    def refinement(add, exc):
        if isinstance(exc, errors.ResolutionError):
            add("sections.refinements", 1)

    def sweeps(add, args, kwargs, result):
        a = scs_args(args, kwargs)
        add("sections.grid_points", a["grid_n"] * a["n_iterations"])

    return {
        "cli.main": (one("cli.commands"), None),
        "reports.dump_report": (output_bytes(1), None),
        "reports.write_csv": (output_bytes(0), None),
        "circle.periodic_points": (lambda add, a, k, r: add("circle.points", len(r)), None),
        "circle.orbit_from_digits": (
            lambda add, a, k, r: add("circle.points", orbit_args(a, k)["n"]), None),
        "circle.BackwardItinerary.points": (
            lambda add, a, k, r: add("circle.points", len(r)), None),
        "cocycle.lyapunov_norm_growth": (norm_growth, None),
        "cocycle.lyapunov_furstenberg": (furstenberg, None),
        "cocycle.cocycle_product": (
            lambda add, a, k, r: add("cocycle.steps", prod_args(a, k)["n"]), None),
        "cocycle.evaluate": (one("cocycle.evals"), None),
        "cocycle.oseledets_stable_direction": (None, gap_failure),
        "sl2.Mat2.__post_init__": (one("sl2.mat2_new"), None),
        "sl2._svd_raw": (one("sl2.svd_calls"), None),
        "sections.stable_direction_loop": (
            lambda add, a, k, r: add("sections.grid_points", sdl_args(a, k)["grid_n"]), None),
        "sections.section_consistency_search": (sweeps, None),
        "sections.section_residual": (
            lambda add, a, k, r: add("sections.grid_points", res_args(a, k)["loop"].n), None),
        # a loop that fails to lift is counted as a refinement, not as grid points
        "sections.winding_number": (
            lambda add, a, k, r: add("sections.grid_points", a[0].n), refinement),
        "holonomy.u_holonomy": (holonomy, None),
        "natext.NatExtRealization.fiber_step": (one("natext.fiber_steps"), None),
    }


# functions counted as product work for cocycle.steps_per_s
STEP_FUNCTIONS = ("cocycle.lyapunov_norm_growth", "cocycle.lyapunov_furstenberg",
                  "cocycle.cocycle_product")

# private functions and methods wrapped as layer boundaries
EXTRA_BOUNDARIES = (
    ("sl2", None, "_svd_raw"),
    ("sl2", "Mat2", "__post_init__"),
    ("sl2", "ProjPoint", "__post_init__"),
    ("circle", "BackwardItinerary", "points"),
    ("natext", "NatExtRealization", "fiber_step"),
)


def wrapped_call_cost(n_calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapped call adds to its caller's self time.

    A wrapped call's bookkeeping (its frame, stack, clock reads and count
    hook) runs outside its own span but inside its caller's.  This is the
    self time of a wrapped loop of wrapped no-op calls, less the same loop
    run bare, per call: the median over `repeats`.  The loop runs below the
    kept spans, as hot calls do.
    """
    rec = Recorder()
    count_hook = (lambda add, args, kwargs, result: add("calibrate.calls", 1), None)
    leaf = rec.wrap("cli", "calibrate.leaf", lambda: None, {"calibrate.leaf": count_hook})

    def calls():
        for _ in range(n_calls):
            leaf()

    def bare():
        for _ in range(n_calls):
            pass

    loop = rec.wrap("cli", "calibrate.loop", calls, {})
    loop_stat = rec.stats["calibrate.loop"]
    rec._stack.extend([0.0, 0, None] for _ in range(KEEP_SPAN_DEPTH))
    costs = []
    for _ in range(repeats):
        loop_stat[3] = 0.0
        loop()
        t0 = time.perf_counter()
        bare()
        bare_s = time.perf_counter() - t0
        costs.append((loop_stat[3] - bare_s) / n_calls)
    return statistics.median(costs)


class Recorder:
    """Aggregated spans and counters for one traced process."""

    def __init__(self):
        # name -> [layer, calls, inclusive_s, self_s before the cost correction,
        #          wrapped calls made]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or None]
        self._stack: list[list] = []  # [child seconds, child calls, kept-span index or None]
        self._origin = time.perf_counter()
        self.call_costs: list[float] = []  # wrapped_call_cost at install and at write

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, layer: str, name: str, fn, hooks):
        stat = self.stats.setdefault(name, [layer, 0, 0.0, 0.0, 0])
        on_return, on_error = hooks.get(name, (None, None))
        stack, spans, add, clock = self._stack, self.spans, self.add, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            keep = None
            if len(stack) < KEEP_SPAN_DEPTH:
                keep = len(spans)
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                spans.append([name, clock() - self._origin, None, parent])
            frame = [0.0, 0, keep]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(add, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat[1] += 1
                stat[2] += dt
                stat[3] += dt - frame[0]
                stat[4] += frame[1]
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += 1
                if keep is not None:
                    spans[keep][2] = clock() - self._origin
            if on_return is not None:
                on_return(add, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every boundary of the imported cocyclelab package."""
        self.call_costs.append(wrapped_call_cost())
        mods = {layer: importlib.import_module(f"cocyclelab.{layer}") for layer in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module("cocyclelab")]
        hooks = _counters(mods)

        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    replace[id(fn)] = self.wrap(layer, f"{layer}.{attr}", fn, hooks)
        for layer, cls_name, attr in EXTRA_BOUNDARIES:
            mod = mods[layer]
            if cls_name is None:
                fn = getattr(mod, attr)
                replace[id(fn)] = self.wrap(layer, f"{layer}.{attr}", fn, hooks)
            else:
                cls = getattr(mod, cls_name)
                name = f"{layer}.{cls_name}.{attr}"
                setattr(cls, attr, self.wrap(layer, name, vars(cls)[attr], hooks))

        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if id(val) in replace:
                    setattr(ns, attr, replace[id(val)])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if id(item) in replace:
                            val[key] = replace[id(item)]

    def summary(self) -> dict:
        """Per-layer self time, counters and per-function aggregates.

        Self times are net of wrapped_call_cost for each wrapped call made,
        at the mean of the costs measured.
        """
        cost = statistics.fmean(self.call_costs) if self.call_costs else 0.0
        self_s = {n: s[3] - s[4] * cost for n, s in self.stats.items()}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for n, s in self.stats.items():
            layer_self[s[0]] += self_s[n]
        return {
            "self_s": layer_self,
            "counts": dict(self.counts),
            "call_costs_s": self.call_costs,
            "step_s": sum(self.stats[n][2] for n in STEP_FUNCTIONS if n in self.stats),
            "functions": {n: {"layer": s[0], "calls": s[1], "inclusive_s": s[2],
                              "self_s": self_s[n], "wrapped_calls_made": s[4]}
                          for n, s in self.stats.items() if s[1]},
            "spans": [{"name": n, "start_s": a, "end_s": b, "parent": p}
                      for n, a, b, p in self.spans],
        }

    def write(self, path: str) -> None:
        self.call_costs.append(wrapped_call_cost())
        with open(path, "w") as f:
            json.dump(self.summary(), f)
