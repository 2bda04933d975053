"""Standard-library lint of the package: no unused imports, no dead private names,
no public name that neither the package nor the README uses, no public method
that nothing calls."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import cocyclelab

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cocyclelab"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}
README = (ROOT / "README.md").read_text()


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _loaded(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, as bare names or as attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__.py"])
def test_every_import_is_used(name):
    # __init__ imports are the package's re-exports
    tree = MODULES[name]
    unused = {n: line for n, line in _imported(tree).items() if n not in _loaded(tree)}
    assert not unused, f"{name}: unused imports {unused}"


def test_every_private_top_level_name_has_a_caller():
    callers = set()
    for tree in MODULES.values():
        callers |= _loaded(tree)
        callers |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
    dead = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{name}:{node.lineno} {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__") and d not in callers]
    assert not dead, f"private names nobody calls: {dead}"


def _uncalled_exports(exported, modules: dict[str, ast.Module], readme: str) -> list[str]:
    """Exported names that no module but __init__ reads and the README never names."""
    callers = set()
    for name, tree in modules.items():
        if name != "__init__.py":  # its imports are the re-exports themselves
            callers |= _loaded(tree)
    mentioned = set(re.findall(r"\w+", readme))
    return sorted(n for n in exported if n not in callers and n not in mentioned)


def test_every_export_has_a_caller_or_a_readme_mention():
    # the public surface is what the commands use and the README documents
    exported = [n for n in cocyclelab.__all__ if not inspect.ismodule(getattr(cocyclelab, n))]
    dead = _uncalled_exports(exported, MODULES, README)
    assert not dead, f"exported names with no caller in src/ and no mention in README.md: {dead}"


def test_export_check_sees_an_uncalled_export():
    # the check must flag an export nobody calls, or it checks nothing
    orphan = ast.parse("def orphan(spec):\n    return evaluate(spec, 0.5)\n")
    modules = dict(MODULES, **{"orphan.py": orphan})
    assert _uncalled_exports(["orphan", "evaluate"], modules, README) == ["orphan"]


def _uncalled_methods(modules: dict[str, ast.Module], classes) -> list[str]:
    """Public methods of top-level classes that no module reads and no base class defines.

    classes(module, name) is the class object, whose bases decide whether a
    method overrides one (cli._Parser.error, which argparse calls).  A
    README mention does not count: a method name is a common word there.
    """
    callers = set()
    for tree in modules.values():
        callers |= _loaded(tree)
    dead = []
    for name, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = classes(name, cls.name).__mro__[1:]
            dead += [f"{name}:{cls.name}.{fn.name}" for fn in cls.body
                     if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                     and fn.name not in callers
                     and not any(fn.name in vars(base) for base in bases)]
    return sorted(dead)


def _src_class(module: str, name: str) -> type:
    return getattr(importlib.import_module(f"cocyclelab.{module.removesuffix('.py')}"), name)


def test_every_public_method_has_a_caller_or_overrides_a_base():
    dead = _uncalled_methods(MODULES, _src_class)
    assert not dead, f"public methods with no caller in src/: {dead}"


def test_method_check_sees_an_uncalled_method():
    # the check must flag a method nobody calls (Mat2.rotation outlived its
    # last caller this way), pass an override of a base-class method, and
    # find the override cli holds, or it checks nothing
    planted = (
        "import argparse\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        raise SystemExit(message)\n"
        "class Turn:\n"
        "    @staticmethod\n"
        "    def rotation(angle):\n"
        "        return angle\n"
    )
    namespace = {}
    exec(compile(planted, "planted.py", "exec"), namespace)
    dead = _uncalled_methods({"planted.py": ast.parse(planted)}, lambda _, name: namespace[name])
    assert dead == ["planted.py:Turn.rotation"]
    assert "error" not in set().union(*map(_loaded, MODULES.values()))


def _is_pi(node: ast.expr) -> bool:
    """PI, or the attribute pi of any module (math.pi, np.pi)."""
    return ((isinstance(node, ast.Name) and node.id == "PI")
            or (isinstance(node, ast.Attribute) and node.attr == "pi"))


def _angle_reductions(tree: ast.Module) -> list[int]:
    """Lines that reduce mod pi: x % PI, x % math.pi, np.mod(x, PI) and the like."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and _is_pi(node.right):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("mod", "remainder", "fmod")
              and len(node.args) == 2 and _is_pi(node.args[1])):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", [n for n in MODULES if n != "sl2.py"])
def test_only_sl2_reduces_angles_mod_pi(name):
    # the wrap into [0, pi) and the shorter-arc step are written once, in sl2
    lines = _angle_reductions(MODULES[name])
    assert not lines, f"{name}: angle reduced mod pi at lines {lines}; use sl2._wrap or sl2._arc"


def test_sl2_reduction_check_sees_the_wrap():
    # the check must find the one wrap it allows, or it checks nothing
    assert _angle_reductions(MODULES["sl2.py"])


def _named(tree: ast.AST, names: tuple[str, ...]) -> list[tuple[str, int]]:
    """(scope, line) of each of names named, bare or as an attribute (np.arctan2)."""
    return _scoped(tree, lambda node: (
        (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)))


# each arctangent is written in one function: np.arctan2 in the pushed angles,
# math.atan2 in the SVD angles; np.arctan2 can differ from math.atan2 in the last bit
ARCTANGENT_HOMES = {"arctan2": ("sl2.py", "_pushed_angles"), "atan2": ("sl2.py", "_svd_raw")}


def _misplaced_arctangents(name: str, tree: ast.AST) -> list[str]:
    """'fn in scope:line' for each atan2 or arctan2 of module name outside its home."""
    return [f"{fn} in {scope or '<module>'}:{line}" for fn, home in ARCTANGENT_HOMES.items()
            for scope, line in _named(tree, (fn,)) if (name, scope) != home]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_only_sl2_takes_angles_by_atan2(name):
    lines = _misplaced_arctangents(name, MODULES[name])
    assert not lines, f"{name}: {lines}; use sl2._pushed_angles or sl2._svd_raw"


def test_atan2_check_sees_an_inline_push():
    # the check must flag an arctangent in the other home, an inline push and a
    # module-level one, and find each home's own, or it checks nothing
    misplaced = (
        "import math\n"
        "import numpy as np\n"
        "def _pushed_angles(a, b, c, d, ts):\n"
        "    return np.arctan2(c, a) + math.atan2(d, b)\n"
        "def _svd_raw(a, b, c, d):\n"
        "    return math.atan2(c, a), np.arctan2(d, b)\n"
        "def _push(spec, xs, angles):\n"
        "    return [math.atan2(y, x) for x, y in zip(xs, angles)]\n"
        "ZERO = np.arctan2(0.0, 1.0)\n"
    )
    assert _misplaced_arctangents("sl2.py", ast.parse(misplaced)) == [
        "arctan2 in _svd_raw:6", "arctan2 in <module>:9", "atan2 in _pushed_angles:4",
        "atan2 in _push:8"]
    assert len(_misplaced_arctangents("sections.py", ast.parse(misplaced))) == 6
    assert {fn: {scope for scope, _ in _named(MODULES["sl2.py"], (fn,))}
            for fn in ARCTANGENT_HOMES} == {"arctan2": {"_pushed_angles"}, "atan2": {"_svd_raw"}}


# a product is pulled to Frobenius norm sqrt 2 in two places, both in cocycle.py: one
# scalar step and one array pull, whose bits every product kernel and the holonomy
# walk share
NORMALIZATION_HOMES = (("cocycle.py", "_product_step"), ("cocycle.py", "_pull"))


def _misplaced_pulls(name: str, tree: ast.AST) -> list[str]:
    """'scope:line' of each read of SQRT2, bare or as an attribute, in module name
    outside its homes."""
    return [f"{scope or '<module>'}:{line}" for scope, line in _scoped(tree, lambda node: (
        (isinstance(node, ast.Name) and node.id == "SQRT2" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "SQRT2")))
        if (name, scope) not in NORMALIZATION_HOMES]


def test_only_the_scalar_step_and_the_array_pull_normalize():
    misplaced = {name: lines for name, tree in MODULES.items()
                 if (lines := _misplaced_pulls(name, tree))}
    assert not misplaced, f"SQRT2 at {misplaced}; pull with cocycle._product_step or _pull"


def test_normalization_check_sees_an_inline_pull():
    # the check must flag a pull inlined in a walk, a qualified SQRT2, a module-level
    # one and a home's name outside cocycle.py, and find each home's own, or it
    # checks nothing
    inline_pull = (
        "SQRT2 = math.sqrt(2.0)\n"
        "def _product_step(ma, mb, mc, md, logs, ea, eb, ec, ed):\n"
        "    return SQRT2\n"
        "def _walk(spec, m, x_it, y_it, tol, max_depth):\n"
        "    fr = math.sqrt(xa * xa + xb * xb + xc * xc + xd * xd)\n"
        "    xa, xb, xc, xd = (v * (SQRT2 / fr) for v in (xa, xb, xc, xd))\n"
        "    sx += math.log(fr / cocycle.SQRT2)\n"
        "LOG_SQRT2 = math.log(SQRT2)\n"
    )
    tree = ast.parse(inline_pull)
    assert _misplaced_pulls("cocycle.py", tree) == ["_walk:6", "_walk:7", "<module>:8"]
    assert _misplaced_pulls("holonomy.py", tree) == [
        "_product_step:3", "_walk:6", "_walk:7", "<module>:8"]
    assert {scope for scope, _ in _named(MODULES["cocycle.py"], ("SQRT2",))} == {
        "", *(scope for _, scope in NORMALIZATION_HOMES)}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    """The module's top-level function of that name."""
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _evaluate_names(tree: ast.AST) -> list[int]:
    """Lines that name evaluate, bare, as an attribute (cocycle.evaluate) or imported."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == "evaluate")
                  or (isinstance(node, ast.Attribute) and node.attr == "evaluate")
                  or (isinstance(node, ast.alias) and node.name == "evaluate"))


PRODUCT_PATH = ("cocycle_product", "_product_of_blocks", "_product_along", "_reduce",
                "_first_level", "_levels", "_root", "_pull", "_block_products",
                "_norm_growth_group", "_ladder", "_pull_period")


@pytest.mark.parametrize("name", PRODUCT_PATH)
def test_product_path_takes_entries_without_evaluate(name):
    # a matrix inside a product counts as a step (cocycle.steps), not as an
    # evaluate call (cocycle.evals); products take their entries from _entries
    lines = _evaluate_names(_function(MODULES["cocycle.py"], name))
    assert not lines, f"cocycle.{name}: evaluate at lines {lines}; use _entries"


def test_evaluate_check_sees_an_inline_evaluate():
    # the check must flag an evaluate inside a nested generator and a
    # qualified one, and find the one phi makes, or it checks nothing
    inline_tail = (
        "def cocycle_product(spec, m, x, n):\n"
        "    def blocks(x):\n"
        "        yield [evaluate(spec, x)]\n"
        "    p = _product_of_blocks(spec, blocks(x))\n"
        "    ea, eb, ec, ed = cocycle.evaluate(spec, x)\n"
    )
    assert _evaluate_names(_function(ast.parse(inline_tail), "cocycle_product")) == [3, 5]
    assert _evaluate_names(_function(MODULES["cocycle.py"], "phi"))


@pytest.mark.parametrize("name", ["sections.py", "cli.py"])
def test_grid_consumers_take_entries_from_the_gather(name):
    # grid loops take their entries from cocycle._evaluated_entries, so that
    # batching the per-point evaluate calls changes that one function
    lines = _evaluate_names(MODULES[name])
    assert not lines, f"{name}: evaluate at lines {lines}; use cocycle._evaluated_entries"


def test_gather_check_sees_a_per_point_evaluate():
    # the check must flag an imported evaluate, one mapped over a grid and one
    # called per point of a fold, and find the one the gather makes, or it checks nothing
    per_point = (
        "from .cocycle import CocycleSpec, evaluate\n"
        "def _push(spec, xs, angles):\n"
        "    entries = map(evaluate, repeat(spec), xs.tolist())\n"
        "    return _wrap(_pushed_angles(entries, angles))\n"
        "def cmd_scan_periodic(cfg, spec, map_):\n"
        "    for x in orbit:\n"
        "        a, b, c, d = _mul(*evaluate(spec, x), a, b, c, d)\n"
    )
    assert _evaluate_names(ast.parse(per_point)) == [1, 3, 7]
    assert _evaluate_names(_function(MODULES["cocycle.py"], "_evaluated_entries"))


def _ctypes_imports(tree: ast.Module) -> list[int]:
    """Lines that import ctypes or a submodule of it, in any import form."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Import)
                      and any(a.name.split(".")[0] == "ctypes" for a in node.names))
                  or (isinstance(node, ast.ImportFrom) and not node.level
                      and node.module.split(".")[0] == "ctypes"))


@pytest.mark.parametrize("name", list(MODULES))
def test_no_module_imports_ctypes(name):
    # the package makes no foreign call
    lines = _ctypes_imports(MODULES[name])
    assert not lines, f"{name}: ctypes imported at lines {lines}"


def test_ctypes_check_sees_every_import_form():
    # the check must flag each way of importing ctypes and pass a relative
    # import that merely starts with the name
    imports = (
        "import ctypes\n"
        "import os, ctypes.util as cu\n"
        "from ctypes import CDLL\n"
        "from ctypes.util import find_library\n"
        "from . import ctypes_free\n"
        "import numpy\n"
    )
    assert _ctypes_imports(ast.parse(imports)) == [1, 2, 3, 4]


# flags of os.open that write to the file or create it
WRITE_FLAGS = ("O_WRONLY", "O_RDWR", "O_CREAT")


def _opens_for_writing(node: ast.AST) -> bool:
    """Whether node is a call of open (or io.open) or os.fdopen whose mode writes (a
    mode with w, a, x or +, or one that is not a literal), or of os.open whose
    flags name O_WRONLY, O_RDWR or O_CREAT."""
    if not isinstance(node, ast.Call):
        return False
    called = ast.unparse(node.func)
    if called not in ("open", "io.open", "os.fdopen", "os.open"):
        return False
    keyword = "flags" if called == "os.open" else "mode"
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == keyword), None)
    if mode is None:
        return False
    if called == "os.open":
        return any(flag in ast.unparse(mode) for flag in WRITE_FLAGS)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


@pytest.mark.parametrize("name", [n for n in MODULES if n != "reports.py"])
def test_only_reports_opens_a_file_for_writing(name):
    # every output file goes through reports._write, so every one has one
    # replace-or-write policy
    found = _scoped(MODULES[name], _opens_for_writing)
    assert not found, f"{name}: file opened for writing at {found}; use reports._write"


def test_write_check_sees_an_in_place_csv():
    # the check must flag each writing open and pass each reading one, and find
    # reports._write's own open, or it checks nothing
    in_place = (
        "def main(argv=None):\n"
        "    with open(args.config) as f:\n"
        "        cfg = json.load(f)\n"
        "    with open(args.csv, 'w', newline='') as f:\n"
        "        csv.writer(f).writerows([header, *rows])\n"
        "    with io.open(path, mode='a') as f, open(path, 'rb') as g:\n"
        "        f.write(g.read())\n"
        "    fd = os.open(path, flags=os.O_WRONLY | os.O_TRUNC)\n"
        "    r = os.open(path, os.O_RDONLY)\n"
        "    f = os.fdopen(fd, mode)\n"
        "    g = os.fdopen(r)\n"
    )
    assert [line for _, line in _scoped(ast.parse(in_place), _opens_for_writing)] == [
        4, 6, 8, 10]
    assert _scoped(_function(MODULES["reports.py"], "_write"), _opens_for_writing)
    assert {scope for scope, _ in _scoped(MODULES["reports.py"], _opens_for_writing)} == {
        "_write", "_open_replacement"}


def _keyword_is_true(call: ast.Call, name: str) -> bool:
    return any(k.arg == name and isinstance(k.value, ast.Constant) and k.value.value is True
               for k in call.keywords)


def _frozen_dataclasses(tree: ast.Module) -> dict[str, bool]:
    """Classes decorated @dataclass(frozen=True, ...), mapped to whether slots=True."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            if (isinstance(dec, ast.Call)
                    and getattr(dec.func, "id", getattr(dec.func, "attr", None)) == "dataclass"
                    and _keyword_is_true(dec, "frozen")):
                found[node.name] = _keyword_is_true(dec, "slots")
    return found


def test_every_frozen_dataclass_is_slotted():
    # value types are built per point; a per-instance __dict__ costs time and memory there
    unslotted = [f"{name}:{cls}" for name, tree in MODULES.items()
                 for cls, slotted in _frozen_dataclasses(tree).items() if not slotted]
    assert not unslotted, f"frozen dataclasses without slots=True: {unslotted}"


def test_slots_check_sees_the_value_types():
    # the check must find the frozen dataclasses, or it checks nothing
    assert {"Mat2", "ProjPoint"} <= set(_frozen_dataclasses(MODULES["sl2.py"]))


def _scoped(tree: ast.AST, match) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function or class, line) of each node that
    match accepts; nodes at module level have the scope ''."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif match(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def _per_term_trig(tree: ast.AST) -> list[str]:
    """Functions, by qualified name, that call sin or cos on an argument reading .freq."""
    return [scope for scope, _ in _scoped(tree, lambda node: (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("sin", "cos")
        and any(isinstance(n, ast.Attribute) and n.attr == "freq"
                for arg in node.args for n in ast.walk(arg))))]


# holonomy's g(x + delta) - g(x) needs its relative accuracy in delta, term by term
PER_TERM_TRIG_ALLOWED = {("cocycle.py", "CocycleSpec.twist_gap")}


def test_twist_terms_share_one_sine_and_cosine_per_point():
    # one (cos, sin)(2 pi x) per point feeds every term through cocycle._trig_sum
    per_term = [f"{name}:{scope}" for name, tree in MODULES.items()
                for scope in _per_term_trig(tree) if (name, scope) not in PER_TERM_TRIG_ALLOWED]
    assert not per_term, f"sin or cos of a term frequency, once per term: {per_term}"


def test_per_term_trig_check_sees_a_sine_per_term():
    # the check must flag the one-sine-per-term _angles that _trig_sum replaced,
    # and find the twist_gap it allows, or it checks nothing
    per_term_angles = (
        "def _angles(spec, xs):\n"
        "    g = spec.winding * xs\n"
        "    for t in spec.terms:\n"
        "        g += t.amp * np.sin(TWO_PI * t.freq * xs + t.phase)\n"
        "    return TWO_PI * g\n"
    )
    assert _per_term_trig(ast.parse(per_term_angles)) == ["_angles"]
    assert "CocycleSpec.twist_gap" in _per_term_trig(MODULES["cocycle.py"])


def _coercions_in_post_init(tree: ast.AST) -> list[str]:
    """Classes whose __post_init__ calls int(...) or float(...), with the call's line."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                found += [f"{cls.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id in ("int", "float")]
    return found


def test_post_init_validates_instead_of_coercing():
    # int(1.7) and float("0.25") turn bad input into a value; errors._integral
    # and errors._real accept a number or raise
    coerced = [f"{name}:{where}" for name, tree in MODULES.items()
               for where in _coercions_in_post_init(tree)]
    assert not coerced, f"int() or float() inside __post_init__: {coerced}"


def test_coercion_check_sees_a_truncated_digit():
    # the check must flag the BackwardItinerary that ran digits (1.7, 2.9) as (1, 2)
    truncating = (
        "class BackwardItinerary:\n"
        "    def __post_init__(self):\n"
        "        if self.k < 2:\n"
        "            raise ValueError('degree k must be >= 2')\n"
        "        digits = tuple(int(d) for d in self.digits)\n"
        "        object.__setattr__(self, 'digits', digits)\n"
    )
    assert _coercions_in_post_init(ast.parse(truncating)) == ["BackwardItinerary:5"]


def _array_trig(tree: ast.AST) -> list[tuple[str, int]]:
    """(scope, line) of each cos or sin named other than as math.cos or math.sin:
    np.cos, a bare cos imported from numpy, or trig.sin on a module chosen at run time."""
    return _scoped(tree, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr in ("cos", "sin")
         and not (isinstance(node.value, ast.Name) and node.value.id == "math"))
        or (isinstance(node, ast.Name) and node.id in ("cos", "sin"))))


# sl2._cos_sin evaluates array cos and sin octant by octant.  _pushed_angles keeps
# np.cos and np.sin: a section's angles follow its grid, so their libm branches
# already predict, and the helper's sort read slower there.
ARRAY_TRIG_ALLOWED = {("sl2.py", "_cos_sin"), ("sl2.py", "_pushed_angles")}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_array_cos_and_sin_go_through_cos_sin(name):
    # np.cos and np.sin on orbit-ordered angles mispredict libm's range branches;
    # sl2._cos_sin takes them in octant order with the same bits
    lines = [f"{scope}:{line}" for scope, line in _array_trig(MODULES[name])
             if (name, scope) not in ARRAY_TRIG_ALLOWED]
    assert not lines, f"{name}: array cos or sin at {lines}; use sl2._cos_sin"


def test_array_trig_check_sees_an_inline_cos():
    # the check must flag the _entries that called np.cos itself, a module picked at
    # run time and a bare imported sin, pass math's, and find the helper sl2 holds,
    # or it checks nothing
    inline_entries = (
        "def _entries(spec, xs):\n"
        "    ang = _angles(spec, xs)\n"
        "    cs = np.cos(ang)\n"
        "    trig = math if isinstance(xs, float) else np\n"
        "    sn = trig.sin(ang)\n"
        "    return cs, sn, sin(ang), math.cos(ang)\n"
    )
    assert _array_trig(ast.parse(inline_entries)) == [("_entries", 3), ("_entries", 5),
                                                       ("_entries", 6)]
    assert {scope for scope, _ in _array_trig(MODULES["sl2.py"])} == {
        scope for name, scope in ARRAY_TRIG_ALLOWED if name == "sl2.py"}
