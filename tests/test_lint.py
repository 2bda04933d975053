"""Standard-library lint of the package: no unused imports, no dead private names,
no public name that neither the package nor the README uses."""

import ast
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


def _per_term_trig(tree: ast.AST) -> list[str]:
    """Functions, by qualified name, that call sin or cos on an argument reading .freq."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("sin", "cos")
              and any(isinstance(n, ast.Attribute) and n.attr == "freq"
                      for arg in node.args for n in ast.walk(arg))):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


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
