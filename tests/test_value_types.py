"""The package's value types: slotted, frozen, validated on replace, and cheap per call."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import cocyclelab
from _util import example_map, example_spec
from cocyclelab import (
    BackwardItinerary,
    CocycleSpec,
    ExpandingMap,
    HolonomyResult,
    LyapunovEstimate,
    Mat2,
    NatExtRealization,
    ProjectiveLoop,
    ProjPoint,
    TwistTerm,
    cocycle_product,
    degree_obstruction,
    evaluate,
    periodic_points,
    rng_from,
    spec_from_json,
)
from cocyclelab.cli import main


SPEC = example_spec()
INSTANCES = [
    Mat2.identity(),
    ProjPoint(0.3),
    TwistTerm(1, 0.1, 0.0),
    SPEC,
    cocycle_product(SPEC, example_map(), 0.25, 4),
    LyapunovEstimate(0.1, 0.01, 10, 2, 1, "norm_growth"),
    ExpandingMap(8),
    BackwardItinerary(8, 0.3, (1, 2)),
    periodic_points(ExpandingMap(2), 2)[0],
    HolonomyResult(Mat2.identity(), 1, 0.0, True, (0.0,)),
    NatExtRealization(ExpandingMap(8), 2, (0.25, 0.75), 0.1, 0.2, 1.0, 0.5),
    ProjectiveLoop(np.zeros(8)),
    degree_obstruction(8, 1),
]


def _package_dataclasses() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(cocyclelab.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"cocyclelab.{info.name}")
        found |= {v for v in vars(mod).values()
                  if isinstance(v, type) and dataclasses.is_dataclass(v)
                  and v.__module__ == mod.__name__}
    return found


def test_instances_cover_every_dataclass():
    assert {type(v) for v in INSTANCES} == _package_dataclasses()


@pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
def test_value_type_is_slotted_and_frozen(value):
    assert not hasattr(value, "__dict__")
    names = [f.name for f in dataclasses.fields(value)]
    assert type(value).__slots__ == tuple(names)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    # no other attribute can be stored either; the error type varies with the Python version
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1


def test_replace_still_validates_and_normalizes():
    with pytest.raises(ValueError, match="theta"):
        dataclasses.replace(SPEC, theta=2.0)
    terms = [TwistTerm(2, 0.1, 0.0)]
    assert dataclasses.replace(SPEC, terms=terms).terms == (TwistTerm(2, 0.1, 0.0),)


@pytest.mark.parametrize("cls, name", [(Mat2, "__post_init__"), (ProjPoint, "__post_init__"),
                                       (BackwardItinerary, "points"),
                                       (NatExtRealization, "fiber_step")])
def test_boundary_methods_stay_in_the_class_dict(cls, name):
    # a traced run wraps these methods by replacing them on the class
    assert inspect.isfunction(vars(cls)[name])


def count_mat2(monkeypatch) -> list:
    """A list that gains one item per Mat2 built from here on, by a monkeypatched __post_init__."""
    calls = []
    post_init = vars(Mat2)["__post_init__"]

    def counted(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(Mat2, "__post_init__", counted)
    return calls


def test_evaluate_builds_no_mat2(monkeypatch):
    xs = [j / 64 for j in range(64)]
    calls = count_mat2(monkeypatch)
    for x in xs:
        evaluate(SPEC, x)
    assert calls == []


# each command at two sizes of its grid, trial count or period bound
SIZED_RUNS = {
    "section": [["--grid", str(n), "--iterations", "2", "--direction-steps", "32",
                 "--restarts", "1"] for n in (64, 128)],
    "bunching": [["--grid", str(n)] for n in (64, 256)],
    "scan-periodic": [["--max-period", str(n)] for n in (2, 4)],
    "robustness": [["--trials", str(n), "--steps", "100", "--samples", "1", "--c0-grid", "64"]
                   for n in (1, 3)],
}


@pytest.mark.parametrize("command", sorted(SIZED_RUNS))
def test_mat2_count_does_not_grow_with_the_run(command, monkeypatch, tmp_path):
    """Per-point work reads raw entries: the Mat2 a command builds are its
    inputs, so their number is the same at either size."""
    calls = count_mat2(monkeypatch)
    counts = []
    for args in SIZED_RUNS[command]:
        before = len(calls)
        assert main([command, *args, "--out", str(tmp_path / "report.json")]) == 0
        counts.append(len(calls) - before)
    assert counts[0] == counts[1]


# -- numeric fields are validated, never coerced ------------------------------------------

IDENTITY_ROWS = [[1.0, 0.0], [0.0, 1.0]]

# each entry builds a value with v in one field where an integer is due
INTEGER_FIELDS = {
    "ExpandingMap.k": lambda v: ExpandingMap(v),
    "BackwardItinerary.k": lambda v: BackwardItinerary(v, 0.5, ()),
    "BackwardItinerary.digits": lambda v: BackwardItinerary(3, 0.5, (0, v)),
    "TwistTerm.freq": lambda v: TwistTerm(v, 0.1, 0.0),
    "CocycleSpec.winding": lambda v: CocycleSpec(SPEC.base, winding=v),
    "rng_from component": lambda v: rng_from(1, v),
    "spec json winding": lambda v: spec_from_json({"base": IDENTITY_ROWS, "winding": v}),
    "spec json twist freq": lambda v: spec_from_json(
        {"base": IDENTITY_ROWS, "twist": [{"freq": v, "amp": 0.1}]}),
}

# ... and where a real number is due
REAL_FIELDS = {
    "BackwardItinerary.x0": lambda v: BackwardItinerary(2, v, (1,)),
    "ProjPoint.angle": ProjPoint,
    "TwistTerm.amp": lambda v: TwistTerm(1, v, 0.0),
    "TwistTerm.phase": lambda v: TwistTerm(1, 0.1, v),
    "CocycleSpec.theta": lambda v: CocycleSpec(SPEC.base, winding=1, theta=v),
    "Mat2.from_rows entry": lambda v: Mat2.from_rows([[v, 0.0], [0.0, 1.0]]),
    "spec json base entry": lambda v: spec_from_json({"base": [[1.0, 0.0], [0.0, v]]}),
    "spec json twist amp": lambda v: spec_from_json(
        {"base": IDENTITY_ROWS, "twist": [{"freq": 1, "amp": v}]}),
    "spec json twist phase": lambda v: spec_from_json(
        {"base": IDENTITY_ROWS, "twist": [{"freq": 1, "amp": 0.1, "phase": v}]}),
    "spec json theta": lambda v: spec_from_json({"base": IDENTITY_ROWS, "theta": v}),
}


@pytest.mark.parametrize("bad", [True, np.True_, "2", 1.7, None], ids=repr)
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_reject_what_is_not_an_integer(field, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        INTEGER_FIELDS[field](bad)
    INTEGER_FIELDS[field](2)  # and the field does take an integer


@pytest.mark.parametrize("bad", [True, np.True_, "0.25", None, math.nan, math.inf, 10**400],
                         ids=repr)
@pytest.mark.parametrize("field", sorted(REAL_FIELDS))
def test_real_fields_reject_what_is_not_a_finite_real(field, bad):
    with pytest.raises(ValueError, match="must be a finite real number"):
        REAL_FIELDS[field](bad)
    REAL_FIELDS[field](0.5)  # and the field does take a real number


def test_numeric_fields_store_plain_numbers():
    m = ExpandingMap(np.int64(8))
    assert type(m.k) is int and m.k == 8
    it = BackwardItinerary(np.uint8(3), 0.5, (np.int64(2), 1.0))
    assert type(it.k) is int and it.digits == (2, 1)
    assert all(type(d) is int for d in it.digits)
    term = TwistTerm(1, np.float32(0.25), 2)
    assert type(term.amp) is float and term.amp == 0.25
    assert type(term.phase) is float and term.phase == 2.0
    assert type(CocycleSpec(SPEC.base, theta=1).theta) is float
    anchored = BackwardItinerary(2, np.float32(0.5), (1,))
    assert type(anchored.x0) is float and anchored.points() == [0.5, 0.75]
    assert type(ProjPoint(np.float64(0.25)).angle) is float
    assert ProjPoint(1).angle == 1.0
    assert Mat2.from_rows([[2, 0], [np.int64(0), np.float32(0.5)]]) == Mat2.diagonal(2.0)
