"""The package's value types: slotted, frozen, validated on replace, and cheap per call."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import cocyclelab
from _util import example_map, example_spec
from cocyclelab import (
    BackwardItinerary,
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
    svd2,
)


SPEC = example_spec()
INSTANCES = [
    Mat2.identity(),
    ProjPoint(0.3),
    svd2(Mat2.diagonal(2.0)),
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


def test_evaluate_builds_one_mat2_per_call(monkeypatch):
    xs = [j / 64 for j in range(64)]
    expected = [evaluate(SPEC, x).to_rows() for x in xs]
    calls = []
    post_init = vars(Mat2)["__post_init__"]

    def counted(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(Mat2, "__post_init__", counted)
    assert [evaluate(SPEC, x).to_rows() for x in xs] == expected
    assert len(calls) == len(xs)
