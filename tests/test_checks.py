"""The shared type-and-bound check, and every config record that uses it."""

from __future__ import annotations

import ast
import dataclasses
import math
import numbers
from pathlib import Path

import numpy as np
import pytest

import graspforce.checks
from graspforce.checks import NON_NEGATIVE, POSITIVE, check_fields
from graspforce.closure import Contact
from graspforce.controller import ControllerConfig, GraspRequest
from graspforce.plant import ObjectSpec, PlantConfig, Push, WristSweep
from graspforce.scenarios import ScenarioSpec, SensorSetup
from graspforce.sensor import SensorModel

# Each record with the arguments that make a valid instance.
RECORDS = {
    ControllerConfig: {},
    GraspRequest: dict(start_aperture=0.08, end_aperture=0.05, duration=1.0),
    ObjectSpec: dict(name="slab", mass=0.01, width=0.05, stiffness=500.0),
    Push: dict(target="object", force=1.0, t_start=1.0, t_end=2.0),
    WristSweep: dict(t_start=1.0, t_end=2.0),
    PlantConfig: {},
    SensorModel: {},
    SensorSetup: {},
    ScenarioSpec: {},
    Contact: dict(position=(0.0, 0.0, 0.0), rotation=np.eye(3)),
}
CHECKED = ("float", "float | None", "int", "bool")
# Init fields the check skips; each record checks these itself or holds a
# nested record that checks its own fields.
NON_SCALAR = {
    "ControllerConfig.phase3_mode", "ObjectSpec.name", "Push.target",
    "ScenarioSpec.object", "ScenarioSpec.controller",
    "ScenarioSpec.control", "ScenarioSpec.sensors", "ScenarioSpec.plant",
    "ScenarioSpec.pushes", "ScenarioSpec.wrist", "Contact.position", "Contact.rotation",
}
BAD_VALUES = {
    "float": [True, "1", math.nan, math.inf, -math.inf],
    "float | None": [True, "1", math.nan, math.inf, -math.inf],
    "bool": ["false", 1],
    "int": [1.5, True],
}


def init_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.init]


def bad_field_cases():
    return [
        pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
        for cls in RECORDS
        for f in init_fields(cls)
        for value in BAD_VALUES.get(f.type, [])
    ]


@pytest.mark.parametrize("cls,name,value", bad_field_cases())
def test_record_rejects_wrong_kind(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        cls(**dict(RECORDS[cls], **{name: value}))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_every_scalar_field_is_checked(cls):
    cls(**RECORDS[cls])
    unchecked = [
        f"{cls.__name__}.{f.name}: {f.type}"
        for f in init_fields(cls)
        if f.type not in CHECKED and f"{cls.__name__}.{f.name}" not in NON_SCALAR
    ]
    assert unchecked == []


@pytest.mark.parametrize("cls,name,value", [
    (ControllerConfig, "f_theta", 0.0),
    (ScenarioSpec, "seed", -1),
    (ScenarioSpec, "start_aperture", 0.0),
    (ScenarioSpec, "end_aperture", -0.001),
    (SensorModel, "seed", -1),
    (SensorSetup, "noise_sigma", -0.1),
    (SensorSetup, "gamma2", 1e-320),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_lower_bounds(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        cls(**dict(RECORDS[cls], **{name: value}))


def test_sensor_default_sigma_overflow_rejected():
    # The default sigma divides by gamma, and a subnormal gamma would make
    # it inf; gamma's lower bound, the smallest normal float, rejects it.
    with pytest.raises(ValueError, match="^gamma "):
        SensorModel(gamma=1e-320)


@dataclasses.dataclass
class _Sample:
    x: float = 1.0
    y: float | None = None
    n: int = 1
    flag: bool = False
    label: str = "free"


class TestCheckFields:
    def test_accepts_integers_and_none_where_annotated(self):
        check_fields(_Sample(x=0, y=None, n=np.int64(3)), {"x": NON_NEGATIVE})

    @pytest.mark.parametrize("args,message", [
        (dict(x=0.0), "x must be a finite number > 0, got 0.0"),
        (dict(y=-1.0), "y must be null or a finite number >= 0, got -1.0"),
        (dict(n=0), "n must be an integer >= 1, got 0"),
        (dict(x=10**400), "x must be a finite number > 0, got 1"),
    ])
    def test_bound_messages(self, args, message):
        bounds = {"x": POSITIVE, "y": NON_NEGATIVE, "n": (1, True)}
        with pytest.raises(ValueError) as info:
            check_fields(_Sample(**args), bounds)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("args,message", [
        (dict(n=11), "n must be an integer >= 1 and <= 10, got 11"),
        (dict(x=5.0), "x must be a finite number > 0 and < 5, got 5.0"),
        (dict(y=2.5), "y must be null or a finite number <= 2, got 2.5"),
        (dict(x=math.inf), "x must be a finite number > 0 and < 5, got inf"),
    ])
    def test_upper_bound_messages(self, args, message):
        lower = {"x": POSITIVE, "n": (1, True)}
        upper = {"x": (5.0, False), "y": (2.0, True), "n": (10, True)}
        check_fields(_Sample(x=4.9, y=2.0, n=10), lower, upper)
        with pytest.raises(ValueError) as info:
            check_fields(_Sample(**args), lower, upper)
        assert str(info.value) == message

    def test_skips_other_annotations(self):
        check_fields(_Sample(label=None))

    def test_imports_nothing_from_the_package(self):
        tree = ast.parse(Path(graspforce.checks.__file__).read_text(encoding="utf-8"))
        relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
        assert relative == []


def abc_has_kind(value, kind: str) -> bool:
    """_has_kind as it was before exact floats skipped the ABC checks."""
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    if kind == "int":
        return isinstance(value, numbers.Integral)
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        return False


def abc_check_fields(record, lower=None, upper=None) -> None:
    """check_fields as it was, on abc_has_kind."""
    for name, kind in graspforce.checks._checked_fields(type(record)):
        value = getattr(record, name)
        low, low_inclusive = (lower or {}).get(name, (None, True))
        high, high_inclusive = (upper or {}).get(name, (None, True))
        if (value is None and kind == "float | None") or abc_has_kind(value, kind) and (
            low is None or (value >= low if low_inclusive else value > low)
        ) and (high is None or (value <= high if high_inclusive else value < high)):
            continue
        need = graspforce.checks._KINDS[kind]
        if low is not None:
            need += f" {'>=' if low_inclusive else '>'} {low:.15g}"
        if high is not None:
            joint = " and" if low is not None else ""
            need += f"{joint} {'<=' if high_inclusive else '<'} {high:.15g}"
        raise ValueError(f"{name} must be {need}, got {value!r}")


class Subfloat(float):
    pass


KIND_VALUES = [0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, True, False, 1,
               2**1100, np.float64(1.0), Subfloat(1.5), Subfloat(math.inf), None, "1"]


class TestExactFloats:
    """Exact floats skip the ABC checks and get the verdicts and messages they got before."""

    @pytest.mark.parametrize("kind", CHECKED)
    @pytest.mark.parametrize("value", KIND_VALUES, ids=repr)
    def test_verdict_matches_the_abc_check(self, kind, value):
        assert graspforce.checks._has_kind(value, kind) is abc_has_kind(value, kind)

    @pytest.mark.parametrize("value", KIND_VALUES, ids=repr)
    @pytest.mark.parametrize("bounded", [False, True], ids=["free", "bounded"])
    def test_messages_match_the_abc_check(self, value, bounded):
        lower = {"x": POSITIVE, "y": NON_NEGATIVE, "n": (1, True)} if bounded else None
        upper = {"x": (1e300, True), "y": (5.0, False)} if bounded else None
        for name in ("x", "y", "n", "flag"):
            record = dataclasses.replace(_Sample(), **{name: value})
            try:
                abc_check_fields(record, lower, upper)
            except ValueError as expected:
                with pytest.raises(ValueError) as found:
                    check_fields(record, lower, upper)
                assert str(found.value) == str(expected)
            else:
                check_fields(record, lower, upper)
