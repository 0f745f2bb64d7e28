"""The shared type-and-bound check, and every config record that uses it."""

from __future__ import annotations

import ast
import dataclasses
import math
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
