"""Declarative trial descriptions and the object catalog.

A ScenarioSpec is a plain data tree that fully determines one simulated
grasp trial: the object, its placement, which controller runs, which single
ablation (if any) is applied, the disturbance schedule, and the sensor and
plant parameters. Specs load from JSON files and accept dotted-path
overrides like control.f_goal=2.5, so every documented field is reachable
from the command line without a dedicated flag.

The catalog holds the three benchmark objects: a light foam cylinder, a
tape roll, and a dense wooden cuboid. Their true contact stiffnesses span
soft to stiff around the controller's fixed 1000 N/m estimate, and their
damping values make first touch clearly detectable for the two heavier
objects while the foam stays below the detection threshold.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .checks import NON_NEGATIVE, POSITIVE, check_fields
from .controller import ControllerConfig, GraspRequest
from .plant import DisturbanceSchedule, ObjectSpec, PlantConfig, Push, WristSweep
from .sensor import DEFAULT_GAMMA_1, DEFAULT_GAMMA_2, MAX_CALIBRATION_SAMPLES, SensorModel

STYROFOAM = ObjectSpec("styrofoam", mass=0.002, width=0.050, stiffness=500.0, damping=1.0)
TAPE_ROLL = ObjectSpec("tape_roll", mass=0.049, width=0.060, stiffness=2000.0, damping=60.0)
WOODEN_CUBOID = ObjectSpec(
    "wooden_cuboid", mass=0.144, width=0.055, stiffness=20000.0, damping=150.0
)
OBJECTS = {spec.name: spec for spec in (STYROFOAM, TAPE_ROLL, WOODEN_CUBOID)}

FORCE = "force"
TRAJECTORY = "trajectory"
_CONTROLLERS = (FORCE, TRAJECTORY)

# Each ablation flips exactly one controller flag relative to baseline.
ABLATIONS = {
    "none": {},
    "no_compliance": {"compliance_enabled": False},
    "no_deadband": {"deadband_enabled": False},
    "no_gravity_comp": {"gravity_comp_enabled": False},
}


@dataclass
class SensorSetup:
    """Per-finger load-cell parameters plus shared pipeline options.

    noise False zeroes the noise regardless of noise_sigma, which keeps the
    per-channel default sigma intact for runs that re-enable it. gain_scale
    values other than 1 miscalibrate that channel's gain.
    """

    gamma1: float = DEFAULT_GAMMA_1
    gamma2: float = DEFAULT_GAMMA_2
    bias1: float = 0.5
    bias2: float = 0.48
    noise: bool = True
    noise_sigma: float | None = None
    gain_scale1: float = 1.0
    gain_scale2: float = 1.0
    min_force: float = 0.0
    calibration_samples: int = 1000

    def __post_init__(self):
        check_fields(self, {
            **dict.fromkeys(("gamma1", "gamma2", "gain_scale1", "gain_scale2"), POSITIVE),
            "noise_sigma": NON_NEGATIVE, "min_force": NON_NEGATIVE, "calibration_samples": (1, True),
        }, {"calibration_samples": (MAX_CALIBRATION_SAMPLES, True)})


@dataclass
class ScenarioSpec:
    """Everything one trial needs, in declarative form.

    start_aperture, end_aperture and duration may be left unset: the start
    aperture then clears the offset object by 5 mm per side, the end
    aperture undershoots the object width by 2 mm so the closing posture
    would penetrate it, and the duration covers the closing motion plus
    settle_time. mu and mu_tau are the friction of the two face contacts
    that a force trial certifies once, before it starts, to gate holding.
    """

    object: str | ObjectSpec = "tape_roll"
    offset: float = 0.0
    controller: str = FORCE
    ablation: str = "none"
    seed: int = 0
    start_aperture: float | None = None
    end_aperture: float | None = None
    closing_speed: float = 0.010
    settle_time: float = 1.5
    duration: float | None = None
    mu: float = 0.5
    mu_tau: float = 0.005
    control: ControllerConfig = field(default_factory=ControllerConfig)
    sensors: SensorSetup = field(default_factory=SensorSetup)
    plant: PlantConfig = field(default_factory=PlantConfig)
    pushes: tuple[Push, ...] = ()
    wrist: WristSweep | None = None

    def __post_init__(self):
        if self.controller not in _CONTROLLERS:
            raise ValueError(f"controller must be one of {_CONTROLLERS}, got {self.controller!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}; options: {tuple(ABLATIONS)}")
        check_fields(self, {
            **dict.fromkeys(("seed", "end_aperture", "settle_time", "mu", "mu_tau"), NON_NEGATIVE),
            **dict.fromkeys(("start_aperture", "closing_speed", "duration"), POSITIVE),
        })

    def object_spec(self) -> ObjectSpec:
        if isinstance(self.object, ObjectSpec):
            return self.object
        try:
            return OBJECTS[self.object]
        except KeyError:
            raise ValueError(
                f"unknown object {self.object!r}; catalog: {tuple(OBJECTS)}"
            ) from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Decode JSON-shaped data: each section a mapping, pushes a list of mappings."""
        return _spec_from_dict(cls, data)


_NESTED = {
    "control": ControllerConfig,
    "sensors": SensorSetup,
    "plant": PlantConfig,
}


def _build_dataclass(cls, data, where: str):
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a mapping of field names to values, got {data!r}")
    names = {f.name for f in dataclasses.fields(cls) if f.init}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ValueError(f"invalid {where}: {exc}") from exc


def _spec_from_dict(cls, data: dict) -> "ScenarioSpec":
    if not isinstance(data, dict):
        raise ValueError("scenario must be a mapping of field names to values")
    data = dict(data)
    for name, sub_cls in _NESTED.items():
        if name in data:
            data[name] = _build_dataclass(sub_cls, data[name], name)
    if isinstance(data.get("object"), dict):
        data["object"] = _build_dataclass(ObjectSpec, data["object"], "object")
    if "pushes" in data:
        pushes = data["pushes"]
        if not isinstance(pushes, (list, tuple)):
            raise ValueError(f"pushes must be a list, got {pushes!r}")
        data["pushes"] = tuple(_build_dataclass(Push, p, "pushes") for p in pushes)
    if data.get("wrist") is not None:
        data["wrist"] = _build_dataclass(WristSweep, data["wrist"], "wrist")
    return _build_dataclass(cls, data, "scenario")


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario JSON file into a validated ScenarioSpec."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read scenario file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file {p} is not valid JSON: {exc}") from exc
    return ScenarioSpec.from_dict(data)


def parse_overrides(items: list[str]) -> dict:
    """Turn key=value strings with dotted paths into a nested dict.

    Values parse as JSON when possible (numbers, booleans, null, objects)
    and fall back to plain strings, so control.phase3_mode=stop_at_goal
    works unquoted. A later item may replace an earlier value at the same
    key but may not descend into a value an earlier item set.
    """
    tree: dict = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *parents, leaf = key.split(".")
        node = tree
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override key {key!r} conflicts with an earlier override")
        node[leaf] = value
    return tree


def with_overrides(spec: ScenarioSpec, tree: dict | None) -> ScenarioSpec:
    """Deep-merge a nested override dict onto the spec and rebuild it.

    Where both the spec and the override hold a mapping the merge recurses;
    anywhere else the override value replaces the spec value, so a mapping
    can stand in for a catalog object name or an unset wrist sweep. Keys
    the spec does not have raise ValueError naming the dotted path.
    """

    def merge(base: dict, over: dict, prefix: str) -> dict:
        merged = dict(base)
        for key, value in over.items():
            path = prefix + key
            if key not in merged:
                raise ValueError(f"unknown override key {path!r}")
            if isinstance(value, dict) and isinstance(merged[key], dict):
                value = merge(merged[key], value, path + ".")
            merged[key] = value
        return merged

    return ScenarioSpec.from_dict(merge(spec.to_dict(), tree or {}, ""))


@dataclass
class ResolvedScenario:
    """A ScenarioSpec turned into the runtime pieces a trial loop needs."""

    obj: ObjectSpec
    control: ControllerConfig
    request: GraspRequest
    schedule: DisturbanceSchedule
    sensor_models: tuple[SensorModel, SensorModel]
    duration: float


def resolve(spec: ScenarioSpec) -> ResolvedScenario:
    """Validate a spec and derive every unset quantity.

    Raises ValueError when the object does not fit between the fingers at
    the start aperture, the apertures fall outside the joint range, or the
    plant step is longer than the control period.
    """
    obj = spec.object_spec()
    control = spec.control
    period = 1.0 / control.control_rate
    if spec.plant.dt > period:
        raise ValueError(
            f"plant.dt {spec.plant.dt:g} s is longer than the control period {period:g} s"
            f" (the plant runs round(period / dt) equal substeps per period)"
        )
    overrides = dict(ABLATIONS[spec.ablation])
    if control.mass == 0.0:
        # The controller's gravity model defaults to the true object mass.
        overrides["mass"] = obj.mass
    if overrides:
        control = dataclasses.replace(control, **overrides)

    start = spec.start_aperture
    if start is None:
        start = obj.width + 2.0 * abs(spec.offset) + 0.010
    end = spec.end_aperture
    if end is None:
        end = obj.width - 0.002
    max_aperture = 2.0 * control.joint_max
    if start > max_aperture + 1e-12:
        raise ValueError(
            f"start aperture {start:.4f} m exceeds the maximum aperture {max_aperture:.4f} m"
        )
    if abs(spec.offset) + 0.5 * obj.width > 0.5 * start:
        raise ValueError(
            f"object of width {obj.width:.3f} m at offset {spec.offset:.3f} m "
            f"does not fit inside the start aperture {start:.4f} m"
        )
    if not end < start:
        raise ValueError("end aperture must be smaller than start aperture")

    closing_duration = (start - end) / spec.closing_speed
    if spec.duration is not None:
        duration = spec.duration
    else:
        # An off-center object leaves the far finger with extra ground to
        # cover after the near finger freezes, so budget the aperture the
        # nominal posture does not account for, plus latch slack.
        march = max(0.0, 2.0 * abs(spec.offset) - (obj.width - end)) / spec.closing_speed
        if march > 0.0:
            march += 0.3
        duration = closing_duration + march + spec.settle_time
    request = GraspRequest(start_aperture=start, end_aperture=end, duration=closing_duration)

    s = spec.sensors
    sigma = 0.0 if not s.noise else s.noise_sigma
    models = tuple(
        SensorModel(gamma=gamma, bias=bias, noise_sigma=sigma, seed=spec.seed + stride,
                    min_force=s.min_force, gain_scale=gain_scale)
        for gamma, bias, gain_scale, stride in (
            (s.gamma1, s.bias1, s.gain_scale1, 0),
            (s.gamma2, s.bias2, s.gain_scale2, 1000003),
        )
    )
    schedule = DisturbanceSchedule(pushes=spec.pushes, wrist=spec.wrist)
    return ResolvedScenario(
        obj=obj,
        control=control,
        request=request,
        schedule=schedule,
        sensor_models=models,
        duration=duration,
    )
