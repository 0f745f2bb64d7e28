"""Declarative trial descriptions and the object catalog.

A ScenarioSpec is a plain data tree that fully determines one simulated
grasp trial: the object, its placement, which controller runs with which
settings (its three *_enabled flags are the one way to ablate a part), the
pushes and wrist sweep, and the sensor and plant parameters. Specs load from
JSON files and accept dotted-path overrides like control.f_goal=2.5, so
every documented field is reachable from the command line without a
dedicated flag. Contact files for the closure check load here too, through
the same file reader, unknown-key rule and friction bounds.

The catalog holds the three benchmark objects: a light foam cylinder, a
tape roll, and a dense wooden cuboid. Their true contact stiffnesses span
soft to stiff around the controller's fixed 1000 N/m estimate, and their
damping values make first touch clearly detectable for the two heavier
objects while the foam stays below the detection threshold.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .checks import NON_NEGATIVE, NORMAL, POSITIVE, check_fields
from .closure import Contact
from .controller import ControllerConfig, GraspRequest
from .plant import FINGER_1, FINGER_2, OBJECT, ObjectSpec, PlantConfig, Push, WristSweep
from .sensor import DEFAULT_GAMMA_1, DEFAULT_GAMMA_2, MAX_CALIBRATION_SAMPLES, SensorModel
from .sensor import MAX_GAIN_SCALE, MAX_GAMMA

STYROFOAM = ObjectSpec("styrofoam", mass=0.002, width=0.050, stiffness=500.0, damping=1.0)
TAPE_ROLL = ObjectSpec("tape_roll", mass=0.049, width=0.060, stiffness=2000.0, damping=60.0)
WOODEN_CUBOID = ObjectSpec(
    "wooden_cuboid", mass=0.144, width=0.055, stiffness=20000.0, damping=150.0
)
OBJECTS = {spec.name: spec for spec in (STYROFOAM, TAPE_ROLL, WOODEN_CUBOID)}

FORCE = "force"
TRAJECTORY = "trajectory"
_CONTROLLERS = (FORCE, TRAJECTORY)

# Friction bounds far above any fingertip, for a spec's face pair and a contact file.
_FRICTION_BOUNDS = {"mu": (10.0, True), "mu_tau": (1.0, True)}
# A contact file's bound on each position component, m: far above any grasp
# and far below where the certify LP's products overflow.
_POSITION_BOUND = 1e3
# A contact entry's keys: its position, one frame key, and its friction.
_CONTACT_KEYS = {"position", "normal", "rotation", *_FRICTION_BOUNDS}

# The most plant substeps one trial may run: its ticks times the substeps
# per tick. The longest shipped trial, exp-b's rotation, runs 16,000.
MAX_TRIAL_SUBSTEPS = 10**6


@dataclass(frozen=True)
class SensorSetup:
    """Per-finger load-cell parameters plus shared pipeline options.

    noise_sigma applies to both channels: 0 turns the noise off, and None
    keeps each channel's sigma sized from its gamma. gain_scale values
    other than 1 miscalibrate that channel's gain. Each channel's gamma and
    gain_scale have SensorModel's upper bounds.
    """

    gamma1: float = DEFAULT_GAMMA_1
    gamma2: float = DEFAULT_GAMMA_2
    bias1: float = 0.5
    bias2: float = 0.48
    noise_sigma: float | None = None
    gain_scale1: float = 1.0
    gain_scale2: float = 1.0
    min_force: float = 0.0
    calibration_samples: int = 1000

    def __post_init__(self):
        check_fields(self, {
            "gamma1": NORMAL, "gamma2": NORMAL, "gain_scale1": POSITIVE, "gain_scale2": POSITIVE,
            "noise_sigma": NON_NEGATIVE, "min_force": NON_NEGATIVE, "calibration_samples": (1, True),
        }, {"calibration_samples": (MAX_CALIBRATION_SAMPLES, True),
            **dict.fromkeys(("gamma1", "gamma2"), (MAX_GAMMA, True)),
            **dict.fromkeys(("gain_scale1", "gain_scale2"), (MAX_GAIN_SCALE, True))})


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one trial needs, in declarative form.

    Construction derives and checks all that a trial needs, once, and keeps
    it for resolve; the record is frozen, so a spec that builds is one that runs.

    start_aperture, end_aperture and duration may be left unset: the start
    aperture then clears the offset object by 5 mm per side, the end
    aperture undershoots the object width by 2 mm so the closing posture
    would penetrate it, and the duration covers the closing motion plus
    settle_time. mu and mu_tau are the friction of the two face contacts
    that a force trial certifies once, before it starts, to gate holding;
    they are bounded far above any fingertip (mu <= 10, mu_tau <= 1 m).
    """

    object: str | ObjectSpec = "tape_roll"
    offset: float = 0.0
    controller: str = FORCE
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
        object.__setattr__(self, "pushes", tuple(self.pushes))  # a list could change later
        if self.controller not in _CONTROLLERS:
            raise ValueError(f"controller must be one of {_CONTROLLERS}, got {self.controller!r}")
        check_fields(self, {
            **dict.fromkeys(("seed", "end_aperture", "settle_time", "mu", "mu_tau"), NON_NEGATIVE),
            **dict.fromkeys(("start_aperture", "closing_speed", "duration"), POSITIVE),
        }, _FRICTION_BOUNDS)
        period = 1.0 / self.control.control_rate
        if self.plant.dt > period:
            raise ValueError(
                f"plant.dt {self.plant.dt:g} s is longer than the control period {period:g} s"
                f" (the plant runs round(period / dt) equal substeps per period)"
            )
        if not (isinstance(self.object, ObjectSpec)
                or isinstance(self.object, str) and self.object in OBJECTS):
            raise ValueError(f"unknown object {self.object!r}; catalog: {tuple(OBJECTS)}")
        obj = self.object if isinstance(self.object, ObjectSpec) else OBJECTS[self.object]
        start, end = self.start_aperture, self.end_aperture
        if start is None:
            start = obj.width + 2.0 * abs(self.offset) + 0.010
        if end is None:
            end = obj.width - 0.002
        closing = (start - end) / self.closing_speed
        duration = self.duration
        if duration is None:
            # An off-center object leaves the far finger with extra ground to
            # cover after the near finger freezes, so budget the aperture the
            # nominal posture does not account for, plus latch slack.
            march = max(0.0, 2.0 * abs(self.offset) - (obj.width - end)) / self.closing_speed
            duration = closing + (march + 0.3 if march > 0.0 else 0.0) + self.settle_time
        max_aperture = 2.0 * self.control.joint_max
        if start > max_aperture + 1e-12:
            raise ValueError(f"start aperture {start:.4f} m exceeds the maximum aperture"
                             f" {max_aperture:.4f} m")
        if abs(self.offset) + 0.5 * obj.width > 0.5 * start:
            raise ValueError(f"object of width {obj.width:.3f} m at offset {self.offset:.3f} m"
                             f" does not fit inside the start aperture {start:.4f} m")
        if not start > end >= 0.0:
            raise ValueError(f"end aperture {end:.4f} m must be >= 0 and below the start aperture"
                             f" {start:.4f} m (unset, it is the object width minus 2 mm)")
        if not 0.0 < closing < math.inf:
            raise ValueError(f"closing from {start:g} m to {end:g} m at {self.closing_speed:g} m/s"
                             f" takes {closing:g} s, not a positive finite time")
        # The trial's ticks, one per period from t = 0, times the substeps per tick of Plant.step.
        span, substeps = duration * self.control.control_rate, period / self.plant.dt
        if not (math.isfinite(span * substeps) and (ticks := max(1, math.ceil(span)))
                * max(1, round(substeps)) <= MAX_TRIAL_SUBSTEPS):
            raise ValueError(f"duration {duration:g} s is {span:.4g} ticks x {substeps:.4g}"
                             f" substeps at control_rate {self.control.control_rate:g} Hz and"
                             f" plant.dt {self.plant.dt:g} s, over the budget of"
                             f" {MAX_TRIAL_SUBSTEPS:,}")
        # Pushes on one target may touch but not overlap; the plant would sum them.
        for target in (FINGER_1, FINGER_2, OBJECT):
            spans = sorted((p.t_start, p.t_end) for p in self.pushes if p.target == target)
            for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
                if start_b < end_a:
                    raise ValueError(f"overlapping pushes scheduled on {target}")

        control = self.control
        if control.mass == 0.0:
            # The controller's gravity model defaults to the true object mass.
            control = dataclasses.replace(control, mass=obj.mass)
        s = self.sensors
        models = tuple(
            SensorModel(gamma=gamma, bias=bias, noise_sigma=s.noise_sigma, seed=self.seed + stride,
                        min_force=s.min_force, gain_scale=gain_scale)
            for gamma, bias, gain_scale, stride in (
                (s.gamma1, s.bias1, s.gain_scale1, 0),
                (s.gamma2, s.bias2, s.gain_scale2, 1000003),
            )
        )
        # Not a field, so ==, hash, asdict and with_overrides see the declaration only.
        object.__setattr__(self, "_resolved", ResolvedScenario(
            obj, control, GraspRequest(start, end, closing), models, duration, period, ticks))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Decode JSON-shaped data: each section a mapping, pushes a list of mappings."""
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


_NESTED = {
    "control": ControllerConfig,
    "sensors": SensorSetup,
    "plant": PlantConfig,
}


def _reject_unknown(data: dict, allowed, where: str) -> None:
    unknown = sorted(set(data).difference(allowed))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")


def _build_dataclass(cls, data, where: str):
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a mapping of field names to values, got {data!r}")
    _reject_unknown(data, (f.name for f in dataclasses.fields(cls) if f.init), where)
    try:
        return cls(**data)
    except TypeError as exc:
        raise ValueError(f"invalid {where}: {exc}") from exc


def _read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario JSON file into a validated ScenarioSpec."""
    return ScenarioSpec.from_dict(_read_json(path, "scenario"))


def load_contacts(path: str | Path) -> list[Contact]:
    """Read a contact JSON file, {"contacts": [...]} or the bare list, into checked Contacts."""
    data = _read_json(path, "contact")
    if isinstance(data, dict):
        _reject_unknown(data, {"contacts"}, f"contact file {path}")
        data = data.get("contacts")
    if not isinstance(data, list) or not data:
        raise ValueError(f"contact file {path} must hold a non-empty contact list")
    contacts = []
    for i, entry in enumerate(data):
        where = f"contact {i} in {path}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is malformed: not an object: {entry!r}")
        _reject_unknown(entry, _CONTACT_KEYS, where)
        if "normal" in entry and "rotation" in entry:
            raise ValueError(f"{where} gives both 'normal' and 'rotation'")
        try:
            friction = {key: entry[key] for key in _FRICTION_BOUNDS if key in entry}
            frame = "rotation" if "rotation" in entry else "normal"
            make = Contact if frame == "rotation" else Contact.from_normal
            contact = make(entry["position"], entry[frame], **friction)
            check_fields(contact, upper=_FRICTION_BOUNDS)
            if not all(abs(x) <= _POSITION_BOUND for x in contact.position.tolist()):
                raise ValueError(f"position must be 3 numbers in [-{_POSITION_BOUND:g},"
                                 f" {_POSITION_BOUND:g}] m, got {contact.position.tolist()}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where} is malformed: {exc}") from exc
        contacts.append(contact)
    return contacts


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
    the spec does not have raise ValueError naming the dotted path. No
    overrides (None or {}) return the spec itself, checked when it was built.
    """
    if not tree:
        return spec

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

    return ScenarioSpec.from_dict(merge(spec.to_dict(), tree, ""))


@dataclass(frozen=True)
class ResolvedScenario:
    """The runtime pieces a trial loop needs, derived once as a ScenarioSpec is built;
    every resolve of that spec returns this one record."""

    obj: ObjectSpec
    control: ControllerConfig
    request: GraspRequest
    sensor_models: tuple[SensorModel, SensorModel]
    duration: float
    period: float  # the control period, s; row k of the trial's series is at k * period
    ticks: int  # control ticks the trial runs unless its controller finishes first


def resolve(spec: ScenarioSpec) -> ResolvedScenario:
    """The spec's runtime pieces, derived and checked when it was built; raises nothing."""
    return spec._resolved
