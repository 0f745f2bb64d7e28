"""Deterministic 1-D contact physics for an object between two fingertips.

Everything lives on the gripper's closing axis. Fingertip 1 sits at -q1 and
fingertip 2 at +q2; the object is a rigid slab of the given width whose
center x_obj moves along the axis. Overlap between a fingertip and an
object face loads a penetration spring: object stiffness in series with an
optional fingertip-pad stiffness. Fingers are kinematic: each moves
through the controller period at one constant velocity, chosen to land on
its commanded position, capped at the speed limit, and they feel no
reaction. The object is integrated with semi-implicit Euler at a fixed
substep, several substeps per controller period with the command held
(zero-order hold); the -damping * v drag on the object stands in for the
sliding resistance a real object sees from its support. Drag is what a
closing finger races against during first touch: it pins a heavy,
well-damped object in place while the spring load builds past the
detection threshold, while a light, weakly damped object slides away
before the contact force ever becomes measurable.

Wrist rotation enters only through the gravity projection g_dot_n =
-9.81 * sin(theta): at theta = 0 the closing axis is horizontal, at
theta = pi/2 the axis is vertical with finger 1 at the bottom, so an
uncompensated object drifts toward -axis, toward the ground.

Scheduled pushes on a finger are added to that finger's measured-force
path only (they model someone pressing on the finger, which the load cell
feels but the object does not, since the finger is position controlled).
Pushes on the object are real forces in its equation of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .checks import NON_NEGATIVE, POSITIVE, check_fields
from .controller import ControlCommand

FINGER_1 = "finger1"
FINGER_2 = "finger2"
OBJECT = "object"
_TARGETS = (FINGER_1, FINGER_2, OBJECT)


@dataclass(frozen=True)
class ObjectSpec:
    """A grasp target: slab mass, width, contact stiffness, damping, placement.

    stiffness is the true contact stiffness of the object surface, which
    the controller does not know (it works from its own ks_int estimate).
    damping is the object's sliding drag against its support. initial_offset
    positions the object center relative to the gripper center at trial
    start, positive toward finger 2.
    """

    name: str
    mass: float
    width: float
    stiffness: float
    damping: float = 0.0
    initial_offset: float = 0.0

    def __post_init__(self):
        check_fields(self, {"mass": NON_NEGATIVE, "width": POSITIVE, "stiffness": POSITIVE,
                            "damping": NON_NEGATIVE})


@dataclass(frozen=True)
class Push:
    """One scheduled disturbance force: a trapezoid with linear ramps."""

    target: str
    force: float
    t_start: float
    t_end: float
    ramp: float = 0.01

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ValueError(f"push target must be one of {_TARGETS}, got {self.target!r}")
        check_fields(self, {"ramp": NON_NEGATIVE})
        if not self.t_end > self.t_start:
            raise ValueError("push needs t_end > t_start")

    def value(self, t: float) -> float:
        if t <= self.t_start or t >= self.t_end:
            return 0.0
        if self.ramp == 0.0:
            return self.force
        shape = min((t - self.t_start) / self.ramp, (self.t_end - t) / self.ramp, 1.0)
        return self.force * max(shape, 0.0)


@dataclass(frozen=True)
class WristSweep:
    """Constant-rate wrist rotation between two times; angle is clamped outside."""

    t_start: float
    t_end: float
    angle_end: float = math.pi
    angle_start: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if not self.t_end > self.t_start:
            raise ValueError("wrist sweep needs t_end > t_start")

    def angle(self, t: float) -> float:
        """The angle at time t; the plant calls this on every substep of a sweep.

        The clamp passes a NaN or -0.0 frac through unchanged; keep it that way.
        """
        frac = (t - self.t_start) / (self.t_end - self.t_start)
        frac = 0.0 if 0.0 > frac else frac
        frac = 1.0 if 1.0 < frac else frac
        return self.angle_start + (self.angle_end - self.angle_start) * frac


@dataclass(frozen=True)
class DisturbanceSchedule:
    """Scheduled pushes and wrist sweep; by_target holds the pushes of each target."""

    pushes: tuple[Push, ...] = ()
    wrist: WristSweep | None = None
    by_target: dict[str, tuple[Push, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pushes", tuple(self.pushes))
        by_target = {
            target: tuple(p for p in self.pushes if p.target == target) for target in _TARGETS
        }
        object.__setattr__(self, "by_target", by_target)
        for target, pushes in by_target.items():
            spans = sorted((p.t_start, p.t_end) for p in pushes)
            for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
                if start_b < end_a:
                    raise ValueError(f"overlapping pushes scheduled on {target}")

    def push_force(self, target: str, t: float) -> float:
        return sum(p.value(t) for p in self.by_target[target])

    def wrist_angle(self, t: float) -> float:
        return self.wrist.angle(t) if self.wrist is not None else 0.0


@dataclass(frozen=True)
class PlantConfig:
    """Simulation resolution and the finger/fingertip model.

    pad_stiffness acts in series with the object stiffness at each contact,
    modeling the compliant fingertip pads that cap how fast contact force
    can grow per unit of commanded travel; None disables it (rigid tips).
    """

    dt: float = 1e-3
    max_finger_speed: float = 0.05
    pad_stiffness: float | None = 600.0
    gravity: float = 9.81

    def __post_init__(self):
        check_fields(self, dict.fromkeys(("dt", "max_finger_speed", "pad_stiffness"), POSITIVE))


class Plant:
    """Steps the finger/object system under zero-order-hold position commands.

    contact_stiffness is the object stiffness in series with the fingertip
    pad, per contact; it is fixed for the plant's lifetime.
    """

    def __init__(
        self,
        obj: ObjectSpec,
        start_aperture: float,
        schedule: DisturbanceSchedule | None = None,
        config: PlantConfig | None = None,
    ):
        if not start_aperture > 0.0:
            raise ValueError("start_aperture must be > 0")
        self.obj = obj
        self.schedule = schedule if schedule is not None else DisturbanceSchedule()
        self.config = config if config is not None else PlantConfig()
        k = obj.stiffness
        pad = self.config.pad_stiffness
        self.contact_stiffness = k if pad is None else k * pad / (k + pad)
        self.q1 = 0.5 * start_aperture
        self.q2 = 0.5 * start_aperture
        self.x_obj = obj.initial_offset
        self.v_obj = 0.0
        self.t = 0.0
        self.true_f1, self.true_f2 = self._contact_forces()

    def g_dot_n(self) -> float:
        return -self.config.gravity * math.sin(self.schedule.wrist_angle(self.t))

    def _contact_forces(self) -> tuple[float, float]:
        k = self.contact_stiffness
        half = 0.5 * self.obj.width
        d1 = -self.q1 - (self.x_obj - half)
        d2 = (self.x_obj + half) - self.q2
        return k * (d1 if d1 > 0.0 else 0.0), k * (d2 if d2 > 0.0 else 0.0)

    def _quasi_static_position(self, q1: float, q2: float, x: float, push: float) -> float:
        """Static rest position of a massless object, piecewise closed form.

        left_end is the object-center position where finger-1 overlap ends
        and right_start the one where finger-2 overlap begins; the net
        spring-plus-push force is strictly decreasing in x wherever any
        contact is active, so each regime has a unique closed-form root.
        A free object under no push stays at its current center x.
        """
        k = self.contact_stiffness
        half = 0.5 * self.obj.width
        left_end = -q1 + half
        right_start = q2 - half
        if right_start >= left_end:
            # A free gap exists between the contacts.
            if push > 0.0:
                return right_start + push / k
            if push < 0.0:
                return left_end + push / k
            return min(max(x, left_end), right_start)
        # Aperture below object width: try the both-contact balance first.
        x = 0.5 * (left_end + right_start) + 0.5 * push / k
        if right_start < x < left_end:
            return x
        if push > 0.0:
            return right_start + push / k
        return left_end + push / k

    def measured_forces(self) -> tuple[float, float]:
        """True contact forces plus any scheduled finger pushes, as the load cells see them.

        A finger without pushes adds the int 0 that an empty push sum
        gives, so a -0.0 force still reads 0.0.
        """
        schedule = self.schedule
        by_target = schedule.by_target
        return (
            self.true_f1 + (schedule.push_force(FINGER_1, self.t) if by_target[FINGER_1] else 0),
            self.true_f2 + (schedule.push_force(FINGER_2, self.t) if by_target[FINGER_2] else 0),
        )

    def step(self, command: ControlCommand, duration: float) -> None:
        """Advance by one controller period, holding the command fixed.

        The state advances in place and is read from the plant's attributes.
        Values fixed for the period are bound once; the substeps run on
        locals and write the state back at the end. Only the wrist angle
        (when a sweep is scheduled) and the object pushes (when any exist)
        are evaluated per substep. The substep body calls no builtins. A
        penetration `d` that is NaN, -0.0 or negative gives the force
        `k * 0.0`, so an infinite stiffness still gives NaN; keep it that way.
        """
        if not duration > 0.0:
            raise ValueError(f"duration must be > 0, got {duration}")
        cfg = self.config
        obj = self.obj
        n_sub = max(1, round(duration / cfg.dt))
        dt = duration / n_sub
        q1, q2, x, v, t = self.q1, self.q2, self.x_obj, self.v_obj, self.t
        q1_cmd, q2_cmd = command.q1_cmd, command.q2_cmd
        # One constant velocity per finger for the whole period, sized to
        # land on the command, capped at the slew limit; a finger within one
        # substep's travel of its command snaps onto it. A gap of a rounding
        # error can escape both: when it exceeds the travel but the travel
        # is below half an ulp of q, q + move == q, and the finger stays
        # that gap (about 1e-17 m) short of a held command for good. The
        # cap keeps min's semantics, so a NaN speed passes through it.
        cap = cfg.max_finger_speed
        need1, need2 = q1_cmd - q1, q2_cmd - q2
        speed1, speed2 = abs(need1) / duration, abs(need2) / duration
        move1 = 0.0 if need1 == 0.0 else math.copysign(cap if cap < speed1 else speed1, need1) * dt
        move2 = 0.0 if need2 == 0.0 else math.copysign(cap if cap < speed2 else speed2, need2) * dt
        reach1, reach2 = abs(move1), abs(move2)
        k = self.contact_stiffness
        half = 0.5 * obj.width
        mass = obj.mass
        wrist = self.schedule.wrist
        gravity = cfg.gravity
        # Without a sweep the wrist angle stays 0 for the whole trial.
        g_dot_n = -gravity * math.sin(0.0)
        object_pushes = self.schedule.by_target[OBJECT]
        push_obj = 0
        # Spring forces explicit, drag backward: the drag-to-mass ratios of
        # well-damped catalog objects sit at the edge of the explicit
        # stability bound at this substep, and drag divided into the
        # velocity update cannot flip its sign.
        quasi_static = mass == 0.0
        if not quasi_static:
            drag = 1.0 + dt * obj.damping / mass
        for _ in range(n_sub):
            d = q1_cmd - q1
            q1 = q1_cmd if -reach1 <= d <= reach1 else q1 + move1
            d = q2_cmd - q2
            q2 = q2_cmd if -reach2 <= d <= reach2 else q2 + move2
            if wrist is not None:
                g_dot_n = -gravity * math.sin(wrist.angle(t))
            if object_pushes:
                push_obj = sum(p.value(t) for p in object_pushes)
            if quasi_static:
                x = self._quasi_static_position(q1, q2, x, push_obj)
                v = 0.0
            else:
                d = -q1 - (x - half)
                f1 = k * (d if d > 0.0 else 0.0)
                d = (x + half) - q2
                f2 = k * (d if d > 0.0 else 0.0)
                net = f1 - f2 + mass * g_dot_n + push_obj
                v = (v + dt * net / mass) / drag
                x += dt * v
            t += dt
        self.q1, self.q2, self.x_obj, self.v_obj, self.t = q1, q2, x, v, t
        self.true_f1, self.true_f2 = self._contact_forces()
