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
Pushes on the object are real forces in its equation of motion. The plant
takes the pushes and the wrist sweep as given; pushes that overlap on one
target sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .checks import NON_NEGATIVE, POSITIVE, check_fields

FINGER_1 = "finger1"
FINGER_2 = "finger2"
OBJECT = "object"
_TARGETS = (FINGER_1, FINGER_2, OBJECT)


@dataclass(frozen=True)
class ObjectSpec:
    """A grasp target: slab mass, width, contact stiffness and damping.

    mass is at least 1 mg: the plant integrates the object's motion, and a
    massless object is outside the model. stiffness, at most 1e9 N/m, is the
    true contact stiffness of the object surface, which the controller does
    not know (it works from its own ks_int estimate). damping is the
    object's sliding drag against its support.
    """

    name: str
    mass: float
    width: float
    stiffness: float
    damping: float = 0.0

    def __post_init__(self):
        check_fields(self, {"mass": POSITIVE, "width": POSITIVE, "stiffness": POSITIVE,
                            "damping": NON_NEGATIVE}, {"stiffness": (1e9, True)})
        if self.mass < 1e-6:
            raise ValueError(f"mass must be at least 1e-06 kg (1 mg), got {self.mass!r}")


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
class PlantConfig:
    """Simulation resolution and the finger/fingertip model.

    pad_stiffness, at most 1e9 N/m, acts in series with the object
    stiffness at each contact, modeling the compliant fingertip pads that
    cap how fast contact force can grow per unit of commanded travel; None
    disables it (rigid tips).
    """

    dt: float = 1e-3
    max_finger_speed: float = 0.05
    pad_stiffness: float | None = 600.0
    gravity: float = 9.81

    def __post_init__(self):
        check_fields(self, dict.fromkeys(("dt", "max_finger_speed", "pad_stiffness"), POSITIVE),
                     {"pad_stiffness": (1e9, True)})


class Plant:
    """Steps the finger/object system under zero-order-hold position commands.

    offset places the object center relative to the gripper center at the
    start, positive toward finger 2. Each step advances period seconds, and
    contact_stiffness is the object stiffness in series with the fingertip
    pad, per contact; both are fixed for the plant's lifetime. The pushes
    are grouped by target once, here; the plant sums pushes that overlap
    on one target, and ScenarioSpec is where overlapping pushes are refused.
    """

    def __init__(
        self,
        obj: ObjectSpec,
        start_aperture: float,
        offset: float = 0.0,
        pushes: tuple[Push, ...] = (),
        wrist: WristSweep | None = None,
        config: PlantConfig | None = None,
        *, period: float,
    ):
        if not start_aperture > 0.0:
            raise ValueError("start_aperture must be > 0")
        if not period > 0.0:
            raise ValueError(f"period must be > 0, got {period}")
        self.obj = obj
        on = {target: tuple(p for p in pushes if p.target == target) for target in _TARGETS}
        self.wrist = wrist
        self.config = config if config is not None else PlantConfig()
        cfg = self.config
        k = obj.stiffness
        pad = cfg.pad_stiffness
        self.contact_stiffness = k if pad is None else k * pad / (k + pad)
        # Fixed for the trial; without a sweep the wrist angle stays 0 throughout.
        self._level_g_dot_n = -cfg.gravity * math.sin(0.0)
        self._finger_pushes = (on[FINGER_1], on[FINGER_2])
        self._fixed = (self.contact_stiffness, 0.5 * obj.width, obj.mass, cfg.max_finger_speed,
                       cfg.gravity, wrist, on[OBJECT], obj.mass * self._level_g_dot_n)
        n_sub = max(1, round(period / cfg.dt))
        dt = period / n_sub
        # Spring forces explicit, drag backward: the drag-to-mass ratios
        # of well-damped catalog objects sit at the edge of the explicit
        # stability bound at this substep, and drag divided into the
        # velocity update cannot flip its sign.
        self._plan = (period, n_sub, dt, 1.0 + dt * obj.damping / obj.mass)
        self.q1 = 0.5 * start_aperture
        self.q2 = 0.5 * start_aperture
        self.x_obj = offset
        self.v_obj = 0.0
        self.t = 0.0
        self.true_f1, self.true_f2 = self._contact_forces()

    def g_dot_n(self) -> float:
        if self.wrist is None:
            return self._level_g_dot_n
        return -self.config.gravity * math.sin(self.wrist.angle(self.t))

    def _contact_forces(self) -> tuple[float, float]:
        k = self.contact_stiffness
        half = 0.5 * self.obj.width
        d1 = -self.q1 - (self.x_obj - half)
        d2 = (self.x_obj + half) - self.q2
        return k * (d1 if d1 > 0.0 else 0.0), k * (d2 if d2 > 0.0 else 0.0)

    def measured_forces(self) -> tuple[float, float]:
        """True contact forces plus any scheduled finger pushes, as the load cells see them.

        Each finger's pushes add left to right onto the int 0, as builtin sum
        did before Python 3.12 began to compensate; a finger without pushes
        adds that 0, so a -0.0 force still reads 0.0.
        """
        t = self.t
        on_1, on_2 = self._finger_pushes
        push1 = push2 = 0
        for p in on_1:
            push1 += p.value(t)
        for p in on_2:
            push2 += p.value(t)
        return self.true_f1 + push1, self.true_f2 + push2

    def step(self, command: tuple[float, float]) -> None:
        """Advance by one controller period, holding the command (q1, q2) fixed.

        The state advances in place and is read from the plant's attributes.
        What the trial fixes, the substep plan (period, substep count,
        substep and drag) and, when no sweep is scheduled, the object's
        weight along the axis, is bound once in __init__; the finger
        velocities once per period. The substeps run on locals and write the
        state back at the end. Only the wrist angle and the weight it
        projects (when a sweep is scheduled) and the object pushes (when any
        exist) are evaluated per substep. The substep body calls no builtins.
        A penetration `d` that is NaN, -0.0 or negative gives the force
        `k * 0.0`, so an infinite stiffness still gives NaN; keep it that way.
        """
        period, n_sub, dt, drag = self._plan
        k, half, mass, cap, gravity, wrist, object_pushes, weight = self._fixed
        q1, q2, x, v, t = self.q1, self.q2, self.x_obj, self.v_obj, self.t
        q1_cmd, q2_cmd = command
        # One constant velocity per finger for the whole period, sized to
        # land on the command, capped at the slew limit; a finger within one
        # substep's travel of its command snaps onto it. A gap of a rounding
        # error can escape both: when it exceeds the travel but the travel
        # is below half an ulp of q, q + move == q, and the finger stays
        # that gap (about 1e-17 m) short of a held command for good. The
        # cap keeps min's semantics, so a NaN speed passes through it.
        need1, need2 = q1_cmd - q1, q2_cmd - q2
        speed1, speed2 = abs(need1) / period, abs(need2) / period
        move1 = 0.0 if need1 == 0.0 else math.copysign(cap if cap < speed1 else speed1, need1) * dt
        move2 = 0.0 if need2 == 0.0 else math.copysign(cap if cap < speed2 else speed2, need2) * dt
        reach1, reach2 = abs(move1), abs(move2)
        low1, low2 = -reach1, -reach2
        # Object pushes add left to right onto the int 0, as measured_forces adds
        # finger pushes; with none, 0.0 adds exactly as that 0 would, in float arithmetic.
        push_obj = 0.0
        for _ in range(n_sub):
            d = q1_cmd - q1
            q1 = q1_cmd if low1 <= d <= reach1 else q1 + move1
            d = q2_cmd - q2
            q2 = q2_cmd if low2 <= d <= reach2 else q2 + move2
            if wrist is not None:
                weight = mass * (-gravity * math.sin(wrist.angle(t)))
            if object_pushes:
                push_obj = 0
                for p in object_pushes:
                    push_obj += p.value(t)
            d = -q1 - (x - half)
            f1 = k * (d if d > 0.0 else 0.0)
            d = (x + half) - q2
            f2 = k * (d if d > 0.0 else 0.0)
            net = f1 - f2 + weight + push_obj
            v = (v + dt * net / mass) / drag
            x += dt * v
            t += dt
        self.q1, self.q2, self.x_obj, self.v_obj, self.t = q1, q2, x, v, t
        self.true_f1, self.true_f2 = self._contact_forces()
