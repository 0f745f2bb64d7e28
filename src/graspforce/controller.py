"""Three-phase grasp force controller and the open-loop baseline.

The grasping motion runs through three phases. While closing, both fingers
follow a constant-rate aperture trajectory aimed at a posture that would
penetrate the object, so contact is guaranteed. Each finger that feels more
than the contact threshold f_theta freezes in place; once every new contact
has been established and the resulting grasp passes a force-closure probe,
the controller switches to holding. While holding, the measured forces are
decoupled into an internal (squeeze) component regulated to f_goal by a PI
law and an external component handled by a P-type compliance law with a
deadband: forces beyond f_phi shift the grasp center along the applied
force, while anything smaller holds the object at the position observed
when the external force last vanished, which stops sensor miscalibration
from dragging the gripper sideways.

Joint convention: q1 and q2 are each finger's distance from the gripper
center, so increasing q opens the hand. Fingertip 1 sits at -q1 and
fingertip 2 at +q2 on the closing axis; the grasp center is (q2 - q1) / 2.
Negative u_int closes the aperture; positive u_ext shifts the center
toward +axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .checks import NON_NEGATIVE, POSITIVE, check_fields
from .sensor import contact_detected

HOLD_FOREVER = "hold_forever"
STOP_AT_GOAL = "stop_at_goal"

# A finger counts as having executed the previous command when its measured
# position matches to this tolerance. The plant usually lands a reachable
# command exactly, but can leave a finger a rounding error (about 1e-17 m)
# short of it for good, so this is a float-noise guard, not a physical band.
_CMD_REACHED_TOL = 1e-12


class GraspPhase(Enum):
    CLOSING = "closing"
    CONTACT = "contact"
    HOLDING = "holding"


@dataclass
class ControllerConfig:
    """Gains, thresholds and ablation switches for the grasp controller.

    ks_int is the controller's stiffness estimate of the grasped pair of
    contacts, not the true plant stiffness; mass is its estimate of the
    object mass used for gravity compensation. The three *_enabled flags
    are the ablation switches: disabling compliance pins the grasp center,
    disabling the deadband applies compliance to arbitrarily small external
    forces, and disabling gravity compensation drops the mass term from the
    external-force estimate.
    """

    f_goal: float = 2.0
    f_theta: float = 0.2
    f_phi: float = 0.2
    kp_int: float = 1.9
    ki_int: float = 9.0
    ks_int: float = 1000.0
    kp_ext: float = 1.9
    k_ext: float = 1000.0
    mass: float = 0.0
    control_rate: float = 100.0
    phase3_mode: str = HOLD_FOREVER
    gravity_comp_enabled: bool = True
    compliance_enabled: bool = True
    deadband_enabled: bool = True
    contact_debounce: int = 1
    goal_tolerance: float = 0.05
    goal_dwell: float = 0.25
    joint_min: float = 0.0
    joint_max: float = 0.08

    def __post_init__(self):
        check_fields(self, {
            **dict.fromkeys(("f_goal", "f_theta", "kp_int", "ki_int", "ks_int", "kp_ext",
                             "k_ext", "control_rate", "goal_tolerance"), POSITIVE),
            **dict.fromkeys(("f_phi", "mass", "goal_dwell"), NON_NEGATIVE),
            "contact_debounce": (1, True),
        })
        if self.phase3_mode not in (HOLD_FOREVER, STOP_AT_GOAL):
            raise ValueError(f"unknown phase3_mode {self.phase3_mode!r}")
        if not self.joint_max > self.joint_min >= 0.0:
            raise ValueError("joint range must satisfy joint_max > joint_min >= 0")


@dataclass(frozen=True)
class GraspRequest:
    """Trajectory-shaped grasp goal: close from start to end aperture over duration.

    end_aperture should be smaller than the object so the closing posture
    would penetrate it.
    """

    start_aperture: float
    end_aperture: float
    duration: float

    def __post_init__(self):
        check_fields(self, {"duration": POSITIVE})
        if not self.start_aperture > self.end_aperture >= 0.0:
            raise ValueError("apertures must satisfy start > end >= 0")


@dataclass(frozen=True)
class ControlCommand:
    q1_cmd: float
    q2_cmd: float


def compute_external_force(
    f1: float, f2: float, mass: float, g_dot_n: float, gravity_comp_enabled: bool = True
) -> float:
    """External force on the object estimated from the measured finger forces.

    The finger-1 contact force acts along +axis and finger 2 along -axis, so
    at rest f1 - f2 + mass * g_dot_n balances whatever else pushes the
    object. With gravity compensation off the mass term is dropped and the
    object's own weight component shows up as an apparent external force.
    """
    gravity = mass * g_dot_n if gravity_comp_enabled else 0.0
    return -(f1 - f2 + gravity)


def distribute(u_int: float, u_ext: float) -> tuple[float, float]:
    """Split the two control signals evenly onto the fingers.

    dq1 + dq2 equals the aperture change u_int and dq2 - dq1 equals the
    center shift u_ext, so the two channels cannot interfere.
    """
    return 0.5 * (-u_ext + u_int), 0.5 * (u_ext + u_int)


def _default_probe(latched: tuple[bool, bool]) -> bool:
    # Without an injected closure evaluator, a two-finger opposing grasp is
    # taken as closed once both fingers touch.
    return all(latched)


class GraspController:
    """State machine advanced once per control tick by a single caller."""

    def __init__(
        self,
        config: ControllerConfig,
        request: GraspRequest,
        closure_probe: Callable[[tuple[bool, bool]], bool] | None = None,
    ):
        self.config = config
        self.request = request
        self.closure_probe = closure_probe if closure_probe is not None else _default_probe
        self.closing_rate = (request.start_aperture - request.end_aperture) / request.duration

        self.t = 0.0
        self.phase = GraspPhase.CLOSING
        self.latched = [False, False]
        self.freeze_q = [0.0, 0.0]
        self._above_count = [0, 0]
        self.integral = 0.0
        self.ref_center: float | None = None
        self.finished = False
        self.fault = False
        self.last_u_int = 0.0
        self.last_u_ext = 0.0
        self._dwell = 0.0
        self._prev_cmd: ControlCommand | None = None
        self._was_holding = False

    def closing_aperture(self, t: float) -> float:
        """Aperture target while approaching, not bounded by end_aperture.

        The end aperture only sets the nominal closing rate and duration; a
        finger that has not yet felt contact keeps closing past the nominal
        posture (an off-center object leaves one finger with farther to go),
        stopped only by its joint limit.
        """
        return max(0.0, self.request.start_aperture - self.closing_rate * t)

    def _clamp(self, q: float) -> float:
        return min(max(q, self.config.joint_min), self.config.joint_max)

    def _hold_previous(self, q1: float, q2: float) -> ControlCommand:
        if self._prev_cmd is not None:
            return self._prev_cmd
        return ControlCommand(q1, q2)

    def tick(
        self, f1: float, f2: float, q1: float, q2: float, g_dot_n: float, dt: float
    ) -> ControlCommand:
        """Advance one control period and return the commanded joint positions."""
        cfg = self.config
        isfinite = math.isfinite
        if not (isfinite(f1) and isfinite(f2) and isfinite(q1) and isfinite(q2)
                and isfinite(g_dot_n)):
            self.fault = True
            return self._hold_previous(q1, q2)
        t_next = self.t + dt
        self.t = t_next

        if self.phase is not GraspPhase.HOLDING:
            new_contact = False
            for i, f in enumerate((f1, f2)):
                if self.latched[i]:
                    continue
                if contact_detected(f, cfg.f_theta):
                    self._above_count[i] += 1
                else:
                    self._above_count[i] = 0
                if self._above_count[i] >= cfg.contact_debounce:
                    self.latched[i] = True
                    self.freeze_q[i] = (q1, q2)[i]
                    new_contact = True
            if new_contact and self.closure_probe(tuple(self.latched)):
                self.phase = GraspPhase.HOLDING
                self.integral = 0.0
                self.ref_center = 0.5 * (q2 - q1)

        if self.phase is not GraspPhase.HOLDING:
            self.phase = GraspPhase.CONTACT if any(self.latched) else GraspPhase.CLOSING
            target = self.closing_aperture(t_next)
            cmd = ControlCommand(
                self._clamp(self.freeze_q[0] if self.latched[0] else 0.5 * target),
                self._clamp(self.freeze_q[1] if self.latched[1] else 0.5 * target),
            )
            self.last_u_int = 0.0
            self.last_u_ext = 0.0
            self._prev_cmd = cmd
            self._was_holding = False
            return cmd

        # Holding: decoupled internal/external force control.
        f_ext = compute_external_force(f1, f2, cfg.mass, g_dot_n, cfg.gravity_comp_enabled)
        delta_f_int = f1 + f2 - cfg.f_goal

        # The integral accumulates only while the loop is actually closed:
        # never on the entry tick, and not while the previous command is
        # still being slewed toward, which would wind it up.
        reached = (
            self._prev_cmd is not None
            and abs(q1 - self._prev_cmd.q1_cmd) <= _CMD_REACHED_TOL
            and abs(q2 - self._prev_cmd.q2_cmd) <= _CMD_REACHED_TOL
        )
        if self._was_holding and reached:
            self.integral += delta_f_int * dt
            travel = cfg.joint_max - cfg.joint_min
            bound = cfg.ks_int * travel / cfg.ki_int
            self.integral = min(max(self.integral, -bound), bound)

        u_int = (cfg.kp_int * delta_f_int + cfg.ki_int * self.integral) / cfg.ks_int

        center = 0.5 * (q2 - q1)
        if cfg.compliance_enabled and abs(f_ext) > cfg.f_phi:
            u_ext = cfg.kp_ext * f_ext / cfg.k_ext
            self.ref_center = center
        elif cfg.deadband_enabled or not cfg.compliance_enabled:
            u_ext = self.ref_center - center
        else:
            # Deadband ablated: comply with arbitrarily small external forces.
            u_ext = cfg.kp_ext * f_ext / cfg.k_ext

        dq1, dq2 = distribute(u_int, u_ext)
        cmd = ControlCommand(self._clamp(q1 + dq1), self._clamp(q2 + dq2))

        if cfg.phase3_mode == STOP_AT_GOAL and not self.finished:
            if abs(delta_f_int) < cfg.goal_tolerance:
                self._dwell += dt
                if self._dwell >= cfg.goal_dwell:
                    self.finished = True
            else:
                self._dwell = 0.0

        self.last_u_int = u_int
        self.last_u_ext = u_ext
        self._prev_cmd = cmd
        self._was_holding = True
        return cmd


class TrajectoryController:
    """Open-loop baseline: linear aperture interpolation, blind to forces."""

    def __init__(self, config: ControllerConfig, request: GraspRequest):
        self.config = config
        self.request = request
        self.ticks = 0
        self.phase = GraspPhase.CLOSING
        self.finished = False
        self.fault = False
        self.last_u_int = 0.0
        self.last_u_ext = 0.0

    def aperture(self, t: float) -> float:
        r = self.request
        frac = min(max(t / r.duration, 0.0), 1.0)
        return r.start_aperture + (r.end_aperture - r.start_aperture) * frac

    def tick(
        self, f1: float, f2: float, q1: float, q2: float, g_dot_n: float, dt: float
    ) -> ControlCommand:
        """Advance one control period; only the elapsed time shapes the command.

        The time is the tick count times dt rather than a running sum, so it
        matches the caller's own tick clock bit for bit.
        """
        self.ticks += 1
        cfg = self.config
        q = min(max(0.5 * self.aperture(self.ticks * dt), cfg.joint_min), cfg.joint_max)
        return ControlCommand(q, q)
