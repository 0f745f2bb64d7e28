"""Three-phase grasp force controller and the open-loop baseline.

The grasping motion runs through three phases. While closing, both fingers
follow a constant-rate aperture trajectory aimed at a posture that would
penetrate the object, so contact is guaranteed. Each finger that feels more
than the contact threshold f_theta freezes in place; once both fingers
have latched and the caller's verdict says the pair is force-closure, the
controller switches to holding. While holding, the measured forces are
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
toward +axis. Both controllers tick once per 1 / config.control_rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import NON_NEGATIVE, POSITIVE, check_fields

HOLD_FOREVER = "hold_forever"
STOP_AT_GOAL = "stop_at_goal"

# A finger counts as having executed the previous command when its measured
# position matches to this tolerance. The plant usually lands a reachable
# command exactly, but can leave a finger a rounding error (about 1e-17 m)
# short of it for good, so this is a float-noise guard, not a physical band.
_CMD_REACHED_TOL = 1e-12


class GraspPhase:
    """The controller's phases, as the strings of the CSV phase column."""

    CLOSING = "closing"
    CONTACT = "contact"
    HOLDING = "holding"


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, thresholds and ablation switches for the grasp controller.

    ks_int is the controller's stiffness estimate of the grasped pair of
    contacts, not the true plant stiffness; mass is its estimate of the
    object mass used for gravity compensation. The three *_enabled flags
    are the ablation switches: disabling compliance pins the grasp center,
    disabling the deadband applies compliance to arbitrarily small external
    forces, and disabling gravity compensation drops the mass term from the
    external-force estimate. Each tick advances 1 / control_rate seconds.
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
    goal_tolerance: float = 0.05
    goal_dwell: float = 0.25
    joint_min: float = 0.0
    joint_max: float = 0.08

    def __post_init__(self):
        check_fields(self, {
            **dict.fromkeys(("f_goal", "f_theta", "kp_int", "ki_int", "ks_int", "kp_ext",
                             "k_ext", "control_rate", "goal_tolerance"), POSITIVE),
            **dict.fromkeys(("f_phi", "mass", "goal_dwell"), NON_NEGATIVE),
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


class GraspController:
    """State machine advanced once per control tick by a single caller.

    pair_closes is whether the two finger contacts together are
    force-closure. They sit on the object's faces wherever the fingers
    latch, so the caller decides it once per trial; True, the default,
    takes an opposing pair as closed once both fingers touch. The caller
    also owns the check that every measurement passed to tick is finite.
    phase is one of the GraspPhase strings. The period, closing rate and
    integral bound are fixed for the trial and derived once, here.
    last_f_ext is the tick's external-force estimate, made on every tick
    and used by holding; last_u_int and last_u_ext stay 0 until holding.
    """

    def __init__(self, config: ControllerConfig, request: GraspRequest, pair_closes: bool = True):
        self.config = config
        self.request = request
        self.pair_closes = pair_closes
        self.period = 1.0 / config.control_rate
        self.closing_rate = (request.start_aperture - request.end_aperture) / request.duration
        self._integral_bound = config.ks_int * (config.joint_max - config.joint_min) / config.ki_int

        self.t = 0.0
        self.phase = GraspPhase.CLOSING
        self.latched = [False, False]
        self.freeze_q = [0.0, 0.0]
        self.integral = 0.0
        self.ref_center: float | None = None
        self.finished = False
        self.last_u_int = 0.0
        self.last_u_ext = 0.0
        self.last_f_ext = 0.0
        self._dwell = 0.0
        self._prev_cmd: tuple[float, float] | None = None

    def closing_aperture(self, t: float) -> float:
        """Aperture target while approaching, not bounded by end_aperture.

        The end aperture only sets the nominal closing rate and duration; a
        finger that has not yet felt contact keeps closing past the nominal
        posture (an off-center object leaves one finger with farther to go),
        stopped only by its joint limit.
        """
        aperture = self.request.start_aperture - self.closing_rate * t
        return aperture if aperture > 0.0 else 0.0

    def tick(
        self, f1: float, f2: float, q1: float, q2: float, g_dot_n: float
    ) -> tuple[float, float]:
        """Advance one control period and return the commanded (q1, q2)."""
        cfg, dt = self.config, self.period
        # Commands are clamped as min(max(c, lo), hi) would, a NaN passing through.
        lo, hi = cfg.joint_min, cfg.joint_max
        t_next = self.t + dt
        self.t = t_next
        f_ext = self.last_f_ext = compute_external_force(f1, f2, cfg.mass, g_dot_n,
                                                         cfg.gravity_comp_enabled)

        if self.phase is not GraspPhase.HOLDING:
            latched = self.latched
            # Strict: a reading of exactly f_theta is no contact.
            if not latched[0] and f1 > cfg.f_theta:
                latched[0] = True
                self.freeze_q[0] = q1
            if not latched[1] and f2 > cfg.f_theta:
                latched[1] = True
                self.freeze_q[1] = q2
            if not (self.pair_closes and latched[0] and latched[1]):
                self.phase = GraspPhase.CONTACT if latched[0] or latched[1] else GraspPhase.CLOSING
                free_q = 0.5 * self.closing_aperture(t_next)
                c1 = self.freeze_q[0] if latched[0] else free_q
                c2 = self.freeze_q[1] if latched[1] else free_q
                return (lo if lo > c1 else hi if hi < c1 else c1,
                        lo if lo > c2 else hi if hi < c2 else c2)
            self.phase = GraspPhase.HOLDING
            self.ref_center = 0.5 * (q2 - q1)

        # Holding: decoupled internal/external force control.
        delta_f_int = f1 + f2 - cfg.f_goal

        # The integral accumulates only while the loop is actually closed:
        # never on the entry tick (only holding ticks set _prev_cmd, and
        # holding is never left), and not while the previous command is
        # still being slewed toward, which would wind it up.
        reached = (
            self._prev_cmd is not None
            and abs(q1 - self._prev_cmd[0]) <= _CMD_REACHED_TOL
            and abs(q2 - self._prev_cmd[1]) <= _CMD_REACHED_TOL
        )
        if reached:
            integral = self.integral + delta_f_int * dt
            bound = self._integral_bound
            self.integral = -bound if -bound > integral else bound if bound < integral else integral

        u_int = (cfg.kp_int * delta_f_int + cfg.ki_int * self.integral) / cfg.ks_int

        center = 0.5 * (q2 - q1)
        # With the deadband ablated, compliance answers arbitrarily small forces.
        if cfg.compliance_enabled and (abs(f_ext) > cfg.f_phi or not cfg.deadband_enabled):
            u_ext = cfg.kp_ext * f_ext / cfg.k_ext
            self.ref_center = center
        else:
            u_ext = self.ref_center - center

        dq1, dq2 = distribute(u_int, u_ext)
        c1, c2 = q1 + dq1, q2 + dq2
        cmd = (lo if lo > c1 else hi if hi < c1 else c1, lo if lo > c2 else hi if hi < c2 else c2)

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
        return cmd


class TrajectoryController:
    """Open-loop baseline: linear aperture interpolation, blind to forces; its
    last_f_ext, estimated each tick as GraspController's is, is for the record only."""

    def __init__(self, config: ControllerConfig, request: GraspRequest):
        self.config = config
        self.request = request
        self.period = 1.0 / config.control_rate
        self.ticks = 0
        self.phase = GraspPhase.CLOSING
        self.finished = False
        self.last_u_int = 0.0
        self.last_u_ext = 0.0
        self.last_f_ext = 0.0

    def aperture(self, t: float) -> float:
        r = self.request
        frac = t / r.duration
        frac = 0.0 if 0.0 > frac else 1.0 if 1.0 < frac else frac
        return r.start_aperture + (r.end_aperture - r.start_aperture) * frac

    def command(self, ticks: int) -> tuple[float, float]:
        """The command of the tick that brings the tick count to ticks.

        Only the elapsed time shapes it, so the whole stream is known without ticking.

        The time is the tick count times the period rather than a running
        sum, so it matches the caller's own tick clock bit for bit.
        """
        cfg = self.config
        lo, hi = cfg.joint_min, cfg.joint_max
        q = 0.5 * self.aperture(ticks * self.period)
        q = lo if lo > q else hi if hi < q else q
        return q, q

    def tick(
        self, f1: float, f2: float, q1: float, q2: float, g_dot_n: float
    ) -> tuple[float, float]:
        """Advance one control period and return its command."""
        self.ticks += 1
        cfg = self.config
        self.last_f_ext = compute_external_force(f1, f2, cfg.mass, g_dot_n,
                                                 cfg.gravity_comp_enabled)
        return self.command(self.ticks)
