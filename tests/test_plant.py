"""Contact physics: spring law, dynamics, disturbances, determinism."""

import math
import random

import pytest

from graspforce.plant import (
    FINGER_1,
    FINGER_2,
    OBJECT,
    ObjectSpec,
    Plant,
    PlantConfig,
    Push,
    WristSweep,
)

RIGID_TIPS = PlantConfig(pad_stiffness=None)


def hold(plant: Plant) -> tuple[float, float]:
    return plant.q1, plant.q2


class TestContactForces:
    def test_no_overlap_no_force(self):
        obj = ObjectSpec("slab", mass=0.05, width=0.05, stiffness=2000.0)
        plant = Plant(obj, start_aperture=0.07, config=RIGID_TIPS, period=0.01)
        assert plant.true_f1 == 0.0
        assert plant.true_f2 == 0.0

    def test_one_millimeter_penetration_at_2000(self):
        obj = ObjectSpec("slab", mass=0.05, width=0.05, stiffness=2000.0)
        plant = Plant(obj, start_aperture=0.048, config=RIGID_TIPS, period=0.01)
        assert plant.true_f1 == pytest.approx(2.0, rel=1e-9)
        assert plant.true_f2 == pytest.approx(2.0, rel=1e-9)

    def test_symmetric_penetration_is_symmetric(self):
        obj = ObjectSpec("slab", mass=0.01, width=0.06, stiffness=900.0)
        plant = Plant(obj, start_aperture=0.055, period=0.01)
        assert plant.true_f1 == plant.true_f2
        assert plant.true_f1 > 0.0

    def test_pad_acts_in_series(self):
        obj = ObjectSpec("slab", mass=0.05, width=0.05, stiffness=2000.0)
        plant = Plant(obj, start_aperture=0.06, config=PlantConfig(pad_stiffness=600.0),
                      period=0.01)
        assert plant.contact_stiffness == pytest.approx(2000.0 * 600.0 / 2600.0, rel=1e-12)

    def test_catalog_series_stiffnesses(self):
        for k_obj, expected in ((500.0, 3000.0 / 11.0), (2000.0, 6000.0 / 13.0),
                                (20000.0, 600.0 * 20000.0 / 20600.0)):
            obj = ObjectSpec("slab", mass=0.01, width=0.05, stiffness=k_obj)
            plant = Plant(obj, start_aperture=0.06, period=0.01)
            assert plant.contact_stiffness == pytest.approx(expected, rel=1e-12)

    def test_force_implies_penetration(self):
        obj = ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0)
        plant = Plant(obj, start_aperture=0.08, period=0.01)
        q = 0.04
        for _ in range(200):
            q -= 0.00005
            plant.step((q, q))
            half = 0.5 * obj.width
            if plant.true_f1 > 0.0:
                assert -plant.q1 - (plant.x_obj - half) > 0.0
            if plant.true_f2 > 0.0:
                assert (plant.x_obj + half) - plant.q2 > 0.0


class TestDynamics:
    def test_free_damped_object_loses_kinetic_energy(self):
        obj = ObjectSpec("slab", mass=0.049, width=0.05, stiffness=2000.0, damping=60.0)
        plant = Plant(obj, start_aperture=0.12, period=0.01)
        plant.v_obj = 0.05
        prev_ke = 0.5 * obj.mass * plant.v_obj**2
        for _ in range(50):
            plant.step(hold(plant))
            ke = 0.5 * obj.mass * plant.v_obj**2
            assert ke <= prev_ke
            prev_ke = ke
        assert prev_ke < 1e-12

    def test_balanced_contact_leaves_object_still(self):
        obj = ObjectSpec("slab", mass=0.049, width=0.05, stiffness=2000.0, damping=60.0)
        plant = Plant(obj, start_aperture=0.048, period=0.01)
        for _ in range(100):
            plant.step(hold(plant))
        assert plant.x_obj == pytest.approx(0.0, abs=1e-12)
        assert plant.v_obj == pytest.approx(0.0, abs=1e-12)

    def test_fingers_land_on_reachable_commands(self):
        # The tracker snaps onto the target within one substep's travel, so
        # only accumulated rounding across substeps can remain (about one
        # ulp), well inside the controller's documented position gate.
        obj = ObjectSpec("slab", mass=0.01, width=0.05, stiffness=500.0)
        plant = Plant(obj, start_aperture=0.08, period=0.01)
        plant.step((0.0399, 0.0398))
        q1, q2 = plant.q1, plant.q2
        assert q1 == pytest.approx(0.0399, abs=1e-15)
        assert q2 == pytest.approx(0.0398, abs=1e-15)
        plant.step((q1, q2))
        assert plant.q1 == q1
        assert plant.q2 == q2

    def test_finger_speed_limit(self):
        obj = ObjectSpec("slab", mass=0.01, width=0.05, stiffness=500.0)
        plant = Plant(obj, start_aperture=0.08, period=0.01)
        plant.step((0.0, 0.04))
        assert plant.q1 == pytest.approx(0.04 - 0.05 * 0.01, abs=1e-12)
        assert plant.q2 == 0.04

    def test_gravity_pulls_uncompensated_object_down(self):
        obj = ObjectSpec("slab", mass=0.144, width=0.055, stiffness=20000.0, damping=150.0)
        plant = Plant(obj, start_aperture=0.054, wrist=WristSweep(0.0, 1.0, angle_end=math.pi / 2),
                      period=0.01)
        for _ in range(200):
            plant.step(hold(plant))
        # Finger 1 is at the bottom once the axis is vertical.
        assert plant.x_obj < -1e-5
        assert plant.true_f1 > plant.true_f2

    def test_ideal_compensating_commands_pin_the_object(self):
        # A controller with perfect knowledge balances the weight through
        # the full half-turn; the object must not drift measurably.
        obj = ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0)
        sweep = WristSweep(0.0, 10.0, angle_end=math.pi)
        tick = 0.01
        plant = Plant(obj, start_aperture=0.08, wrist=sweep, period=tick)
        k = plant.contact_stiffness
        half = 0.5 * obj.width
        x0 = plant.x_obj
        base = 2.0 / k
        peak = 0.0
        for i in range(1000):
            g_next = -9.81 * math.sin(sweep.angle((i + 1) * tick))
            lean = obj.mass * g_next / (2.0 * k)
            cmd = (half - x0 - (base - lean), x0 + half - (base + lean))
            plant.step(cmd)
            peak = max(peak, abs(plant.x_obj - x0))
        assert peak < 1e-4

    def test_freeze_on_touch_bounds_displacement_to_one_tick(self):
        obj = ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0)
        plant = Plant(obj, start_aperture=0.08, offset=0.005, period=0.01)
        frozen = [None, None]
        cmd1 = cmd2 = 0.04
        for _ in range(2000):
            # Each unfrozen finger keeps its share of a 10 mm/s aperture ramp;
            # a frozen finger holds the position it had at detection.
            if frozen[0] is None:
                cmd1 -= 0.5 * 0.010 * 0.01
            if frozen[1] is None:
                cmd2 -= 0.5 * 0.010 * 0.01
            plant.step((cmd1, cmd2))
            if frozen[0] is None and plant.true_f1 > 0.01:
                frozen[0] = plant.q1
                cmd1 = plant.q1
            if frozen[1] is None and plant.true_f2 > 0.01:
                frozen[1] = plant.q2
                cmd2 = plant.q2
            if all(f is not None for f in frozen):
                break
        assert all(f is not None for f in frozen)
        for _ in range(50):
            plant.step((cmd1, cmd2))
        assert abs(plant.x_obj - 0.005) <= 0.010 * 0.01

    def test_steps_are_deterministic(self):
        def run():
            obj = ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0)
            plant = Plant(obj, start_aperture=0.08, period=0.01)
            out = []
            q = 0.04
            for _ in range(300):
                q -= 0.00005
                plant.step((q, q))
                out.append((plant.x_obj, plant.v_obj, plant.true_f1, plant.true_f2))
            return out

        assert run() == run()


class TestDisturbances:
    def test_finger_push_reaches_measurement_not_object(self):
        obj = ObjectSpec("slab", mass=0.049, width=0.05, stiffness=2000.0, damping=60.0)
        push = Push(FINGER_1, 1.0, 0.0, 1.0, ramp=0.01)
        plant = Plant(obj, start_aperture=0.08, pushes=(push,), period=0.05)
        plant.step(hold(plant))
        f1_meas, f2_meas = plant.load_f1, plant.load_f2
        assert f1_meas == pytest.approx(1.0, abs=1e-12)
        assert f2_meas == 0.0
        assert plant.true_f1 == 0.0
        assert plant.x_obj == 0.0

    @pytest.mark.parametrize("targets", [(), (FINGER_1,), (FINGER_2,), (FINGER_1, FINGER_2)])
    def test_measured_forces_keep_the_push_sum_bits(self, targets):
        # The reference is the sum over every finger push, empty or not, so
        # a finger without pushes adds int 0. The true forces come from the
        # fingers' overlap with the 25 mm half-width, so none is -0.0.
        obj = ObjectSpec("slab", mass=0.049, width=0.05, stiffness=2000.0, damping=60.0)
        pushes = tuple(Push(target, 0.3, 0.0, 1.0, ramp=0.2) for target in targets)
        plant = Plant(obj, start_aperture=0.08, pushes=pushes, period=0.01)
        for q1, q2, t in [(0.04, 0.04, 0.05), (0.0245, 0.04, 0.5), (0.04, 0.0235, 2.0)]:
            plant.q1, plant.q2, plant.t = q1, q2, t
            plant._sense()
            want = [
                force + sum(p.value(t) for p in pushes if p.target == target)
                for force, target in ((plant.true_f1, FINGER_1), (plant.true_f2, FINGER_2))
            ]
            assert [f.hex() for f in (plant.load_f1, plant.load_f2)] == [f.hex() for f in want]

    @pytest.mark.parametrize("target", [FINGER_1, OBJECT])
    def test_overlapping_pushes_add_left_to_right(self, target):
        # The bits builtin sum gave up to Python 3.11; from 3.12 it compensates
        # and gives 0.6, and added right to left the pushes give 0.6 too.
        want = 0.6000000000000001
        assert (0.1 + 0.2) + 0.3 == want != 0.1 + (0.2 + 0.3)
        obj = ObjectSpec("slab", mass=1.0, width=0.05, stiffness=2000.0)
        pushes = tuple(Push(target, force, -1.0, 1.0, ramp=0.0) for force in (0.1, 0.2, 0.3))
        plant = Plant(obj, start_aperture=0.08, pushes=pushes, period=1e-3)  # one substep
        if target == FINGER_1:
            assert (plant.load_f1, plant.load_f2) == (want, 0.0)
        else:
            # No contact and a level wrist: the pushes are the whole net force.
            plant.step(hold(plant))
            assert plant.v_obj == 1e-3 * want != 1e-3 * 0.6

    def test_object_push_is_a_real_force(self):
        obj = ObjectSpec("slab", mass=0.049, width=0.05, stiffness=2000.0, damping=60.0)
        push = Push(OBJECT, 0.5, 0.0, 1.0, ramp=0.01)
        plant = Plant(obj, start_aperture=0.08, pushes=(push,), period=0.01)
        for _ in range(20):
            plant.step(hold(plant))
        assert plant.x_obj > 1e-4

    def test_trapezoid_profile(self):
        push = Push(FINGER_1, 2.0, 1.0, 2.0, ramp=0.1)
        assert push.value(0.5) == 0.0
        assert push.value(1.05) == pytest.approx(1.0)
        assert push.value(1.5) == 2.0
        assert push.value(1.97) == pytest.approx(0.6)
        assert push.value(2.5) == 0.0

    def test_zero_ramp_is_a_step(self):
        push = Push(FINGER_1, 2.0, 1.0, 2.0, ramp=0.0)
        assert push.value(1.0001) == 2.0

    def test_wrist_sweep_clamps_outside_window(self):
        sweep = WristSweep(2.0, 4.0, angle_end=math.pi)
        assert sweep.angle(0.0) == 0.0
        assert sweep.angle(3.0) == pytest.approx(math.pi / 2)
        assert sweep.angle(9.0) == math.pi

    def test_overlapping_pushes_on_one_finger_sum(self):
        # ScenarioSpec refuses overlapping pushes; the plant itself adds them up.
        obj = ObjectSpec("slab", mass=0.049, width=0.05, stiffness=2000.0, damping=60.0)
        pushes = (Push(FINGER_2, 1.0, 0.0, 2.0, ramp=0.0), Push(FINGER_2, 0.25, 1.0, 3.0, ramp=0.0))
        plant = Plant(obj, start_aperture=0.08, pushes=pushes, period=0.5)
        readings = []
        for _ in range(3):
            plant.step(hold(plant))
            readings.append((plant.load_f1, plant.load_f2))
            plant.step(hold(plant))
        assert readings == [(0.0, 1.0), (0.0, 1.25), (0.0, 0.25)]


class TestValidation:
    def test_object_spec_bounds(self):
        with pytest.raises(ValueError):
            ObjectSpec("bad", mass=-0.001, width=0.05, stiffness=500.0)
        with pytest.raises(ValueError, match="mass must be a finite number > 0"):
            ObjectSpec("bad", mass=0.0, width=0.05, stiffness=500.0)
        with pytest.raises(ValueError):
            ObjectSpec("bad", mass=0.01, width=0.0, stiffness=500.0)
        with pytest.raises(ValueError):
            ObjectSpec("bad", mass=0.01, width=0.05, stiffness=0.0)

    @pytest.mark.parametrize("cls,field,edge,past", [
        (ObjectSpec, "mass", 1e-6, 0.99e-6),
        (ObjectSpec, "stiffness", 1e9, 1.000001e9),
        (PlantConfig, "pad_stiffness", 1e9, 1.000001e9),
    ])
    def test_physical_bounds_are_inclusive(self, cls, field, edge, past):
        base = {"name": "slab", "mass": 0.01, "width": 0.05, "stiffness": 500.0}
        base = base if cls is ObjectSpec else {}
        assert getattr(cls(**dict(base, **{field: edge})), field) == edge
        with pytest.raises(ValueError, match=f"^{field} must be "):
            cls(**dict(base, **{field: past}))

    def test_push_bounds(self):
        with pytest.raises(ValueError):
            Push("elbow", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Push(FINGER_1, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="^push needs t_end > t_start$"):
            Push(FINGER_1, 1.0, 1.0, 1.0)

    def test_zero_length_wrist_sweep_rejected(self):
        with pytest.raises(ValueError, match="^wrist sweep needs t_end > t_start$"):
            WristSweep(t_start=1.0, t_end=1.0)

    def test_plant_config_bounds(self):
        with pytest.raises(ValueError):
            PlantConfig(dt=0.0)
        with pytest.raises(ValueError):
            PlantConfig(pad_stiffness=-100.0)

    @pytest.mark.parametrize("field", ["dt", "max_finger_speed", "gravity", "pad_stiffness"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_plant_config_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            PlantConfig(**{field: value})

    @pytest.mark.parametrize("field", ["force", "t_start", "t_end", "ramp"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_push_must_be_finite(self, field, value):
        args = dict(target=OBJECT, force=1.0, t_start=1.0, t_end=2.0, ramp=0.01)
        with pytest.raises(ValueError, match=field):
            Push(**dict(args, **{field: value}))

    @pytest.mark.parametrize("field", ["t_start", "t_end", "angle_start", "angle_end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_wrist_sweep_must_be_finite(self, field, value):
        args = dict(t_start=1.0, t_end=2.0, angle_end=math.pi, angle_start=0.0)
        with pytest.raises(ValueError, match=field):
            WristSweep(**dict(args, **{field: value}))

    def test_step_duration_must_be_positive(self):
        obj = ObjectSpec("slab", mass=0.01, width=0.05, stiffness=500.0)
        with pytest.raises(ValueError):
            Plant(obj, start_aperture=0.08, period=0.0)

    def test_start_aperture_must_be_positive(self):
        obj = ObjectSpec("slab", mass=0.01, width=0.05, stiffness=500.0)
        with pytest.raises(ValueError):
            Plant(obj, start_aperture=0.0, period=0.01)


def _frozen_tracking_velocity(q, target, period, max_speed):
    needed = target - q
    if needed == 0.0:
        return 0.0
    return math.copysign(min(abs(needed) / period, max_speed), needed)


class FrozenPlant:
    """The plant's substep loop as it stood before its invariants were hoisted.

    A verbatim reference: every value the loop derives per substep is
    recomputed per substep here, in the original order, so any change of
    operands or evaluation order in Plant.step shows up as a bit difference.
    """

    def __init__(self, obj, start_aperture, offset, pushes, wrist, config):
        self.obj = obj
        self.pushes = pushes
        self.wrist = wrist
        self.config = config
        self.q1 = 0.5 * start_aperture
        self.q2 = 0.5 * start_aperture
        self.x_obj = offset
        self.v_obj = 0.0
        self.t = 0.0
        self.true_f1, self.true_f2 = self._contact_forces()

    @property
    def contact_stiffness(self):
        k = self.obj.stiffness
        pad = self.config.pad_stiffness
        if pad is None:
            return k
        return k * pad / (k + pad)

    def push_force(self, target, t):
        return sum(p.value(t) for p in self.pushes if p.target == target)

    def wrist_angle(self, t):
        wrist = self.wrist
        return wrist.angle(t) if wrist is not None else 0.0

    def g_dot_n(self):
        return -self.config.gravity * math.sin(self.wrist_angle(self.t))

    def _contact_forces(self):
        k = self.contact_stiffness
        half = 0.5 * self.obj.width
        d1 = -self.q1 - (self.x_obj - half)
        d2 = (self.x_obj + half) - self.q2
        return k * max(0.0, d1), k * max(0.0, d2)

    def measured_forces(self):
        return (
            self.true_f1 + self.push_force(FINGER_1, self.t),
            self.true_f2 + self.push_force(FINGER_2, self.t),
        )

    @staticmethod
    def _move_toward(q, target, move):
        if abs(target - q) <= abs(move):
            return target
        return q + move

    def step(self, command, duration):
        cfg = self.config
        obj = self.obj
        n_sub = max(1, round(duration / cfg.dt))
        dt = duration / n_sub
        v1 = _frozen_tracking_velocity(self.q1, command[0], duration, cfg.max_finger_speed)
        v2 = _frozen_tracking_velocity(self.q2, command[1], duration, cfg.max_finger_speed)
        for _ in range(n_sub):
            self.q1 = self._move_toward(self.q1, command[0], v1 * dt)
            self.q2 = self._move_toward(self.q2, command[1], v2 * dt)
            g_dot_n = -cfg.gravity * math.sin(self.wrist_angle(self.t))
            push_obj = self.push_force(OBJECT, self.t)
            f1, f2 = self._contact_forces()
            net = f1 - f2 + obj.mass * g_dot_n + push_obj
            self.v_obj = (self.v_obj + dt * net / obj.mass) / (
                1.0 + dt * obj.damping / obj.mass
            )
            self.x_obj += dt * self.v_obj
            self.t += dt
        self.true_f1, self.true_f2 = self._contact_forces()
        return (self.x_obj, self.v_obj, self.q1, self.q2, self.true_f1, self.true_f2)


def _bits(values):
    """Each value's exact bits, so -0.0 and 0.0 differ and NaN equals NaN."""
    return tuple(float(v).hex() for v in values)


def _snapshot(plant):
    if isinstance(plant, FrozenPlant):
        reads = (*plant.measured_forces(), plant.g_dot_n())
    else:
        reads = (plant.load_f1, plant.load_f2, plant.g_dot_n)
    return _bits(
        (plant.q1, plant.q2, plant.x_obj, plant.v_obj, plant.t, plant.true_f1, plant.true_f2)
        + reads
    )


SWEEP = WristSweep(0.3, 2.5, angle_end=math.pi, angle_start=-0.2)
MIXED_PUSHES = (
    Push(OBJECT, -0.4, 0.2, 0.9, ramp=0.05),
    Push(OBJECT, 0.6, 1.1, 1.6, ramp=0.0),
    Push(FINGER_1, 1.5, 0.4, 1.2, ramp=0.02),
    Push(FINGER_2, -0.7, 0.5, 2.0, ramp=0.1),
)


def substep_time(n: int, dt: float = 0.001) -> float:
    """The plant's time after n substeps of dt, added one at a time as Plant.step adds them."""
    t = 0.0
    for _ in range(n):
        t += dt
    return t


# The plant weighs a wrist that stays clamped for a whole period once, so each sweep below
# puts a period's substeps on both sides of an edge, or a substep on the edge itself.
PUSHED_SLAB = ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0)
SWEEP_CASES = {
    # Inside a period at every period the test runs (0.01, 0.005, 0.0123 and 0.0004 s).
    "sweep edges inside a period": WristSweep(0.30551, 1.70713, angle_end=2.5),
    # On the first substep of a 0.01 s and a 0.005 s period, bit for bit.
    "sweep edges on a period boundary": WristSweep(substep_time(300), substep_time(1700),
                                                   angle_end=-math.pi),
    "sweep from -0.0": WristSweep(0.4, 1.5, angle_end=math.pi, angle_start=-0.0),
    "sweep downward": WristSweep(0.5, 2.0, angle_end=-1.0, angle_start=2.0),
    "sweep shorter than a period": WristSweep(0.80123, 0.80771, angle_end=1.2, angle_start=0.3),
}

# name -> (object, offset, start aperture, pushes, wrist sweep, plant config)
REFERENCE_SCENARIOS = {
    **{name: (PUSHED_SLAB, 0.002, 0.066, MIXED_PUSHES[:2], sweep, PlantConfig())
       for name, sweep in SWEEP_CASES.items()},
    # 0.01 s over dt 7e-4 gives 14 substeps of 0.000714... s, a period no dt divides.
    "sweep with a period that is not a multiple of dt": (
        PUSHED_SLAB, -0.001, 0.066, (), SWEEP_CASES["sweep edges inside a period"],
        PlantConfig(dt=7e-4),
    ),
    "object pushes": (
        ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0),
        0.0, 0.064, MIXED_PUSHES, None, PlantConfig(),
    ),
    "wrist sweep": (
        ObjectSpec("slab", mass=0.144, width=0.055, stiffness=20000.0, damping=150.0),
        0.001, 0.058, (), SWEEP, PlantConfig(),
    ),
    "pushes and sweep": (
        ObjectSpec("slab", mass=0.02, width=0.05, stiffness=500.0, damping=5.0),
        0.0, 0.054, MIXED_PUSHES, SWEEP, PlantConfig(gravity=-3.7),
    ),
    "rigid tips": (
        ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=0.0),
        0.0, 0.064, MIXED_PUSHES[:2], None, RIGID_TIPS,
    ),
    "undamped free": (
        ObjectSpec("slab", mass=0.3, width=0.04, stiffness=900.0),
        0.0, 0.08, (), None, PlantConfig(max_finger_speed=0.02, dt=7e-4),
    ),
    # The path every exp-a substep takes. A resting free object turns -0.0
    # into 0.0 through x += dt * v, so a shortcut that skips that update
    # shows up in the first step.
    "exp-a substeps": (
        ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0),
        -0.0, 0.07, (), None, PlantConfig(),
    ),
}


class TestFrozenReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_SCENARIOS))
    def test_bit_identical_to_frozen_substep_loop(self, name):
        # A plant has one period, so each period, some not a multiple of
        # dt, gets its own plant pair; the repeated 0.01 draws other commands.
        obj, offset, start, pushes, wrist, config = REFERENCE_SCENARIOS[name]
        half_width = 0.5 * obj.width
        for run, duration in enumerate((0.01, 0.01, 0.005, 0.0123, 0.0004)):
            plant = Plant(obj, start_aperture=start, offset=offset, pushes=pushes, wrist=wrist,
                          config=config, period=duration)
            frozen = FrozenPlant(obj, start, offset, pushes, wrist, config)
            assert _snapshot(plant) == _snapshot(frozen)
            rng = random.Random(f"{name} {run}")
            # Past the last push and the end of the sweep.
            for i in range(math.ceil(2.6 / duration)):
                # Small squeezes around contact, large slew-capped jumps
                # and held commands.
                kind = i % 5
                if kind == 0:
                    cmd = (plant.q1, plant.q2)
                elif kind == 1:
                    cmd = (rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05))
                else:
                    cmd = (
                        half_width + rng.uniform(-0.002, 0.001),
                        half_width + rng.uniform(-0.002, 0.001),
                    )
                plant.step(cmd)
                expected = frozen.step(cmd, duration)
                assert _bits((plant.x_obj, plant.v_obj, plant.q1, plant.q2,
                              plant.true_f1, plant.true_f2)) == _bits(expected)
                assert _snapshot(plant) == _snapshot(frozen)
            assert plant.t == frozen.t > 2.0


class TestFrozenSpeedCap:
    @pytest.mark.parametrize("nan_finger", [None, 1, 2])
    def test_speed_exactly_at_the_cap(self, nan_finger):
        # Both fingers need exactly the capped speed, where min's two
        # operands tie; a NaN command gives a NaN speed, which passes
        # min(speed, cap) but not min(cap, speed).
        obj = ObjectSpec("slab", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0)
        start, duration = 0.07, 0.01
        q = 0.5 * start
        target = q - 0.0004
        config = PlantConfig(max_finger_speed=abs(target - q) / duration)
        assert abs(target - q) / duration == config.max_finger_speed
        plant = Plant(obj, start_aperture=start, config=config, period=duration)
        frozen = FrozenPlant(obj, start, 0.0, (), None, config)
        cmd = (math.nan if nan_finger == 1 else target,
               math.nan if nan_finger == 2 else target)
        for _ in range(3):
            plant.step(cmd)
            expected = frozen.step(cmd, duration)
            assert _bits((plant.x_obj, plant.v_obj, plant.q1, plant.q2,
                          plant.true_f1, plant.true_f2)) == _bits(expected)
            assert _snapshot(plant) == _snapshot(frozen)
        assert [math.isnan(plant.q1), math.isnan(plant.q2)] == [nan_finger == 1, nan_finger == 2]


class TestStateRestore:
    @pytest.mark.parametrize("name", ["object pushes", "wrist sweep", "pushes and sweep"])
    @pytest.mark.parametrize("at", [0.55, 0.85, 1.3], ids=["mid-ramp", "mid-push", "mid-sweep"])
    def test_a_restored_plant_steps_as_the_uninterrupted_one(self, name, at):
        # A plant built with the same inputs and given another's state() mid-push or
        # mid-sweep steps on with that plant's bits, and so does a plant given its own.
        obj, offset, start, pushes, wrist, config = REFERENCE_SCENARIOS[name]
        period = 0.01

        def plant():
            return Plant(obj, start_aperture=start, offset=offset, pushes=pushes, wrist=wrist,
                         config=config, period=period)

        uninterrupted, own, other = plant(), plant(), None
        rng = random.Random(name)
        for i in range(round(2.6 / period)):
            if i == round(at / period):
                other = plant()
                assert _snapshot(own) == _snapshot(uninterrupted) != _snapshot(other)
                other.restore(uninterrupted.state())
                own.restore(own.state())
            cmd = (0.5 * obj.width + rng.uniform(-0.002, 0.001),
                   0.5 * obj.width + rng.uniform(-0.002, 0.001))
            for p in (uninterrupted, own, other):
                if p is not None:
                    p.step(cmd)
            if other is not None:
                assert _snapshot(other) == _snapshot(own) == _snapshot(uninterrupted)

    def test_state_is_the_ten_floats_a_step_writes(self):
        # The five a step reads, then the reads it publishes.
        obj, offset, start, pushes, wrist, config = REFERENCE_SCENARIOS["pushes and sweep"]
        plant = Plant(obj, start_aperture=start, offset=offset, pushes=pushes, wrist=wrist,
                      config=config, period=0.01)
        plant.step((0.02, 0.03))
        assert plant.state() == (plant.q1, plant.q2, plant.x_obj, plant.v_obj, plant.t,
                                 plant.true_f1, plant.true_f2, plant.load_f1, plant.load_f2,
                                 plant.g_dot_n)
