"""Grasp controller: force decomposition, control laws, phase machine."""

import math
import random

import pytest

from graspforce.controller import (
    HOLD_FOREVER,
    STOP_AT_GOAL,
    ControllerConfig,
    GraspController,
    GraspPhase,
    GraspRequest,
    TrajectoryController,
    compute_external_force,
    distribute,
)

DT = 0.01


def make_controller(**config_kw) -> GraspController:
    config = ControllerConfig(**config_kw)
    request = GraspRequest(start_aperture=0.08, end_aperture=0.05, duration=3.0)
    return GraspController(config, request)


def enter_holding(ctrl: GraspController, q: float = 0.028) -> tuple[float, float]:
    """Latch both fingers with a solid force so the controller starts holding."""
    cmd = ctrl.tick(1.0, 1.0, q, q, 0.0, DT)
    assert ctrl.phase is GraspPhase.HOLDING
    return cmd


class TestExternalForce:
    def test_balanced_horizontal_is_zero(self):
        assert compute_external_force(1.0, 1.0, 0.5, 0.0) == 0.0

    def test_gravity_term_with_tape_roll_mass(self):
        f_ext = compute_external_force(2.0, 1.5, 0.049, -9.81)
        assert f_ext == pytest.approx(-0.0193, abs=5e-5)

    def test_pure_imbalance(self):
        assert compute_external_force(1.0, 1.5, 0.0, -9.81) == pytest.approx(0.5)

    def test_gravity_comp_disabled_drops_mass_term(self):
        f_ext = compute_external_force(2.0, 1.5, 0.049, -9.81, gravity_comp_enabled=False)
        assert f_ext == pytest.approx(-0.5)

    def test_rotating_the_gravity_vector_shifts_f_ext_by_weight(self):
        for mass in (0.002, 0.049, 0.144):
            level = compute_external_force(1.0, 1.0, mass, 0.0)
            hanging = compute_external_force(1.0, 1.0, mass, -9.81)
            assert hanging - level == mass * 9.81


class TestDistribute:
    def test_symmetric_closing(self):
        assert distribute(-0.002, 0.0) == (-0.001, -0.001)

    def test_pure_center_shift(self):
        dq1, dq2 = distribute(0.0, 0.002)
        assert dq1 == -0.001
        assert dq2 == 0.001

    def test_mixed_signals(self):
        dq1, dq2 = distribute(0.004, 0.002)
        assert dq1 == pytest.approx(0.001)
        assert dq2 == pytest.approx(0.003)

    def test_identities_are_exact_on_dyadic_inputs(self):
        # With dyadic inputs every intermediate sum is representable, so the
        # aperture/center identities must hold bit for bit.
        rng = random.Random(8)
        for _ in range(1000):
            u_int = rng.randint(-(2**26), 2**26) / 2**26
            u_ext = rng.randint(-(2**26), 2**26) / 2**26
            dq1, dq2 = distribute(u_int, u_ext)
            assert dq1 + dq2 == u_int
            assert dq2 - dq1 == u_ext

    def test_near_identity_on_arbitrary_floats(self):
        rng = random.Random(21)
        for _ in range(1000):
            u_int = rng.uniform(-0.01, 0.01)
            u_ext = rng.uniform(-0.01, 0.01)
            dq1, dq2 = distribute(u_int, u_ext)
            assert dq1 + dq2 == pytest.approx(u_int, abs=1e-17)
            assert dq2 - dq1 == pytest.approx(u_ext, abs=1e-17)


class TestConfigValidation:
    def test_rejects_nonpositive_goal(self):
        with pytest.raises(ValueError):
            ControllerConfig(f_goal=0.0)

    def test_rejects_unknown_phase3_mode(self):
        with pytest.raises(ValueError):
            ControllerConfig(phase3_mode="coast")

    def test_rejects_inverted_joint_range(self):
        with pytest.raises(ValueError):
            ControllerConfig(joint_min=0.06, joint_max=0.05)
        with pytest.raises(ValueError, match="^joint range must satisfy"):
            ControllerConfig(joint_min=0.04, joint_max=0.04)

    @pytest.mark.parametrize("goal_dwell", [float("nan"), float("inf"), -0.1])
    def test_rejects_bad_goal_dwell(self, goal_dwell):
        with pytest.raises(ValueError, match="goal_dwell"):
            ControllerConfig(goal_dwell=goal_dwell)

    def test_zero_goal_dwell_allowed(self):
        assert ControllerConfig(goal_dwell=0.0).goal_dwell == 0.0

    @pytest.mark.parametrize("limits", [(0.0, float("inf")), (float("nan"), 0.08),
                                        (0.0, float("nan"))])
    def test_rejects_non_finite_joint_limits(self, limits):
        field = "joint_max" if math.isfinite(limits[0]) else "joint_min"
        with pytest.raises(ValueError, match=f"^{field} "):
            ControllerConfig(joint_min=limits[0], joint_max=limits[1])

    def test_request_apertures_ordered(self):
        with pytest.raises(ValueError):
            GraspRequest(start_aperture=0.05, end_aperture=0.08, duration=1.0)
        with pytest.raises(ValueError, match="^apertures must satisfy start > end >= 0$"):
            GraspRequest(start_aperture=0.05, end_aperture=0.05, duration=1.0)


class TestClosingPhase:
    def test_both_fingers_follow_the_ramp(self):
        ctrl = make_controller()
        cmd = ctrl.tick(0.0, 0.0, 0.04, 0.04, 0.0, DT)
        expected = 0.5 * (0.08 - 0.01 * DT)
        assert cmd[0] == pytest.approx(expected, abs=1e-12)
        assert cmd[1] == pytest.approx(expected, abs=1e-12)
        assert ctrl.phase is GraspPhase.CLOSING

    def test_aperture_keeps_shrinking_past_the_nominal_posture(self):
        ctrl = make_controller()
        nominal_end = ctrl.request.end_aperture
        assert ctrl.closing_aperture(ctrl.request.duration + 1.0) < nominal_end

    def test_aperture_floors_at_zero(self):
        ctrl = make_controller()
        assert ctrl.closing_aperture(1e6) == 0.0

    def test_force_at_threshold_does_not_latch(self):
        ctrl = make_controller()
        ctrl.tick(0.2, 0.0, 0.04, 0.04, 0.0, DT)
        assert ctrl.latched == [False, False]

    @pytest.mark.parametrize("f,latches", [(0.25, True), (0.2, False), (-0.1, False)])
    def test_first_sample_above_f_theta_latches(self, f, latches):
        # Strict threshold: exactly f_theta (0.2 N) is no contact.
        ctrl = make_controller()
        ctrl.tick(0.0, f, 0.04, 0.04, 0.0, DT)
        assert ctrl.latched == [False, latches]

    def test_integral_is_zero_before_holding(self):
        ctrl = make_controller()
        for _ in range(20):
            ctrl.tick(0.25, 0.0, 0.035, 0.035, 0.0, DT)
        assert ctrl.phase is GraspPhase.CONTACT
        assert ctrl.integral == 0.0


class TestContactPhase:
    def test_single_contact_freezes_one_finger_only(self):
        ctrl = make_controller()
        cmd = ctrl.tick(0.25, 0.0, 0.035, 0.035, 0.0, DT)
        assert ctrl.phase is GraspPhase.CONTACT
        assert ctrl.latched == [True, False]
        # The touched finger is pinned where it latched; the free finger
        # stays on the time-based closing ramp and keeps shrinking.
        assert cmd[0] == 0.035
        assert cmd[1] == pytest.approx(0.5 * (0.08 - 0.01 * DT), abs=1e-12)
        later = ctrl.tick(0.25, 0.0, 0.035, cmd[1], 0.0, DT)
        assert later[0] == 0.035
        assert later[1] < cmd[1]

    def test_frozen_command_is_constant_until_holding(self):
        ctrl = make_controller()
        first = ctrl.tick(0.25, 0.0, 0.035, 0.035, 0.0, DT)
        q2 = 0.0349
        for _ in range(30):
            cmd = ctrl.tick(0.25, 0.0, 0.035, q2, 0.0, DT)
            assert cmd[0] == first[0]
            q2 = cmd[1]
        assert ctrl.phase is GraspPhase.CONTACT

    def test_closure_probe_gates_holding(self):
        config = ControllerConfig()
        request = GraspRequest(0.08, 0.05, 3.0)
        ctrl = GraspController(config, request, pair_closes=False)
        ctrl.tick(1.0, 1.0, 0.028, 0.028, 0.0, DT)
        assert ctrl.latched == [True, True]
        assert ctrl.phase is GraspPhase.CONTACT

    @pytest.mark.parametrize("pair_closes", [True, False])
    def test_both_fingers_cross_f_theta_on_the_same_tick(self, pair_closes):
        ctrl = GraspController(ControllerConfig(), GraspRequest(0.08, 0.05, 3.0), pair_closes)
        ctrl.tick(0.2, 0.2, 0.04, 0.04, 0.0, DT)
        assert ctrl.phase is GraspPhase.CLOSING
        q1, q2 = 0.027, 0.031
        cmd = ctrl.tick(0.21, 0.3, q1, q2, 0.0, DT)
        assert ctrl.latched == [True, True]
        assert ctrl.freeze_q == [q1, q2]
        if pair_closes:
            assert ctrl.phase is GraspPhase.HOLDING
            assert ctrl.ref_center == 0.5 * (q2 - q1)
            assert ctrl.integral == 0.0
        else:
            assert ctrl.phase is GraspPhase.CONTACT
            assert ctrl.ref_center is None
            assert cmd == (q1, q2)
            assert ctrl.tick(2.0, 0.0, 0.025, 0.033, 0.0, DT) == (q1, q2)
            assert ctrl.phase is GraspPhase.CONTACT


class TestHoldingPhase:
    def test_entry_resets_integral_and_reference(self):
        ctrl = make_controller()
        enter_holding(ctrl, q=0.028)
        assert ctrl.integral == 0.0
        assert ctrl.ref_center == 0.0

    def test_internal_law_with_zero_integral(self):
        ctrl = make_controller()
        cmd = enter_holding(ctrl)
        # Forces vanish entirely; feed a slightly off position so the
        # integrator stays parked and the pure P term is visible.
        ctrl.tick(0.0, 0.0, cmd[0] + 1e-6, cmd[1], 0.0, DT)
        assert ctrl.last_u_int == pytest.approx(1.9 * (-2.0) / 1000.0, abs=1e-12)

    def test_integral_accumulates_once_commands_are_reached(self):
        ctrl = make_controller()
        cmd = enter_holding(ctrl)
        ctrl.tick(0.5, 0.5, cmd[0], cmd[1], 0.0, DT)
        assert ctrl.integral == pytest.approx(-1.0 * DT, abs=1e-15)

    @pytest.mark.parametrize("f,sign", [(0.0, -1.0), (100.0, 1.0)])
    def test_integral_stops_at_its_bound(self, f, sign):
        # The bound is the integral whose term alone spans the joints' travel.
        ctrl = make_controller()
        cmd = enter_holding(ctrl)
        ctrl.tick(f, f, cmd[0], cmd[1], 0.0, 10.0)
        cfg = ctrl.config
        bound = cfg.ks_int * (cfg.joint_max - cfg.joint_min) / cfg.ki_int
        assert ctrl.integral == pytest.approx(sign * bound, rel=1e-12)

    def test_integral_parked_while_commands_are_in_flight(self):
        ctrl = make_controller()
        cmd = enter_holding(ctrl)
        ctrl.tick(0.5, 0.5, cmd[0] + 1e-4, cmd[1], 0.0, DT)
        assert ctrl.integral == 0.0

    def test_compliance_branch_value_and_reference_update(self):
        ctrl = make_controller()
        cmd = enter_holding(ctrl)
        q1, q2 = cmd[0], cmd[1] + 0.0002
        ctrl.tick(0.5, 1.5, q1, q2, 0.0, DT)
        assert ctrl.last_u_ext == pytest.approx(1.9 * 1.0 / 1000.0, abs=1e-12)
        assert ctrl.ref_center == 0.5 * (q2 - q1)

    def test_deadband_branch_restores_reference_position(self):
        ctrl = make_controller()
        enter_holding(ctrl, q=0.025)
        assert ctrl.ref_center == 0.0
        # Small imbalance, object carried 1 mm toward finger 2.
        ctrl.tick(1.05, 0.95, 0.024, 0.026, 0.0, DT)
        assert ctrl.last_u_ext == pytest.approx(-0.001, abs=1e-12)
        assert ctrl.ref_center == 0.0

    def test_deadband_ablated_complies_with_small_forces(self):
        ctrl = make_controller(deadband_enabled=False)
        cmd = enter_holding(ctrl)
        ctrl.tick(1.05, 0.95, cmd[0], cmd[1], 0.0, DT)
        assert ctrl.last_u_ext == pytest.approx(1.9 * (-0.1) / 1000.0, abs=1e-12)

    def test_compliance_ablated_holds_position_under_large_force(self):
        ctrl = make_controller(compliance_enabled=False)
        cmd = enter_holding(ctrl)
        ctrl.tick(0.0, 2.0, cmd[0], cmd[1], 0.0, DT)
        center = 0.5 * (cmd[1] - cmd[0])
        assert ctrl.last_u_ext == ctrl.ref_center - center

    def test_deadband_stillness_is_bitwise(self):
        ctrl = make_controller()
        cmd = enter_holding(ctrl)
        q1, q2 = cmd
        commands = set()
        for _ in range(50):
            cmd = ctrl.tick(1.0, 1.0, q1, q2, 0.0, DT)
            commands.add(cmd)
            q1, q2 = cmd
        assert commands == {(q1, q2)}

    def test_below_goal_with_no_external_force_closes_both_fingers(self):
        ctrl = make_controller()
        cmd = enter_holding(ctrl)
        out = ctrl.tick(0.4, 0.4, cmd[0], cmd[1], 0.0, DT)
        assert out[0] < cmd[0]
        assert out[1] < cmd[1]

    def test_commands_respect_joint_limits(self):
        ctrl = make_controller(joint_min=0.0, joint_max=0.03)
        cmd = ctrl.tick(0.0, 0.0, 0.029, 0.029, 0.0, DT)
        assert 0.0 <= cmd[0] <= 0.03
        assert 0.0 <= cmd[1] <= 0.03


class TestStopAtGoal:
    def test_finishes_after_the_dwell_window(self):
        ctrl = make_controller(phase3_mode=STOP_AT_GOAL)
        cmd = enter_holding(ctrl)
        q1, q2 = cmd
        ticks = 0
        while not ctrl.finished and ticks < 100:
            cmd = ctrl.tick(1.0, 1.0, q1, q2, 0.0, DT)
            q1, q2 = cmd
            ticks += 1
        assert ctrl.finished
        assert ticks == pytest.approx(ctrl.config.goal_dwell / DT, abs=2)

    def test_dwell_restarts_when_force_leaves_the_band(self):
        ctrl = make_controller(phase3_mode=STOP_AT_GOAL)
        cmd = enter_holding(ctrl)
        q1, q2 = cmd
        for _ in range(20):
            cmd = ctrl.tick(1.0, 1.0, q1, q2, 0.0, DT)
            q1, q2 = cmd
        cmd = ctrl.tick(0.4, 0.4, q1, q2, 0.0, DT)
        assert ctrl._dwell == 0.0
        assert not ctrl.finished

    @pytest.mark.parametrize("f", [0.75, 1.25])
    def test_force_error_of_exactly_the_tolerance_starts_no_dwell(self, f):
        # Strict: |f1 + f2 - f_goal| must be below goal_tolerance.
        ctrl = make_controller(phase3_mode=STOP_AT_GOAL, goal_tolerance=0.5, goal_dwell=0.0)
        q1, q2 = ctrl.tick(f, f, 0.028, 0.028, 0.0, DT)
        assert ctrl.phase is GraspPhase.HOLDING
        assert not ctrl.finished
        ctrl.tick(1.0, 1.0, q1, q2, 0.0, DT)
        assert ctrl.finished

    def test_hold_forever_never_finishes(self):
        ctrl = make_controller(phase3_mode=HOLD_FOREVER)
        cmd = enter_holding(ctrl)
        q1, q2 = cmd
        for _ in range(60):
            cmd = ctrl.tick(1.0, 1.0, q1, q2, 0.0, DT)
            q1, q2 = cmd
        assert not ctrl.finished


class TestTrajectoryController:
    def make(self):
        return TrajectoryController(ControllerConfig(), GraspRequest(0.08, 0.05, 3.0))

    def test_endpoints(self):
        ctrl = self.make()
        assert ctrl.aperture(0.0) == 0.08
        assert ctrl.aperture(3.0) == 0.05
        assert ctrl.aperture(999.0) == 0.05

    def test_midpoint(self):
        assert self.make().aperture(1.5) == pytest.approx(0.065)

    def test_tick_ignores_everything_but_time(self):
        ctrl = self.make()
        cmd = ctrl.tick(5.0, 5.0, 0.001, 0.07, 0.0, 1.5)
        assert cmd[0] == cmd[1] == pytest.approx(0.0325)

    def test_joint_clamp(self):
        config = ControllerConfig(joint_max=0.03)
        ctrl = TrajectoryController(config, GraspRequest(0.08, 0.05, 3.0))
        cmd = ctrl.tick(0.0, 0.0, 0.0, 0.0, 0.0, DT)
        assert cmd[0] == 0.03

    def test_never_faults_on_forces(self):
        ctrl = self.make()
        assert math.isfinite(ctrl.tick(float("nan"), float("inf"), 0.0, 0.0, 0.0, 0.5)[0])
