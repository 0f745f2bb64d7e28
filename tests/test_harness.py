"""Trial execution, metrics, CSV output, and experiment plumbing."""

import dataclasses
import logging
import math
import re
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from graspforce import harness
from graspforce.closure import Contact, is_force_closure
from graspforce.harness import (
    CSV_HEADER,
    EXPERIMENT_A_OFFSETS,
    EXPERIMENT_A_REPS,
    EXPERIMENT_B_VARIANTS,
    TimeSeriesRow,
    TrialMetrics,
    TrialResult,
    _experiment_b_spec,
    _finish_trial,
    _trial_seed,
    run_experiment_a,
    run_experiment_b,
    run_trial,
    write_csv,
)
from graspforce.controller import (
    ControllerConfig, GraspController, TrajectoryController, compute_external_force,
)
from graspforce.plant import Plant, Push
from graspforce.scenarios import OBJECTS, ScenarioSpec, parse_overrides, resolve
from graspforce.sensor import CalibratedSensor

QUIET = {"sensors": {"noise_sigma": 0.0}}
REFUSED = {"exp-a": harness._EXPERIMENT_A_FIXED, "exp-b": harness._EXPERIMENT_B_FIXED}


def quiet_spec(**kw) -> ScenarioSpec:
    data = {"object": "tape_roll", **QUIET}
    data.update(kw)
    return ScenarioSpec.from_dict(data)


class TestFacePairMemo:
    """One verdict per (width, mu, mu_tau) key serves every trial with that key."""

    # Friction pairs that compare and hash equal, so share one memo key.
    SHARED_KEYS = [
        ((0.0, 0.005), (-0.0, 0.005)),
        ((0.5, 0.0), (0.5, -0.0)),
        ((0.0, 0.0), (-0.0, -0.0)),
        ((1, 0.005), (1.0, 0.005)),
        ((0.5, 1), (0.5, 1.0)),
        ((10, 1), (10.0, 1.0)),
    ]

    @pytest.mark.parametrize("width", sorted(o.width for o in OBJECTS.values()))
    @pytest.mark.parametrize("first, second", SHARED_KEYS)
    @pytest.mark.parametrize("second_first", [False, True])
    def test_a_shared_key_gives_each_friction_its_own_verdict(self, width, first, second,
                                                              second_first):
        assert hash(first) == hash(second) and first == second
        harness._face_pair_closes.cache_clear()
        for mu, mu_tau in (second, first) if second_first else (first, second):
            verdict = harness._face_pair_closes(width, mu, mu_tau)
            assert type(verdict) is bool
            assert verdict is harness._face_pair_closes.__wrapped__(width, mu, mu_tau)
            # Without friction, or without torsional friction, nothing resists a
            # twist or a sideways push.
            assert verdict is (mu > 0.0 and mu_tau > 0.0)
        assert harness._face_pair_closes.cache_info().misses == 1


def frozen_rows(spec: ScenarioSpec, commands: list | None = None) -> list[TimeSeriesRow]:
    """run_trial's loop as both controllers ran it live before trials replayed a recorded
    plant: sensors, controller and plant stepped together, tick by tick. Each stepped
    command is appended to commands, when given."""
    resolved = resolve(spec)
    samples = spec.sensors.calibration_samples
    sensors = tuple(CalibratedSensor(model, samples) for model in resolved.sensor_models)
    plant = Plant(resolved.obj, start_aperture=resolved.request.start_aperture,
                  offset=spec.offset, pushes=spec.pushes, wrist=spec.wrist, config=spec.plant,
                  period=resolved.period)
    if spec.controller == "force":
        half = 0.5 * resolved.obj.width
        pair = [Contact.from_normal((-half, 0.0, 0.0), (1.0, 0.0, 0.0), spec.mu, spec.mu_tau),
                Contact.from_normal((half, 0.0, 0.0), (-1.0, 0.0, 0.0), spec.mu, spec.mu_tau)]
        controller = GraspController(resolved.control, resolved.request,
                                     pair_closes=is_force_closure(pair).is_force_closure)
    else:
        controller = TrajectoryController(resolved.control, resolved.request)
    dt = resolved.period
    rows = []
    isfinite = math.isfinite
    for k in range(resolved.ticks):
        t = k * dt
        f1 = sensors[0].read(plant.load_f1)
        f2 = sensors[1].read(plant.load_f2)
        g_dot_n = plant.g_dot_n
        if not (isfinite(f1) and isfinite(f2)):
            raise RuntimeError(f"non-finite measurement at t={t:.3f} s")
        q1, q2 = plant.q1, plant.q2
        cmd = controller.tick(f1, f2, q1, q2, g_dot_n)
        rows.append(TimeSeriesRow(t, q1, q2, f1, f2, f1 + f2, controller.last_f_ext, plant.x_obj,
                                  controller.phase, controller.last_u_int, controller.last_u_ext))
        if commands is not None:
            commands.append(cmd)
        plant.step(cmd)
        if not (
            isfinite(plant.x_obj) and isfinite(plant.q1) and isfinite(plant.q2)
            and isfinite(plant.true_f1) and isfinite(plant.true_f2)
        ):
            raise RuntimeError(f"non-finite plant state at t={t:.3f} s")
        if controller.finished:
            break
    return rows


def frozen_fault(spec: ScenarioSpec) -> str:
    with pytest.raises(RuntimeError) as fault:
        frozen_rows(spec)
    return str(fault.value)


def shared_prefix(commands: list, taped: list) -> int:
    """How many leading commands have the taped commands' bits (repr tells -0.0 from 0.0)."""
    n = 0
    for cmd, recorded in zip(commands, taped):
        if repr(cmd) != repr(recorded):
            break
        n += 1
    return n


def assert_same_rows(found: list, expected: list) -> None:
    """found has expected's rows, bit for bit (repr tells -0.0 from 0.0). A failure reports
    the lengths or the first rows that differ, so pytest never diffs two whole series."""
    assert len(found) == len(expected)
    for k, (row, want) in enumerate(zip(found, expected)):
        if repr(row) != repr(want):
            assert repr(row) == repr(want), f"row {k} differs"


def assert_same_trial(found, expected) -> None:
    """Two TrialResults with the same spec, metrics and rows, compared as assert_same_rows."""
    assert repr(found.metrics()) == repr(expected.metrics())
    assert_same_rows(found.series, expected.series)


@pytest.fixture
def steps(monkeypatch) -> list:
    """The commands of every Plant.step call from here on."""
    step, stepped = harness.Plant.step, []

    def counting(plant, command):
        stepped.append(command)
        return step(plant, command)

    monkeypatch.setattr(harness.Plant, "step", counting)
    return stepped


FINGER_PUSHES = ({"target": "finger1", "force": 1.0, "t_start": 0.5, "t_end": 1.5},
                 {"target": "finger2", "force": 0.5, "t_start": 1.0, "t_end": 2.0})
OBJECT_PUSH = {"target": "object", "force": 0.3, "t_start": 0.5, "t_end": 1.5}
WRIST = {"t_start": 0.5, "t_end": 2.5, "angle_end": 1.5}
SPECK = {"name": "speck", "mass": 1e-5, "width": 0.05, "stiffness": 20000.0}
OVERFLOWING_PUSH = {"pushes": [{"target": "finger1", "force": 10.0, "t_start": 0.5, "t_end": 1.0}],
                    "sensors": {"noise_sigma": 0.0, "gamma1": 2.3e-308}}


class TestTapeReplay:
    """A trial with a tape for its plant inputs replays it while its commands have the
    tape's bits, goes live at the first that does not, and gives the live loop's bits."""

    CASES = {
        "noise": {"sensors": {"noise_sigma": None}},
        "quiet": QUIET,
        "wrist": {"wrist": WRIST},
        "object_push": {"pushes": [OBJECT_PUSH]},
        "finger_pushes": {"pushes": FINGER_PUSHES},
        "pushes_and_sweep": {"pushes": [*FINGER_PUSHES, OBJECT_PUSH], "wrist": WRIST},
    }

    @staticmethod
    def spec(seed=5, controller="trajectory", **kw) -> ScenarioSpec:
        return ScenarioSpec.from_dict({"object": "tape_roll", "offset": 0.006,
                                       "controller": controller, "duration": 3.0,
                                       "seed": seed, **kw})

    @pytest.mark.parametrize("controller", ["force", "trajectory"])
    @pytest.mark.parametrize("case", CASES)
    def test_a_miss_then_replays_match_the_live_loop(self, steps, case, controller):
        # The first trial records the tape; a repeat and another seed's trial replay it,
        # each stepping the plant from its first command without the taped bits.
        tapes, taped = {}, []
        for i, seed in enumerate((5, 5, 6)):
            spec = self.spec(seed, controller, **self.CASES[case])
            commands = []
            rows = frozen_rows(spec, commands)
            taped = taped or commands
            steps.clear()
            result = run_trial(spec, tapes)
            assert len(steps) == len(rows) - (shared_prefix(commands, taped) if i else 0)
            assert_same_rows(result.series, rows)
            assert_same_trial(result, run_trial(spec))
        assert list(tapes) == [controller]

    def test_a_replay_goes_live_at_its_first_other_command(self, steps):
        # Another seed's noise moves the force controller's commands off the tape mid-run.
        tapes, taped, commands = {}, [], []
        first, other = self.spec(5, "force"), self.spec(6, "force")
        frozen_rows(first, taped)
        rows = frozen_rows(other, commands)
        run_trial(first, tapes)
        steps.clear()
        result = run_trial(other, tapes)
        k = shared_prefix(commands, taped)
        assert 0 < k < min(len(taped), len(commands))
        assert_same_rows(result.series, rows)
        assert steps == commands[k:]

    def test_a_replay_goes_live_past_the_tapes_end(self, steps):
        # The control config is not a plant input: a trial that stops at its goal records a
        # tape that a trial holding on replays to its end, then runs on live from its end state.
        tapes, taped, commands = {}, [], []
        stops = self.spec(5, "force", duration=5.0, control={"phase3_mode": "stop_at_goal"},
                          **QUIET)
        holds = self.spec(5, "force", duration=5.0, **QUIET)
        frozen_rows(stops, taped)
        rows = frozen_rows(holds, commands)
        run_trial(stops, tapes)
        steps.clear()
        result = run_trial(holds, tapes)
        assert shared_prefix(commands, taped) == len(taped) < len(commands) == resolve(holds).ticks
        assert_same_rows(result.series, rows)
        assert steps == commands[len(taped):]

    @pytest.mark.parametrize("controller", ["force", "trajectory"])
    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_offsets_do_not_share_a_tape(self, steps, tmp_path, controller, first,
                                                     second):
        def spec(offset):
            return quiet_spec(controller=controller, offset=offset, duration=1.0)

        tapes = {}
        for offset in (first, second):
            steps.clear()
            result = run_trial(spec(offset), tapes)
            assert len(steps) == len(result.series)
            assert_same_trial(result, run_trial(spec(offset)))
            path = write_csv(result.series, tmp_path / "series.csv")
            x_obj = path.read_text().splitlines()[1].split(",")[7]
            assert x_obj == ("-0" if math.copysign(1.0, offset) < 0.0 else "0")

    @pytest.mark.parametrize("finger", [0, 1])
    def test_a_negative_zero_command_goes_live(self, steps, monkeypatch, finger):
        # With an end aperture of 0 the baseline ends on (0.0, 0.0) commands. A finger command
        # of -0.0 equals the tape's 0.0 but leaves that finger at -0.0, so the replay goes live.
        spec = quiet_spec(controller="trajectory", end_aperture=0.0)
        tapes, taped, commands = {}, [], []
        frozen_rows(spec, taped)
        run_trial(spec, tapes)
        tick = TrajectoryController.tick

        def signed(self, *reads):
            cmd = list(tick(self, *reads))
            cmd[finger] = cmd[finger] or -0.0
            return tuple(cmd)

        monkeypatch.setattr(TrajectoryController, "tick", signed)
        rows = frozen_rows(spec, commands)
        k = commands.index((0.0, 0.0))
        assert commands[:k] == taped[:k] and repr(commands[k][finger]) == "-0.0"
        steps.clear()
        result = run_trial(spec, tapes)
        assert_same_rows(result.series, rows)
        assert len(steps) == len(rows) - k
        assert repr(result.series[k + 1][1 + finger]) == "-0.0"

    def test_a_nan_command_matches_nothing(self, steps, monkeypatch):
        # Two trials that command the one NaN object at a tick both fault there. A NaN command
        # leaves a NaN finger, so the tape ends before it and the replay steps that tick live.
        spec = quiet_spec(controller="trajectory")
        tick = TrajectoryController.tick

        def failing(self, *reads):
            cmd = tick(self, *reads)
            return (math.nan, math.nan) if self.ticks == 20 else cmd

        monkeypatch.setattr(TrajectoryController, "tick", failing)
        message = frozen_fault(spec)
        assert message == "non-finite plant state at t=0.190 s"
        tapes = {}
        for stepped in (20, 1):
            steps.clear()
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                run_trial(spec, tapes)
            assert len(steps) == stepped

    @pytest.mark.parametrize("controller", ["force", "trajectory"])
    @pytest.mark.parametrize("kw, message", [
        (OVERFLOWING_PUSH, r"non-finite measurement at t=0\.510 s"),
        ({"object": SPECK, "offset": 0.003, **QUIET}, r"non-finite plant state at t=1\.190 s"),
        # The tape records the speck's plant fault at 1.19 s; the measurement at 0.51 s comes first.
        ({"object": SPECK, "offset": 0.003, **OVERFLOWING_PUSH},
         r"non-finite measurement at t=0\.510 s"),
    ], ids=["measurement", "plant_state", "measurement_first"])
    def test_faults_repeat_on_a_replay(self, steps, controller, kw, message):
        spec = quiet_spec(controller=controller, **kw)
        commands = []
        with pytest.raises(RuntimeError) as fault:
            frozen_rows(spec, commands)
        assert re.fullmatch(message, str(fault.value))
        tapes = {}
        for _ in range(2):
            steps.clear()
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                run_trial(spec, tapes)
        # The tape ends before the fault, and the replay runs live from there: a measurement
        # fault comes before its tick's step, and a plant fault steps its tick's command once.
        assert steps == ([commands[-1]] if "plant state" in message else [])

    def test_each_exp_a_call_records_its_own_tapes(self, steps):
        # Per controller kind, a cell's first trial records and its other repetitions replay
        # that tape, stepping from their first other command. A second call steps as much
        # as the first, so no tape outlives its call.
        per_call = []
        for _ in range(2):
            steps.clear()
            result = run_experiment_a(objects=("tape_roll",), offsets=(0.005, 0.008), reps=3)
            per_call.append(len(steps))
        steps.clear()
        expected, tapes = 0, {}
        for trial in result.trials:
            commands = []
            frozen_rows(trial.spec, commands)
            key = (trial.spec.controller, trial.spec.offset)
            taped = tapes.setdefault(key, commands)
            expected += len(commands) - (shared_prefix(commands, taped) if taped is not commands
                                         else 0)
        assert per_call == [expected] * 2
        assert expected < len(steps)


class TestExperimentsReplayInvisibly:
    """Every trial an experiment runs, replayed or not, gives the bits it gives alone."""

    @pytest.mark.parametrize("overrides", [None, QUIET], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize("experiment, trials", [(run_experiment_a, 90), (run_experiment_b, 8)],
                             ids=["exp-a", "exp-b"])
    def test_each_trial_equals_its_run_alone(self, monkeypatch, experiment, trials, overrides):
        # Base seed 11: the acceptance tests pin seed 0. The experiment calls the module's
        # run_trial once per trial, so wrapping it sees every trial's full series.
        run, results = harness.run_trial, []

        def keeping(spec, tapes=None):
            results.append(run(spec, tapes))
            return results[-1]

        monkeypatch.setattr(harness, "run_trial", keeping)
        experiment(base_seed=11, overrides=overrides)
        monkeypatch.undo()
        assert len(results) == trials
        for result in results:
            assert_same_trial(result, run_trial(result.spec))


@st.composite
def level_specs(draw) -> dict:
    """Scenario dicts without a wrist sweep: any catalog object, offset, seed, pushes
    (at most one per target, so none overlap), noise and controller."""
    pushes = []
    for target in draw(st.lists(st.sampled_from(["finger1", "finger2", "object"]), unique=True)):
        t_start = draw(st.floats(0.1, 2.5))
        pushes.append({"target": target, "force": draw(st.floats(-1.5, 1.5)), "t_start": t_start,
                       "t_end": t_start + draw(st.floats(0.05, 1.5)),
                       "ramp": draw(st.sampled_from([0.0, 0.01, 0.1]))})
    return {"object": draw(st.sampled_from(sorted(OBJECTS))),
            "offset": draw(st.sampled_from([0.0, -0.0]) | st.floats(-0.015, 0.015)),
            "seed": draw(st.integers(0, 2**32 - 1)), "pushes": pushes,
            "controller": draw(st.sampled_from(["force", "trajectory"])),
            "sensors": {"noise_sigma": draw(st.sampled_from([None, 0.0]))}}


class TestAblationProperties:
    """Why two of exp-b's eight runs repeat its baseline bit for bit."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(level_specs())
    def test_gravity_comp_changes_no_bit_without_a_wrist_sweep(self, data):
        # A level wrist gives g_dot_n = -0.0, so the compensation term is -0.0 on and 0.0
        # off; adding either to f1 - f2 differs only if f1 - f2 is -0.0, which a measured
        # force with finger pushes added onto the int 0 does not reach.
        rows = [run_trial(ScenarioSpec.from_dict({**data, "control": {
            "gravity_comp_enabled": enabled}})).series for enabled in (True, False)]
        assert_same_rows(rows[0], rows[1])

    @settings(derandomize=True, max_examples=16, deadline=None)
    @given(st.integers(0, 2**31))
    @example(0)
    @example(7)
    def test_rotation_never_leaves_the_deadband(self, base_seed):
        # The compensated external-force estimate stays below f_phi throughout holding,
        # so compliance never acts, and exp-b's no_compliance run is its baseline.
        spec = _experiment_b_spec("rotation", "none", base_seed, None)
        f_phi = resolve(spec).control.f_phi
        holding = [r for r in run_trial(spec).series if r.phase == "holding"]
        peak = max(abs(r.f_ext) for r in holding)
        assert holding and peak < f_phi, (
            f"base seed {base_seed}: max |f_ext| {peak!r} N during holding reaches f_phi {f_phi} N")


class TestRunTrial:
    def test_zero_offset_is_symmetric(self):
        for controller in ("force", "trajectory"):
            result = run_trial(quiet_spec(controller=controller, offset=0.0))
            assert result.displacement_truth < 1e-6

    def test_trajectory_controller_displaces_an_offset_object(self):
        result = run_trial(quiet_spec(controller="trajectory", offset=0.008,
                                      object="wooden_cuboid"))
        assert result.displacement_truth > 0.002

    def test_force_controller_beats_trajectory(self):
        fc = run_trial(quiet_spec(controller="force", offset=0.008, object="wooden_cuboid"))
        jtc = run_trial(quiet_spec(controller="trajectory", offset=0.008,
                                   object="wooden_cuboid"))
        assert fc.displacement_truth < jtc.displacement_truth

    def test_proxy_at_zero_offset_reads_finger_two(self):
        # Neither finger is nearer; the proxy takes finger 2, as for a positive offset.
        result = run_trial(ScenarioSpec(offset=0.0))
        last = result.series[-1]
        assert abs(last.q1 - last.q2) > 1e-4
        width = resolve(result.spec).obj.width
        assert result.displacement_proxy == pytest.approx(0.5 * width - last.q2, rel=1e-12)

    def test_proxy_tracks_but_overestimates_truth(self):
        result = run_trial(quiet_spec(controller="force", offset=0.008))
        assert result.displacement_proxy >= result.displacement_truth
        # The overestimate is the final pad penetration, about f/k.
        assert result.displacement_proxy - result.displacement_truth < 0.008

    def test_force_trial_settles_at_goal(self):
        result = run_trial(quiet_spec(offset=0.005))
        assert result.settle_time is not None
        assert result.series[-1].f_int == pytest.approx(2.0, abs=0.1)
        assert result.series[-1].phase == "holding"

    def test_identical_specs_reproduce_bitwise(self):
        spec = {"object": "tape_roll", "offset": 0.008, "seed": 5}
        a = run_trial(ScenarioSpec.from_dict(spec))
        b = run_trial(ScenarioSpec.from_dict(spec))
        assert a.displacement_truth == b.displacement_truth
        assert a.max_total_force == b.max_total_force
        assert [(r.t, r.q1, r.f1, r.x_obj) for r in a.series] == [
            (r.t, r.q1, r.f1, r.x_obj) for r in b.series
        ]

    def test_different_seeds_differ(self):
        a = run_trial(ScenarioSpec.from_dict({"object": "tape_roll", "seed": 1}))
        b = run_trial(ScenarioSpec.from_dict({"object": "tape_roll", "seed": 2}))
        assert [r.f1 for r in a.series] != [r.f1 for r in b.series]

    def test_stop_at_goal_ends_early(self):
        spec = quiet_spec(offset=0.0, control={"phase3_mode": "stop_at_goal"})
        result = run_trial(spec)
        assert result.finished
        assert result.series[-1].t < 3.0

    def test_overflowing_config_raises_runtime_fault(self):
        # A gamma inside its bounds passes the spec boundary, but the raw
        # signal of a 10 N push overflows and the calibrated reading is not
        # finite. The check is the harness's, so the force-blind baseline faults too.
        push = [{"target": "finger1", "force": 10.0, "t_start": 0.5, "t_end": 1.0}]
        for controller in ("force", "trajectory"):
            spec = quiet_spec(controller=controller, pushes=push,
                              sensors={"noise_sigma": 0.0, "gamma1": 2.3e-308})
            with pytest.raises(RuntimeError, match=r"non-finite measurement at t=0\.510 s"):
                run_trial(spec)

    def test_frictionless_pair_never_holds(self):
        # Two face contacts without tangential friction cannot resist a
        # sideways force, so the certifier keeps the controller out of
        # holding for the whole trial.
        result = run_trial(quiet_spec(offset=0.0, mu=0.0))
        assert {r.phase for r in result.series} == {"closing", "contact"}
        assert result.series[-1].phase == "contact"

    def test_frictionless_pair_never_holds_after_a_closing_pair_is_cached(self):
        harness._face_pair_closes.cache_clear()
        assert run_trial(quiet_spec(offset=0.0)).series[-1].phase == "holding"
        self.test_frictionless_pair_never_holds()

    def test_closure_is_certified_once_per_force_trial(self, monkeypatch):
        # The memo outlives a trial; cleared, earlier tests' pairs do not count.
        harness._face_pair_closes.cache_clear()
        calls = []

        def counting(contacts, *args, **kwargs):
            calls.append(len(contacts))
            return is_force_closure(contacts, *args, **kwargs)

        monkeypatch.setattr(harness, "is_force_closure", counting)
        spec = quiet_spec(controller="force", offset=0.005)
        run_trial(spec)
        assert calls == [2]
        run_trial(spec)
        assert calls == [2]
        run_trial(quiet_spec(controller="trajectory", offset=0.005))
        assert calls == [2]
        run_trial(quiet_spec(controller="force", offset=0.005, mu=0.7))
        assert calls == [2, 2]

    def test_non_finite_plant_state_raises_runtime_fault(self):
        # A 10 mg object of 20 kN/m passes the spec boundary, but the plant's
        # explicit spring update goes unstable on it, and the object's position to NaN.
        speck = {"name": "speck", "mass": 1e-5, "width": 0.05, "stiffness": 20000.0}
        spec = quiet_spec(object=speck, offset=0.003)
        with pytest.raises(RuntimeError, match=r"non-finite plant state at t=1\.190 s"):
            run_trial(spec)

    @pytest.mark.parametrize("samples", [0, 1.5, True, "x", 10**6 + 1])
    def test_bad_calibration_sample_count_rejected_by_spec(self, samples):
        with pytest.raises(ValueError, match="calibration_samples"):
            quiet_spec(sensors={"noise_sigma": 0.0, "calibration_samples": samples})

    def test_bad_calibration_sample_count_is_config_error(self):
        # A validated spec is frozen: the count cannot be set after the check.
        spec = quiet_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sensors.calibration_samples = 0
        assert spec.sensors.calibration_samples == 1000

    def test_oversized_calibration_sample_count_is_config_error(self):
        # Nor a count over the cap (10**9 samples would take about 49 GB).
        spec = quiet_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sensors.calibration_samples = 10**9
        assert spec.sensors.calibration_samples == 1000

    def test_series_rate_is_the_control_rate(self):
        result = run_trial(quiet_spec(offset=0.0))
        dt = result.series[1].t - result.series[0].t
        assert dt == pytest.approx(0.01, rel=1e-9)

    def test_value_at_picks_nearest_row(self):
        result = run_trial(quiet_spec(offset=0.0))
        row = result.value_at(1.0)
        assert row.t == pytest.approx(1.0, abs=0.011)

    def test_value_at_on_a_one_tick_trial_returns_that_row(self):
        result = run_trial(quiet_spec(duration=0.005))
        assert len(result.series) == 1
        assert result.value_at(0.0) is result.value_at(3.0) is result.series[0]

    @pytest.mark.parametrize("wrist", [None, {"t_start": 1.0, "t_end": 3.0}],
                             ids=["level", "sweep"])
    @pytest.mark.parametrize("gravity_comp", [True, False], ids=["comp", "no_comp"])
    @pytest.mark.parametrize("controller", ["force", "trajectory"])
    def test_f_ext_is_the_controllers_estimate(self, monkeypatch, controller, gravity_comp, wrist):
        # Each tick's gravity projection is recorded as the controller receives it.
        kind = GraspController if controller == "force" else TrajectoryController
        tick, seen = kind.tick, []

        def recording(self, f1, f2, q1, q2, g_dot_n):
            seen.append(g_dot_n)
            return tick(self, f1, f2, q1, q2, g_dot_n)

        monkeypatch.setattr(kind, "tick", recording)
        spec = quiet_spec(offset=0.005, controller=controller, wrist=wrist,
                          control={"gravity_comp_enabled": gravity_comp})
        rows = run_trial(spec).series
        assert controller == "trajectory" or rows[-1].phase == "holding"
        assert len(seen) == len(rows) and (wrist is None) == (set(seen) == {-0.0})
        mass = resolve(spec).control.mass
        assert [r.f_ext for r in rows] == [
            compute_external_force(r.f1, r.f2, mass, g, gravity_comp) for r, g in zip(rows, seen)
        ]

    @pytest.mark.parametrize("controller", ["force", "trajectory"])
    def test_each_trial_resolves_its_spec_once(self, monkeypatch, controller):
        calls = []

        def counting(spec):
            calls.append(spec)
            return resolve(spec)

        monkeypatch.setattr(harness, "resolve", counting)
        spec = quiet_spec(controller=controller, duration=0.5)
        run_trial(spec)
        assert calls == [spec]

    def test_settle_time_when_every_holding_row_is_inside_the_band(self):
        # The goal band holds from the first holding row on, so that row's t is the settle time.
        spec = ScenarioSpec()
        cfg = resolve(spec).control
        phases = [("contact", 0.5)] + [("holding", cfg.f_goal)] * 3
        rows = [TimeSeriesRow(0.01 * k, 0.03, 0.03, 1.0, 1.0, f_int, 0.0, 0.0, phase, 0.0, 0.0)
                for k, (phase, f_int) in enumerate(phases)]
        result = _finish_trial(spec, cfg, 0.06, rows, False)
        assert result.settle_time == rows[1].t == 0.01


def frozen_finish_trial(spec, cfg, obj_width, rows, finished) -> TrialResult:
    """_finish_trial as it was before it read the rows by column: every metric from the rows'
    attributes, the holding rows found by filtering on the phase."""
    x0 = rows[0].x_obj
    x_end = rows[-1].x_obj
    near_q_end = rows[-1].q2 if spec.offset >= 0.0 else rows[-1].q1
    proxy = 0.5 * obj_width + abs(spec.offset) - near_q_end
    holding = [r for r in rows if r.phase == "holding"]

    band = 0.05 * cfg.f_goal
    settle_time = None
    if holding:
        inside = [abs(r.f_int - cfg.f_goal) <= band for r in holding]
        if inside and inside[-1]:
            idx = len(inside)
            while idx > 0 and inside[idx - 1]:
                idx -= 1
            settle_time = holding[idx].t
    overshoot = max((r.f_int - cfg.f_goal for r in holding), default=0.0)

    return TrialResult(
        spec=spec,
        displacement_truth=abs(x_end - x0),
        displacement_proxy=proxy,
        max_total_force=max(r.f_int for r in rows),
        settle_time=settle_time,
        overshoot=max(overshoot, 0.0),
        finished=finished,
        series=rows,
    )


def metric_reprs(result: TrialResult) -> dict[str, str]:
    return {f.name: repr(getattr(result, f.name)) for f in dataclasses.fields(TrialMetrics)}


class TestColumnarMetrics:
    """_finish_trial reads the rows by column and gives the frozen attribute scan's bits."""

    @pytest.mark.parametrize("base_seed, overrides", [(0, None), (7, None), (0, QUIET)],
                             ids=["seed0", "seed7", "noiseless"])
    def test_every_exp_a_trial_matches_the_attribute_scan(self, monkeypatch, base_seed,
                                                           overrides):
        finish, calls = harness._finish_trial, []

        def keeping(*args):
            calls.append((args, finish(*args)))
            return calls[-1][1]

        monkeypatch.setattr(harness, "_finish_trial", keeping)
        run_experiment_a(base_seed=base_seed, overrides=overrides)
        assert len(calls) == 90
        settled = 0
        for args, result in calls:
            assert metric_reprs(result) == metric_reprs(frozen_finish_trial(*args))
            # Neither controller leaves holding, so the holding rows end the series.
            phases = [r.phase for r in args[3]]
            start = phases.index("holding") if "holding" in phases else len(phases)
            assert set(phases[start:]) <= {"holding"} and "holding" not in phases[:start]
            settled += result.settle_time is not None
        assert 0 < settled < len(calls)

    # f_goal 2.5 puts the goal band at exactly 0.125 N: 2.625 - 2.5 and 2.5 - 2.375 are exact.
    EDGE = 2.625
    PAST_EDGE = math.nextafter(2.625, math.inf)
    CASES = {
        "no_holding_row": ([("closing", 0.0), ("contact", 1.0), ("contact", 2.7)], None, 0.0),
        "holding_from_row_0": ([("holding", 2.4), ("holding", 2.6), ("holding", 2.5)], 0, 0.1),
        "band_entered_on_the_last_row": (
            [("contact", 1.0), ("holding", 3.0), ("holding", 2.7), ("holding", 2.55)], 3, 0.5),
        "band_left_on_the_last_row": (
            [("contact", 1.0), ("holding", 2.5), ("holding", 2.6), ("holding", 2.7)], None, 0.2),
        "on_the_band_edge": (
            [("contact", 1.0), ("holding", 3.0), ("holding", EDGE), ("holding", 2.375)], 2, 0.5),
        "past_the_band_edge": (
            [("contact", 1.0), ("holding", 2.5), ("holding", PAST_EDGE)], None, PAST_EDGE - 2.5),
        "inside_the_band_before_holding": (
            [("contact", 2.5), ("holding", 2.5), ("holding", 2.45)], 1, 0.0),
        "below_the_goal_throughout": (
            [("closing", 0.0), ("holding", 2.4), ("holding", 2.45)], 1, 0.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_hand_built_series(self, case):
        phases, settled_row, overshoot = self.CASES[case]
        spec = ScenarioSpec()
        cfg = dataclasses.replace(resolve(spec).control, f_goal=2.5)
        assert abs(self.EDGE - cfg.f_goal) == 0.05 * cfg.f_goal == abs(2.375 - cfg.f_goal)
        rows = [TimeSeriesRow(0.01 * k, 0.03, 0.03, 0.5 * f_int, 0.5 * f_int, f_int, 0.0, 0.0,
                              phase, 0.0, 0.0) for k, (phase, f_int) in enumerate(phases)]
        result = _finish_trial(spec, cfg, 0.06, rows, False)
        assert metric_reprs(result) == metric_reprs(frozen_finish_trial(spec, cfg, 0.06, rows,
                                                                        False))
        assert result.settle_time == (None if settled_row is None else rows[settled_row].t)
        assert result.overshoot == pytest.approx(overshoot, abs=1e-12)
        assert result.max_total_force == max(f for _, f in phases)
        assert result.series is rows


def frozen_window_rows(result, t0: float, t1: float) -> list[TimeSeriesRow]:
    """exp-b's metric window as it was before bisection: a scan of every row."""
    return [r for r in result.series if t0 <= r.t <= t1]


def frozen_experiment_b_metrics(scenario: str, result: TrialResult) -> tuple:
    """An exp-b run's metrics from scans of the whole series, as run_experiment_b read them
    before it bisected: (settled max, drift rate, drift total, peak drift)."""
    post_rate = post_total = peak = None
    if scenario == "push":
        settled_windows = harness._PUSH_SETTLED_WINDOWS
        rate_rows = frozen_window_rows(result, *harness._POST_RATE_WINDOW)
        total_rows = frozen_window_rows(result, *harness._POST_TOTAL_WINDOW)
        post_rate = (rate_rows[-1].x_obj - rate_rows[0].x_obj) / (
            rate_rows[-1].t - rate_rows[0].t
        )
        post_total = abs(total_rows[-1].x_obj - total_rows[0].x_obj)
    else:
        sweep = harness.ROTATION_SWEEP
        settled_windows = ((sweep.t_start + 1.0, sweep.t_end),)
        ref = result.value_at(sweep.t_start).x_obj
        peak = max(abs(r.x_obj - ref) for r in result.series if r.t >= sweep.t_start)
    settled = max(r.f_int for t0, t1 in settled_windows
                  for r in frozen_window_rows(result, t0, t1))
    return settled, post_rate, post_total, peak


class TestMetricWindows:
    """exp-b finds its metric windows by bisection and gives the full scans' bits."""

    @pytest.mark.parametrize("base_seed, overrides", [(0, None), (7, None), (13, None),
                                                      (0, QUIET), (11, QUIET)],
                             ids=["seed0", "seed7", "seed13", "noiseless0", "noiseless11"])
    def test_every_run_matches_the_frozen_scans(self, base_seed, overrides):
        runs = run_experiment_b(base_seed=base_seed, overrides=overrides)
        assert len(runs) == 8
        for (scenario, variant), run in runs.items():
            found = (run.settled_max_total_force, run.post_drift_rate, run.post_drift_total,
                     run.peak_object_drift)
            assert repr(found) == repr(frozen_experiment_b_metrics(scenario, run.result)), (
                scenario, variant)

    @staticmethod
    def series(times):
        return types.SimpleNamespace(series=[
            TimeSeriesRow(t, 0.03, 0.03, 1.0, 1.0, 2.0, 0.0, 0.001 * k, "holding", 0.0, 0.0)
            for k, t in enumerate(times)])

    # Rows at 0.25 s spacing, each time exact in binary.
    TIMES = [0.25 * k for k in range(9)]
    WINDOWS = {
        "both_edges_on_rows": ((0.5, 1.5), [0.5, 0.75, 1.0, 1.25, 1.5]),
        "one_row": ((1.0, 1.0), [1.0]),
        "edges_between_rows": ((0.6, 1.4), [0.75, 1.0, 1.25]),
        "between_two_rows": ((0.6, 0.7), []),
        "first_row": ((0.0, 0.0), [0.0]),
        "last_row": ((2.0, 2.0), [2.0]),
        "past_both_ends": ((-1.0, 9.0), TIMES),
    }

    @pytest.mark.parametrize("case", WINDOWS)
    def test_hand_built_windows_are_inclusive(self, case):
        (t0, t1), times = self.WINDOWS[case]
        result = self.series(self.TIMES)
        rows = harness._window_rows(result, t0, t1)
        assert [r.t for r in rows] == times
        assert rows == frozen_window_rows(result, t0, t1)


def exp_b_files(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture
def formatted(monkeypatch) -> list:
    """The file name of every write_csv call from here on."""
    write, names = harness.write_csv, []

    def keeping(rows, path):
        names.append(path.name)
        return write(rows, path)

    monkeypatch.setattr(harness, "write_csv", keeping)
    return names


class TestCopiedSeries:
    """exp-b formats each distinct series once and copies it for a run with the same bits."""

    TWINS = {"exp_b_push_no_gravity_comp.csv": "exp_b_push_none.csv",
             "exp_b_rotation_no_compliance.csv": "exp_b_rotation_none.csv"}
    FLOAT_COLUMNS = [name for name in TimeSeriesRow._fields if name != "phase"]

    @pytest.mark.parametrize("overrides", [None, QUIET], ids=["noisy", "noiseless"])
    def test_each_copy_is_logged_once(self, tmp_path, caplog, formatted, overrides):
        caplog.set_level(logging.INFO, logger="graspforce")
        run_experiment_b(out_dir=tmp_path, base_seed=0, overrides=overrides)
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("graspforce", "INFO",
             "exp-b: push/no_gravity_comp has push/none's series, bit for bit"),
            ("graspforce", "INFO",
             "exp-b: rotation/no_compliance has rotation/none's series, bit for bit"),
        ]
        assert len(formatted) == 6 and not set(formatted) & set(self.TWINS)
        files = exp_b_files(tmp_path)
        assert len(files) == 9
        assert all(files[twin] == files[first] for twin, first in self.TWINS.items())

    @pytest.mark.parametrize("base_seed", [0, 7])
    def test_a_copy_has_the_bytes_formatting_writes(self, tmp_path, monkeypatch, base_seed):
        run_experiment_b(out_dir=tmp_path / "copied", base_seed=base_seed)
        monkeypatch.setattr(harness, "_same_series", lambda a, b: False)
        run_experiment_b(out_dir=tmp_path / "formatted", base_seed=base_seed)
        copied, formatted = exp_b_files(tmp_path / "copied"), exp_b_files(tmp_path / "formatted")
        assert len(copied) == 9 and copied == formatted

    def test_without_an_out_dir_nothing_is_compared(self, monkeypatch):
        monkeypatch.setattr(harness, "_same_series", None)
        assert len(run_experiment_b(overrides=QUIET)) == 8

    def run_with_row_0(self, monkeypatch, tmp_path, column, first, twin):
        """exp-b at seed 0 with row 0's column set to first in push/none and to twin in
        push/no_gravity_comp, which otherwise has push/none's series."""
        run, values = harness.run_trial, iter([first, None, None, twin])

        def setting(spec, tapes=None):
            result = run(spec, tapes)
            value = next(values, None)
            if value is not None:
                result.series[0] = result.series[0]._replace(**{column: value})
            return result

        monkeypatch.setattr(harness, "run_trial", setting)
        run_experiment_b(out_dir=tmp_path, base_seed=0)
        return [(tmp_path / name).read_text().splitlines()[1].split(",")
                for name in ("exp_b_push_none.csv", "exp_b_push_no_gravity_comp.csv")]

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    @pytest.mark.parametrize("first, twin", [(0.0, -0.0), (-0.0, 0.0)], ids=["0,-0", "-0,0"])
    def test_a_zero_of_the_other_sign_is_formatted(self, monkeypatch, tmp_path, formatted,
                                                   column, first, twin):
        none, gravity = self.run_with_row_0(monkeypatch, tmp_path, column, first, twin)
        assert "exp_b_push_no_gravity_comp.csv" in formatted and len(formatted) == 7
        at = TimeSeriesRow._fields.index(column)
        assert (none[at], gravity[at]) == (format(first, ".9g"), format(twin, ".9g"))
        assert none[:at] + none[at + 1:] == gravity[:at] + gravity[at + 1:]

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_a_nan_in_another_object_is_formatted(self, monkeypatch, tmp_path, formatted,
                                                  column):
        none, gravity = self.run_with_row_0(monkeypatch, tmp_path, column, float("nan"),
                                            float("nan"))
        assert "exp_b_push_no_gravity_comp.csv" in formatted and len(formatted) == 7
        assert none == gravity and none[TimeSeriesRow._fields.index(column)] == "nan"

    def test_one_nan_object_in_both_is_copied(self, monkeypatch, tmp_path, formatted):
        nan = float("nan")
        none, gravity = self.run_with_row_0(monkeypatch, tmp_path, "x_obj", nan, nan)
        assert "exp_b_push_no_gravity_comp.csv" not in formatted and len(formatted) == 6
        assert none == gravity

    def test_an_unwritable_copy_is_a_runtime_error(self, tmp_path, monkeypatch):
        def refusing(source, target):
            raise PermissionError(13, "Permission denied", str(target))

        monkeypatch.setattr(harness.shutil, "copyfile", refusing)
        target = tmp_path / "exp_b_push_no_gravity_comp.csv"
        with pytest.raises(RuntimeError, match=f"^cannot write {re.escape(str(target))}: "):
            run_experiment_b(out_dir=tmp_path, overrides=QUIET)


@pytest.fixture(scope="module")
def pushed():
    spec = quiet_spec(
        offset=0.0,
        duration=6.0,
        pushes=({"target": "finger1", "force": 1.0, "t_start": 1.5, "t_end": 3.5},),
    )
    return run_trial(spec)


class TestPushResponse:
    def test_finger_yields_away_from_the_push(self, pushed):
        before = pushed.value_at(1.4).q1
        during = pushed.value_at(3.4).q1
        assert during - before > 0.005

    def test_motion_stops_promptly_after_release(self, pushed):
        # Removing the push also removes it from the sensed sum, so the
        # regulator re-tightens by about a millimetre; that settle must be
        # brief and everything afterwards still.
        resettle = abs(pushed.value_at(4.0).q1 - pushed.value_at(3.55).q1)
        assert resettle < 2e-3
        assert abs(pushed.value_at(5.9).q1 - pushed.value_at(4.0).q1) < 1e-5

    def test_squeeze_stays_bounded_during_the_push(self, pushed):
        rows = [r for r in pushed.series if 2.0 <= r.t <= 3.4]
        assert max(r.f_int for r in rows) <= 2.1


class TestCsv:
    def make_row(self, t=0.0):
        return TimeSeriesRow(t, 0.04, 0.04, 0.0, 0.0, 0.0, 0.0, 0.005, "closing",
                             0.0, 0.0)

    def test_header_and_row_count(self, tmp_path):
        path = write_csv([self.make_row()], tmp_path / "one.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_line_endings_are_lf(self, tmp_path):
        path = write_csv([self.make_row(), self.make_row(0.01)], tmp_path / "lf.csv")
        assert b"\r" not in path.read_bytes()

    def test_values_round_trip_to_nine_digits(self, tmp_path):
        row = TimeSeriesRow(0.123456789, 0.0399999987, 0.04, 1.23456789e-4, 2.0,
                            2.0001, -0.0193, 0.005, "holding", -0.0038, 0.0019)
        path = write_csv([row], tmp_path / "prec.csv")
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[0]) == pytest.approx(row.t, rel=1e-8)
        assert float(fields[1]) == pytest.approx(row.q1, rel=1e-8)
        assert float(fields[3]) == pytest.approx(row.f1, rel=1e-8)
        assert fields[8] == "holding"

    def test_phase_column_vocabulary(self, tmp_path):
        result = run_trial(quiet_spec(offset=0.005))
        path = write_csv(result.series, tmp_path / "trial.csv")
        phases = {line.split(",")[8] for line in path.read_text().splitlines()[1:]}
        assert phases <= {"closing", "contact", "holding"}
        assert "holding" in phases

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")

    @staticmethod
    def cell_csv(rows) -> str:
        """A series as per-cell formatting writes it: format(float(v), ".9g") per number."""
        lines = [CSV_HEADER]
        for row in rows:
            cells = [getattr(row, name) for name in CSV_HEADER.split(",")]
            lines.append(",".join(v if isinstance(v, str) else format(float(v), ".9g")
                                  for v in cells))
        return "\n".join(lines) + "\n"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.one_of(st.floats(), st.integers(-(2**1000), 2**1000), st.booleans()))
    @example(-0.0)
    @example(5e-324)
    @example(-math.inf)
    @example(1.8e308)
    def test_cells_match_per_cell_formatting(self, tmp_path_factory, value):
        row = TimeSeriesRow(*[value] * 8, "contact", value, value)
        path = write_csv([row], tmp_path_factory.mktemp("cell") / "cell.csv")
        assert path.read_bytes() == self.cell_csv([row]).encode()

    def test_bytes_match_per_cell_formatting(self, tmp_path):
        edges = [
            TimeSeriesRow(0.0, -0.0, 5e-324, 1e308, 0, True, -1e-310, math.nan, "closing",
                          math.inf, -math.inf),
            TimeSeriesRow(0.01, 0.0399999987, 2**53 + 1, False, 1, 123456789012.0, -0.0193,
                          1.23456789e-4, "holding", -0.0038, 0.0019),
        ]
        series = run_trial(_experiment_b_spec("push", "none", 0, None)).series
        for name, rows in (("edges", edges), ("exp_b_push", series)):
            path = write_csv(rows, tmp_path / f"{name}.csv")
            assert path.read_bytes() == self.cell_csv(rows).encode(), name


class TestExperimentPlumbing:
    def test_default_grid_is_90_trials(self):
        per_controller = len(EXPERIMENT_A_OFFSETS) * EXPERIMENT_A_REPS * 3
        assert per_controller == 45
        assert 2 * per_controller == 90

    def test_trial_seeds_are_unique_across_the_grid(self):
        seeds = {
            _trial_seed(0, i_obj, i_off, rep)
            for i_obj in range(3)
            for i_off in range(5)
            for rep in range(3)
        }
        assert len(seeds) == 45

    def test_reduced_grid_shapes(self, tmp_path):
        result = run_experiment_a(out_dir=tmp_path, base_seed=0, offsets=(0.005,),
                                  reps=1, objects=("tape_roll",))
        assert len(result.trials) == 2
        assert len(result.summary) == 2
        assert (tmp_path / "exp_a_trials.csv").exists()
        assert (tmp_path / "exp_a_summary.csv").exists()
        table = result.table()
        assert "tape_roll" in table
        assert result.mean_displacement("tape_roll", "force") >= 0.0

    def test_experiment_a_keeps_each_trials_metrics_only(self):
        result = run_experiment_a(offsets=(0.005,), reps=1, objects=("tape_roll",))
        for trial in result.trials:
            assert not hasattr(trial, "series")
            # The trial's series comes from running its spec again.
            assert run_trial(trial.spec).metrics() == trial

    def test_experiment_a_memory_does_not_grow_with_reps(self):
        def peak(reps):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run_experiment_a(objects=("tape_roll",), offsets=(0.005,), reps=reps)
            return tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            peak(1)  # warm up caches so they count against neither size
            one, six = peak(1), peak(6)
        finally:
            tracemalloc.stop()
        assert six <= 1.5 * one, (one, six)

    def test_experiment_a_pairs_seeds_across_controllers(self):
        result = run_experiment_a(offsets=(0.008,), reps=2, objects=("tape_roll",))
        seeds = {}
        for trial in result.trials:
            key = (trial.spec.offset, trial.spec.seed)
            seeds.setdefault(key, set()).add(trial.spec.controller)
        assert all(v == {"force", "trajectory"} for v in seeds.values())

    @pytest.mark.parametrize("grid", [{"reps": 0}, {"offsets": ()}, {"objects": ()}],
                             ids=["reps", "offsets", "objects"])
    def test_empty_grid_rejected_before_any_trial(self, grid, tmp_path, monkeypatch):
        # An empty group would summarize to a NaN mean.
        def forbidden(spec):
            raise AssertionError("an empty grid ran a trial")

        monkeypatch.setattr(harness, "run_trial", forbidden)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^exp-a needs reps >= 1"):
            run_experiment_a(out_dir=out, **grid)
        assert not out.exists()

    def test_experiment_b_spec_scenarios(self):
        push = _experiment_b_spec("push", "none", 0, None)
        assert len(push.pushes) == 2
        assert {p.target for p in push.pushes} == {"finger1", "finger2"}
        assert push.wrist is None
        rot = _experiment_b_spec("rotation", "no_gravity_comp", 0, None)
        assert rot.wrist is not None
        assert rot.wrist.angle_end == pytest.approx(math.pi)
        assert rot.control == ControllerConfig(gravity_comp_enabled=False)

    def test_experiment_b_miscalibration_flag(self):
        # The +/-1% gain miscalibration is part of the spec; an override undoes it.
        miscal = _experiment_b_spec("push", "none", 0, None)
        clean = _experiment_b_spec("push", "none", 0, parse_overrides(
            ["sensors.gain_scale1=1", "sensors.gain_scale2=1"]
        ))
        assert (miscal.sensors.gain_scale1, miscal.sensors.gain_scale2) == (1.01, 0.99)
        assert clean.sensors.gain_scale1 == 1.0
        assert clean.sensors.gain_scale2 == 1.0
        assert dataclasses.replace(clean, sensors=miscal.sensors) == miscal

    def test_experiment_a_one_trial_group_has_zero_std(self):
        result = run_experiment_a(offsets=(0.005,), reps=1, objects=("tape_roll",),
                                  overrides=QUIET)
        assert [s.n_trials for s in result.summary] == [1, 1]
        assert all(s.std_displacement == s.std_proxy == 0.0 for s in result.summary)

    def test_experiment_b_duration_must_reach_the_last_metric_window(self):
        # The push windows run to 14.5 s; the bound is inclusive.
        assert _experiment_b_spec("push", "none", 0, {"duration": 14.5}).duration == 14.5
        with pytest.raises(ValueError, match=r"^push duration 14\.49 s ends before its metric "
                                             r"windows, which run to 14\.5 s$"):
            _experiment_b_spec("push", "none", 0, {"duration": 14.49})

    def test_experiment_b_unset_duration_names_the_derived_duration(self):
        derived = resolve(ScenarioSpec(object="tape_roll")).duration
        with pytest.raises(ValueError, match=f"^push duration {re.escape(repr(derived))} s ends"):
            _experiment_b_spec("push", "none", 0, {"duration": None})

    def test_experiment_b_control_rate_fits_the_metric_windows(self):
        # The shortest metric window is 1 s; it needs a period of at most 0.5 s.
        with pytest.raises(ValueError, match="control_rate"):
            _experiment_b_spec("push", "none", 0, {"control": {"control_rate": 1.9}})
        runs = run_experiment_b(overrides={"control": {"control_rate": 2.0}, **QUIET})
        assert len(runs) == 8
        assert all(math.isfinite(runs[("push", v)].post_drift_rate) for v in EXPERIMENT_B_VARIANTS)

    def test_variant_list(self):
        assert list(EXPERIMENT_B_VARIANTS) == ["none", "no_compliance", "no_deadband",
                                               "no_gravity_comp"]

    def test_each_run_differs_from_none_in_its_variant_flag_alone(self):
        # A whole-section control override keeps each variant's flag.
        overrides = {"control": {"control_rate": 2.0, "f_goal": 2.1}, **QUIET}
        runs = run_experiment_b(overrides=overrides)
        assert len(runs) == 2 * len(EXPERIMENT_B_VARIANTS)
        for (scenario, variant), run in runs.items():
            base = resolve(runs[(scenario, "none")].result.spec).control
            control = resolve(run.result.spec).control
            assert control.f_goal == 2.1
            diff = {f.name: getattr(control, f.name) for f in dataclasses.fields(control)
                    if getattr(control, f.name) != getattr(base, f.name)}
            assert diff == EXPERIMENT_B_VARIANTS[variant], (scenario, variant)
            assert len(diff) == (variant != "none"), (scenario, variant)

    @pytest.mark.parametrize("experiment,path",
                             [(e, path) for e, paths in REFUSED.items() for path in paths])
    def test_refused_keys_are_override_paths(self, experiment, path):
        # A refused path that no longer names a field would refuse nothing.
        node = ScenarioSpec().to_dict()
        for part in path.split("."):
            assert isinstance(node, dict) and part in node
            node = node[part]
        with pytest.raises(ValueError, match=f"^{path} is set per trial by {experiment}"):
            harness._reject_overrides(experiment, parse_overrides([f"{path}=0"]),
                                      REFUSED[experiment])


class TestReportHeaders:
    """Each report's columns come from its record's fields; these pin them."""

    def test_experiment_a_headers(self, tmp_path):
        run_experiment_a(out_dir=tmp_path, offsets=(0.005,), reps=1, objects=("tape_roll",))
        trials = (tmp_path / "exp_a_trials.csv").read_text().splitlines()
        assert trials[0] == (
            "object,controller,offset,rep,seed,displacement_truth,displacement_proxy,"
            "max_total_force,settle_time,overshoot,finished"
        )
        assert {line.rsplit(",", 1)[1] for line in trials[1:]} <= {"0", "1"}
        summary = (tmp_path / "exp_a_summary.csv").read_text().splitlines()
        assert summary[0] == (
            "object,controller,mean_displacement,std_displacement,mean_proxy,std_proxy,n_trials"
        )

    def test_experiment_b_headers(self, tmp_path):
        run_experiment_b(out_dir=tmp_path, overrides=QUIET)
        metrics = (tmp_path / "exp_b_metrics.csv").read_text().splitlines()
        assert metrics[0] == (
            "scenario,variant,max_total_force,settled_max_total_force,post_drift_rate,"
            "post_drift_total,peak_object_drift"
        )
        series = (tmp_path / "exp_b_push_none.csv").read_text().splitlines()
        assert series[0] == "t,q1,q2,f1,f2,f_int,f_ext,x_obj,phase,u_int,u_ext"
