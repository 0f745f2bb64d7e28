"""Trial execution, metrics, CSV output, and experiment plumbing."""

import dataclasses
import math
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from graspforce import harness
from graspforce.closure import is_force_closure
from graspforce.harness import (
    CSV_HEADER,
    EXPERIMENT_A_OFFSETS,
    EXPERIMENT_A_REPS,
    EXPERIMENT_B_VARIANTS,
    TimeSeriesRow,
    _experiment_b_spec,
    _finish_trial,
    _trial_seed,
    run_experiment_a,
    run_experiment_b,
    run_trial,
    write_csv,
)
from graspforce.controller import ControllerConfig, TrajectoryController, compute_external_force
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


def frozen_trajectory_rows(spec: ScenarioSpec) -> list[TimeSeriesRow]:
    """run_trial's closed loop as trajectory trials ran it before they replayed a
    recorded plant run: sensors, controller and plant stepped together, tick by tick."""
    resolved = resolve(spec)
    samples = spec.sensors.calibration_samples
    sensors = tuple(CalibratedSensor(model, samples) for model in resolved.sensor_models)
    plant = Plant(resolved.obj, start_aperture=resolved.request.start_aperture,
                  offset=spec.offset, pushes=spec.pushes, wrist=spec.wrist, config=spec.plant,
                  period=resolved.period)
    controller = TrajectoryController(resolved.control, resolved.request)
    dt = resolved.period
    rows = []
    isfinite = math.isfinite
    for k in range(resolved.ticks):
        t = k * dt
        true_f1, true_f2 = plant.measured_forces()
        f1 = sensors[0].read(true_f1)
        f2 = sensors[1].read(true_f2)
        g_dot_n = plant.g_dot_n()
        if not (isfinite(f1) and isfinite(f2)):
            raise RuntimeError(f"non-finite measurement at t={t:.3f} s")
        q1, q2 = plant.q1, plant.q2
        cmd = controller.tick(f1, f2, q1, q2, g_dot_n)
        rows.append(TimeSeriesRow(t, q1, q2, f1, f2, f1 + f2, controller.last_f_ext, plant.x_obj,
                                  controller.phase, controller.last_u_int, controller.last_u_ext))
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
        frozen_trajectory_rows(spec)
    return str(fault.value)


FINGER_PUSHES = ({"target": "finger1", "force": 1.0, "t_start": 0.5, "t_end": 1.5},
                 {"target": "finger2", "force": 0.5, "t_start": 1.0, "t_end": 2.0})
SPECK = {"name": "speck", "mass": 1e-5, "width": 0.05, "stiffness": 20000.0}
OVERFLOWING_PUSH = {"pushes": [{"target": "finger1", "force": 10.0, "t_start": 0.5, "t_end": 1.0}],
                    "sensors": {"noise_sigma": 0.0, "gamma1": 2.3e-308}}


class TestOpenLoopReplay:
    """A trajectory trial replays the plant run of the last trial with its inputs,
    and gives the bits the closed loop gave."""

    CASES = {
        "noise": {"sensors": {"noise_sigma": None}},
        "quiet": QUIET,
        "wrist": {"wrist": {"t_start": 0.5, "t_end": 2.5, "angle_end": 1.5}},
        "object_push": {"pushes": [{"target": "object", "force": 0.3, "t_start": 0.5,
                                    "t_end": 1.5}]},
        "finger_pushes": {"pushes": FINGER_PUSHES},
    }

    @staticmethod
    def spec(seed=5, **kw) -> ScenarioSpec:
        return ScenarioSpec.from_dict({"object": "tape_roll", "offset": 0.006,
                                       "controller": "trajectory", "duration": 3.0,
                                       "seed": seed, **kw})

    @pytest.mark.parametrize("case", CASES)
    def test_miss_and_hits_match_the_closed_loop(self, case):
        # The first trial records the run, a repeat and another seed's trial replay it.
        harness._open_loop_run.cache_clear()
        for seed in (5, 5, 6):
            spec = self.spec(seed, **self.CASES[case])
            result = run_trial(spec)
            rows = frozen_trajectory_rows(spec)
            assert [repr(r) for r in result.series] == [repr(r) for r in rows]
            want = _finish_trial(spec, resolve(spec).control, resolve(spec).obj.width, rows, False)
            assert repr(result) == repr(want)
        info = harness._open_loop_run.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_offsets_do_not_share_a_run(self, tmp_path, first, second):
        def run(offset):
            return run_trial(quiet_spec(controller="trajectory", offset=offset, duration=1.0))

        uncached = []
        for offset in (first, second):
            harness._open_loop_run.cache_clear()
            uncached.append(repr(run(offset)))
        harness._open_loop_run.cache_clear()
        results = [run(offset) for offset in (first, second)]
        assert [repr(r) for r in results] == uncached
        assert harness._open_loop_run.cache_info().misses == 2
        for offset, result in zip((first, second), results):
            path = write_csv(result.series, tmp_path / "series.csv")
            x_obj = path.read_text().splitlines()[1].split(",")[7]
            assert x_obj == ("-0" if math.copysign(1.0, offset) < 0.0 else "0")

    @pytest.mark.parametrize("kw, message", [
        (OVERFLOWING_PUSH, r"non-finite measurement at t=0\.510 s"),
        ({"object": SPECK, "offset": 0.003, **QUIET}, r"non-finite plant state at t=1\.190 s"),
        # The run records the speck's plant fault at 1.19 s; the measurement at 0.51 s comes first.
        ({"object": SPECK, "offset": 0.003, **OVERFLOWING_PUSH},
         r"non-finite measurement at t=0\.510 s"),
    ], ids=["measurement", "plant_state", "measurement_first"])
    def test_faults_repeat_on_a_replay(self, kw, message):
        spec = quiet_spec(controller="trajectory", **kw)
        assert re.fullmatch(message, frozen_fault(spec))
        harness._open_loop_run.cache_clear()
        for _ in range(2):
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                run_trial(spec)
        info = harness._open_loop_run.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_each_exp_a_call_runs_one_plant_per_trajectory_cell(self, monkeypatch):
        # A call's first cell is not the last cell of the call before, so every
        # call pays for its own runs.
        step, steps = harness.Plant.step, []

        def counting(plant, command):
            steps.append(command)
            return step(plant, command)

        monkeypatch.setattr(harness.Plant, "step", counting)
        harness._open_loop_run.cache_clear()
        per_call = []
        for _ in range(2):
            steps.clear()
            result = run_experiment_a(objects=("tape_roll",), offsets=(0.005, 0.008), reps=3)
            per_call.append(len(steps))
        monkeypatch.undo()
        force_ticks = sum(len(run_trial(t.spec).series)
                          for t in result.trials if t.spec.controller == "force")
        run_ticks = {t.spec.offset: resolve(t.spec).ticks
                     for t in result.trials if t.spec.controller == "trajectory"}
        assert len(run_ticks) == 2
        assert per_call == [force_ticks + sum(run_ticks.values())] * 2


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
        # Each tick's gravity projection is recorded as the plant hands it over;
        # a trajectory trial's plant runs only when no earlier trial ran it.
        harness._open_loop_run.cache_clear()
        g_dot_n, seen = harness.Plant.g_dot_n, []

        def recording(plant):
            seen.append(g_dot_n(plant))
            return seen[-1]

        monkeypatch.setattr(harness.Plant, "g_dot_n", recording)
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
