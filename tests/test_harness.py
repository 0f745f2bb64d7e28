"""Trial execution, metrics, CSV output, and experiment plumbing."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from graspforce.harness import (
    CSV_HEADER,
    EXPERIMENT_A_OFFSETS,
    EXPERIMENT_A_REPS,
    EXPERIMENT_B_VARIANTS,
    ConfigError,
    RuntimeFault,
    TimeSeriesRow,
    _experiment_b_spec,
    _trial_seed,
    run_experiment_a,
    run_experiment_b,
    run_trial,
    write_csv,
)
from graspforce.plant import Push
from graspforce.scenarios import ScenarioSpec


def quiet_spec(**kw) -> ScenarioSpec:
    data = {"object": "tape_roll", "sensors": {"noise": False}}
    data.update(kw)
    return ScenarioSpec.from_dict(data)


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
        # A finite gain passes the spec boundary, but gamma * gain_scale
        # overflows and the first calibrated reading is NaN.
        spec = quiet_spec(sensors={"noise": False, "gain_scale1": 1e308})
        with pytest.raises(RuntimeFault):
            run_trial(spec)

    def test_non_finite_plant_state_raises_runtime_fault(self):
        # A subnormal mass passes the spec boundary, but dividing the first
        # contact force by it drives the object's position to NaN.
        speck = {"name": "speck", "mass": 1e-310, "width": 0.06, "stiffness": 2000.0}
        spec = quiet_spec(object=speck, offset=0.003)
        with pytest.raises(RuntimeFault, match=r"non-finite plant state at t=1\.000 s"):
            run_trial(spec)

    @pytest.mark.parametrize("samples", [0, 1.5, True, "x", 10**6 + 1])
    def test_bad_calibration_sample_count_rejected_by_spec(self, samples):
        with pytest.raises(ValueError, match="calibration_samples"):
            quiet_spec(sensors={"noise": False, "calibration_samples": samples})

    def test_bad_calibration_sample_count_is_config_error(self):
        # Set after the spec was validated, the count still fails as ConfigError.
        spec = quiet_spec()
        spec.sensors.calibration_samples = 0
        with pytest.raises(ConfigError, match="n_samples"):
            run_trial(spec)

    def test_oversized_calibration_sample_count_is_config_error(self):
        # Set after validation, a count over the cap is refused before any
        # sample is drawn (10**9 samples would take about 49 GB).
        spec = quiet_spec()
        spec.sensors.calibration_samples = 10**9
        with pytest.raises(ConfigError, match="n_samples must be >= 1 and <= 1000000"):
            run_trial(spec)

    def test_series_rate_is_the_control_rate(self):
        result = run_trial(quiet_spec(offset=0.0))
        dt = result.series[1].t - result.series[0].t
        assert dt == pytest.approx(0.01, rel=1e-9)

    def test_value_at_picks_nearest_row(self):
        result = run_trial(quiet_spec(offset=0.0))
        row = result.value_at(1.0)
        assert row.t == pytest.approx(1.0, abs=0.011)


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
        series = run_trial(_experiment_b_spec("push", "none", 0, True, True, None)).series
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

    def test_experiment_a_pairs_seeds_across_controllers(self):
        result = run_experiment_a(offsets=(0.008,), reps=2, objects=("tape_roll",))
        seeds = {}
        for trial in result.trials:
            key = (trial.spec.offset, trial.spec.seed)
            seeds.setdefault(key, set()).add(trial.spec.controller)
        assert all(v == {"force", "trajectory"} for v in seeds.values())

    def test_experiment_b_spec_scenarios(self):
        push = _experiment_b_spec("push", "none", 0, True, True, None)
        assert len(push.pushes) == 2
        assert {p.target for p in push.pushes} == {"finger1", "finger2"}
        assert push.wrist is None
        rot = _experiment_b_spec("rotation", "no_gravity_comp", 0, True, True, None)
        assert rot.wrist is not None
        assert rot.wrist.angle_end == pytest.approx(math.pi)
        assert rot.ablation == "no_gravity_comp"

    def test_experiment_b_miscalibration_flag(self):
        miscal = _experiment_b_spec("push", "none", 0, False, True, None)
        clean = _experiment_b_spec("push", "none", 0, False, False, None)
        assert miscal.sensors.gain_scale1 != 1.0
        assert clean.sensors.gain_scale1 == 1.0
        assert clean.sensors.gain_scale2 == 1.0

    def test_experiment_b_control_rate_fits_the_metric_windows(self):
        # The shortest metric window is 1 s; it needs a period of at most 0.5 s.
        with pytest.raises(ConfigError, match="control_rate"):
            _experiment_b_spec("push", "none", 0, False, False, {"control": {"control_rate": 1.9}})
        runs = run_experiment_b(noise=False, overrides={"control": {"control_rate": 2.0}})
        assert len(runs) == 8
        assert all(math.isfinite(runs[("push", v)].post_drift_rate) for v in EXPERIMENT_B_VARIANTS)

    def test_variant_list(self):
        assert EXPERIMENT_B_VARIANTS == ("none", "no_compliance", "no_deadband",
                                         "no_gravity_comp")


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
        run_experiment_b(out_dir=tmp_path, noise=False)
        metrics = (tmp_path / "exp_b_metrics.csv").read_text().splitlines()
        assert metrics[0] == (
            "scenario,variant,max_total_force,settled_max_total_force,post_drift_rate,"
            "post_drift_total,peak_object_drift"
        )
        series = (tmp_path / "exp_b_push_none.csv").read_text().splitlines()
        assert series[0] == "t,q1,q2,f1,f2,f_int,f_ext,x_obj,phase,u_int,u_ext"
