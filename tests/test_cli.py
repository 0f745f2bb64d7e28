"""Command-line interface: subcommands, exit codes, artifacts."""

import json

import pytest

from graspforce import simplex
from graspforce.cli import build_parser, main

ANTIPODAL = {
    "contacts": [
        {"position": [0.0, 0.03, 0.0], "normal": [0.0, -1.0, 0.0], "mu": 0.5},
        {"position": [0.0, -0.03, 0.0], "normal": [0.0, 1.0, 0.0], "mu": 0.5},
    ]
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    return write_json(
        tmp_path / "tape.json",
        {"object": "tape_roll", "offset": 0.005, "sensors": {"noise": False}},
    )


class TestTopLevel:
    def test_version_exits_clean(self, capsys):
        assert main(["--version"]) == 0
        assert "graspforce" in capsys.readouterr().out

    def test_help_exits_clean(self):
        assert main(["--help"]) == 0

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["plot"]) == 2

    @pytest.mark.parametrize("before", [True, False], ids=["-v run", "run -v"])
    def test_verbose_before_or_after_subcommand(self, before, scenario_file, tmp_path):
        argv = ["run", scenario_file, "--out-dir", str(tmp_path / "o")]
        assert main(["-v"] + argv if before else argv + ["-v"]) == 0

    def test_verbose_counts_add_up(self):
        args = build_parser().parse_args(["-v", "closure", "c.json", "-vv"])
        assert args.verbose + args.sub_verbose == 3


class TestRun:
    def test_valid_scenario(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", scenario_file, "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert (out / "tape.csv").exists()
        assert "displacement (ground truth)" in captured.out
        assert "displacement (joint proxy)" in captured.out

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_override_key(self, scenario_file, tmp_path, capsys):
        code = main(["run", scenario_file, "--out-dir", str(tmp_path / "o"),
                     "--set", "control.bogus=1"])
        assert code == 2
        assert "control.bogus" in capsys.readouterr().err

    def test_pathological_config_faults(self, scenario_file, tmp_path, capsys):
        # Finite and in range, so it passes the spec boundary, but the
        # calibrated gain overflows and the first reading is not finite.
        for controller in ("force", "trajectory"):
            out = tmp_path / controller
            code = main(["run", scenario_file, "--out-dir", str(out),
                         "--set", "sensors.gain_scale1=1e308",
                         "--set", f"controller={controller}"])
            assert code == 1
            assert capsys.readouterr().err == "fault: non-finite measurement at t=0.000 s\n"
            assert not list(out.glob("*.csv"))

    def test_non_finite_plant_state_faults(self, tmp_path, capsys):
        speck = {"name": "speck", "mass": 1e-310, "width": 0.06, "stiffness": 2000.0}
        scenario = write_json(tmp_path / "speck.json",
                              {"object": speck, "offset": 0.003, "sensors": {"noise": False}})
        code = main(["run", scenario, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("fault: non-finite plant state")
        assert "Traceback" not in err

    def test_seed_flag_overrides_scenario(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "a"
        main(["run", scenario_file, "--out-dir", str(out), "--seed", "3",
              "--set", "sensors.noise=true"])
        first = (out / "tape.csv").read_bytes()
        out2 = tmp_path / "b"
        main(["run", scenario_file, "--out-dir", str(out2), "--seed", "3",
              "--set", "sensors.noise=true"])
        assert (out2 / "tape.csv").read_bytes() == first


# Each list of --set items is wrongly shaped for the spec.
BAD_OVERRIDES = [
    ["control=5"],
    ["wrist=7"],
    ["pushes=5"],
    ["control.f_goal=abc"],
    ["control.f_goal=2", "control=1"],
    ["control=1", "control.f_goal=2"],
    ["seed=x"],
    ["object.mass=0.1"],
]


def bad_override_cases():
    cases = [(command, items) for items in BAD_OVERRIDES for command in ("run", "exp-a", "exp-b")]
    # Out of range or not a number, for the spec's top-level scalars.
    for item in ['mu="x"', "closing_speed=0", "duration=Infinity", "settle_time=-5"]:
        cases.append(("run", [item]))
    # Too short for exp-b's metric windows, valid for the other two.
    cases.append(("exp-b", ["duration=2"]))
    # A control period longer than half of exp-b's shortest (1 s) metric window.
    cases.append(("exp-b", ["control.control_rate=0.1"]))
    cases.append(("exp-b", ["control.control_rate=1.9"]))
    # Not finite, or below the lower bound, in a nested config.
    for item in ["control.control_rate=Infinity", "control.f_phi=NaN", "control.mass=NaN",
                 "sensors.min_force=NaN", "sensors.gain_scale1=-1",
                 'object={"name": "slab", "mass": NaN, "width": 0.05, "stiffness": 3000}']:
        cases.append(("run", [item]))
    # The sigma only reaches the sensor model when noise is on.
    cases.append(("run", ["sensors.noise=true", "sensors.noise_sigma=NaN"]))
    # Checked in the spec even when noise is off and the sigma goes unused.
    cases.append(("run", ["sensors.noise=false", "sensors.noise_sigma=NaN"]))
    # Not finite, or below the lower bound, in the sensor, controller and
    # plant configs and in the disturbance schedule.
    for item in ["sensors.bias1=NaN", "sensors.bias2=Infinity", "control.goal_dwell=NaN",
                 "control.goal_dwell=-1", "control.joint_max=Infinity",
                 "plant.gravity=NaN", "plant.max_finger_speed=Infinity", "plant.dt=NaN",
                 "plant.pad_stiffness=Infinity",
                 'pushes=[{"target": "object", "force": NaN, "t_start": 1, "t_end": 2}]',
                 'pushes=[{"target": "finger1", "force": 1, "t_start": 1, "t_end": 2, '
                 '"ramp": Infinity}]',
                 'wrist={"t_start": 1, "t_end": Infinity}',
                 'wrist={"t_start": 1, "t_end": 2, "angle_end": NaN}']:
        cases.append(("run", [item]))
    # Not an integer from 1 to 10**6: the bias calibration's sample count.
    # 10**9 would need about 49 GB; the spec rejects it before any is drawn.
    for value in ["1.5", "true", '"x"', "0", "1000001", "1000000000"]:
        cases.append(("run", [f"sensors.calibration_samples={value}"]))
    # A bool where a number goes, a negative or non-integer count, a flag
    # given as a (truthy) string, and an integer too large for a float.
    for item in ["control.f_goal=true", "plant.dt=true", "sensors.gamma1=true",
                 'object={"name": "cube", "mass": true, "width": 0.05, "stiffness": 3000}',
                 'wrist={"t_start": true, "t_end": 2}', "seed=true", "seed=-1",
                 "control.contact_debounce=1.5", 'control.gravity_comp_enabled="no"',
                 'sensors.noise="false"', "plant.gravity=1" + "0" * 309]:
        cases.append(("run", [item]))
    # Keys each experiment sets per trial and labels its rows by.
    for item in ["object=styrofoam", "offset=0.001", "controller=trajectory", "seed=3"]:
        cases.append(("exp-a", [item]))
    for item in ["controller=trajectory", "ablation=no_deadband", "seed=3", "pushes=[]",
                 "wrist=null"]:
        cases.append(("exp-b", [item]))
    # A plant step longer than the control period.
    cases += [("run", ["plant.dt=0.5"]), ("run", ["control.control_rate=50", "plant.dt=0.021"]),
              ("exp-a", ["plant.dt=0.011"]), ("exp-b", ["plant.dt=0.5"])]
    return [pytest.param(c, i, id=f"{c} {' '.join(i)}") for c, i in cases]


class TestBadOverrides:
    @pytest.mark.parametrize("command,items", bad_override_cases())
    def test_exits_2_without_traceback(self, command, items, scenario_file, tmp_path, capsys):
        argv = [command] + ([scenario_file] if command == "run" else [])
        argv += ["--out-dir", str(tmp_path / "o")]
        for item in items:
            argv += ["--set", item]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["exp-a", "exp-b"])
    def test_experiment_seed_override_points_to_seed_flag(self, command, tmp_path, capsys):
        assert main([command, "--out-dir", str(tmp_path / "o"), "--set", "seed=3"]) == 2
        assert "--seed" in capsys.readouterr().err


class TestClosure:
    def test_antipodal_with_friction(self, tmp_path, capsys):
        code = main(["closure", write_json(tmp_path / "c.json", ANTIPODAL)])
        out = capsys.readouterr().out
        assert code == 0
        assert "force-closure: yes" in out
        assert "margin" in out

    def test_frictionless_pair_is_no_closure(self, tmp_path, capsys):
        payload = {"contacts": [dict(c, mu=0.0, mu_tau=0.0) for c in ANTIPODAL["contacts"]]}
        code = main(["closure", write_json(tmp_path / "c.json", payload)])
        assert code == 3
        assert "force-closure: no" in capsys.readouterr().out

    def test_single_contact_is_no_closure(self, tmp_path, capsys):
        payload = {"contacts": ANTIPODAL["contacts"][:1]}
        assert main(["closure", write_json(tmp_path / "c.json", payload)]) == 3

    def test_pivot_cap_is_a_fault_without_traceback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 1)
        code = main(["closure", write_json(tmp_path / "c.json", ANTIPODAL)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "fault: simplex failed to terminate\n"

    def test_malformed_contact_file(self, tmp_path, capsys):
        payload = {"contacts": [{"position": [0.0, 0.0, 0.0]}]}
        code = main(["closure", write_json(tmp_path / "c.json", payload)])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("contacts", [
        [5, 6],
        [ANTIPODAL["contacts"][0], "x"],
        [dict(c, mu=True) for c in ANTIPODAL["contacts"]],
        [dict(c, mu="0.5") for c in ANTIPODAL["contacts"]],
    ], ids=["numbers", "string entry", "bool mu", "string mu"])
    def test_malformed_entries_exit_2(self, contacts, tmp_path, capsys):
        code = main(["closure", write_json(tmp_path / "c.json", {"contacts": contacts})])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("position", [float("nan"), 0.03, 0.0]),
        ("normal", [float("inf"), -1.0, 0.0]),
    ], ids=["nan position", "infinite normal"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_vector_exits_2(self, field, value, tmp_path, capsys):
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        contacts = [dict(ANTIPODAL["contacts"][0], **{field: value}), ANTIPODAL["contacts"][1]]
        code = main(["closure", write_json(tmp_path / "c.json", {"contacts": contacts})])
        err = capsys.readouterr().err
        assert code == 2
        assert "contact 0" in err and "expected a finite 3-vector" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    def test_empty_contact_list(self, tmp_path, capsys):
        code = main(["closure", write_json(tmp_path / "c.json", {"contacts": []})])
        assert code == 2

    def test_sides_validated(self, tmp_path, capsys):
        code = main(["closure", write_json(tmp_path / "c.json", ANTIPODAL), "--sides", "2"])
        assert code == 2


class TestCalibrate:
    def test_reports_residual(self, capsys):
        code = main(["calibrate", "--samples", "200", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "true bias" in out
        assert "residual" in out

    def test_sample_count_validated(self, capsys):
        assert main(["calibrate", "--samples", "0"]) == 2


class TestExperiments:
    def test_exp_a_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "expa"
        code = main(["exp-a", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        trials = (out / "exp_a_trials.csv").read_text().splitlines()
        assert len(trials) == 91  # header + full grid
        assert (out / "exp_a_summary.csv").exists()
        assert "tape_roll" in captured.out
        assert "90 trials" in captured.out

    def test_exp_b_writes_series_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "expb"
        code = main(["exp-b", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        series = sorted(p.name for p in out.glob("exp_b_*.csv"))
        assert (out / "exp_b_metrics.csv").exists()
        assert len(series) == 9  # 2 scenarios x 4 variants + the metrics table
        assert "rotation" in captured.out
