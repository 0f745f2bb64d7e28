"""Command-line interface: subcommands, exit codes, artifacts."""

import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import graspforce
from graspforce import cli, harness, simplex
from graspforce.cli import build_parser, main
from graspforce.geometry import rotation_from_normal
from graspforce.scenarios import ScenarioSpec

ANTIPODAL = {
    "contacts": [
        {"position": [0.0, 0.03, 0.0], "normal": [0.0, -1.0, 0.0], "mu": 0.5},
        {"position": [0.0, -0.03, 0.0], "normal": [0.0, 1.0, 0.0], "mu": 0.5},
    ]
}
# What `graspforce closure` prints for ANTIPODAL, the pair README documents.
ANTIPODAL_REPORT = (
    "contacts: 2\n"
    "surjective: yes\n"
    "strict internal force: yes (margin 2.500e-03)\n"
    "force-closure: yes\n"
)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    return write_json(
        tmp_path / "tape.json",
        {"object": "tape_roll", "offset": 0.005, "sensors": {"noise_sigma": 0.0}},
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

    def test_report_lines(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", scenario_file, "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"series: {out / 'tape.csv'}\n"
            "displacement (ground truth): 0.450 mm\n"
            "displacement (joint proxy):  2.617 mm\n"
            "max total force: 2.002 N\n"
            "settled at: 3.01 s\n"
            "finished: no\n"
        )

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
        # Inside every bound, so it passes the spec boundary, but the raw
        # signal of the pushed finger overflows and its reading is not finite.
        push = '[{"target": "finger1", "force": 10, "t_start": 0.5, "t_end": 1.0}]'
        for controller in ("force", "trajectory"):
            out = tmp_path / controller
            code = main(["run", scenario_file, "--out-dir", str(out),
                         "--set", "sensors.gamma1=2.3e-308", "--set", f"pushes={push}",
                         "--set", f"controller={controller}"])
            assert code == 1
            assert capsys.readouterr().err == "fault: non-finite measurement at t=0.510 s\n"
            assert not list(out.glob("*.csv"))

    def test_non_finite_plant_state_faults(self, tmp_path, capsys):
        # Inside every bound, but the stiff light object goes numerically unstable.
        speck = {"name": "speck", "mass": 1e-5, "width": 0.05, "stiffness": 20000.0}
        scenario = write_json(tmp_path / "speck.json",
                              {"object": speck, "offset": 0.003, "sensors": {"noise_sigma": 0.0}})
        code = main(["run", scenario, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("fault: non-finite plant state")
        assert "Traceback" not in err

    def test_massless_object_rejected(self, tmp_path, capsys):
        speck = {"name": "speck", "mass": 0, "width": 0.06, "stiffness": 2000.0}
        scenario = write_json(tmp_path / "speck.json", {"object": speck})
        code = main(["run", scenario, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: mass must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_inline_object_offset_rejected(self, tmp_path, capsys):
        # The offset has one home, the scenario's top-level offset.
        slab = {"name": "slab", "mass": 0.05, "width": 0.06, "stiffness": 2000.0,
                "initial_offset": 0.01}
        scenario = write_json(tmp_path / "slab.json", {"object": slab})
        code = main(["run", scenario, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: unknown key 'initial_offset' in object\n"

    def test_object_fields_over_a_catalog_name_exit_2(self, scenario_file, tmp_path, capsys):
        # A mapping replaces the catalog name, so the object misses its other fields.
        code = main(["run", scenario_file, "--out-dir", str(tmp_path / "o"),
                     "--set", "object.mass=0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid object: ")
        assert "missing" in err
        assert "Traceback" not in err

    def test_scenario_that_is_not_a_mapping_exits_2(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "list.json", [1, 2])
        code = main(["run", scenario, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: scenario must be a mapping")
        assert "Traceback" not in err

    @pytest.mark.parametrize("item", ["mu=1e9", "mu_tau=1e20"])
    def test_absurd_friction_exits_2(self, item, scenario_file, tmp_path, capsys):
        # Such friction certified "no" and kept a force trial from ever holding.
        field = item.split("=")[0]
        code = main(["run", scenario_file, "--out-dir", str(tmp_path / "o"), "--set", item])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {field} must be a finite number >= 0 and <= ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_is_a_usage_error(self, scenario_file, tmp_path, capsys):
        # --set seed=N is the one way to set a run's seed; --seed is the experiments' base seed.
        assert main(["run", scenario_file, "--out-dir", str(tmp_path / "o"), "--seed", "3"]) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("items,field", [
        (["sensors.gain_scale1=1e300"], "gain_scale1"),
        (["sensors.gain_scale1=1e308"], "gain_scale1"),
        (["sensors.gamma1=1e308", "sensors.gain_scale1=2"], "gamma1"),
        (["sensors.gamma2=1000000.1"], "gamma2"),
        (["sensors.gain_scale2=10.1"], "gain_scale2"),
    ])
    def test_sensor_gain_past_its_bound_exits_2(self, items, field, scenario_file, tmp_path,
                                                capsys):
        # gain_scale1=1e300 ran with 2.9e302 N; 1e308 overflowed the first reading.
        argv = ["run", scenario_file, "--out-dir", str(tmp_path / "o")]
        code = main(argv + [arg for item in items for arg in ("--set", item)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {field} must be a finite number ")
        assert " and <= " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_sensor_gain_bounds_are_inclusive(self, scenario_file, tmp_path):
        items = ["sensors.gamma2=1e6", "sensors.gain_scale2=10", "duration=0.5"]
        argv = ["run", scenario_file, "--out-dir", str(tmp_path / "o")]
        assert main(argv + [arg for item in items for arg in ("--set", item)]) == 0

    def test_seed_flag_overrides_scenario(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "a"
        main(["run", scenario_file, "--out-dir", str(out), "--set", "seed=3",
              "--set", "sensors.noise_sigma=null"])
        first = (out / "tape.csv").read_bytes()
        out2 = tmp_path / "b"
        main(["run", scenario_file, "--out-dir", str(out2), "--set", "seed=3",
              "--set", "sensors.noise_sigma=null"])
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
                 "sensors.min_force=NaN", "sensors.noise_sigma=NaN", "sensors.gain_scale1=-1",
                 'object={"name": "slab", "mass": NaN, "width": 0.05, "stiffness": 3000}']:
        cases.append(("run", [item]))
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
    # Outside the physical bounds of the object and the fingertip pads: a
    # subnormal mass faulted late, and a huge stiffness ran with absurd forces.
    cases += [("run", ['object={"name": "speck", "mass": 1e-310, "width": 0.06, '
                        '"stiffness": 2000}']),
              ("run", ['object={"name": "slab", "mass": 0.05, "width": 0.05, "stiffness": 1e308}',
                       "plant.pad_stiffness=null"]),
              ("run", ["plant.pad_stiffness=1e308"])]
    # Not an integer from 1 to 10**6: the bias calibration's sample count.
    # 10**9 would need about 49 GB; the spec rejects it before any is drawn.
    for value in ["1.5", "true", '"x"', "0", "1000001", "1000000000"]:
        cases.append(("run", [f"sensors.calibration_samples={value}"]))
    # A bool where a number goes, a negative or non-integer count, a flag
    # given as a (truthy) string, and an integer too large for a float.
    for item in ["control.f_goal=true", "plant.dt=true", "sensors.gamma1=true",
                 'object={"name": "cube", "mass": true, "width": 0.05, "stiffness": 3000}',
                 'wrist={"t_start": true, "t_end": 2}', "seed=true", "seed=-1",
                 "seed=1.5", 'control.gravity_comp_enabled="no"',
                 'control.deadband_enabled="false"', "plant.gravity=1" + "0" * 309]:
        cases.append(("run", [item]))
    # Keys each experiment sets per trial and labels its rows by.
    for item in ["object=styrofoam", "offset=0.001", "controller=trajectory", "seed=3"]:
        cases.append(("exp-a", [item]))
    for item in ["controller=trajectory", "ablation=no_deadband", "seed=3", "pushes=[]",
                 "wrist=null"]:
        cases.append(("exp-b", [item]))
    # exp-b's variant flags, in the dotted and the whole-section form, and the
    # phase-3 mode: a trial that stops at its goal leaves the metric windows empty.
    for item in ["control.compliance_enabled=false", "control.deadband_enabled=false",
                 "control.gravity_comp_enabled=false", 'control={"deadband_enabled": false}',
                 "control.phase3_mode=stop_at_goal"]:
        cases.append(("exp-b", [item]))
    # Rejected by the spec, not first by the trial after the directory is
    # made: the aperture fit, the catalog name, a subnormal gamma, a closing
    # time that overflows, overlapping pushes, an inline object too narrow
    # for the derived end aperture and a tick count that overflows.
    cases += [("run", ["start_aperture=0.2"]), ("exp-a", ["start_aperture=0.2"])]
    for item in ["end_aperture=0.3", "object=foo", "sensors.gamma1=1e-320", "closing_speed=1e-320",
                 'pushes=[{"target": "finger1", "force": 1, "t_start": 1, "t_end": 3}, '
                 '{"target": "finger1", "force": 1, "t_start": 2, "t_end": 4}]',
                 'object={"name": "pin", "mass": 0.01, "width": 0.001, "stiffness": 2000}']:
        cases.append(("run", [item]))
    overflow = ["duration=1e300", "control.control_rate=1e10", "plant.dt=1e-11"]
    cases += [("run", overflow), ("exp-a", overflow)]
    # Over the work budget of ticks x substeps, but finite: these are never run.
    cases += [("run", ["closing_speed=1e-300"]), ("run", ["duration=1e6"])]
    # Substeps per tick that overflow to infinity: Plant.step's round() raised OverflowError.
    cases.append(("run", ["control.control_rate=1e-3", "plant.dt=1e-310"]))
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
        assert not (tmp_path / "o").exists()

    def test_scenario_file_ablation_key_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "ablated.json", {"object": "tape_roll",
                                                     "ablation": "no_deadband"})
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'ablation' in scenario")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["exp-a", "exp-b"])
    def test_experiment_seed_override_points_to_seed_flag(self, command, tmp_path, capsys):
        assert main([command, "--out-dir", str(tmp_path / "o"), "--set", "seed=3"]) == 2
        assert "--seed" in capsys.readouterr().err


class TestOutDir:
    @pytest.mark.parametrize("command", ["run", "exp-a", "exp-b"])
    @pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
    def test_unusable_out_dir_exits_2_before_any_trial(
        self, command, under, scenario_file, tmp_path, capsys, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a trial ran before the output directory was made")

        monkeypatch.setattr(cli, "run_trial", forbidden)
        monkeypatch.setattr(harness, "run_trial", forbidden)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker / "o" if under else blocker
        argv = [command] + ([scenario_file] if command == "run" else [])
        code = main(argv + ["--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot make output directory {out}: ")
        assert "Traceback" not in err


class TestClosure:
    def test_antipodal_with_friction(self, tmp_path, capsys):
        code = main(["closure", write_json(tmp_path / "c.json", ANTIPODAL)])
        out = capsys.readouterr().out
        assert code == 0
        assert "force-closure: yes" in out
        assert "margin" in out

    def test_report_lines(self, tmp_path, capsys):
        assert main(["closure", write_json(tmp_path / "c.json", ANTIPODAL)]) == 0
        assert capsys.readouterr().out == ANTIPODAL_REPORT

    def test_bare_contact_list(self, tmp_path, capsys):
        assert main(["closure", write_json(tmp_path / "c.json", ANTIPODAL["contacts"])]) == 0
        assert capsys.readouterr().out == ANTIPODAL_REPORT

    def test_contacts_given_by_rotation(self, tmp_path, capsys):
        contacts = [{"position": c["position"], "mu": c["mu"],
                     "rotation": rotation_from_normal(c["normal"]).tolist()}
                    for c in ANTIPODAL["contacts"]]
        assert main(["closure", write_json(tmp_path / "c.json", contacts)]) == 0
        assert capsys.readouterr().out == ANTIPODAL_REPORT

    def test_unreadable_contact_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["closure", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read contact file {path}: ")
        assert "Traceback" not in err

    def test_contact_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"contacts": [', encoding="utf-8")
        assert main(["closure", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: contact file {path} is not valid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [{"contacts": 5}, {}, 5, []],
                             ids=["number under contacts", "no contacts", "number", "empty list"])
    def test_contact_file_without_a_contact_list(self, payload, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", payload)
        assert main(["closure", path]) == 2
        assert capsys.readouterr().err == (
            f"error: contact file {path} must hold a non-empty contact list\n"
        )

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
    def test_non_finite_vector_exits_2(self, field, value, tmp_path, capsys):
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        contacts = [dict(ANTIPODAL["contacts"][0], **{field: value}), ANTIPODAL["contacts"][1]]
        code = main(["closure", write_json(tmp_path / "c.json", {"contacts": contacts})])
        err = capsys.readouterr().err
        assert code == 2
        assert "contact 0" in err and "expected a finite 3-vector" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("normal", [[0.0, -1e155, 0.0], [0.0, -1e-170, 0.0]],
                             ids=["huge", "tiny"])
    def test_normal_of_any_finite_nonzero_size(self, normal, tmp_path, capsys):
        # The huge one overflowed the norm and was called no rotation; the tiny
        # one underflowed it and was called zero.
        contacts = [dict(ANTIPODAL["contacts"][0], normal=normal), ANTIPODAL["contacts"][1]]
        assert main(["closure", write_json(tmp_path / "c.json", contacts)]) == 0
        assert capsys.readouterr().out == ANTIPODAL_REPORT

    @pytest.mark.parametrize("payload,message", [
        ({"contacts": [dict(ANTIPODAL["contacts"][0], mu_torsion=0.0),
                       ANTIPODAL["contacts"][1]]}, "unknown key 'mu_torsion' in contact 0 in {path}"),
        ({"contacts": [ANTIPODAL["contacts"][0],
                       dict(ANTIPODAL["contacts"][1], rotation=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])]},
         "contact 1 in {path} gives both 'normal' and 'rotation'"),
        (dict(ANTIPODAL, sides=3), "unknown key 'sides' in contact file {path}"),
    ], ids=["entry key", "normal and rotation", "top-level key"])
    def test_keys_the_cli_does_not_read_exit_2(self, payload, message, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", payload)
        assert main(["closure", path]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("index,field,value,bound", [
        (0, "mu", 1e308, "10"), (1, "mu_tau", 1.5, "1"),
    ], ids=["mu", "mu_tau"])
    def test_friction_past_the_scenario_bounds_exits_2(self, index, field, value, bound,
                                                        tmp_path, capsys):
        # More friction cannot remove closure, yet mu 1e308 overflowed the
        # certify LP into a warned "no"; the bounds are those of a scenario.
        contacts = [dict(c) for c in ANTIPODAL["contacts"]]
        contacts[index][field] = value
        path = write_json(tmp_path / "c.json", contacts)
        assert main(["closure", path]) == 2
        assert capsys.readouterr().err == (
            f"error: contact {index} in {path} is malformed: {field} must be a finite number"
            f" <= {bound}, got {value!r}\n"
        )

    def test_friction_bounds_are_inclusive(self, tmp_path, capsys):
        contacts = [dict(c, mu=10, mu_tau=1.0) for c in ANTIPODAL["contacts"]]
        assert main(["closure", write_json(tmp_path / "c.json", contacts)]) == 0

    @pytest.mark.parametrize("y", [1e308, 1e20, 1000.0000001])
    def test_position_past_its_bound_exits_2(self, y, tmp_path, capsys):
        # The pair at y = +-1e308 warned its way to a "no"; at +-1e20 it
        # printed margin 2.310e-01, past the 2.5e-3 its torsion faces allow.
        contacts = [dict(c, position=[0.0, y if c["position"][1] > 0 else -y, 0.0])
                    for c in ANTIPODAL["contacts"]]
        path = write_json(tmp_path / "c.json", contacts)
        assert main(["closure", path]) == 2
        assert capsys.readouterr().err == (
            f"error: contact 0 in {path} is malformed: position must be 3 numbers in"
            f" [-1000, 1000] m, got [0.0, {y!r}, 0.0]\n"
        )

    def test_position_bound_is_inclusive(self, tmp_path, capsys):
        contacts = [dict(c, position=[-1e3, 1e3 if c["position"][1] > 0 else -1e3, 1e3])
                    for c in ANTIPODAL["contacts"]]
        assert main(["closure", write_json(tmp_path / "c.json", contacts)]) == 0

    def test_empty_contact_list(self, tmp_path, capsys):
        code = main(["closure", write_json(tmp_path / "c.json", {"contacts": []})])
        assert code == 2

    def test_sides_validated(self, tmp_path, capsys):
        code = main(["closure", write_json(tmp_path / "c.json", ANTIPODAL), "--sides", "2"])
        assert code == 2

    @pytest.mark.parametrize("sides", ["254", "1000000000"])
    def test_oversized_check_rejected_before_any_solve(self, sides, tmp_path, capsys, monkeypatch):
        # Two contacts at 254 sides need 2 x 257 = 514 cone rows, two more
        # than the budget allows.
        def forbidden(*args, **kwargs):
            raise AssertionError("an oversized check reached the certifier")

        monkeypatch.setattr(cli, "is_force_closure", forbidden)
        code = main(["closure", write_json(tmp_path / "c.json", ANTIPODAL), "--sides", sides])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: closure check too large: 2 contacts") and "512" in err


class TestCalibrate:
    def test_reports_residual(self, capsys):
        code = main(["calibrate", "--samples", "200", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "true bias" in out
        assert "residual" in out

    def test_sample_count_validated(self, capsys):
        assert main(["calibrate", "--samples", "0"]) == 2

    def test_gamma_past_its_bound_exits_2(self, capsys):
        assert main(["calibrate", "--gamma", "1e308"]) == 2
        assert capsys.readouterr().err.startswith("error: gamma must be a finite number >= ")

    def test_huge_estimate_prints_in_exponent_form(self, capsys):
        # The default sigma is then about 8.7e305 raw units; printed with
        # .6f the estimate alone took about 320 characters.
        assert main(["calibrate", "--gamma", "2.3e-308", "--samples", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(len(line) < 100 for line in lines)
        assert "e+305 raw units" in lines[1]

    def test_readme_demo_prints_fixed_point(self, capsys):
        assert main(["calibrate", "--gamma", "11.02", "--bias", "0.5", "--samples", "1000"]) == 0
        assert capsys.readouterr().out == (
            "true bias: 0.500000 raw units\n"
            "estimated bias over 1000 samples: 0.499913 raw units\n"
            "residual calibrated offset at zero load: 0.000961 N\n"
        )

    @pytest.mark.parametrize("flags", [
        ["--bias", "1.7e308", "--samples", "4"],
        ["--bias", "1e308", "--noise-sigma", "1e308", "--samples", "10"],
    ], ids=["bias", "bias-and-noise"])
    def test_overflowing_estimate_faults(self, flags, capsys):
        # Finite flags whose sample sum overflows to an infinite estimate,
        # with no numpy overflow warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["calibrate", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "fault: non-finite calibration: bias estimate inf, residual -inf\n"


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

    def test_exp_a_stdout_repeats_and_verbose_logs_the_time(self, tmp_path):
        # The wall time goes to the graspforce logger at INFO, so two runs of one seed print
        # the same stdout and -v shows the time on stderr. Each run is a fresh interpreter,
        # where main's logging.basicConfig installs the stderr handler and its format;
        # in-process, pytest's log handlers on the root logger keep it from doing so.
        path = [str(Path(graspforce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

        def exp_a(*flags):
            return subprocess.run(
                [sys.executable, "-m", "graspforce", *flags, "exp-a", "--seed", "3",
                 "--out-dir", str(tmp_path)], capture_output=True, text=True, env=env, timeout=300,
            )

        quiet, verbose = exp_a(), exp_a("-v")
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stdout == verbose.stdout
        assert quiet.stdout.endswith(f"\n90 trials; reports in {tmp_path}\n")
        assert quiet.stderr == ""
        assert re.fullmatch(r"INFO graspforce: exp-a ran 90 trials in \d+\.\d s\n", verbose.stderr)

    def test_verbose_reaches_a_program_that_configured_logging(self, tmp_path, caplog):
        # Once the root logger has a handler, logging.basicConfig in main does nothing, so
        # -v sets the graspforce logger's own level for the call and main puts it back.
        logging.basicConfig()
        assert logging.getLogger().handlers
        package_log = logging.getLogger("graspforce")
        before = package_log.level

        def exp_a(*flags):
            caplog.clear()
            assert main([*flags, "exp-a", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
            assert package_log.level == before
            return [(r.name, r.levelname, r.getMessage()) for r in caplog.records]

        assert exp_a() == []
        (found,) = exp_a("-v")
        assert found[:2] == ("graspforce", "INFO")
        assert re.fullmatch(r"exp-a ran 90 trials in \d+\.\d s", found[2])

    def test_exp_b_writes_series_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "expb"
        code = main(["exp-b", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        series = sorted(p.name for p in out.glob("exp_b_*.csv"))
        assert (out / "exp_b_metrics.csv").exists()
        assert len(series) == 9  # 2 scenarios x 4 variants + the metrics table
        assert "rotation" in captured.out

    def test_exp_b_report_names_its_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment_b", lambda **kwargs: ["run"] * 8)
        monkeypatch.setattr(cli, "experiment_b_table", lambda runs: "table")
        out = str(tmp_path / "expb")
        assert main(["exp-b", "--out-dir", out]) == 0
        assert capsys.readouterr().out == f"table\n8 runs; series and metrics in {out}\n"

    def test_unwritable_report_is_a_fault(self, tmp_path, capsys):
        out = tmp_path / "expb"
        (out / "exp_b_metrics.csv").mkdir(parents=True)
        code = main(["exp-b", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"fault: cannot write {out / 'exp_b_metrics.csv'}: ")
        assert "Traceback" not in err


def dotted_paths(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_paths(value, prefix + key + ".")


# Every field of a default spec by its dotted path, and JSON edge values as
# typed after --set: zeros, the float extremes, non-finite numbers, and
# values of the wrong kind ("x" is taken as a plain string).
SPEC_PATHS = sorted(dotted_paths(ScenarioSpec().to_dict()))
EDGE_VALUES = ["0", "-0.0", "1e308", "-1e308", "1e-310", "NaN", "Infinity", "true", "null",
               "x", "[1]"]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VEC3 = st.lists(FINITE, min_size=3, max_size=3)
CONTACT = st.fixed_dictionaries({"position": VEC3, "normal": VEC3},
                                optional={"mu": FINITE, "mu_tau": FINITE})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_json(path / "short.json", {"object": "tape_roll", "offset": 0.002, "duration": 0.3,
                                     "sensors": {"noise_sigma": 0.0}})
    return path


def exit_code_and_stderr(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestFuzz:
    """Any input gets an exit code of the contract and no traceback."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(items=st.lists(st.tuples(st.sampled_from(SPEC_PATHS), st.sampled_from(EDGE_VALUES)),
                          min_size=1, max_size=2))
    def test_run_with_edge_overrides(self, items, fuzz_dir):
        argv = ["run", str(fuzz_dir / "short.json"), "--out-dir", str(fuzz_dir / "out")]
        for path, value in items:
            argv += ["--set", f"{path}={value}"]
        code, err = exit_code_and_stderr(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(contacts=st.lists(CONTACT, min_size=1, max_size=4))
    def test_closure_of_finite_contacts(self, contacts, fuzz_dir):
        code, err = exit_code_and_stderr(["closure", write_json(fuzz_dir / "c.json", contacts)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
