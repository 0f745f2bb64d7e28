"""Scenario loading, validation, overrides, and resolution."""

import dataclasses
import json

import pytest

from graspforce.controller import STOP_AT_GOAL, ControlCommand
from graspforce.harness import run_experiment_a
from graspforce.plant import ObjectSpec, Plant, PlantConfig
from graspforce.scenarios import (
    ABLATIONS,
    OBJECTS,
    ScenarioSpec,
    SensorSetup,
    apply_overrides,
    load_scenario,
    parse_overrides,
    resolve,
)


class TestCatalog:
    def test_three_objects_with_expected_ordering(self):
        assert set(OBJECTS) == {"styrofoam", "tape_roll", "wooden_cuboid"}
        masses = [OBJECTS[n].mass for n in ("styrofoam", "tape_roll", "wooden_cuboid")]
        assert masses == sorted(masses)
        stiff = [OBJECTS[n].stiffness for n in ("styrofoam", "tape_roll", "wooden_cuboid")]
        assert stiff == sorted(stiff)

    def test_object_spec_carries_the_offset(self):
        spec = ScenarioSpec(object="tape_roll", offset=0.008)
        assert spec.object_spec().initial_offset == 0.008

    def test_inline_object_spec(self):
        custom = ObjectSpec("puck", mass=0.02, width=0.04, stiffness=800.0)
        spec = ScenarioSpec(object=custom, offset=0.002)
        resolved = resolve(spec)
        assert resolved.obj.name == "puck"
        assert resolved.obj.initial_offset == 0.002

    def test_unknown_object_rejected(self):
        with pytest.raises(ValueError, match="unknown object"):
            ScenarioSpec(object="brick").object_spec()


class TestSerialization:
    def test_dict_round_trip(self):
        spec = ScenarioSpec(object="wooden_cuboid", offset=0.011, seed=7,
                            controller="trajectory")
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_round_trip_with_disturbances(self):
        data = {
            "object": "tape_roll",
            "pushes": [{"target": "finger1", "force": 1.0, "t_start": 3.0, "t_end": 5.0}],
            "wrist": {"t_start": 3.0, "t_end": 13.0, "angle_end": 3.14159},
        }
        spec = ScenarioSpec.from_dict(data)
        assert spec.pushes[0].target == "finger1"
        assert spec.wrist.t_end == 13.0
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_nested_dicts_build_configs(self):
        spec = ScenarioSpec.from_dict(
            {"control": {"f_goal": 2.5}, "sensors": {"noise": False}, "plant": {"dt": 0.0005}}
        )
        assert spec.control.f_goal == 2.5
        assert spec.sensors.noise is False
        assert spec.plant.dt == 0.0005

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="bogus"):
            ScenarioSpec.from_dict({"bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ValueError, match="slew"):
            ScenarioSpec.from_dict({"control": {"slew": 1}})

    @pytest.mark.parametrize("field,value", [
        ("mu", "x"), ("mu", True), ("mu", -0.1), ("mu_tau", float("nan")),
        ("closing_speed", 0.0), ("closing_speed", float("inf")), ("settle_time", -5.0),
        ("duration", 0.0), ("duration", float("inf")), ("offset", float("nan")),
    ])
    def test_top_level_scalars_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict({field: value})

    def test_top_level_scalar_bounds_are_inclusive_where_stated(self):
        spec = ScenarioSpec(mu=0, mu_tau=0.0, settle_time=0.0, offset=-0.01, duration=None)
        assert spec.mu == 0 and spec.duration is None

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"object": "styrofoam", "offset": 0.005}))
        spec = load_scenario(path)
        assert spec.object == "styrofoam"

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")


class TestOverrides:
    def test_dotted_path_sets_nested_field(self):
        spec = apply_overrides(ScenarioSpec(), ["control.f_goal=2.5"])
        assert spec.control.f_goal == 2.5

    def test_json_values_parse(self):
        spec = apply_overrides(ScenarioSpec(), ["sensors.noise=false", "seed=9"])
        assert spec.sensors.noise is False
        assert spec.seed == 9

    def test_bare_strings_pass_through(self):
        spec = apply_overrides(ScenarioSpec(), [f"control.phase3_mode={STOP_AT_GOAL}"])
        assert spec.control.phase3_mode == STOP_AT_GOAL

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="control.bogus"):
            apply_overrides(ScenarioSpec(), ["control.bogus=1"])

    def test_missing_equals_sign(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides(ScenarioSpec(), ["control.f_goal"])

    def test_dotted_path_into_inline_object(self):
        slab = ObjectSpec("slab", mass=0.05, width=0.06, stiffness=2000.0, damping=10.0)
        spec = apply_overrides(ScenarioSpec(object=slab), ["object.mass=0.1"])
        assert spec.object == dataclasses.replace(slab, mass=0.1)

    def test_json_object_replaces_a_section(self):
        spec = apply_overrides(
            ScenarioSpec(),
            ['object={"name": "slab", "mass": 0.1, "width": 0.05, "stiffness": 3000}'],
        )
        assert spec.object == ObjectSpec("slab", mass=0.1, width=0.05, stiffness=3000.0)

    def test_experiments_take_the_same_keys(self):
        items = ["control.f_goal=2.5", "sensors.noise=false"]
        result = run_experiment_a(
            offsets=(0.005,), reps=1, objects=("tape_roll",), overrides=parse_overrides(items)
        )
        for trial in result.trials:
            assert trial.spec.control.f_goal == 2.5
            assert trial.spec.control.phase3_mode == STOP_AT_GOAL
            assert apply_overrides(trial.spec, items) == trial.spec
        with pytest.raises(ValueError, match="control.bogus"):
            run_experiment_a(overrides=parse_overrides(["control.bogus=1"]))


class TestResolve:
    def test_default_apertures(self):
        resolved = resolve(ScenarioSpec(object="tape_roll", offset=0.005))
        assert resolved.request.start_aperture == pytest.approx(0.06 + 0.01 + 0.01)
        assert resolved.request.end_aperture == pytest.approx(0.058)

    def test_duration_covers_closing_plus_settle(self):
        spec = ScenarioSpec(object="tape_roll", offset=0.0, settle_time=1.5)
        resolved = resolve(spec)
        request = resolved.request
        closing = (request.start_aperture - request.end_aperture) / spec.closing_speed
        assert resolved.duration == pytest.approx(closing + 1.5)

    def test_duration_budgets_extra_march_for_large_offsets(self):
        near = resolve(ScenarioSpec(object="tape_roll", offset=0.0))
        far = resolve(ScenarioSpec(object="tape_roll", offset=0.014))
        closing_near = (near.request.start_aperture - near.request.end_aperture) / 0.010
        closing_far = (far.request.start_aperture - far.request.end_aperture) / 0.010
        assert near.duration - closing_near == pytest.approx(1.5)
        assert far.duration - closing_far > 1.5

    def test_plant_step_fits_the_control_period(self):
        # 100 Hz control: a 10 ms substep is one substep per period.
        resolve(ScenarioSpec.from_dict({"object": "tape_roll", "plant": {"dt": 0.01}}))
        spec = ScenarioSpec.from_dict({"object": "tape_roll", "plant": {"dt": 0.0101}})
        with pytest.raises(ValueError, match="control period"):
            resolve(spec)
        fast = {"object": "tape_roll", "plant": {"dt": 0.0101}, "control": {"control_rate": 50.0}}
        resolve(ScenarioSpec.from_dict(fast))
        # Just below the period, dt rounds to one substep of the whole period.
        for dt in (0.0099, 0.0067):
            resolve(ScenarioSpec.from_dict({"object": "tape_roll", "plant": {"dt": dt}}))
        plants = [Plant(OBJECTS["tape_roll"], 0.07, config=PlantConfig(dt=dt))
                  for dt in (0.01, 0.0067)]
        for plant in plants:
            for _ in range(50):
                plant.step(ControlCommand(-0.02, 0.02), 0.01)
        coarse, rounded = ([p.q1, p.q2, p.x_obj, p.v_obj, p.t, p.true_f1, p.true_f2]
                           for p in plants)
        assert rounded == coarse

    def test_explicit_duration_wins(self):
        resolved = resolve(ScenarioSpec(object="tape_roll", duration=9.0))
        assert resolved.duration == 9.0

    def test_controller_mass_defaults_to_object_mass(self):
        resolved = resolve(ScenarioSpec(object="wooden_cuboid"))
        assert resolved.control.mass == OBJECTS["wooden_cuboid"].mass

    def test_explicit_controller_mass_kept(self):
        spec = ScenarioSpec.from_dict({"object": "wooden_cuboid", "control": {"mass": 0.01}})
        assert resolve(spec).control.mass == 0.01

    def test_ablations_flip_exactly_one_flag(self):
        base = resolve(ScenarioSpec(object="tape_roll")).control
        for name in ABLATIONS:
            if name == "none":
                continue
            ablated = resolve(ScenarioSpec(object="tape_roll", ablation=name)).control
            diffs = [
                f.name
                for f in dataclasses.fields(base)
                if getattr(base, f.name) != getattr(ablated, f.name)
            ]
            assert len(diffs) == 1, name

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ValueError, match="ablation"):
            ScenarioSpec(ablation="no_brakes")

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="controller"):
            ScenarioSpec(controller="mpc")

    def test_object_must_fit_inside_start_aperture(self):
        spec = ScenarioSpec(object="tape_roll", offset=0.014, start_aperture=0.06)
        with pytest.raises(ValueError, match="does not fit"):
            resolve(spec)

    def test_start_aperture_within_joint_range(self):
        spec = ScenarioSpec(object="tape_roll", start_aperture=0.2, end_aperture=0.058)
        with pytest.raises(ValueError, match="maximum aperture"):
            resolve(spec)

    def test_end_aperture_below_start(self):
        spec = ScenarioSpec(object="tape_roll", start_aperture=0.07, end_aperture=0.07)
        with pytest.raises(ValueError, match="end aperture"):
            resolve(spec)

    def test_sensor_models_inherit_seed_and_noise(self):
        spec = ScenarioSpec(object="tape_roll", seed=123,
                            sensors=SensorSetup(noise=False, gain_scale1=1.01))
        resolved = resolve(spec)
        m1, m2 = resolved.sensor_models
        assert m1.seed == 123
        assert m2.seed != m1.seed
        assert m1.noise_sigma == 0.0
        assert m2.noise_sigma == 0.0
        assert m1.gain_scale == 1.01
