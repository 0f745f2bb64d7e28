"""Scenario loading, validation, overrides, and resolution."""

import copy
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from graspforce import scenarios
from graspforce.controller import STOP_AT_GOAL, ControllerConfig
from graspforce.harness import run_experiment_a, run_trial
from graspforce.plant import FINGER_1, FINGER_2, OBJECT, ObjectSpec, Plant, PlantConfig, Push
from graspforce.scenarios import (
    MAX_TRIAL_SUBSTEPS,
    OBJECTS,
    ScenarioSpec,
    SensorSetup,
    load_scenario,
    parse_overrides,
    resolve,
    with_overrides,
)


class TestCatalog:
    def test_three_objects_with_expected_ordering(self):
        assert set(OBJECTS) == {"styrofoam", "tape_roll", "wooden_cuboid"}
        masses = [OBJECTS[n].mass for n in ("styrofoam", "tape_roll", "wooden_cuboid")]
        assert masses == sorted(masses)
        stiff = [OBJECTS[n].stiffness for n in ("styrofoam", "tape_roll", "wooden_cuboid")]
        assert stiff == sorted(stiff)

    def test_trial_starts_the_object_at_the_offset(self):
        spec = ScenarioSpec(object="tape_roll", offset=0.008, duration=0.01)
        assert resolve(spec).obj is OBJECTS["tape_roll"]
        assert run_trial(spec).series[0].x_obj == 0.008

    def test_inline_object_spec(self):
        custom = ObjectSpec("puck", mass=0.02, width=0.04, stiffness=800.0)
        spec = ScenarioSpec(object=custom, offset=0.002)
        resolved = resolve(spec)
        assert resolved.obj == custom

    def test_unknown_object_rejected(self):
        with pytest.raises(ValueError, match="unknown object"):
            resolve(ScenarioSpec(object="brick")).obj


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
            {"control": {"f_goal": 2.5}, "sensors": {"noise_sigma": 0.0}, "plant": {"dt": 0.0005}}
        )
        assert spec.control.f_goal == 2.5
        assert spec.sensors.noise_sigma == 0.0
        assert spec.plant.dt == 0.0005

    @pytest.mark.parametrize("name,value", [
        ("control", ControllerConfig()), ("sensors", SensorSetup()), ("plant", PlantConfig()),
    ])
    def test_only_json_shaped_sections_decode(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a mapping"):
            ScenarioSpec.from_dict({name: value})

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
        ("mu", 10.000001), ("mu_tau", 1.000001),
    ])
    def test_top_level_scalars_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict({field: value})

    def test_top_level_scalar_bounds_are_inclusive_where_stated(self):
        spec = ScenarioSpec(mu=0, mu_tau=0.0, settle_time=0.0, offset=-0.01, duration=None)
        assert spec.mu == 0 and spec.duration is None
        # Friction is bounded far above any fingertip, and the bounds are inclusive.
        widest = ScenarioSpec(mu=10, mu_tau=1.0)
        assert (widest.mu, widest.mu_tau) == (10, 1.0)

    def test_from_dict_leaves_the_callers_mapping_unchanged(self):
        data = {
            "object": {"name": "slab", "mass": 0.05, "width": 0.05, "stiffness": 2000.0},
            "control": {"f_goal": 2.5}, "sensors": {"noise_sigma": 0.0}, "plant": {"dt": 0.002},
            "pushes": [{"target": "finger1", "force": 1.0, "t_start": 1.0, "t_end": 2.0}],
            "wrist": {"t_start": 1.0, "t_end": 2.0},
        }
        before = copy.deepcopy(data)
        ScenarioSpec.from_dict(data)
        assert data == before

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
        spec = with_overrides(ScenarioSpec(), parse_overrides(["control.f_goal=2.5"]))
        assert spec.control.f_goal == 2.5

    def test_json_values_parse(self):
        items = ["control.deadband_enabled=false", "seed=9"]
        spec = with_overrides(ScenarioSpec(), parse_overrides(items))
        assert spec.control.deadband_enabled is False
        assert spec.seed == 9

    def test_bare_strings_pass_through(self):
        items = [f"control.phase3_mode={STOP_AT_GOAL}"]
        spec = with_overrides(ScenarioSpec(), parse_overrides(items))
        assert spec.control.phase3_mode == STOP_AT_GOAL

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="control.bogus"):
            with_overrides(ScenarioSpec(), parse_overrides(["control.bogus=1"]))

    def test_missing_equals_sign(self):
        with pytest.raises(ValueError, match="key=value"):
            with_overrides(ScenarioSpec(), parse_overrides(["control.f_goal"]))

    def test_dotted_path_into_inline_object(self):
        slab = ObjectSpec("slab", mass=0.05, width=0.06, stiffness=2000.0, damping=10.0)
        spec = with_overrides(ScenarioSpec(object=slab), parse_overrides(["object.mass=0.1"]))
        assert spec.object == dataclasses.replace(slab, mass=0.1)

    def test_json_object_replaces_a_section(self):
        spec = with_overrides(ScenarioSpec(), parse_overrides(
            ['object={"name": "slab", "mass": 0.1, "width": 0.05, "stiffness": 3000}']
        ))
        assert spec.object == ObjectSpec("slab", mass=0.1, width=0.05, stiffness=3000.0)

    @pytest.mark.parametrize("tree", [None, {}])
    def test_no_overrides_return_the_spec_itself(self, tree):
        spec = ScenarioSpec(object="tape_roll", offset=0.005, seed=3)
        assert with_overrides(spec, tree) is spec

    def test_a_non_empty_tree_rebuilds_and_checks_the_spec(self):
        spec = ScenarioSpec(object="tape_roll", offset=0.005, seed=3)
        same = with_overrides(spec, {"seed": 3})
        assert same == spec and same is not spec
        with pytest.raises(ValueError, match="f_goal"):
            with_overrides(spec, {"control": {"f_goal": -1.0}})

    def test_experiments_take_the_same_keys(self):
        items = ["control.f_goal=2.5", "sensors.noise_sigma=0.0"]
        result = run_experiment_a(
            offsets=(0.005,), reps=1, objects=("tape_roll",), overrides=parse_overrides(items)
        )
        for trial in result.trials:
            assert trial.spec.control.f_goal == 2.5
            assert trial.spec.control.phase3_mode == STOP_AT_GOAL
            assert with_overrides(trial.spec, parse_overrides(items)) == trial.spec
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
        with pytest.raises(ValueError, match="control period"):
            ScenarioSpec.from_dict({"object": "tape_roll", "plant": {"dt": 0.0101}})
        fast = {"object": "tape_roll", "plant": {"dt": 0.0101}, "control": {"control_rate": 50.0}}
        resolve(ScenarioSpec.from_dict(fast))
        # Just below the period, dt rounds to one substep of the whole period.
        for dt in (0.0099, 0.0067):
            resolve(ScenarioSpec.from_dict({"object": "tape_roll", "plant": {"dt": dt}}))
        plants = [Plant(OBJECTS["tape_roll"], 0.07, config=PlantConfig(dt=dt), period=0.01)
                  for dt in (0.01, 0.0067)]
        for plant in plants:
            for _ in range(50):
                plant.step((-0.02, 0.02))
        coarse, rounded = ([p.q1, p.q2, p.x_obj, p.v_obj, p.t, p.true_f1, p.true_f2]
                           for p in plants)
        assert rounded == coarse

    def test_every_resolve_returns_the_record_built_with_the_spec(self):
        spec = ScenarioSpec(object="tape_roll", offset=0.005)
        assert resolve(spec) is resolve(spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            resolve(spec).duration = 1.0

    def test_derived_record_is_not_a_field(self):
        a, b = ScenarioSpec(seed=3), ScenarioSpec(seed=3)
        assert resolve(a) is not resolve(b)
        assert a == b and hash(a) == hash(b) and resolve(a) == resolve(b)
        assert "_resolved" not in a.to_dict()
        assert resolve(with_overrides(a, {"seed": 4})).sensor_models[0].seed == 4
        assert resolve(dataclasses.replace(a, duration=2.0)).duration == 2.0

    def test_one_grasp_request_per_spec_and_none_per_trial(self, monkeypatch):
        made = []
        grasp_request = scenarios.GraspRequest

        def counting(*args, **kwargs):
            made.append(args)
            return grasp_request(*args, **kwargs)

        monkeypatch.setattr(scenarios, "GraspRequest", counting)
        spec = ScenarioSpec(object="tape_roll", duration=0.5)
        assert len(made) == 1
        run_trial(spec)
        assert len(made) == 1

    def test_explicit_duration_wins(self):
        resolved = resolve(ScenarioSpec(object="tape_roll", duration=9.0))
        assert resolved.duration == 9.0

    def test_controller_mass_defaults_to_object_mass(self):
        resolved = resolve(ScenarioSpec(object="wooden_cuboid"))
        assert resolved.control.mass == OBJECTS["wooden_cuboid"].mass

    def test_explicit_controller_mass_kept(self):
        spec = ScenarioSpec.from_dict({"object": "wooden_cuboid", "control": {"mass": 0.01}})
        assert resolve(spec).control.mass == 0.01

    def test_unknown_ablation_rejected(self):
        # The control flags are the one way to ablate a component; a spec has no ablation key.
        with pytest.raises(ValueError, match="unknown key 'ablation' in scenario"):
            ScenarioSpec.from_dict({"ablation": "no_deadband"})

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="controller"):
            ScenarioSpec(controller="mpc")

    def test_object_must_fit_inside_start_aperture(self):
        with pytest.raises(ValueError, match="does not fit"):
            ScenarioSpec(object="tape_roll", offset=0.014, start_aperture=0.06)

    def test_start_aperture_within_joint_range(self):
        with pytest.raises(ValueError, match="maximum aperture"):
            ScenarioSpec(object="tape_roll", start_aperture=0.2, end_aperture=0.058)

    def test_end_aperture_below_start(self):
        with pytest.raises(ValueError, match="end aperture"):
            ScenarioSpec(object="tape_roll", start_aperture=0.07, end_aperture=0.07)

    def test_explicit_zero_end_aperture_builds(self):
        spec = ScenarioSpec(object="tape_roll", end_aperture=0.0)
        assert resolve(spec).request.end_aperture == 0.0

    def test_closing_time_that_overflows_is_rejected_by_its_own_check(self):
        # 0.012 m at 1e-320 m/s overflows to an infinite closing time, which
        # the closing check names before the work budget sees the duration.
        with pytest.raises(ValueError, match=r"^closing from 0\.07 m to 0\.058 m at \S+ m/s"
                                             r" takes inf s"):
            ScenarioSpec(object="tape_roll", closing_speed=1e-320)

    # Specs are built, never run: a rejected one would run for hours or forever.
    @pytest.mark.parametrize("fields", [
        {"closing_speed": 1e-300},  # a finite closing time of about 1e298 s
        {"duration": 1e6},
        {"duration": 1000.01},  # one tick over the budget at 100 Hz and 10 substeps
        {"duration": 20.0, "control": ControllerConfig(control_rate=1e5),
         "plant": PlantConfig(dt=1e-5)},
        {"duration": 10.0, "plant": PlantConfig(dt=1e-6)},
    ], ids=["closing_speed", "duration", "one_tick_over", "control_rate", "plant_dt"])
    def test_work_budget_rejected(self, fields):
        with pytest.raises(ValueError, match=f"over the budget of {MAX_TRIAL_SUBSTEPS:,}"):
            ScenarioSpec(object="tape_roll", **fields)

    def test_work_budget_is_inclusive(self):
        # 1000 s at 100 Hz is 100,000 ticks of 10 substeps each, the budget exactly.
        assert resolve(ScenarioSpec(object="tape_roll", duration=1000.0)).duration == 1000.0

    # Each positive draw spans subnormals to near the float maximum, so
    # derived times and tick counts can overflow and apertures can clash.
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        offset=st.floats(-0.02, 0.02),
        start=st.none() | st.floats(0.0, 0.3, exclude_min=True),
        end=st.none() | st.floats(0.0, 0.1),
        closing_speed=st.floats(5e-324, 1e308),
        duration=st.none() | st.floats(5e-324, 1e308),
        joint_max=st.floats(0.01, 0.2),
        width=st.floats(5e-324, 0.1),
        gamma1=st.floats(5e-324, 100.0),
        pushes=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 5.0)), max_size=3),
        control_rate=st.floats(1e-3, 1e12),
    )
    def test_a_spec_that_builds_resolves(self, offset, start, end, closing_speed, duration,
                                         joint_max, width, gamma1, pushes, control_rate):
        data = {
            "object": {"name": "slab", "mass": 0.05, "width": width, "stiffness": 2000.0},
            "offset": offset, "start_aperture": start, "end_aperture": end,
            "closing_speed": closing_speed, "duration": duration,
            "control": {"joint_max": joint_max, "control_rate": control_rate},
            "sensors": {"gamma1": gamma1},
            "plant": {"dt": min(1e-3, 1.0 / control_rate)},
            "pushes": [{"target": "finger1", "force": 1.0, "t_start": t, "t_end": t + span}
                       for t, span in pushes],
        }
        try:
            spec = ScenarioSpec.from_dict(data)
        except ValueError:
            return
        resolved = resolve(spec)
        ticks = max(1, math.ceil(resolved.duration * resolved.control.control_rate))
        substeps = max(1, round(1.0 / resolved.control.control_rate / spec.plant.dt))
        assert ticks * substeps <= MAX_TRIAL_SUBSTEPS

    def test_pushes_given_as_a_list_are_frozen_with_the_spec(self):
        push = Push("finger1", 1.0, 1.0, 3.0)
        pushes = [push]
        spec = ScenarioSpec(pushes=pushes)
        pushes.append(Push("finger1", 1.0, 2.0, 4.0))  # would overlap, after the check
        assert spec.pushes == (push,)

    def test_sensor_models_inherit_seed_and_noise(self):
        spec = ScenarioSpec(object="tape_roll", seed=123,
                            sensors=SensorSetup(noise_sigma=0.0, gain_scale1=1.01))
        resolved = resolve(spec)
        m1, m2 = resolved.sensor_models
        assert m1.seed == 123
        assert m2.seed != m1.seed
        assert m1.noise_sigma == 0.0
        assert m2.noise_sigma == 0.0
        assert m1.gain_scale == 1.01


class TestPushes:
    def test_overlapping_pushes_on_one_target_rejected(self):
        for target in (FINGER_1, FINGER_2, OBJECT):
            pushes = (Push(target, 1.0, 0.0, 2.0), Push(target, 1.0, 1.0, 3.0))
            with pytest.raises(ValueError, match=f"^overlapping pushes scheduled on {target}$"):
                ScenarioSpec(pushes=pushes)

    def test_first_overlapping_target_is_named_in_fixed_order(self):
        pushes = tuple(Push(target, 1.0, start, start + 2.0)
                       for target in (OBJECT, FINGER_2) for start in (1.0, 0.0))
        with pytest.raises(ValueError, match=f"on {FINGER_2}$"):
            ScenarioSpec(pushes=pushes)

    def test_touching_pushes_build(self):
        for target in (FINGER_1, FINGER_2, OBJECT):
            pushes = (Push(target, 1.0, 1.0, 2.0), Push(target, -1.0, 0.0, 1.0))
            assert ScenarioSpec(pushes=pushes).pushes == pushes

    def test_overlap_on_different_targets_allowed(self):
        spec = ScenarioSpec(pushes=(Push(FINGER_1, 1.0, 0.0, 2.0), Push(OBJECT, 1.0, 1.0, 3.0)))
        obj = resolve(spec).obj
        plant = Plant(obj, 0.08, pushes=spec.pushes, wrist=spec.wrist, period=0.5)
        for _ in range(3):
            plant.step((plant.q1, plant.q2))
        assert plant.t == pytest.approx(1.5)
        assert (plant.load_f1, plant.load_f2) == (1.0, 0.0)
        assert plant.x_obj > 0.0
        # Drag balances the push: terminal velocity is force / damping.
        assert plant.v_obj == pytest.approx(1.0 / obj.damping)
