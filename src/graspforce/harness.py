"""Trial execution, experiment grids, metrics, and CSV reports.

run_trial wires sensors, controller, and plant together at the control
rate and records one row per control tick. Experiment A sweeps object,
offset, and repetition for both controllers and reports displacement
statistics; experiment B runs the push and wrist-rotation disturbance
scenarios for the baseline controller and each single-component ablation,
recording full time series plus headline metrics.

All randomness flows from explicit integer seeds, so rerunning any
experiment with the same seed writes byte-identical CSV files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .closure import Contact, is_force_closure
from .controller import (
    GraspController,
    GraspPhase,
    STOP_AT_GOAL,
    TrajectoryController,
    compute_external_force,
)
from .plant import Plant, Push, WristSweep
from .scenarios import FORCE, ScenarioSpec, TAPE_ROLL, TRAJECTORY, resolve, with_overrides
from .sensor import CalibratedSensor

EXPERIMENT_A_OFFSETS = (0.002, 0.005, 0.008, 0.011, 0.014)
EXPERIMENT_A_REPS = 3
EXPERIMENT_B_VARIANTS = ("none", "no_compliance", "no_deadband", "no_gravity_comp")
# exp_a_trials.csv opens with these, from each trial's spec and grid cell,
# then carries the TrialResult metrics.
_SPEC_COLUMNS = ("object", "controller", "offset", "rep", "seed")

# Prime strides decorrelate the per-trial sensor seeds across grid axes.
_SEED_REP = 9973
_SEED_OFFSET = 389
_SEED_OBJECT = 7919


class ConfigError(ValueError):
    """A scenario that cannot be run; reported before simulation starts."""


def _reject_overrides(experiment: str, overrides: dict | None, fixed: tuple[str, ...]):
    """Refuse overrides of the keys an experiment sets per trial and labels its rows by."""
    for key in fixed:
        if key in (overrides or {}):
            hint = "; set the base seed with --seed" if key == "seed" else ""
            raise ConfigError(f"{key} is set per trial by {experiment}, not overridable{hint}")


class RuntimeFault(RuntimeError):
    """A trial that started but hit a non-finite measurement or state."""


@dataclass(slots=True)
class TimeSeriesRow:
    t: float
    q1: float
    q2: float
    f1: float
    f2: float
    f_int: float
    f_ext: float
    x_obj: float
    phase: str
    u_int: float
    u_ext: float


CSV_HEADER = ",".join(f.name for f in fields(TimeSeriesRow))
# A row's values in CSV_HEADER order, as a tuple.
_row_values = attrgetter(*CSV_HEADER.split(","))
# One CSV line per row: "%.9g" gives the bytes format(float(v), ".9g") gives
# for every float, int and bool, so a series reads as the report tables do.
_ROW_FORMAT = ",".join("%s" if f.type == "str" else "%.9g" for f in fields(TimeSeriesRow)) + "\n"


@dataclass
class TrialResult:
    """Metrics plus the full time series of one trial.

    displacement_truth is the unsigned object-center travel from the plant
    ground truth; displacement_proxy is the joint-state estimate (travel of
    the finger the object sits closest to, minus its initial free gap),
    reported alongside because a real gripper cannot observe the object
    directly. The proxy counts final pad penetration, so it slightly
    overestimates the truth. settle_time is None when the force goal was
    never settled into (for example trajectory trials).
    """

    spec: ScenarioSpec
    displacement_truth: float
    displacement_proxy: float
    max_total_force: float
    settle_time: float | None
    overshoot: float
    finished: bool
    series: list[TimeSeriesRow]

    def value_at(self, t: float) -> TimeSeriesRow:
        """Row closest to time t (series rows are at a fixed rate)."""
        if not self.series:
            raise ValueError("empty series")
        step = self.series[1].t - self.series[0].t if len(self.series) > 1 else 1.0
        idx = round((t - self.series[0].t) / step)
        return self.series[min(max(idx, 0), len(self.series) - 1)]


def _closure_probe_for(obj, mu, mu_tau):
    half = 0.5 * obj.width
    descriptions = (
        ((-half, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((half, 0.0, 0.0), (-1.0, 0.0, 0.0)),
    )

    def probe(latched: tuple[bool, bool]) -> bool:
        contacts = [
            Contact.from_normal(pos, normal, mu, mu_tau)
            for flag, (pos, normal) in zip(latched, descriptions)
            if flag
        ]
        if not contacts:
            return False
        return is_force_closure(contacts).is_force_closure

    return probe


def run_trial(spec: ScenarioSpec) -> TrialResult:
    """Simulate one grasp trial and compute its metrics."""
    try:
        resolved = resolve(spec)
        # Calibration checks its sample count, which a caller may have set
        # on the spec after it was validated.
        sensors = tuple(
            CalibratedSensor(model, spec.sensors.calibration_samples)
            for model in resolved.sensor_models
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    plant = Plant(
        resolved.obj,
        start_aperture=resolved.request.start_aperture,
        schedule=resolved.schedule,
        config=spec.plant,
    )
    if spec.controller == FORCE:
        controller = GraspController(
            resolved.control,
            resolved.request,
            closure_probe=_closure_probe_for(resolved.obj, spec.mu, spec.mu_tau),
        )
    else:
        controller = TrajectoryController(resolved.control, resolved.request)

    cfg = resolved.control
    dt = 1.0 / cfg.control_rate
    n_ticks = max(1, math.ceil(resolved.duration * cfg.control_rate))
    rows: list[TimeSeriesRow] = []
    isfinite = math.isfinite

    for k in range(n_ticks):
        t = k * dt
        true_f1, true_f2 = plant.measured_forces()
        f1 = sensors[0].read(true_f1)
        f2 = sensors[1].read(true_f2)
        g_dot_n = plant.g_dot_n()
        q1, q2 = plant.q1, plant.q2

        cmd = controller.tick(f1, f2, q1, q2, g_dot_n, dt)
        if controller.fault:
            raise RuntimeFault(f"non-finite measurement at t={t:.3f} s")

        f_ext = compute_external_force(f1, f2, cfg.mass, g_dot_n, cfg.gravity_comp_enabled)
        rows.append(
            TimeSeriesRow(
                t, q1, q2, f1, f2, f1 + f2, f_ext, plant.x_obj, controller.phase.value,
                controller.last_u_int, controller.last_u_ext,
            )
        )
        plant.step(cmd, dt)
        if not (
            isfinite(plant.x_obj) and isfinite(plant.q1) and isfinite(plant.q2)
            and isfinite(plant.true_f1) and isfinite(plant.true_f2)
        ):
            raise RuntimeFault(f"non-finite plant state at t={t:.3f} s")
        if controller.finished:
            break

    return _finish_trial(spec, cfg, resolved.obj.width, rows, controller.finished)


def _finish_trial(spec, cfg, obj_width, rows, finished) -> TrialResult:
    x0 = rows[0].x_obj
    x_end = rows[-1].x_obj
    # Joint-state displacement estimate: the finger nearest the object
    # first crosses its free gap, so any travel beyond the gap went into
    # moving (or squeezing) the object.
    near_q_end = rows[-1].q2 if spec.offset >= 0.0 else rows[-1].q1
    proxy = 0.5 * obj_width + abs(spec.offset) - near_q_end
    holding = [r for r in rows if r.phase == GraspPhase.HOLDING.value]

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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".9g")


def _report_line(cells) -> str:
    """One report-table line; its cells may be None, str or bool as well as numbers."""
    return ",".join([_fmt(v) for v in cells]) + "\n"


def write_csv(rows: list[TimeSeriesRow], path: str | Path) -> Path:
    """Write a time series with the fixed header, 9 significant digits, LF endings."""
    if not rows:
        raise ValueError("refusing to write an empty time series")
    path = Path(path)
    _write_table(path, CSV_HEADER.split(","), map(_ROW_FORMAT.__mod__, map(_row_values, rows)))
    return path


def _columns(record_cls, *skip: str) -> list[str]:
    """A report's column names: the record's fields, in order, minus skip."""
    return [f.name for f in fields(record_cls) if f.name not in skip]


def _write_table(path: Path, header: list[str], lines) -> None:
    """The one CSV writer: the header, then lines that already end in a newline."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(lines)
    except OSError as exc:
        raise RuntimeFault(f"cannot write {path}: {exc}") from exc


def _trial_seed(base: int, i_object: int, i_offset: int, rep: int) -> int:
    return base + _SEED_OBJECT * i_object + _SEED_OFFSET * i_offset + _SEED_REP * rep


@dataclass
class ExperimentASummary:
    object: str
    controller: str
    mean_displacement: float
    std_displacement: float
    mean_proxy: float
    std_proxy: float
    n_trials: int


@dataclass
class ExperimentAResult:
    trials: list[TrialResult]
    summary: list[ExperimentASummary]
    elapsed: float

    def mean_displacement(self, object_name: str, controller: str) -> float:
        for row in self.summary:
            if row.object == object_name and row.controller == controller:
                return row.mean_displacement
        raise KeyError(f"no summary row for {object_name}/{controller}")

    def table(self) -> str:
        lines = [
            f"{'object':<16} {'controller':<11} {'displacement mean+/-std [mm]':<30} {'n':>3}"
        ]
        for row in self.summary:
            disp = f"{1e3 * row.mean_displacement:.2f} +/- {1e3 * row.std_displacement:.2f}"
            lines.append(f"{row.object:<16} {row.controller:<11} {disp:<30} {row.n_trials:>3}")
        return "\n".join(lines)


def run_experiment_a(
    out_dir: str | Path | None = None,
    base_seed: int = 0,
    offsets: tuple[float, ...] = EXPERIMENT_A_OFFSETS,
    reps: int = EXPERIMENT_A_REPS,
    objects: tuple[str, ...] = ("styrofoam", "tape_roll", "wooden_cuboid"),
    noise: bool = True,
    overrides: dict | None = None,
) -> ExperimentAResult:
    """Displacement grid: offsets x objects x repetitions, both controllers.

    Paired seeding: the force and trajectory runs of one grid cell share
    the same sensor seed, so their comparison is not confounded by noise.
    """
    _reject_overrides("exp-a", overrides, ("object", "offset", "controller", "seed"))
    started = time.perf_counter()
    trials = []
    for i_obj, object_name in enumerate(objects):
        for i_off, offset in enumerate(offsets):
            for rep in range(reps):
                seed = _trial_seed(base_seed, i_obj, i_off, rep)
                for controller in (FORCE, TRAJECTORY):
                    data = {
                        "object": object_name,
                        "offset": offset,
                        "controller": controller,
                        "seed": seed,
                        "control": {"phase3_mode": STOP_AT_GOAL},
                        "sensors": {"noise": noise},
                    }
                    spec = with_overrides(ScenarioSpec.from_dict(data), overrides)
                    trials.append(run_trial(spec))

    summary = []
    for object_name in objects:
        for controller in (FORCE, TRAJECTORY):
            group = [
                t
                for t in trials
                if t.spec.object == object_name and t.spec.controller == controller
            ]
            disp = np.array([t.displacement_truth for t in group])
            proxy = np.array([t.displacement_proxy for t in group])
            summary.append(
                ExperimentASummary(
                    object=object_name,
                    controller=controller,
                    mean_displacement=float(disp.mean()),
                    std_displacement=float(disp.std(ddof=1)) if len(group) > 1 else 0.0,
                    mean_proxy=float(proxy.mean()),
                    std_proxy=float(proxy.std(ddof=1)) if len(group) > 1 else 0.0,
                    n_trials=len(group),
                )
            )
    result = ExperimentAResult(trials, summary, elapsed=time.perf_counter() - started)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metrics = _columns(TrialResult, "spec", "series")
        _write_table(
            out / "exp_a_trials.csv",
            [*_SPEC_COLUMNS, *metrics],
            (
                _report_line(
                    [t.spec.object, t.spec.controller, t.spec.offset, (i // 2) % reps, t.spec.seed]
                    + [getattr(t, name) for name in metrics]
                )
                for i, t in enumerate(trials)
            ),
        )
        _write_table(
            out / "exp_a_summary.csv",
            _columns(ExperimentASummary),
            (_report_line(vars(s).values()) for s in summary),
        )
    return result


@dataclass
class ExperimentBRun:
    scenario: str
    variant: str
    result: TrialResult
    max_total_force: float
    settled_max_total_force: float
    post_drift_rate: float | None
    post_drift_total: float | None
    peak_object_drift: float | None


PUSH_SCHEDULE = (
    Push(target="finger1", force=1.0, t_start=3.0, t_end=5.0, ramp=0.01),
    Push(target="finger2", force=1.0, t_start=7.0, t_end=9.0, ramp=0.01),
)
PUSH_DURATION = 15.0
ROTATION_SWEEP = WristSweep(t_start=3.0, t_end=13.0, angle_end=math.pi)
ROTATION_DURATION = 16.0
# Metric windows: settled parts of each push plateau, the post-push window
# for drift, and the rotation interval.
_PUSH_SETTLED_WINDOWS = ((4.0, 5.0), (8.0, 9.0))
_POST_RATE_WINDOW = (10.0, 12.0)
_POST_TOTAL_WINDOW = (9.5, 14.5)
# Two ticks in every metric window: the drift rate divides by a window's span.
_MIN_CONTROL_RATE = 2.0 / min(b - a for a, b in (*_PUSH_SETTLED_WINDOWS, _POST_RATE_WINDOW))


def _window_rows(result: TrialResult, t0: float, t1: float) -> list[TimeSeriesRow]:
    return [r for r in result.series if t0 <= r.t <= t1]


def _experiment_b_spec(scenario: str, variant: str, base_seed: int, noise: bool,
                       miscalibration: bool, overrides: dict | None) -> ScenarioSpec:
    # All variants of one scenario share a seed so ablation comparisons see
    # identical noise; each run then differs from baseline in exactly one
    # controller flag.
    data = {
        "object": TAPE_ROLL.name,
        "offset": 0.0,
        "controller": FORCE,
        "ablation": variant,
        "seed": base_seed + (0 if scenario == "push" else 17),
        "sensors": {
            "noise": noise,
            "gain_scale1": 1.01 if miscalibration else 1.0,
            "gain_scale2": 0.99 if miscalibration else 1.0,
        },
    }
    if scenario == "push":
        data["duration"] = PUSH_DURATION
        data["pushes"] = list(PUSH_SCHEDULE)
        metrics_end = _POST_TOTAL_WINDOW[1]
    elif scenario == "rotation":
        data["duration"] = ROTATION_DURATION
        data["wrist"] = ROTATION_SWEEP
        metrics_end = ROTATION_SWEEP.t_end
    else:
        raise ConfigError(f"unknown experiment-B scenario {scenario!r}")
    spec = with_overrides(ScenarioSpec.from_dict(data), overrides)
    if spec.duration is None or not spec.duration >= metrics_end:
        raise ConfigError(
            f"{scenario} duration {spec.duration!r} s ends before its metric windows, "
            f"which run to {metrics_end} s"
        )
    if spec.control.control_rate < _MIN_CONTROL_RATE:
        raise ConfigError(f"control_rate {spec.control.control_rate!r} Hz is below the "
                          f"{_MIN_CONTROL_RATE:g} Hz that puts two ticks in every metric window")
    return spec


def run_experiment_b(
    out_dir: str | Path | None = None,
    base_seed: int = 0,
    noise: bool = True,
    miscalibration: bool = True,
    overrides: dict | None = None,
) -> dict[tuple[str, str], ExperimentBRun]:
    """Disturbance scenarios (push, rotation) x (baseline + three ablations).

    The push scenario presses 1 N on each finger in turn; the rotation
    scenario sweeps the wrist through 180 degrees. Sensor gains carry a
    +/-1% miscalibration by default, which is what the deadband ablation
    exposes as post-push drift.
    """
    _reject_overrides("exp-b", overrides, ("controller", "ablation", "seed", "pushes", "wrist"))
    runs: dict[tuple[str, str], ExperimentBRun] = {}
    for scenario in ("push", "rotation"):
        for variant in EXPERIMENT_B_VARIANTS:
            spec = _experiment_b_spec(scenario, variant, base_seed, noise, miscalibration, overrides)
            result = run_trial(spec)

            if scenario == "push":
                settled = [
                    r.f_int
                    for t0, t1 in _PUSH_SETTLED_WINDOWS
                    for r in _window_rows(result, t0, t1)
                ]
                rate_rows = _window_rows(result, *_POST_RATE_WINDOW)
                total_rows = _window_rows(result, *_POST_TOTAL_WINDOW)
                post_rate = (rate_rows[-1].x_obj - rate_rows[0].x_obj) / (
                    rate_rows[-1].t - rate_rows[0].t
                )
                post_total = abs(total_rows[-1].x_obj - total_rows[0].x_obj)
                peak = None
            else:
                settled = [
                    r.f_int
                    for r in _window_rows(result, ROTATION_SWEEP.t_start + 1.0, ROTATION_SWEEP.t_end)
                ]
                post_rate = None
                post_total = None
                ref = result.value_at(ROTATION_SWEEP.t_start).x_obj
                peak = max(
                    abs(r.x_obj - ref)
                    for r in result.series
                    if r.t >= ROTATION_SWEEP.t_start
                )

            runs[(scenario, variant)] = ExperimentBRun(
                scenario=scenario,
                variant=variant,
                result=result,
                max_total_force=result.max_total_force,
                settled_max_total_force=max(settled) if settled else 0.0,
                post_drift_rate=post_rate,
                post_drift_total=post_total,
                peak_object_drift=peak,
            )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for (scenario, variant), run in runs.items():
            write_csv(run.result.series, out / f"exp_b_{scenario}_{variant}.csv")
        columns = _columns(ExperimentBRun, "result")
        _write_table(
            out / "exp_b_metrics.csv",
            columns,
            (_report_line([getattr(run, name) for name in columns]) for run in runs.values()),
        )
    return runs


def experiment_b_table(runs: dict[tuple[str, str], ExperimentBRun]) -> str:
    lines = [
        f"{'scenario':<9} {'variant':<16} {'max f_int':>10} {'settled max':>12} "
        f"{'drift rate':>12} {'peak drift':>11}"
    ]
    for run in runs.values():
        rate = f"{1e3 * run.post_drift_rate:.3f}" if run.post_drift_rate is not None else "-"
        peak = f"{1e3 * run.peak_object_drift:.2f}" if run.peak_object_drift is not None else "-"
        lines.append(
            f"{run.scenario:<9} {run.variant:<16} {run.max_total_force:>10.3f} "
            f"{run.settled_max_total_force:>12.3f} {rate:>12} {peak:>11}"
        )
    return "\n".join(lines)
