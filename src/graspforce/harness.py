"""Trial execution, experiment grids, metrics, and CSV reports.

run_trial wires sensors, controller, and plant together at the control
rate and records one row per control tick, in one loop for both
controllers. Every tick reads what the plant publishes: the load-cell
forces, the joint positions, the object position and g_dot_n. The plant is
deterministic in its inputs and the commands it is given, so an experiment
keeps a tape of the first trial with given plant inputs, per controller
kind: each stepped command and the plant's state after that step. A later
trial with those inputs reads its own sensors and ticks its own controller
on the tape, restoring each taped state instead of stepping while its
commands have the taped commands' bits, and steps live from its first
other command or the tape's end. Its rows are the rows it gives alone.
Experiment A sweeps object, offset, and repetition for both controllers
and reports displacement statistics; it keeps each trial's metrics, not
its series, which run_trial (or `graspforce run`) gives for any one spec.
Experiment B runs the push and wrist-rotation disturbance scenarios for the
baseline controller and each single-component ablation, recording full
time series plus headline metrics; a run whose series has the bits of an
earlier run's gets a copy of that run's CSV, and an INFO line says so.

All randomness flows from explicit integer seeds, so rerunning any
experiment with the same seed writes byte-identical CSV files.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
import operator
import shutil
import struct
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .closure import Contact, is_force_closure
from .controller import (
    ControllerConfig,
    GraspController,
    GraspPhase,
    STOP_AT_GOAL,
    TrajectoryController,
)
from .plant import Plant, Push, WristSweep
from .scenarios import (
    FORCE, ScenarioSpec, SensorSetup, TAPE_ROLL, TRAJECTORY, resolve, with_overrides,
)
from .sensor import CalibratedSensor

log = logging.getLogger("graspforce")

EXPERIMENT_A_OFFSETS = (0.002, 0.005, 0.008, 0.011, 0.014)
EXPERIMENT_A_REPS = 3
# exp-b's controller variants: each switches off one component of the baseline.
EXPERIMENT_B_VARIANTS = {
    "none": {},
    "no_compliance": {"compliance_enabled": False},
    "no_deadband": {"deadband_enabled": False},
    "no_gravity_comp": {"gravity_comp_enabled": False},
}
# The dotted paths each experiment sets per trial; exp-b also holds every
# trial to its end, which its metric windows need.
_EXPERIMENT_A_FIXED = ("object", "offset", "controller", "seed")
_EXPERIMENT_B_FIXED = ("controller", "seed", "pushes", "wrist", "control.phase3_mode",
                       *(f"control.{flag}" for flags in EXPERIMENT_B_VARIANTS.values()
                         for flag in flags))
# exp_a_trials.csv opens with these, from each trial's spec and grid cell,
# then carries the TrialMetrics fields.
_SPEC_COLUMNS = ("object", "controller", "offset", "rep", "seed")

# Prime strides decorrelate the per-trial sensor seeds across grid axes.
_SEED_REP = 9973
_SEED_OFFSET = 389
_SEED_OBJECT = 7919


def _reject_overrides(experiment: str, overrides: dict | None, fixed: tuple[str, ...]):
    """Refuse overrides of the dotted paths an experiment sets per trial."""
    for path in fixed:
        section, _, key = path.rpartition(".")  # no path is more than one section deep
        node = (overrides or {}).get(section) if section else overrides
        if isinstance(node, dict) and key in node:
            hint = "; set the base seed with --seed" if path == "seed" else ""
            raise ValueError(f"{path} is set per trial by {experiment}, not overridable{hint}")


class TimeSeriesRow(NamedTuple):
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


CSV_HEADER = ",".join(TimeSeriesRow._fields)
_F_INT = operator.itemgetter(TimeSeriesRow._fields.index("f_int"))
_T = operator.itemgetter(TimeSeriesRow._fields.index("t"))
# One CSV line per row: "%.9g" gives the bytes format(float(v), ".9g") gives
# for every float, int and bool, so a series reads as the report tables do.
_ROW_FORMAT = ",".join("%s" if kind is str else "%.9g"
                       for kind in get_type_hints(TimeSeriesRow).values()) + "\n"


@dataclass
class TrialMetrics:
    """The metrics of one trial, as exp-a keeps them.

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


@dataclass
class TrialResult(TrialMetrics):
    """The metrics plus the full time series of one trial."""

    series: list[TimeSeriesRow]

    def metrics(self) -> TrialMetrics:
        """The trial's metrics, without its series."""
        return TrialMetrics(**{f.name: getattr(self, f.name) for f in fields(TrialMetrics)})

    def value_at(self, t: float) -> TimeSeriesRow:
        """Row closest to time t; row k is at k control periods."""
        idx = round(t / resolve(self.spec).period)
        return self.series[min(max(idx, 0), len(self.series) - 1)]


@functools.lru_cache(maxsize=64)
def _face_pair_closes(width: float, mu: float, mu_tau: float) -> bool:
    """Whether contacts on an object's two faces, where the fingers latch, are in force
    closure: one verdict gates a force trial's handoff, and one certify serves each pair."""
    half = 0.5 * width
    return is_force_closure([
        Contact.from_normal((-half, 0.0, 0.0), (1.0, 0.0, 0.0), mu, mu_tau),
        Contact.from_normal((half, 0.0, 0.0), (-1.0, 0.0, 0.0), mu, mu_tau),
    ]).is_force_closure


def run_trial(spec: ScenarioSpec,
              tapes: dict[str, tuple[str, list]] | None = None) -> TrialResult:
    """Simulate one grasp trial and compute its metrics.

    Alone, a trial runs live: each tick reads the sensors, ticks the
    controller and steps the plant. tapes is the store an experiment makes
    per call: per controller kind, the key of the last plant inputs seen and
    the tape of the first trial with them, one (command, state after its
    step) entry per stepped tick. The key is the repr of those inputs, so
    values that compare equal with other bits, such as offsets 0.0 and
    -0.0, do not share a tape. A trial with the held key replays that tape
    (see _trial_loop); any other trial records its run as the new tape of
    its kind.
    """
    resolved = resolve(spec)
    samples = spec.sensors.calibration_samples
    sensors = tuple(CalibratedSensor(model, samples) for model in resolved.sensor_models)
    if spec.controller == FORCE:
        controller = GraspController(
            resolved.control, resolved.request,
            pair_closes=_face_pair_closes(resolved.obj.width, spec.mu, spec.mu_tau),
        )
    else:
        controller = TrajectoryController(resolved.control, resolved.request)
    start_aperture = resolved.request.start_aperture
    plant = Plant(resolved.obj, start_aperture=start_aperture, offset=spec.offset,
                  pushes=spec.pushes, wrist=spec.wrist, config=spec.plant, period=resolved.period)
    tape, record = (), None
    if tapes is not None:
        key = repr((resolved.obj, start_aperture, spec.offset, spec.pushes, spec.wrist, spec.plant,
                    resolved.period, resolved.ticks))
        held_key, held = tapes.get(spec.controller, (None, None))
        if held_key == key:
            tape = held
        else:
            record = []
            tapes[spec.controller] = (key, record)
    rows = _trial_loop(plant, controller, sensors, resolved.period, resolved.ticks, tape, record)
    return _finish_trial(spec, resolved.control, resolved.obj.width, rows, controller.finished)


def _trial_loop(plant, controller, sensors, dt, ticks, tape, record) -> list[TimeSeriesRow]:
    """The trial's rows, one per tick until its controller finishes.

    Each tick reads the plant, checks its measurement, ticks the controller
    and records its row. While the tape has an entry for the tick and the
    command has the taped command's bits (equal, with zeros of one sign; a
    NaN matches nothing), the tick restores the taped state after that step
    instead of stepping. Otherwise the loop drops the tape and steps live:
    a taped fault repeats because its tick runs live. Once its state is
    checked finite, a stepped tick appends its command and that state to
    record, when given, so a faulting trial's tape ends before its fault.
    """
    read1, read2 = sensors[0].read, sensors[1].read
    isfinite, copysign = math.isfinite, math.copysign
    rows: list[TimeSeriesRow] = []
    # tuple.__new__ builds a row in C: the NamedTuple's own __new__ is Python code.
    append, new, row_type = rows.append, tuple.__new__, TimeSeriesRow

    for k in range(ticks):
        t = k * dt
        f1 = read1(plant.load_f1)
        f2 = read2(plant.load_f2)
        if not (isfinite(f1) and isfinite(f2)):
            raise RuntimeError(f"non-finite measurement at t={t:.3f} s")

        q1, q2 = plant.q1, plant.q2
        cmd = controller.tick(f1, f2, q1, q2, plant.g_dot_n)
        append(new(row_type, (t, q1, q2, f1, f2, f1 + f2, controller.last_f_ext, plant.x_obj,
                              controller.phase, controller.last_u_int, controller.last_u_ext)))
        if k < len(tape):
            (r1, r2), state = tape[k]
            c1, c2 = cmd
            if (c1 == r1 and c2 == r2 and (c1 or copysign(1.0, c1) == copysign(1.0, r1))
                    and (c2 or copysign(1.0, c2) == copysign(1.0, r2))):
                plant.restore(state)
                if controller.finished:
                    break
                continue
            tape = ()
        plant.step(cmd)
        if not (
            isfinite(plant.x_obj) and isfinite(plant.q1) and isfinite(plant.q2)
            and isfinite(plant.true_f1) and isfinite(plant.true_f2)
        ):
            raise RuntimeError(f"non-finite plant state at t={t:.3f} s")
        if record is not None:
            record.append((cmd, plant.state()))
        if controller.finished:
            break
    return rows


def _finish_trial(spec, cfg, obj_width, rows, finished) -> TrialResult:
    x0 = rows[0].x_obj
    x_end = rows[-1].x_obj
    # Joint-state displacement estimate: the finger nearest the object
    # first crosses its free gap, so any travel beyond the gap went into
    # moving (or squeezing) the object.
    near_q_end = rows[-1].q2 if spec.offset >= 0.0 else rows[-1].q1
    proxy = 0.5 * obj_width + abs(spec.offset) - near_q_end
    f_int = list(map(_F_INT, rows))
    # Neither controller leaves holding, so the holding rows end the series.
    start = bisect.bisect_left(rows, True, key=lambda row: row.phase == GraspPhase.HOLDING)

    # Settled at the first holding row of the run inside the goal band that ends the series.
    goal = cfg.f_goal
    band = 0.05 * goal
    n = idx = len(rows)
    while idx > start and abs(f_int[idx - 1] - goal) <= band:
        idx -= 1
    settle_time = rows[idx].t if idx < n else None
    # Rounding is monotone, so the peak's excess is the largest excess, bit for bit.
    overshoot = max(f_int[start:], default=goal) - goal

    return TrialResult(
        spec=spec,
        displacement_truth=abs(x_end - x0),
        displacement_proxy=proxy,
        max_total_force=max(f_int),
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
    _write_table(path, CSV_HEADER.split(","), map(_ROW_FORMAT.__mod__, rows))
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
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def make_out_dir(out_dir: str | Path) -> Path:
    """Create a report directory, or raise ValueError if it cannot be made."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make output directory {out}: {exc}") from exc
    return out


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
    """exp-a's trials, each kept as its metrics only, so memory does not grow
    with the grid; run_trial or `graspforce run` on a trial's spec gives its series."""

    trials: list[TrialMetrics]
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
    overrides: dict | None = None,
) -> ExperimentAResult:
    """Displacement grid: offsets x objects x repetitions, both controllers.

    Paired seeding: the force and trajectory runs of one grid cell share
    the same sensor seed, so their comparison is not confounded by noise.
    """
    _reject_overrides("exp-a", overrides, _EXPERIMENT_A_FIXED)
    if reps < 1 or not offsets or not objects:
        raise ValueError(f"exp-a needs reps >= 1 and some offsets and objects, got reps={reps}, "
                         f"offsets={tuple(offsets)}, objects={tuple(objects)}")
    started = time.perf_counter()
    control = ControllerConfig(phase3_mode=STOP_AT_GOAL)
    # Every spec is built, and so checked, before the output directory is made.
    specs = [
        with_overrides(ScenarioSpec(
            object=object_name, offset=offset, controller=controller,
            seed=_trial_seed(base_seed, i_obj, i_off, rep), control=control,
        ), overrides)
        for i_obj, object_name in enumerate(objects)
        for i_off, offset in enumerate(offsets)
        for rep in range(reps)
        for controller in (FORCE, TRAJECTORY)
    ]
    out = None if out_dir is None else make_out_dir(out_dir)
    tapes = {}
    trials = [run_trial(spec, tapes).metrics() for spec in specs]

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

    if out is not None:
        metrics = _columns(TrialMetrics, "spec")
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
# Per scenario: its disturbance fields, its seed stride and the end of its metric windows.
_EXPERIMENT_B_SCENARIOS = {
    "push": ({"duration": PUSH_DURATION, "pushes": PUSH_SCHEDULE}, 0, _POST_TOTAL_WINDOW[1]),
    "rotation": ({"duration": ROTATION_DURATION, "wrist": ROTATION_SWEEP}, 17,
                 ROTATION_SWEEP.t_end),
}


def _window_rows(result: TrialResult, t0: float, t1: float) -> list[TimeSeriesRow]:
    """The rows with t0 <= t <= t1; row k is at k periods, so t rises and bisection finds them."""
    series = result.series
    return series[bisect.bisect_left(series, t0, key=_T):bisect.bisect_right(series, t1, key=_T)]


def _same_series(a: list[TimeSeriesRow], b: list[TimeSeriesRow]) -> bool:
    """Whether two series have the same bits, and so write the same CSV bytes.

    Rows compare by ==, which lets a NaN match only itself, as one object;
    == also takes 0.0 for -0.0, so a column that holds a zero must match
    in its bits too. The last rows are compared first: series that part
    ways seldom meet again.
    """
    if len(a) != len(b) or a[-1] != b[-1] or a != b:
        return False
    pack = struct.Struct(f"{len(a)}d").pack
    return all(0.0 not in col_a or pack(*col_a) == pack(*col_b)
               for col_a, col_b in zip(zip(*a), zip(*b)))


def _experiment_b_spec(scenario: str, variant: str, base_seed: int,
                       overrides: dict | None) -> ScenarioSpec:
    # All variants of one scenario share a seed so ablation comparisons see
    # identical noise; each run then differs from baseline in exactly one
    # controller flag.
    disturbance, seed_stride, metrics_end = _EXPERIMENT_B_SCENARIOS[scenario]
    spec = ScenarioSpec(
        object=TAPE_ROLL.name, controller=FORCE, seed=base_seed + seed_stride,
        control=ControllerConfig(**EXPERIMENT_B_VARIANTS[variant]),
        sensors=SensorSetup(gain_scale1=1.01, gain_scale2=0.99),
        **disturbance,
    )
    spec = with_overrides(spec, overrides)
    duration = resolve(spec).duration
    if not duration >= metrics_end:
        raise ValueError(f"{scenario} duration {duration!r} s ends before its metric windows, "
                         f"which run to {metrics_end} s")
    if spec.control.control_rate < _MIN_CONTROL_RATE:
        raise ValueError(f"control_rate {spec.control.control_rate!r} Hz is below the "
                          f"{_MIN_CONTROL_RATE:g} Hz that puts two ticks in every metric window")
    return spec


def run_experiment_b(
    out_dir: str | Path | None = None,
    base_seed: int = 0,
    overrides: dict | None = None,
) -> dict[tuple[str, str], ExperimentBRun]:
    """Disturbance scenarios (push, rotation) x (baseline + three ablations).

    The push scenario presses 1 N on each finger in turn; the rotation
    scenario sweeps the wrist through 180 degrees. Sensor gains carry a
    +/-1% miscalibration, which is what the deadband ablation exposes as
    post-push drift. An ablation can leave its scenario's series bit for
    bit as it was (see _same_series); such a run's CSV is copied from the
    first run with that series, not formatted again, and logged at INFO.
    """
    _reject_overrides("exp-b", overrides, _EXPERIMENT_B_FIXED)
    # Every spec is built, and so checked, before the output directory is made.
    specs = {
        (scenario, variant): _experiment_b_spec(scenario, variant, base_seed, overrides)
        for scenario in _EXPERIMENT_B_SCENARIOS
        for variant in EXPERIMENT_B_VARIANTS
    }
    out = None if out_dir is None else make_out_dir(out_dir)
    runs: dict[tuple[str, str], ExperimentBRun] = {}
    tapes = {}
    for (scenario, variant), spec in specs.items():
        result = run_trial(spec, tapes)
        post_rate = post_total = peak = None
        if scenario == "push":
            settled_windows = _PUSH_SETTLED_WINDOWS
            rate_rows = _window_rows(result, *_POST_RATE_WINDOW)
            total_rows = _window_rows(result, *_POST_TOTAL_WINDOW)
            post_rate = (rate_rows[-1].x_obj - rate_rows[0].x_obj) / (
                rate_rows[-1].t - rate_rows[0].t
            )
            post_total = abs(total_rows[-1].x_obj - total_rows[0].x_obj)
        else:
            settled_windows = ((ROTATION_SWEEP.t_start + 1.0, ROTATION_SWEEP.t_end),)
            ref = result.value_at(ROTATION_SWEEP.t_start).x_obj
            peak = max(abs(r.x_obj - ref)
                       for r in _window_rows(result, ROTATION_SWEEP.t_start, math.inf))
        # Every window holds rows: the spec reaches past them and the trial holds to its end.
        settled = max(r.f_int for t0, t1 in settled_windows for r in _window_rows(result, t0, t1))
        runs[(scenario, variant)] = ExperimentBRun(
            scenario=scenario,
            variant=variant,
            result=result,
            max_total_force=result.max_total_force,
            settled_max_total_force=settled,
            post_drift_rate=post_rate,
            post_drift_total=post_total,
            peak_object_drift=peak,
        )

    if out is not None:
        formatted: list[tuple[str, list[TimeSeriesRow], Path]] = []  # (run, series, file)
        for (scenario, variant), run in runs.items():
            name, series = f"{scenario}/{variant}", run.result.series
            path = out / f"exp_b_{scenario}_{variant}.csv"
            twin = next((f for f in formatted if _same_series(series, f[1])), None)
            if twin is None:
                formatted.append((name, series, write_csv(series, path)))
                continue
            twin_name, _, twin_path = twin
            try:
                shutil.copyfile(twin_path, path)
            except OSError as exc:
                raise RuntimeError(f"cannot write {path}: {exc}") from exc
            log.info("exp-b: %s has %s's series, bit for bit", name, twin_name)
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
