"""graspforce benchmark: the grid, disturbance and closure workloads.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Each run is one caller in one process, a closed loop of passes over the
workload's fixed job until ``--seconds`` have passed. Every pass is checked
against perfbench/reference.json. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is one JSON object;
the full result, with sample counts and machine facts, goes to
``.bench_out/result-<workload>-seed<seed>-trace<trace>.json``. See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean, median

from calibration import REFERENCE_CHUNK_S, Calibrator
from spans import LayerTotals, layer_totals
from stats import min_samples, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("grid", "disturbance", "closure")
SETUP_RUNS = 9
MIN_PASSES = 3
LATENCY_TAIL = 90

# numpy is imported before the clock starts: its import is four fifths of
# the total and swings by half between stretches of a shared machine,
# while graspforce's own part holds steady.
_SETUP_CODE = (
    "import sys, time\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "import graspforce.cli\n"
    "print(time.perf_counter() - started)\n"
)


def load_program() -> None:
    """Import graspforce from this checkout's src/, or exit with code 2."""
    if not (SRC / "graspforce" / "cli.py").is_file():
        print(f"error: no graspforce sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import graspforce

    if Path(graspforce.__file__).resolve().parent != SRC / "graspforce":
        print(f"error: graspforce imported from {graspforce.__file__}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup(calibrator: Calibrator) -> list[float]:
    """Seconds for fresh interpreters, with numpy loaded, to import graspforce.cli.

    One extra launch first, discarded, so that compiling bytecode is not
    counted. ``calibrator`` times its chunks between the launches.
    """
    samples = []
    for _ in range(SETUP_RUNS + 1):
        calibrator.between()
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    calibrator.between()
    return samples[1:]


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or "unknown: " + done.stderr.strip()
        except (OSError, subprocess.TimeoutExpired) as exc:
            commit = f"unknown: {exc}"
    src = hashlib.sha256()
    for path in sorted((SRC / "graspforce").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_passes(workload, light, full, seconds: float, trace: bool, calibrator: Calibrator):
    """Run passes until time is up; return (untraced, traced, totals, last spans).

    Untraced passes go on past the deadline until there are MIN_PASSES of
    them and enough latency samples for the reported tail. With trace on,
    untraced and traced passes alternate, ending on a traced one. Span
    totals are summed over the traced passes; only the last pass's spans
    are kept.
    """
    untraced, traced = [], []
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    last_spans: list = []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(untraced):
            done = workload.run_pass(full, calibrator.between)
            for key, layer in layer_totals(done.tracer.spans).items():
                totals[key].calls += layer.calls
                totals[key].total += layer.total
                totals[key].self += layer.self
            last_spans, done.tracer.spans = done.tracer.spans, []
            traced.append(done)
        else:
            untraced.append(workload.run_pass(light, calibrator.between))
        if time.perf_counter() < deadline:
            continue
        if trace:
            if len(traced) == len(untraced):
                return untraced, traced, totals, last_spans
        elif len(untraced) >= MIN_PASSES and len(latency_samples(untraced)) >= min_samples(
            LATENCY_TAIL
        ):
            return untraced, traced, totals, last_spans


def latency_samples(passes) -> list[float]:
    """Milliseconds per unit operation, pooled over passes."""
    return [1e3 * d for p in passes for d in p.latencies]


def end_to_end(name, untraced, setup_s: float, scale: float) -> dict:
    """End-to-end metrics from the untraced passes.

    Times of the timed section are in reference seconds: measured seconds
    times ``scale`` (see calibration.py). They are means over the whole
    run, time-weighted like the calibration they are scaled by.
    ``setup_s`` is already in reference seconds.
    """
    latency = [scale * ms for ms in latency_samples(untraced)]
    sim = name != "closure"
    n = len(untraced)
    basis = f"{len(latency)} {'trials, mean tick of each' if sim else 'certifications'}"
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_RUNS} fresh interpreters"),
        "ref_wall_s": (scale * fmean(p.seconds for p in untraced), "s", f"mean of {n} passes"),
        "ref_ops_per_s": (
            sum(p.ops for p in untraced) / sum(p.op_seconds for p in untraced) / scale,
            "1/s",
            f"{n} passes; {'control ticks' if sim else 'oracle wrenches'} per second",
        ),
        "ref_latency_ms.mean": (fmean(latency), "ms", basis),
        f"ref_latency_ms.p{LATENCY_TAIL}": (percentile(latency, LATENCY_TAIL), "ms", basis),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            "1 process, whole run",
        ),
    }


# (metric, span key, inclusive "total" or "self", calls metric)
LAYER_TIMES = (
    ("plant.step.us", "plant.step", "total", "plant.step.calls"),
    ("controller.tick.self_us", "controller.tick", "self", "controller.tick.calls"),
    ("controller.trajectory_tick.us", "controller.trajectory_tick", "total",
     "controller.trajectory_tick.calls"),
    ("sensor.read.us", "sensor.read", "total", "sensor.read.calls"),
    ("sensor.estimate_bias.us", "sensor.estimate_bias", "total", "sensor.estimate_bias.calls"),
    ("harness.write_csv.us", "harness.write_csv", "total", "harness.write_csv.calls"),
    ("scenarios.resolve.us", "scenarios.resolve", "total", "scenarios.resolve.calls"),
    ("closure.is_force_closure.self_us", "closure.is_force_closure", "self",
     "closure.is_force_closure.calls"),
    ("simplex.solve_lp.certify_us", "simplex.solve_lp<closure.is_force_closure", "total",
     "simplex.solve_lp.certify_calls"),
    ("closure.can_resist.self_us", "closure.can_resist", "self", "closure.can_resist.calls"),
    ("closure.build_grasp_matrix.us", "closure.build_grasp_matrix", "total",
     "closure.build_grasp_matrix.calls"),
    ("geometry.adjoint_transform.us", "geometry.adjoint_transform", "total",
     "geometry.adjoint_transform.calls"),
    ("simplex.solve_lp.feasibility_us", "simplex.solve_lp<closure.can_resist", "total",
     "simplex.solve_lp.feasibility_calls"),
)


def per_layer(untraced, traced, totals, mix) -> dict:
    """Per-call times and per-pass counts over the traced passes."""
    n = len(traced)
    metrics = {}

    def calls(key):
        return totals[key].calls / n if key in totals else 0.0

    def per_call_us(key, kind):
        layer = totals.get(key)
        return 1e6 * getattr(layer, kind) / layer.calls if layer and layer.calls else 0.0

    basis = f"{n} traced passes"
    for metric, key, kind, calls_metric in LAYER_TIMES:
        metrics[metric] = (per_call_us(key, kind), "us", basis)
        metrics[calls_metric] = (calls(key), "count", f"per pass, {basis}")

    ticks = sum(sum(p.tracer.samples["trial_ticks"]) for p in traced)
    run_trial = totals.get("harness.run_trial", LayerTotals())
    metrics["harness.run_trial.self_us_per_tick"] = (
        1e6 * run_trial.self / ticks if ticks else 0.0, "us", f"{ticks} ticks, {basis}"
    )
    metrics["harness.run_trial.calls"] = (calls("harness.run_trial"), "count", basis)
    metrics["harness.write_csv.bytes"] = (
        sum(sum(p.tracer.samples["csv_bytes"]) for p in traced) / n, "B",
        f"per pass, {basis}",
    )
    experiment = totals.get("harness.experiment", LayerTotals())
    paused = sum(p.tracer.paused for p in traced)
    metrics["harness.experiment.self_s"] = (
        (experiment.self - paused) / n, "s", f"per pass, {basis}, calibration left out"
    )
    metrics["harness.experiment.calls"] = (calls("harness.experiment"), "count", basis)
    metrics["closure.excluded_ratio"] = (
        mix["excluded_at_boundary"] / mix["sets"] if mix else 0.0,
        "ratio",
        f"of {mix['sets']} generated sets" if mix else "no generated sets",
    )
    metrics["trace.overhead_ratio"] = (
        median(p.seconds for p in traced) / median(p.seconds for p in untraced) - 1.0,
        "ratio",
        f"median of {n} traced over median of {len(untraced)} untraced passes",
    )
    return metrics


def write_spans(path: Path, spans: list) -> None:
    """Spans of one traced pass as CSV, times in microseconds from its first span."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,start_us,end_us,parent,trial\n")
        for name, start, end, parent, trial in spans:
            fh.write(f"{name},{1e6 * (start - origin):.3f},{1e6 * (end - origin):.3f},"
                     f"{parent},{trial}\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="graspforce benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    started = time.perf_counter()
    setup_calibrator = Calibrator()
    setup = [] if args.trace else measure_setup(setup_calibrator)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    input_seed = args.seed % reference["seeds"]
    OUT.mkdir(exist_ok=True)
    if args.workload == "closure":
        workload = workloads.ClosureWorkload(input_seed, reference["closure"][str(input_seed)])
    else:
        workload = workloads.SimWorkload(
            args.workload,
            input_seed,
            reference[args.workload][str(input_seed)],
            OUT / f"csv-{args.workload}-{os.getpid()}",
        )

    calibrator = Calibrator()
    untraced, traced, totals, last_spans = run_passes(
        workload, workloads.LIGHT_TARGETS, workloads.FULL_TARGETS, args.seconds, bool(args.trace),
        calibrator,
    )
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    # Every pass does the same work, so a traced pass must write exactly
    # what the untraced ones wrote.
    for p in traced:
        attempted += 1
        if p.digest != untraced[0].digest:
            failed += 1
            problems.append("traced pass output differs from the untraced pass")

    if args.trace:
        metrics = per_layer(untraced, traced, totals, workload.mix)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv", last_spans)
    else:
        metrics = end_to_end(
            args.workload, untraced, setup_calibrator.scale() * median(setup), calibrator.scale()
        )

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit, _) in metrics.items()}:
        print("error: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed} (inputs from seed {input_seed}), trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"{time.perf_counter() - started:.1f} s")
    for name, (value, unit, basis) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit:<6} ({basis})")
    print(f"  failed_ratio {failed}/{attempted} checked operations"
          " (trials, CSV files and exit codes; or verdicts and oracle runs)")
    for msg in problems[:20]:
        print(f"  problem: {msg}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in
                    metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        input_seed=input_seed,
        seconds=args.seconds,
        trace=args.trace,
        basis={name: basis for name, (_, _, basis) in metrics.items()},
        failed_ratio={"value": failed / attempted, "base": attempted},
        problems=problems,
        mix=workload.mix,
        pass_seconds={"untraced": [p.seconds for p in untraced],
                      "traced": [p.seconds for p in traced]},
        calibration={
            "reference_chunk_s": REFERENCE_CHUNK_S,
            "timed": {"chunks": len(calibrator.samples),
                      "mean_chunk_s": fmean(calibrator.samples),
                      "scale": calibrator.scale()},
            "setup": {"chunks": len(setup_calibrator.samples),
                      "mean_chunk_s": fmean(setup_calibrator.samples),
                      "scale": setup_calibrator.scale(),
                      "measured_s": setup} if setup else None,
        },
        machine=machine_facts(),
    )
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
