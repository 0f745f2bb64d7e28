"""The three workloads: what one pass runs, what it times and how it is checked.

grid and disturbance call ``cli.main`` in-process, exactly as the
``graspforce exp-a`` / ``exp-b`` commands do, and compare the SHA-256 of
every CSV written with the reference. closure certifies the benchmark's own
contact sets and cross-checks some with the sampling oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from graspforce import cli, closure, controller, harness, plant, sensor

import instances
from spans import Target, Tracer

# Boundary exclusion and oracle size follow the closure acceptance sweep.
BOUNDARY = 1e-6
ORACLE_WRENCHES = 500
SETS_PER_KIND = 64
ORACLE_PER_SIZE = 2

SIM_COMMANDS = {"grid": "exp-a", "disturbance": "exp-b"}


def _trial_ticks(tracer: Tracer, result) -> None:
    tracer.samples["trial_ticks"].append(len(result.series))


def _csv_bytes(tracer: Tracer, path) -> None:
    tracer.samples["csv_bytes"].append(Path(path).stat().st_size)


# Untraced runs wrap only what the end-to-end metrics need: each trial's
# time, outcome and tick count, 90 calls per grid pass.
LIGHT_TARGETS = [
    Target(harness, "run_trial", "harness.run_trial", _trial_ticks, starts_trial=True),
]

FULL_TARGETS = LIGHT_TARGETS + [
    Target(harness, "is_force_closure", "closure.is_force_closure"),
    Target(plant.Plant, "step", "plant.step"),
    Target(sensor.CalibratedSensor, "read", "sensor.read"),
    Target(sensor, "estimate_bias", "sensor.estimate_bias"),
    Target(controller.GraspController, "tick", "controller.tick"),
    Target(controller.TrajectoryController, "tick", "controller.trajectory_tick"),
    Target(harness, "resolve", "scenarios.resolve"),
    Target(harness, "write_csv", "harness.write_csv", _csv_bytes),
    Target(closure, "build_grasp_matrix", "closure.build_grasp_matrix"),
    Target(closure, "can_resist", "closure.can_resist"),
    Target(closure, "solve_lp", "simplex.solve_lp"),
    Target(closure, "adjoint_transform", "geometry.adjoint_transform"),
]


@dataclass
class Pass:
    """One pass of a workload: its timing, the work done and the checks made.

    ``latencies`` holds the seconds of each unit operation: on closure a
    certification, on the simulation workloads a control tick, as the mean
    over each trial including its set-up.
    """

    seconds: float
    ops: int
    op_seconds: float
    latencies: list[float]
    attempted: int
    failed: int
    digest: str
    tracer: Tracer
    problems: list[str]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_outputs(out_dir: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(out_dir.glob("*.csv"))}


def compare_hashes(found: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Names of expected files that are missing or differ, and of unexpected ones."""
    bad = [name for name, digest in expected.items() if found.get(name) != digest]
    return bad + sorted(set(found) - set(expected))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SimWorkload:
    """grid (exp-a) or disturbance (exp-b): one ``cli.main`` call per pass."""

    def __init__(self, name: str, program_seed: int, reference: dict, out_dir: Path):
        self.argv = [SIM_COMMANDS[name], "--seed", str(program_seed), "--out-dir", str(out_dir)]
        self.reference = reference
        self.out_dir = out_dir
        self.mix = {}

    def run_pass(self, targets: list[Target], between: Callable[[], None]) -> Pass:
        """One ``cli.main`` call; ``between`` runs after each trial.

        The pass time leaves out the time ``between`` takes.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        tracer = Tracer(after_trial=between)
        with tracer.installed(targets), contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("harness.experiment"):
                code = cli.main(self.argv)
        root = tracer.spans[0]
        seconds = root[2] - root[1] - tracer.paused

        found = hash_outputs(self.out_dir)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        bad_csv = compare_hashes(found, self.reference["csv"])
        raised = tracer.counts["harness.run_trial.raised"]
        trial_ticks = tracer.samples["trial_ticks"]
        trial_seconds = [s[2] - s[1] for s in tracer.spans if s[0] == "harness.run_trial"]
        ticks = sum(trial_ticks)
        experiment_ok = code == 0 and ticks == self.reference["ticks"]
        problems = [f"{name}: missing, unexpected or hash differs" for name in bad_csv]
        if raised:
            problems.append(f"{raised} trials raised")
        if not experiment_ok:
            problems.append(f"exit code {code} and {ticks} ticks, expected 0 and "
                            f"{self.reference['ticks']}")
        # Checked: every trial, every CSV, and the exit code with the tick count.
        return Pass(
            seconds=seconds,
            ops=ticks,
            op_seconds=seconds,
            latencies=[t / n for t, n in zip(trial_seconds, trial_ticks)],
            attempted=tracer.trial + 1 + len(set(found) | set(self.reference["csv"])) + 1,
            failed=raised + len(bad_csv) + (not experiment_ok),
            digest=_digest(repr(sorted(found.items()))),
            tracer=tracer,
            problems=problems,
        )


def verdict(report) -> str:
    """One letter per set: X inside the boundary band, Y closure, N not."""
    if abs(report.margin) <= BOUNDARY:
        return "X"
    return "Y" if report.is_force_closure else "N"


class ClosureWorkload:
    """Certify every generated set, and run the oracle on two pairs and two triples.

    The oracle instances are the first ORACLE_PER_SIZE non-excluded sets of
    each size, so every pass does the same work and both LP sizes are timed.
    """

    def __init__(self, seed: int, reference: str):
        self.seed = seed
        self.sets = instances.generate(seed, SETS_PER_KIND)
        if len(reference) != len(self.sets):
            raise ValueError(f"reference holds {len(reference)} verdicts for {len(self.sets)} sets")
        self.reference = reference
        included = [i for i, v in enumerate(reference) if v != "X"]
        self.oracle_ids = [
            i
            for size in (2, 3)
            for i in [i for i in included if len(self.sets[i][1]) == size][:ORACLE_PER_SIZE]
        ]
        if len(self.oracle_ids) != 2 * ORACLE_PER_SIZE:
            raise ValueError(f"seed {seed}: too few sets outside the boundary band for the oracle")
        self.mix = {
            "sets": len(self.sets),
            "pairs": sum(len(c) == 2 for _, c in self.sets),
            "triples": sum(len(c) == 3 for _, c in self.sets),
            "closure": reference.count("Y"),
            "not_closure": reference.count("N"),
            "excluded_at_boundary": reference.count("X"),
            "oracle_sets": self.oracle_ids,
        }

    def run_pass(self, targets: list[Target], between: Callable[[], None]) -> Pass:
        """Certify the sets in equal slices, each slice followed by one oracle run.

        Interleaving spreads both kinds of call over the whole run, so a
        slow stretch of the machine weighs on both alike. ``between`` runs
        between calls; the pass time is the sum of the calls' times, so
        whatever ``between`` does is not counted.
        """
        tracer = Tracer()
        verdicts = []
        latencies = []
        resisted = []
        oracle_seconds = 0.0
        slices = len(self.oracle_ids)
        with tracer.installed(targets):
            for k, i_oracle in enumerate(self.oracle_ids):
                for i in range(k * len(self.sets) // slices, (k + 1) * len(self.sets) // slices):
                    between()
                    tracer.trial = i
                    started = time.perf_counter()
                    with tracer.span("closure.is_force_closure"):
                        report = closure.is_force_closure(self.sets[i][1])
                    latencies.append(time.perf_counter() - started)
                    verdicts.append((verdict(report), report.is_force_closure))
                between()
                tracer.trial = i_oracle
                started = time.perf_counter()
                with tracer.span("closure.resistance_oracle"):
                    resisted.append(closure.resistance_oracle(
                        self.sets[i_oracle][1], ORACLE_WRENCHES, seed=self.seed * 1000 + i_oracle
                    ))
                oracle_seconds += time.perf_counter() - started
        between()
        oracle = [r == verdicts[i][1] for i, r in zip(self.oracle_ids, resisted)]

        letters = "".join(v for v, _ in verdicts)
        problems = [f"set {i}: verdict {got}, expected {want}"
                    for i, (got, want) in enumerate(zip(letters, self.reference)) if got != want]
        problems += [f"set {i}: oracle disagrees" for i, ok in zip(self.oracle_ids, oracle) if not ok]
        return Pass(
            seconds=sum(latencies) + oracle_seconds,
            ops=ORACLE_WRENCHES * sum(oracle),
            op_seconds=oracle_seconds,
            latencies=latencies,
            attempted=len(verdicts) + len(oracle),
            failed=len(problems),
            digest=_digest(letters + repr(oracle)),
            tracer=tracer,
            problems=problems,
        )
