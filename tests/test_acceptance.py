"""Acceptance gate: one test per headline guarantee of the package.

Every test here measures one end-to-end behavior at a fixed tolerance and
prints a single PASS/FAIL line with the numbers behind the verdict (visible
under pytest -s or -rA). Tolerances are deliberate and should not be loosened
to make a failing build pass.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspforce.closure import (
    Contact,
    in_friction_cone,
    is_force_closure,
    linearize_cone,
    resistance_oracle,
)
from graspforce.controller import ControllerConfig, distribute
from graspforce.geometry import adjoint_transform, rotation_about_axis
from graspforce.harness import run_experiment_a, run_experiment_b, run_trial
from graspforce.scenarios import FORCE, OBJECTS, TRAJECTORY, ScenarioSpec

F_GOAL = ControllerConfig().f_goal
# SHA-256 of the CSVs that exp-a and exp-b write, per workload and seed.
REFERENCE_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def check(ok: bool, label: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid():
    """Full displacement grid, sensor noise on: 3 objects x 5 offsets x 3 reps x 2 controllers."""
    return run_experiment_a(base_seed=0)


@pytest.fixture(scope="module")
def disturbances():
    """Push and rotation scenarios x 4 controller variants, noiseless but miscalibrated."""
    return run_experiment_b(base_seed=0, overrides={"sensors": {"noise_sigma": 0.0}})


def test_force_control_limits_displacement_on_graspable_objects(grid):
    ratios = {}
    for name in ("tape_roll", "wooden_cuboid"):
        fc = grid.mean_displacement(name, FORCE)
        jtc = grid.mean_displacement(name, TRAJECTORY)
        ratios[name] = fc / jtc
    wood_mean = grid.mean_displacement("wooden_cuboid", FORCE)
    ok = (
        all(r < 0.25 for r in ratios.values())
        and wood_mean <= 2e-3
        and grid.elapsed <= 60.0
    )
    check(
        ok,
        "displacement grid",
        f"force/trajectory mean ratio tape {ratios['tape_roll']:.3f}, "
        f"cuboid {ratios['wooden_cuboid']:.3f} (target < 0.25); "
        f"cuboid force-control mean {1e3 * wood_mean:.2f} mm (target <= 2); "
        f"{len(grid.trials)} trials in {grid.elapsed:.1f} s (target <= 60)",
    )


def test_detection_floor_removes_force_control_advantage():
    # Raise the sensor floor above the styrofoam peak closing force so first
    # touch is never detected; both controllers then march to the same stop.
    floor = run_experiment_a(
        base_seed=0,
        objects=("styrofoam",),
        overrides={"sensors": {"min_force": 0.35}},
    )
    fc = floor.mean_displacement("styrofoam", FORCE)
    jtc = floor.mean_displacement("styrofoam", TRAJECTORY)
    rel = abs(fc - jtc) / jtc
    check(
        rel < 0.20,
        "detection floor",
        f"styrofoam means {1e3 * fc:.3f} vs {1e3 * jtc:.3f} mm, "
        f"relative difference {100 * rel:.1f}% (target < 20%)",
    )


def test_gravity_compensation_limits_rotation_drift(disturbances):
    base = disturbances[("rotation", "none")].peak_object_drift
    ablated = disturbances[("rotation", "no_gravity_comp")].peak_object_drift
    ok = base < 1e-3 and ablated > 10.0 * base and ablated > 5e-3
    check(
        ok,
        "rotation drift",
        f"baseline peak {1e3 * base:.3f} mm (target < 1), "
        f"no_gravity_comp peak {1e3 * ablated:.2f} mm "
        f"(target > 5 and > 10x baseline = {10e3 * base:.2f} mm)",
    )


def test_compliance_bounds_total_force_under_push(disturbances):
    settled = disturbances[("push", "none")].settled_max_total_force
    worst = disturbances[("push", "no_compliance")].max_total_force
    ok = settled <= F_GOAL + 0.1 and worst > F_GOAL + 0.5
    check(
        ok,
        "push compliance",
        f"baseline settled max f1+f2 {settled:.4f} N (target <= {F_GOAL + 0.1:.1f}), "
        f"no_compliance max {worst:.4f} N (target > {F_GOAL + 0.5:.1f})",
    )


def test_deadband_prevents_miscalibration_walk(disturbances):
    def rate(result, t0, t1):
        return (result.value_at(t1).x_obj - result.value_at(t0).x_obj) / (t1 - t0)

    drifting = disturbances[("push", "no_deadband")].result
    r1 = abs(rate(drifting, 10.0, 11.0))
    r2 = abs(rate(drifting, 11.0, 12.0))
    steady = disturbances[("push", "none")].result
    held = abs(steady.value_at(14.5).x_obj - steady.value_at(9.5).x_obj)
    ok = r1 > 0.1e-3 and r2 > 0.1e-3 and held < 0.05e-3
    check(
        ok,
        "deadband anti-drift",
        f"no_deadband post-push drift {1e3 * r1:.3f} and {1e3 * r2:.3f} mm/s over "
        f"consecutive seconds (target > 0.1 sustained); baseline moved "
        f"{1e3 * held:.5f} mm in 5 s (target < 0.05)",
    )


def _force_convergence(name: str, offset: float) -> tuple[float, float, bool]:
    """A noiseless trial's peak holding f_int, final f_int, and whether both keep the bounds."""
    spec = ScenarioSpec.from_dict(
        {"object": name, "offset": offset, "sensors": {"noise_sigma": 0.0}}
    )
    series = run_trial(spec).series
    peak = max(r.f_int for r in series if r.phase == "holding")
    final = series[-1].f_int
    return peak, final, peak <= F_GOAL + 0.1 and abs(final - F_GOAL) <= 0.05 * F_GOAL


_CONVERGENCE_TARGETS = f"targets: peak <= {F_GOAL + 0.1:.1f} N, final within 5% of {F_GOAL:.1f} N"


def test_internal_force_settles_within_five_percent_without_overshoot():
    details = []
    ok = True
    for name in ("styrofoam", "tape_roll", "wooden_cuboid"):
        peak, final, trial_ok = _force_convergence(name, 0.005)
        ok = ok and trial_ok
        details.append(f"{name} peak {peak:.4f} final {final:.4f}")
    check(ok, "force convergence", "; ".join(details) + f" ({_CONVERGENCE_TARGETS})")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(OBJECTS)), offset=st.floats(-0.014, 0.014))
def test_internal_force_settles_at_any_offset(name, offset):
    # The same bounds for every catalog object at any offset in exp-a's range,
    # on either side of the gripper center, not only at the pinned 5 mm.
    peak, final, ok = _force_convergence(name, offset)
    check(ok, "force convergence",
          f"{name} at {1e3 * offset:+.3f} mm peak {peak:.4f} final {final:.4f}"
          f" ({_CONVERGENCE_TARGETS})")


def _unit(rng, size=3):
    v = rng.normal(size=size)
    return v / np.linalg.norm(v)


def _random_instance(rng):
    contacts = []
    for _ in range(int(rng.integers(2, 4))):
        contacts.append(
            Contact.from_normal(
                rng.uniform(-0.05, 0.05, size=3),
                _unit(rng),
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(0.0, 0.01)),
            )
        )
    return contacts


def _squeeze_instance(rng):
    """Randomized opposing pair, sometimes with a third contact."""
    spacing = float(rng.uniform(0.015, 0.05))
    mu = float(rng.uniform(0.3, 0.9))
    mu_tau = float(rng.uniform(0.002, 0.01))
    contacts = []
    for sign in (1.0, -1.0):
        tilt = rotation_about_axis(_unit(rng), float(rng.uniform(0.0, 0.5 * np.arctan(mu))))
        normal = tilt @ np.array([0.0, -sign, 0.0])
        position = np.array(
            [rng.uniform(-0.01, 0.01), sign * spacing, rng.uniform(-0.01, 0.01)]
        )
        contacts.append(Contact.from_normal(position, normal, mu, mu_tau))
    if rng.random() < 0.4:
        contacts.extend(_random_instance(rng)[:1])
    return contacts


def test_closure_verdict_confirmed_by_resistance_sampling():
    pair = [
        Contact.from_normal((0.0, 0.03, 0.0), (0.0, -1.0, 0.0), 0.5, 0.005),
        Contact.from_normal((0.0, -0.03, 0.0), (0.0, 1.0, 0.0), 0.5, 0.005),
    ]
    frictionless = [
        Contact.from_normal((0.0, 0.03, 0.0), (0.0, -1.0, 0.0), 0.0, 0.0),
        Contact.from_normal((0.0, -0.03, 0.0), (0.0, 1.0, 0.0), 0.0, 0.0),
    ]
    canonical_ok = (
        is_force_closure(pair).is_force_closure
        and not is_force_closure(frictionless).is_force_closure
        and not is_force_closure(pair[:1]).is_force_closure
    )

    # Randomized agreement sweep. Instances whose certification margin sits
    # within 1e-6 of the boundary are excluded: there the polyhedral verdict
    # and a sampled oracle may legitimately split. Everything else must agree.
    rng = np.random.default_rng(90210)
    counted = 0
    sizes = {2: 0, 3: 0}
    disagreements = 0
    attempts = 0
    while counted < 200:
        attempts += 1
        contacts = _squeeze_instance(rng) if attempts % 3 else _random_instance(rng)
        report = is_force_closure(contacts)
        if abs(report.margin) <= 1e-6:
            continue
        counted += 1
        sizes[len(contacts)] += 1
        if resistance_oracle(contacts, wrench_samples=500) != report.is_force_closure:
            disagreements += 1
    ok = canonical_ok and disagreements == 0
    check(
        ok,
        "closure certification",
        f"{counted} certified instances ({sizes[2]} pairs, {sizes[3]} triples) vs "
        f"500-wrench resistance sampling: {disagreements} disagreements (target 0); "
        f"canonical verdicts (friction pair / frictionless pair / single): "
        f"{'ok' if canonical_ok else 'wrong'}",
    )


def _coincident_instance(rng):
    """Opposed contacts at one point, sometimes with a third there too.

    G has rank 4 (or 5 with the third contact), so the set is never
    surjective, yet squeezing the opposed pair is a strict internal force.
    """
    position = rng.uniform(-0.05, 0.05, size=3)
    normal = _unit(rng)
    mu = float(rng.uniform(0.3, 0.9))
    mu_tau = float(rng.uniform(0.002, 0.01))
    contacts = [
        Contact.from_normal(position, normal, mu, mu_tau),
        Contact.from_normal(position, -normal, mu, mu_tau),
    ]
    if rng.random() < 0.5:
        contacts.append(Contact.from_normal(position, _unit(rng), mu, mu_tau))
    return contacts


def test_non_closure_verdict_confirmed_by_resistance_sampling():
    # The wrenches a non-closure grasp resists form a convex cone other than
    # R^6, which misses an open half-sphere, so 500 sampled unit wrenches all
    # land inside it with probability about 2^-500. Instances that become
    # force-closure with mu and mu_tau scaled by 1.05 sit near the boundary,
    # where the polyhedral verdict and sampling may legitimately split, and
    # are excluded. Everything counted must have an unresisted sample.
    rng = np.random.default_rng(1105)
    counted = {"full": 0, "rank deficient": 0}
    excluded = 0
    resisted = 0
    attempts = 0
    while counted["full"] < 100 or counted["rank deficient"] < 20:
        attempts += 1
        if counted["full"] < 100:
            contacts = _squeeze_instance(rng) if attempts % 3 else _random_instance(rng)
        else:
            contacts = _coincident_instance(rng)
        report = is_force_closure(contacts)
        if report.is_force_closure:
            continue
        widened = [Contact(c.position, c.rotation, 1.05 * c.mu, 1.05 * c.mu_tau) for c in contacts]
        if is_force_closure(widened).is_force_closure:
            excluded += 1
            continue
        if counted["full"] < 100:
            counted["full"] += 1
        else:
            assert not report.surjective and report.has_strict_internal
            counted["rank deficient"] += 1
        if resistance_oracle(contacts, wrench_samples=500):
            resisted += 1
    check(
        resisted == 0,
        "non-closure confirmation",
        f"{counted['full']} non-closure instances and {counted['rank deficient']} "
        f"rank-deficient ones with a strict internal force ({excluded} near the boundary "
        f"excluded) vs 500-wrench resistance sampling: {resisted} fully resisted (target 0)",
    )


def test_algebraic_identities_hold():
    # Splitting and recombining commands is exact whenever the half-sums are
    # representable; dyadic rationals with headroom guarantee that, so the
    # identities must hold bitwise on this grid.
    rng = np.random.default_rng(77)
    scale = 2.0**26
    split_failures = 0
    for _ in range(1000):
        u_int = float(rng.integers(-(2**20), 2**20)) / scale
        u_ext = float(rng.integers(-(2**20), 2**20)) / scale
        d1, d2 = distribute(u_int, u_ext)
        if d1 + d2 != u_int or d2 - d1 != u_ext:
            split_failures += 1

    worst = 0.0
    for _ in range(100):
        p1 = rng.uniform(-1.0, 1.0, size=3)
        p2 = rng.uniform(-1.0, 1.0, size=3)
        r1 = rotation_about_axis(_unit(rng), float(rng.uniform(0.0, 2.0 * np.pi)))
        r2 = rotation_about_axis(_unit(rng), float(rng.uniform(0.0, 2.0 * np.pi)))
        w1 = rng.uniform(-5.0, 5.0, size=6)
        w2 = rng.uniform(-5.0, 5.0, size=6)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = adjoint_transform(p1, r1, a * w1 + b * w2)
        rhs = a * adjoint_transform(p1, r1, w1) + b * adjoint_transform(p1, r1, w2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        pc, rc = p2 + r2 @ p1, r2 @ r1
        nested = adjoint_transform(p2, r2, adjoint_transform(p1, r1, w1))
        worst = max(worst, float(np.max(np.abs(adjoint_transform(pc, rc, w1) - nested))))

    mu, mu_tau = 0.5, 0.005
    rows = linearize_cone(mu, mu_tau, sides=8)
    accepted = np.zeros((0, 4))
    while len(accepted) < 10_000:
        batch = np.column_stack(
            [
                rng.uniform(-0.55, 0.55, size=40_000),
                rng.uniform(-0.55, 0.55, size=40_000),
                rng.uniform(0.0, 1.0, size=40_000),
                rng.uniform(-0.006, 0.006, size=40_000),
            ]
        )
        keep = (batch @ rows.T >= 0.0).all(axis=1)
        accepted = np.vstack([accepted, batch[keep]])
    accepted = accepted[:10_000]
    cone_violations = sum(
        0 if in_friction_cone(f, mu, mu_tau) else 1 for f in accepted
    )

    ok = split_failures == 0 and worst <= 1e-9 and cone_violations == 0
    check(
        ok,
        "algebraic identities",
        f"command split round-trip failures {split_failures}/1000 (target 0); "
        f"adjoint linearity/composition worst error {worst:.2e} (target <= 1e-9); "
        f"linearized-cone soundness violations {cone_violations}/10000 (target 0)",
    )


def test_identical_seeds_reproduce_reports_bytewise(tmp_path):
    first_a = tmp_path / "a1"
    second_a = tmp_path / "a2"
    run_experiment_a(out_dir=first_a, base_seed=0)
    run_experiment_a(out_dir=second_a, base_seed=0)
    names_a = ("exp_a_trials.csv", "exp_a_summary.csv")
    same_a = all(
        (first_a / name).read_bytes() == (second_a / name).read_bytes() for name in names_a
    )

    first_b = tmp_path / "b1"
    second_b = tmp_path / "b2"
    run_experiment_b(out_dir=first_b, base_seed=0)
    run_experiment_b(out_dir=second_b, base_seed=0)
    names_b = sorted(p.name for p in first_b.glob("*.csv"))
    same_b = names_b == sorted(p.name for p in second_b.glob("*.csv")) and all(
        (first_b / name).read_bytes() == (second_b / name).read_bytes() for name in names_b
    )

    reference = json.loads(REFERENCE_CSV.read_text(encoding="utf-8"))
    stale = [
        name
        for out, workload in ((first_a, "grid"), (first_b, "disturbance"))
        for name, digest in reference[workload]["0"]["csv"].items()
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    ]

    ok = same_a and same_b and len(names_b) == 9 and not stale
    check(
        ok,
        "determinism",
        f"grid reports byte-identical: {same_a}; disturbance reports "
        f"({len(names_b)} files) byte-identical: {same_b}; "
        f"differing from the seed-0 reference hashes: {stale or 'none'}",
    )
