"""Every function the benchmark traces by name is still where it looks.

``perfbench/workloads.py`` wraps each target by replacing
``vars(owner)[attr]``; a refactor that drops or moves one of those names
would otherwise only show up as a KeyError in a traced benchmark run.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from graspforce import closure, harness  # noqa: E402
from graspforce.controller import ControllerConfig, STOP_AT_GOAL  # noqa: E402
from graspforce.scenarios import FORCE, TRAJECTORY, ScenarioSpec  # noqa: E402

# The traced names a control tick goes through.
_TICK_SPANS = {"plant.step", "sensor.read", "controller.tick", "controller.trajectory_tick"}


@pytest.mark.parametrize("target", workloads.FULL_TARGETS, ids=lambda t: t.span)
def test_traced_name_is_an_attribute_of_its_owner(target):
    assert target.attr in vars(target.owner)


def test_one_certification_is_one_solve_through_the_closure_global(monkeypatch):
    # simplex.solve_lp.certify_us wraps closure.solve_lp, the name
    # is_force_closure looks up at call time; a certifier that reached the
    # solver another way would drop out of that metric.
    solve_lp = closure.solve_lp
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(closure, "solve_lp", counting)
    pair = [
        closure.Contact.from_normal((0.0, 0.03, 0.0), (0.0, -1.0, 0.0)),
        closure.Contact.from_normal((0.0, -0.03, 0.0), (0.0, 1.0, 0.0)),
    ]
    assert closure.is_force_closure(pair).is_force_closure
    assert len(calls) == 1


@pytest.mark.parametrize("controller", [FORCE, TRAJECTORY])
def test_each_tick_calls_the_traced_names(monkeypatch, controller):
    # perfbench counts and times a layer through the wrapper it puts on the
    # class attribute; a tick that reached a method bound earlier, or
    # another way, would leave that layer's metrics at zero.
    calls = Counter()
    for target in workloads.FULL_TARGETS:
        if target.span in _TICK_SPANS:
            def counting(*args, _original=vars(target.owner)[target.attr], _span=target.span):
                calls[_span] += 1
                return _original(*args)

            monkeypatch.setattr(target.owner, target.attr, counting)
    # A trajectory trial's plant runs only when no earlier trial ran it.
    harness._open_loop_run.cache_clear()
    spec = ScenarioSpec(object="tape_roll", offset=0.005, controller=controller,
                        control=ControllerConfig(phase3_mode=STOP_AT_GOAL))
    rows = len(harness.run_trial(spec).series)
    tick = "controller.tick" if controller == FORCE else "controller.trajectory_tick"
    assert rows > 1
    assert calls == {"plant.step": rows, "sensor.read": 2 * rows, tick: rows}
