"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import time
import types

import pytest

import calibration
import stats
from spans import Target, Tracer, layer_totals, self_times
from workloads import compare_hashes, hash_outputs


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: the overlap is subtracted once
        ("a.child", 2.0, 3.0, 1, 0),
        ("late", 9.0, 12.0, 0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_layer_totals_sum_per_name_and_per_parent():
    spans = [
        ("certify", 0.0, 4.0, -1, 0),
        ("lp", 1.0, 3.0, 0, 0),
        ("resist", 5.0, 6.0, -1, 1),
        ("lp", 5.25, 5.75, 2, 1),
    ]
    totals = layer_totals(spans)
    assert totals["lp"].calls == 2 and totals["lp"].total == pytest.approx(2.5)
    assert totals["lp<certify"].total == pytest.approx(2.0)
    assert totals["lp<resist"].total == pytest.approx(0.5)
    assert totals["certify"].self == pytest.approx(2.0)
    assert totals["resist"].self == pytest.approx(0.5)


def test_hash_check_rejects_a_one_byte_change(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"t,q1\n0,1\n")
    (tmp_path / "b.csv").write_bytes(b"t,q2\n0,2\n")
    expected = hash_outputs(tmp_path)
    assert compare_hashes(hash_outputs(tmp_path), expected) == []

    (tmp_path / "b.csv").write_bytes(b"t,q2\n0,3\n")
    assert compare_hashes(hash_outputs(tmp_path), expected) == ["b.csv"]

    (tmp_path / "a.csv").unlink()
    (tmp_path / "c.csv").write_bytes(b"")
    assert compare_hashes(hash_outputs(tmp_path), expected) == ["a.csv", "b.csv", "c.csv"]


def test_percentile_keeps_ten_samples_beyond_the_tail():
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20


class _Plant:
    def step(self, x):
        return helpers.inner(x) + 1


def _inner(x):
    if x < 0:
        raise ValueError("negative")
    return 2 * x


helpers = types.SimpleNamespace(inner=_inner)


def test_wrappers_record_nested_spans_and_are_restored():
    original_step, original_inner = _Plant.__dict__["step"], helpers.inner
    seen = []
    targets = [
        Target(_Plant, "step", "plant.step", starts_trial=True),
        Target(helpers, "inner", "inner", on_result=lambda tracer, result: seen.append(result)),
    ]
    tracer = Tracer()
    with tracer.installed(targets):
        assert _Plant().step(3) == 7
        assert _Plant().step(4) == 9
    assert _Plant.__dict__["step"] is original_step and helpers.inner is original_inner
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("plant.step", -1, 0), ("inner", 0, 0), ("plant.step", -1, 1), ("inner", 2, 1),
    ]
    assert seen == [6, 8]

    with pytest.raises(ValueError):
        with tracer.installed(targets):
            _Plant().step(-1)
    assert _Plant.__dict__["step"] is original_step and helpers.inner is original_inner
    assert tracer.counts["inner.raised"] == 1 and tracer.counts["plant.step.raised"] == 1



def test_calibrator_times_one_chunk_per_interval(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(calibration, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(calibration, "reference_chunk", lambda: calibration.REFERENCE_CHUNK_S / 2)
    calibrator = calibration.Calibrator()
    calibrator.between()
    calibrator.between()
    assert len(calibrator.samples) == 1
    clock[0] += 4 * calibration.INTERVAL_S
    calibrator.between()
    assert len(calibrator.samples) == 5
    assert calibrator.scale() == pytest.approx(2.0)


def test_time_after_a_trial_is_paused_and_outside_the_trial_span():
    tracer = Tracer(after_trial=lambda: time.sleep(0.02))
    with tracer.installed([Target(_Plant, "step", "plant.step", starts_trial=True)]):
        _Plant().step(1)
        _Plant().step(2)
    assert tracer.paused >= 0.04
    steps = [s for s in tracer.spans if s[0] == "plant.step"]
    assert len(steps) == 2 and all(end - start < 0.02 for _, start, end, _, _ in steps)
