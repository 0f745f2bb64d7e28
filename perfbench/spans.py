"""Spans recorded around the program's public functions.

A Tracer replaces a function at the attribute its callers look it up by
(a module global or a class attribute) with a wrapper that records one
span per call, and puts the original back when the block ends. Spans stay
in memory as ``(name, start, end, parent, trial)`` tuples in call order:
``parent`` is the index of the enclosing span or -1, ``trial`` the trial or
instance id the benchmark had set when the span opened.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

_now = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` is recorded under ``span``.

    ``on_result`` sees each return value, to record counts and per-call
    samples a span cannot carry;
    ``starts_trial`` advances the tracer's trial id on each call.
    """

    owner: object
    attr: str
    span: str
    on_result: Callable[["Tracer", object], None] | None = None
    starts_trial: bool = False


class Tracer:
    """Spans, exception counts and hook samples of one pass.

    ``after_trial``, if given, runs after each call of a ``starts_trial``
    target, outside its span; ``paused`` sums the seconds it took, for the
    caller to take out of any enclosing span.
    """

    def __init__(self, after_trial: Callable[[], None] | None = None):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.trial = -1
        self.after_trial = after_trial
        self.paused = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.trial)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, on_result, starts_trial = target.span, target.on_result, target.starts_trial
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if starts_trial:
                self.trial += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                end = _now()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial)
            if on_result is not None:
                on_result(self, result)
            if starts_trial and self.after_trial is not None:
                paused = _now()
                self.after_trial()
                self.paused += _now() - paused
            return result

        return wrapper

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the block; restore each original afterwards."""
        originals = []
        try:
            for target in targets:
                original = vars(target.owner)[target.attr]
                originals.append((target, original))
                setattr(target.owner, target.attr, self.wrap(original, target))
            yield
        finally:
            for target, original in reversed(originals):
                setattr(target.owner, target.attr, original)
            left = [t.span for t, original in originals if vars(t.owner)[t.attr] is not original]
            if left:
                raise RuntimeError(f"wrappers not restored: {left}")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    result = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(idx, ()), key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


@dataclass
class LayerTotals:
    """Calls, inclusive seconds and self seconds, summed over spans."""

    calls: int = 0
    total: float = 0.0
    self: float = 0.0


def layer_totals(spans: list[tuple]) -> dict[str, LayerTotals]:
    """Totals per span name, and per ``name<parent-name`` for split layers."""
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        keys = [name]
        if parent >= 0:
            keys.append(f"{name}<{spans[parent][0]}")
        for key in keys:
            layer = totals[key]
            layer.calls += 1
            layer.total += end - start
            layer.self += own
    return totals
