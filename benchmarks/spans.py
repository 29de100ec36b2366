"""Spans around calls into accq's layers, recorded from outside the package.

A Tracer replaces each traced function at every accq module attribute that
holds it (the names other layers import it by) and at ``WeightTape.backward``
on the class.  Spans are kept in memory; a span is only recorded inside a run
opened with ``Tracer.run``, so the benchmark's own checks stay untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import NamedTuple

MODULES = ("accq", "accq.bounds", "accq.quantizers", "accq.epinit", "accq.intsim", "accq.qat", "accq.cli")

# span name -> (defining module, attribute path)
TRACED = {
    "bounds.a2q_limit": ("accq.bounds", "a2q_limit"),
    "bounds.a2q_plus_limit": ("accq.bounds", "a2q_plus_limit"),
    "bounds.int_range": ("accq.bounds", "int_range"),
    "quantizers.forward_weights": ("accq.quantizers", "forward_weights"),
    "quantizers.WeightTape.backward": ("accq.quantizers", "WeightTape.backward"),
    "epinit.project_l1_ball": ("accq.epinit", "project_l1_ball"),
    "epinit.ep_init": ("accq.epinit", "ep_init"),
    "intsim.check_accumulator": ("accq.intsim", "check_accumulator"),
    "intsim.exhaustive_check": ("accq.intsim", "exhaustive_check"),
    "qat.forward": ("accq.qat", "forward"),
    "qat.backward": ("accq.qat", "backward"),
    "qat.sgd_step": ("accq.qat", "sgd_step"),
    "qat.certify_accumulators": ("accq.qat", "certify_accumulators"),
    "qat.make_data": ("accq.qat", "make_data"),
    "qat.build_network": ("accq.qat", "build_network"),
    "qat.calibrate": ("accq.qat", "calibrate"),
    "cli.cmd_verify": ("accq.cli", "cmd_verify"),
}

BOUNDS = ("bounds.a2q_limit", "bounds.a2q_plus_limit", "bounds.int_range")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a run's root
    run_id: int


def _count_active(counters, args, kwargs, result) -> None:
    counters["epinit.project_l1_ball.active"] += int(result.active)


def _count_inputs(counters, args, kwargs, result) -> None:
    N = args[1] if len(args) > 1 else kwargs["N"]
    counters["intsim.exhaustive_check.inputs"] += (1 << N) ** len(result.witness_x_max)


HOOKS = {"epinit.project_l1_ball": _count_active, "intsim.exhaustive_check": _count_inputs}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._run_id = -1
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def run(self, run_id: int, name: str):
        """Open a root span; traced calls inside it become its descendants."""
        self._run_id = run_id
        self._stack.append(len(self.spans))
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[self._stack.pop()] = Span(name, start, time.perf_counter(), -1, run_id)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._run_id)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module, path) in TRACED.items():
            owner = importlib.import_module(module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        inside = [(max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in kids]
        out.append(span.end - span.start - covered((lo, hi) for lo, hi in inside if hi > lo))
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time in seconds)."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}
