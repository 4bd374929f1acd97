"""Layer spans for the benchmark's traced runs.

The benchmark records spans from its own files: :func:`install` wraps the
public entry point of each layer of ``repro`` (workload build, profiling,
the post-pass tool and its differential verify, both cycle simulators, the
runner and ``run_all``) in a timing wrapper.  Nothing in ``src/``
is edited, and nothing is wrapped unless a traced run asks for it.

A span is ``[name, start, end, parent, attrs]`` with times from the
system-wide monotonic clock, so spans written by forked runner workers line
up with the parent's.  A layer's self time is its span's duration minus the
time its child spans cover; self times of one process's span tree add up to
the duration of its root span.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, spill_dir: str):
        self.pid = os.getpid()
        #: Forked runner workers write their spans here, one file per task.
        self.spill_dir = spill_dir
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: ``execute_spec`` as a ``runner.task`` span, set by :func:`install`.
        self.task: Optional[Callable] = None

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[[Any], Dict]] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``attrs(result)`` annotates it."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            span = [name, clock(), None, parent, {}]
            recorder.spans.append(span)
            recorder._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[4] = attrs(result)
                return result
            finally:
                span[2] = clock()
                recorder._stack.pop()

        return traced

    def trees(self) -> List[List[list]]:
        """This process's spans plus every spilled worker tree."""
        return [self.spans] + [
            json.loads(path.read_text())
            for path in sorted(Path(self.spill_dir).glob("spans-*.json"))]


#: The recorder :func:`install` wired in.  Module-level so that the runner
#: can pickle :func:`run_task` by name into its forked pool workers.
_INSTALLED: Optional[Recorder] = None


def run_task(spec):
    """The runner's task function, recorded as span ``runner.task``.

    In a forked pool worker the inherited span list still holds the
    parent's open spans, so each task starts a fresh tree and spills it
    to the recorder's ``spill_dir`` when done.
    """
    recorder = _INSTALLED
    if os.getpid() == recorder.pid:
        return recorder.task(spec)
    recorder.spans, recorder._stack = [], []
    try:
        return recorder.task(spec)
    finally:
        path = Path(recorder.spill_dir) / (
            f"spans-{os.getpid()}-{time.monotonic_ns()}.json")
        path.write_text(json.dumps(recorder.spans))
        recorder.spans = []


def _sim_attrs(stats) -> Dict:
    return {"cycles": stats.cycles,
            "instructions": stats.main_instructions + stats.spec_instructions}


def _tool_attrs(result) -> Dict:
    guard = result.guard
    return {"delinquent": len(result.delinquent_uids),
            "adapted": guard.adapted_loads,
            "rollbacks": len(guard.rollbacks)}


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point of ``repro`` in ``recorder`` spans.

    Names imported into another module (``collect_profile`` into the
    runner worker, ``differential_check`` into the tool) are wrapped at
    each import site as well as at home.
    """
    from repro import experiments
    from repro.codegen import verify
    from repro.profiling import collect
    from repro.runner import executor, worker
    from repro.sim import inorder, ooo
    from repro.tool import postpass
    from repro.workloads import base

    global _INSTALLED

    def patch(owner, attr: str, name: str, attrs=None) -> None:
        setattr(owner, attr,
                recorder.wrap(name, getattr(owner, attr), attrs))

    patch(base.Workload, "build_heap", "workloads.build_heap")
    patch(base.Workload, "build_program", "workloads.build_program")
    patch(collect, "collect_profile", "profiling.collect_profile")
    patch(worker, "collect_profile", "profiling.collect_profile")
    patch(postpass.SSPPostPassTool, "adapt", "tool.adapt", _tool_attrs)
    patch(verify, "differential_check", "tool.verify")
    patch(postpass, "differential_check", "tool.verify")
    patch(inorder.InOrderSimulator, "run", "sim.inorder", _sim_attrs)
    patch(ooo.OOOSimulator, "run", "sim.ooo", _sim_attrs)
    patch(executor.Runner, "run", "runner.run")
    patch(experiments, "run_all", "experiments.run_all")
    recorder.task = recorder.wrap("runner.task", worker.execute_spec)
    _INSTALLED = recorder


def self_times(tree: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in tree]
    for span in tree:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(trees: List[List[list]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed self time, summed duration and the
    summed numeric attributes, over every tree."""
    out: Dict[str, Dict[str, float]] = {}
    for tree in trees:
        for span, own in zip(tree, self_times(tree)):
            row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[2] - span[1]
            for key, value in span[4].items():
                row[key] = row.get(key, 0) + value
    return out
