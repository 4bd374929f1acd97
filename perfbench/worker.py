"""One measured pass of one benchmark workload, in a fresh process.

``run.py`` starts this script once per pass, from the root of a checkout
with ``PYTHONPATH`` pointing at its ``src``::

    python3 perfbench/worker.py --workload W --seed N --root DIR [--trace]

The worker makes ``DIR`` (its private temp root), moves into it so every
default relative root of ``repro`` (result cache, checkpoints, service)
lands there, times one pass of the workload and prints one JSON line.
``ready`` in that line is the monotonic time of the first layer call, from
which ``run.py`` computes set-up time.  With ``--trace`` the layer entry
points are wrapped in spans (see ``spans.py``) and the line carries the
per-span summary of the timed window.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans
from repro import experiments
from repro.isa.interp import FunctionalInterpreter
from repro.profiling import collect
from repro.runner import ResultCache, Runner
from repro.runner import worker as runner_worker
from repro.tool.postpass import SSPPostPassTool
from repro.workloads import PAPER_ORDER, make_workload

#: Scales the workloads run at.
EVAL_SCALE = "small"
ADAPT_SCALE = "default"


class RecordingRunner(Runner):
    """A :class:`Runner` that keeps every :class:`RunResult` it returns."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.results: List = []

    def run(self, specs):
        results = super().run(specs)
        self.results.extend(results)
        return results


def _usage() -> Dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"cpu_s": (own.ru_utime + own.ru_stime
                      + kids.ru_utime + kids.ru_stime),
            # Linux reports ru_maxrss in KiB.
            "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0}


def _eval_pass(jobs: int, cache_root: Optional[Path],
               recorder: Optional[spans.Recorder]) -> Dict:
    """``run_all`` at ``small`` through one fresh runner and context."""
    start = spans.clock()
    cache = ResultCache(root=cache_root) if cache_root else None
    options = {} if recorder is None else {"task_fn": spans.run_task}
    runner = RecordingRunner(jobs=jobs, cache=cache, service=None,
                             **options)
    context = experiments.ExperimentContext(EVAL_SCALE, runner=runner)
    error = None
    try:
        results = experiments.run_all(EVAL_SCALE, context=context)
    except Exception as exc:  # noqa: BLE001 - reported as a failed pass
        results, error = {}, f"{type(exc).__name__}: {exc}"
    wall = spans.clock() - start
    errors = [f"{r.spec.label()}: {r.error}"
              for r in runner.results if r.error is not None]
    if error is not None and not errors:
        errors.append(error)
    telemetry = runner.telemetry
    out = {
        "wall_s": wall,
        "attempted": max(len(runner.results), 1),
        "errors": errors,
        "tables": "\n\n".join(r.format() for r in results.values()),
        "simulated": {
            r.spec.label(): r.stats.cycles
            for r in runner.results if r.stats is not None},
        "runner": {
            "launched": telemetry.launched,
            "cache_hits": telemetry.cache_hits,
            "failures": telemetry.failures,
            "retries": telemetry.retries,
            "worker_s": sum(r.wall_time for r in runner.results
                            if r.stats is not None and not r.cached),
        },
    }
    if "figure8" in results:
        average = results["figure8"].rows[-1]
        out["fig8"] = {"io_ssp_mean": average[1], "ooo_mean": average[2],
                       "ooo_ssp_gain_mean": average[4]}
    return out


def eval_small(args, recorder) -> Dict:
    """All exhibits at ``small``, serial, result caching off."""
    return {"passes": [_eval_pass(1, None, recorder)]}


def eval_small_jobs2(args, recorder) -> Dict:
    """All exhibits at ``small`` on 2 jobs over a private empty cache,
    then again over the now-warm cache."""
    cache_root = Path("result-cache")
    cold = _eval_pass(2, cache_root, recorder)
    warm = _eval_pass(2, cache_root, recorder)
    return {"passes": [cold, warm]}


def adapt_default(args, recorder) -> Dict:
    """Build, profile and adapt (with verify) the seven binaries at
    ``default`` scale; no timing simulation of the adapted binaries."""
    adapted = []
    start = spans.clock()
    for name in PAPER_ORDER:
        workload = type(make_workload(name, ADAPT_SCALE))(
            scale=ADAPT_SCALE, seed=args.seed)
        program = workload.build_program()
        profile = collect.collect_profile(program, workload.build_heap)
        result = SSPPostPassTool().adapt(program, profile,
                                         heap_factory=workload.build_heap)
        adapted.append((name, workload, result))
    return {"passes": [{"wall_s": spans.clock() - start,
                        "attempted": len(adapted)}],
            "adapted": adapted}


def check_adapted(adapted) -> List[str]:
    """Run each adapted binary on the functional interpreter and check
    its output; returns one message per failed adaptation."""
    errors = []
    for name, workload, result in adapted:
        if result.adapted is None:
            errors.append(f"{name}: no adapted binary "
                          f"({result.guard.summary()})")
            continue
        if result.guard.failed_loads:
            errors.append(f"{name}: {result.guard.failed_loads} delinquent "
                          f"load(s) failed ({result.guard.summary()})")
            continue
        heap = workload.build_heap()
        try:
            FunctionalInterpreter(result.adapted.program, heap).run()
            workload.check_output(heap)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return errors


WORKLOADS = {
    "eval-small": eval_small,
    "eval-small-jobs2": eval_small_jobs2,
    "adapt-default": adapt_default,
}


def _delay(fn, seconds: float):
    def delayed(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)
    return delayed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True,
                        help="private temp root to create and work in")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first layer call")
    parser.add_argument("--delay", type=float, default=0.0,
                        help="harness self-test: sleep this long before "
                             "every collect_profile call")
    args = parser.parse_args(argv)

    root = Path(args.root)
    root.mkdir(parents=True)
    os.chdir(root)
    if args.delay:
        collect.collect_profile = _delay(collect.collect_profile, args.delay)
        runner_worker.collect_profile = _delay(runner_worker.collect_profile,
                                               args.delay)
    recorder = None
    if args.trace:
        (root / "spans").mkdir()
        recorder = spans.Recorder(spill_dir=str(root / "spans"))
        spans.install(recorder)
    body = WORKLOADS[args.workload]
    if recorder is not None:
        body = recorder.wrap("bench.pass", body)

    before = _usage()
    ready = spans.clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    out = body(args, recorder)
    after = _usage()
    out["ready"] = ready
    out["cpu_s"] = after["cpu_s"] - before["cpu_s"]
    out["peak_rss_mb"] = after["peak_rss_mb"]
    if recorder is not None:
        trees = recorder.trees()
        out["layers"] = spans.summarize(trees)
        out["roots_s"] = sum(span[2] - span[1] for tree in trees
                             for span in tree if span[3] < 0)
    if "adapted" in out:
        out["passes"][0]["errors"] = check_adapted(out.pop("adapted"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
