"""Repository benchmark: exhibit regeneration and default-scale adaptation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 25 --trace 0

Workloads (each pass is one single-client closed-loop batch in a fresh
process, see ``worker.py``):

* ``eval-small``: ``run_all("small")`` through ``Runner(jobs=1)`` with
  result caching off -- all seven exhibits, 60 simulation specs.
* ``eval-small-jobs2``: the same grid through ``Runner(jobs=2)`` over a
  private, initially empty result cache, then again over the warm cache.
* ``adapt-default``: build -> ``collect_profile`` -> ``adapt`` (with the
  differential verify) of the seven binaries at ``default`` scale, built
  from ``--seed``.  The eval workloads always use the canonical seed
  20020617, because run specs carry no seed.

Passes repeat until ``--seconds`` have elapsed (at least ``MIN_PASSES``)
and every figure is the median over passes.  With ``--trace 0`` the last
line of output holds the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` traced and untraced passes alternate, and it holds the
per-layer metrics, the tracing overhead being the difference of the two
kinds of pass.  Times are host seconds; ``sim.*`` cycles and speed-ups are
simulated, by a model not validated against hardware, with empty caches
at the start of every simulation.

Correctness: a spec whose ``RunResult.error`` is set, an adaptation with
no adapted binary or a failed delinquent load, or an adapted binary whose
output fails ``check_output`` on the functional interpreter counts as a
failed operation.  The exhibit tables must equal ``golden/tables_small.txt``
in every pass (so serial, 2-job, cold and warm all agree).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import clock  # noqa: E402

WORKLOADS = ("eval-small", "eval-small-jobs2", "adapt-default")
JOBS = {"eval-small": 1, "eval-small-jobs2": 2, "adapt-default": 0}
#: What ``wall_s`` measures on each workload, by the name users know.
WALL_ALIAS = {"eval-small": "eval_s", "eval-small-jobs2": "eval_s",
              "adapt-default": "adapt_s"}
MIN_PASSES = 3
#: Extra set-up-only processes per untraced run, for the set-up median.
SETUP_PROBES = 5
#: Minimum passes of each kind in a traced run.
MIN_TRACED = 2
#: Start no new pass after this many seconds, whatever ``--seconds`` says.
HARD_STOP_S = 110.0
PASS_TIMEOUT_S = 50.0
GOLDEN_TABLES = HERE / "golden" / "tables_small.txt"
#: Paper's Figure 8 averages, for the simulated means beside them.
PAPER_FIG8 = {"io_ssp_mean": 1.87, "ooo_mean": 2.75,
              "ooo_ssp_gain_mean": 1.05}
#: Variables that would point a pass at shared state; removed.
AMBIENT_ENV = ("REPRO_CACHE_DIR", "REPRO_NO_CACHE", "REPRO_SERVICE_ROOT",
               "REPRO_CHECKPOINT_DIR", "REPRO_SIM_LEGACY")


class PassFailed(RuntimeError):
    """A worker process exited badly or printed no result."""


def run_pass(checkout: Path, root: Path, workload: str, seed: int,
             trace: bool = False, delay: float = 0.0,
             setup_only: bool = False) -> Dict:
    """Run one pass in a fresh process with private temp root ``root``;
    returns its parsed JSON line plus ``setup_s`` (process start to the
    first layer call)."""
    env = {k: v for k, v in os.environ.items() if k not in AMBIENT_ENV}
    env["PYTHONPATH"] = str(checkout / "src")
    env["TMPDIR"] = str(root.parent)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--root", str(root)]
    if trace:
        cmd.append("--trace")
    if delay:
        cmd += ["--delay", str(delay)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = clock()
    proc = subprocess.Popen(cmd, cwd=checkout, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"no result within {PASS_TIMEOUT_S}s"
    finally:
        # The pass's session holds its runner pool workers too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(root, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    data = json.loads(lines[-1])
    data["setup_s"] = data["ready"] - spawned
    return data


def check_pass(data: Dict, golden: str) -> List[str]:
    """Correctness problems of one pass (empty when it is correct)."""
    problems = []
    for number, one in enumerate(data["passes"]):
        problems += one.get("errors", [])
        if "tables" in one and one["tables"] != golden:
            problems.append(f"pass {number}: exhibit tables differ from "
                            f"{GOLDEN_TABLES.relative_to(HERE.parent)}")
    return problems


def end_to_end(data: Dict) -> Dict[str, float]:
    return {"wall_s": data["passes"][0]["wall_s"], "cpu_s": data["cpu_s"],
            "peak_rss_mb": data["peak_rss_mb"]}


def _hit_rate(runner: Dict) -> float:
    asked = runner["launched"] + runner["cache_hits"]
    return runner["cache_hits"] / asked if asked else 0.0


def per_layer(data: Dict, jobs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    layers = data["layers"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    passes = data["passes"]
    out: Dict[str, float] = {}
    for model in ("ooo", "inorder"):
        span = f"sim.{model}"
        host, cycles = get(span, "self_s"), get(span, "cycles")
        out.update({
            f"{span}.runs": get(span, "calls"),
            f"{span}.s": host,
            f"{span}.cycles": cycles,
            f"{span}.cycles_per_s": cycles / host if host else 0.0,
            f"{span}.instr_per_s": (get(span, "instructions") / host
                                    if host else 0.0),
        })
    delinquent = get("tool.adapt", "delinquent")
    adapted = get("tool.adapt", "adapted")
    out.update({
        "profiling.collect_profile.calls": get("profiling.collect_profile",
                                               "calls"),
        "profiling.collect_profile.s": get("profiling.collect_profile",
                                           "self_s"),
        "tool.verify.s": get("tool.verify", "self_s"),
        "tool.passes.s": get("tool.adapt", "self_s"),
        "tool.adapt.calls": get("tool.adapt", "calls"),
        "tool.loads.delinquent": delinquent,
        "tool.loads.adapted": adapted,
        "tool.adapted_ratio": adapted / delinquent if delinquent else 0.0,
        "tool.rollbacks": get("tool.adapt", "rollbacks"),
        "workloads.build_heap.calls": get("workloads.build_heap", "calls"),
        "workloads.build_heap.s": get("workloads.build_heap", "self_s"),
        "workloads.build_program.s": get("workloads.build_program",
                                         "self_s"),
        "runner.self.s": (get("runner.run", "self_s")
                          + get("runner.task", "self_s")),
        "experiments.self.s": get("experiments.run_all", "self_s"),
        "bench.self.s": get("bench.pass", "self_s"),
    })
    runners = [one["runner"] for one in passes if "runner" in one]
    totals = {key: sum(r[key] for r in runners)
              for key in ("launched", "cache_hits", "failures", "retries",
                          "worker_s")}
    out.update({
        "runner.launched": totals["launched"],
        "runner.cache_hits": totals["cache_hits"],
        "runner.hit_rate": _hit_rate(totals),
        "runner.failures": totals["failures"],
        "runner.retries": totals["retries"],
        "runner.worker.s": totals["worker_s"],
        "runner.busy_ratio": (totals["worker_s"]
                              / (jobs * passes[0]["wall_s"])
                              if jobs else 0.0),
        "runner.rerun.s": passes[1]["wall_s"] if len(passes) > 1 else 0.0,
        "runner.rerun.hit_rate": (_hit_rate(passes[1]["runner"])
                                  if len(passes) > 1 else 0.0),
    })
    fig8 = passes[0].get("fig8", {})
    for key in PAPER_FIG8:
        out[f"sim.fig8.{key}"] = fig8.get(key, 0.0)
    # Every span lies in one process's tree, and the self times of a tree
    # sum to its root's duration; what the layer self times above leave
    # of the root durations is a span no metric claims.
    own = [name for name in out if name.endswith(".s")
           and name not in ("runner.worker.s", "runner.rerun.s")]
    out["trace.wall_s"] = get("bench.pass", "total_s")
    out["trace.self_sum_s"] = sum(out[name] for name in own)
    out["trace.unclaimed_s"] = data["roots_s"] - out["trace.self_sum_s"]
    return out


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Unwind through run_pass's cleanup, which kills the pass's session.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    checkout = Path.cwd()
    spec_path = checkout / "BENCHMARK.json"
    if not (checkout / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("run from the root of a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    golden = GOLDEN_TABLES.read_text()
    jobs = JOBS[args.workload]
    scratch = checkout / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)

    plain: List[Dict] = []
    traced: List[Dict] = []
    problems: List[str] = []
    attempted = failed = 0
    setups: List[float] = []
    started = clock()
    try:
        if not args.trace:
            for probe in range(SETUP_PROBES):
                setups.append(run_pass(checkout, scratch / f"setup-{probe}",
                                       args.workload, args.seed,
                                       setup_only=True)["setup_s"])
        while True:
            elapsed = clock() - started
            enough = (len(plain) >= MIN_PASSES if not args.trace else
                      min(len(plain), len(traced)) >= MIN_TRACED)
            if enough and (elapsed >= args.seconds
                           or elapsed >= HARD_STOP_S):
                break
            trace = bool(args.trace) and len(traced) < len(plain)
            root = scratch / f"pass-{len(plain) + len(traced)}"
            data = run_pass(checkout, root, args.workload, args.seed, trace)
            (traced if trace else plain).append(data)
            problems += check_pass(data, golden)
            for one in data["passes"]:
                attempted += one["attempted"]
                failed += len(one.get("errors", []))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(checkout / ".bench_tmp", ignore_errors=True)

    for problem in dict.fromkeys(problems):
        print(f"FAILED: {problem}")
    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced "
          f"passes; {failed} of {attempted} operations failed")
    samples: Dict[str, List[float]] = {}
    if args.trace:
        names = spec["per_layer"]
        values = median_of([per_layer(d, jobs) for d in traced])
        untraced = statistics.median(
            sum(one["wall_s"] for one in d["passes"]) for d in plain)
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced
        report_trace(values, traced[-1])
    else:
        names = spec["end_to_end"]
        samples = {name: [row[name] for row in map(end_to_end, plain)]
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setups + [d["setup_s"] for d in plain]
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["success_rate"] = (attempted - failed) / attempted
        print(f"wall_s is {WALL_ALIAS[args.workload]} on this workload")
        if len(plain[0]["passes"]) > 1:
            samples["rerun_s"] = [d["passes"][1]["wall_s"] for d in plain]
            print(f"rerun_s (warm pass) median "
                  f"{statistics.median(samples['rerun_s']):.6g} s")
    metrics = {}
    for metric in names:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        line = f"  {name:34s} {values[name]:14.6g} {unit}"
        if name in samples:
            line += (f"  median of {len(samples[name])}: "
                     + " ".join(f"{v:.4g}" for v in samples[name]))
        print(line)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_trace(values: Dict[str, float], last: Dict) -> None:
    """Human-readable lines for a traced run: the self-time accounting,
    the simulated Figure 8 means beside the paper's, and the simulated
    cycles of every spec."""
    print(f"layer self times sum to {values['trace.self_sum_s']:.4f} s "
          f"({values['trace.unclaimed_s']:.4f} s in no layer); traced "
          f"wall {values['trace.wall_s']:.4f} s; untraced wall "
          f"{values['trace.untraced_wall_s']:.4f} s; tracing overhead "
          f"{values['trace.overhead_s']:+.4f} s")
    fig8 = last["passes"][0].get("fig8")
    if fig8:
        print("simulated (model not validated against hardware):")
        for key, paper in PAPER_FIG8.items():
            print(f"  sim.fig8.{key:20s} {fig8[key]:7.3f}x   "
                  f"paper {paper:.2f}x")
        for label, cycles in sorted(last["passes"][0]["simulated"].items()):
            print(f"  cycles {label:40s} {cycles}")


if __name__ == "__main__":
    sys.exit(main())
