"""Harness self-test: does the trace charge time to the right layer?

Run from the root of a checkout::

    python3 perfbench/selftest.py

For ``adapt-default`` and ``eval-small`` it runs passes as ``run.py`` does,
once plain and once with a fixed sleep injected from the benchmark side in
front of every ``collect_profile`` call (``worker.py --delay``).  It checks
that the traced run charges the injected time to
``profiling.collect_profile.s``, that the untraced wall time rises by about
delay x calls, and that ``tool.verify.s`` and the simulator times stay flat.
Exits 1 if any check fails.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
from pathlib import Path

from run import JOBS, median_of, per_layer, run_pass

DELAY_S = 0.5
#: Passes of each kind (plain, traced) per setting.  Settings alternate
#: pass by pass so that drift in host speed hits both alike.
PASSES = 2
#: Share of the injected total a moved figure may miss it by.
MOVED_TOLERANCE = 0.35
#: Share of the injected total a flat figure may move by.
FLAT_TOLERANCE = 0.2
FLAT = ("tool.verify.s", "sim.inorder.s", "sim.ooo.s")


def measure(checkout: Path, scratch: Path, workload: str):
    """Per delay setting: median untraced wall and median per-layer
    metrics of the traced passes."""
    walls = {0.0: [], DELAY_S: []}
    layers = {0.0: [], DELAY_S: []}
    for index in range(PASSES):
        for delay in walls:
            root = scratch / f"{workload}-{delay}-{index}"
            data = run_pass(checkout, root, workload, 20020617, delay=delay)
            walls[delay].append(data["passes"][0]["wall_s"])
            data = run_pass(checkout, root.with_name(root.name + "-traced"),
                            workload, 20020617, trace=True, delay=delay)
            layers[delay].append(per_layer(data, JOBS[workload]))
    return ({delay: statistics.median(v) for delay, v in walls.items()},
            {delay: median_of(v) for delay, v in layers.items()})


def main() -> int:
    checkout = Path.cwd()
    scratch = checkout / ".bench_tmp" / f"selftest-{os.getpid()}"
    ok = True
    try:
        for workload in ("adapt-default", "eval-small"):
            walls, layers = measure(checkout, scratch, workload)
            wall0, wall1 = walls[0.0], walls[DELAY_S]
            layers0, layers1 = layers[0.0], layers[DELAY_S]
            calls = layers1["profiling.collect_profile.calls"]
            injected = DELAY_S * calls
            print(f"{workload}: {calls:.0f} collect_profile calls x "
                  f"{DELAY_S} s = {injected:.2f} s injected")
            rows = [("wall_s (untraced)", wall1 - wall0, True),
                    ("profiling.collect_profile.s",
                     layers1["profiling.collect_profile.s"]
                     - layers0["profiling.collect_profile.s"], True)]
            rows += [(name, layers1[name] - layers0[name], False)
                     for name in FLAT]
            for name, delta, moved in rows:
                if moved:
                    good = abs(delta - injected) <= MOVED_TOLERANCE * injected
                    expect = f"expected +{injected:.2f} s"
                else:
                    good = abs(delta) <= FLAT_TOLERANCE * injected
                    expect = "expected flat"
                ok &= good
                print(f"  {name:30s} {delta:+8.3f} s  {expect:22s} "
                      f"{'ok' if good else 'FAIL'}")
    finally:
        shutil.rmtree(checkout / ".bench_tmp", ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
