"""Regenerate the benchmark's golden files from one serial ``small`` pass.

Run from the root of a checkout::

    python3 perfbench/record.py

Writes ``golden/tables_small.txt`` (the exhibit tables every eval pass of
``run.py`` must reproduce exactly) and ``golden/simulated_small.json``
(simulated cycles per benchmark, model and variant, the Figure 8 means
beside the paper's, and the cross-model ratios that show where the model
departs from the paper's shape).  Regenerate only when a change to the
simulated results is intended, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import GOLDEN_TABLES, PAPER_FIG8, run_pass


def ratios(cycles: dict) -> dict:
    """Per benchmark: OOO baseline speed over in-order, and SSP gain on
    each model (all from simulated cycles)."""
    out = {}
    names = sorted({label.split("/")[0] for label in cycles})
    for name in names:
        def c(model, variant):
            return cycles[f"{name}/small/{model}/{variant}"]
        io_gain = c("inorder", "base") / c("inorder", "ssp")
        ooo_gain = c("ooo", "base") / c("ooo", "ssp")
        out[name] = {
            "ooo_base_over_inorder_base": c("inorder", "base")
                                          / c("ooo", "base"),
            "ssp_gain_inorder": io_gain,
            "ssp_gain_ooo": ooo_gain,
            "ooo_gain_exceeds_inorder_gain": ooo_gain > io_gain,
        }
    return out


def main() -> int:
    checkout = Path.cwd()
    scratch = checkout / ".bench_tmp" / f"record-{os.getpid()}"
    try:
        data = run_pass(checkout, scratch, "eval-small", 20020617, False)
    finally:
        shutil.rmtree(checkout / ".bench_tmp", ignore_errors=True)
    first = data["passes"][0]
    if first["errors"]:
        print("\n".join(first["errors"]), file=sys.stderr)
        return 1
    GOLDEN_TABLES.parent.mkdir(exist_ok=True)
    GOLDEN_TABLES.write_text(first["tables"])
    simulated = {
        "note": ("Simulated cycles at scale 'small', seed 20020617, caches "
                 "empty at the start of every run. The timing model is not "
                 "validated against hardware; no error figure is given."),
        "fig8_mean": {key: {"simulated": first["fig8"][key],
                            "paper": paper}
                      for key, paper in PAPER_FIG8.items()},
        "per_benchmark": ratios(first["simulated"]),
        "cycles": dict(sorted(first["simulated"].items())),
    }
    path = GOLDEN_TABLES.parent / "simulated_small.json"
    path.write_text(json.dumps(simulated, indent=2) + "\n")
    print(f"wrote {GOLDEN_TABLES} and {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
