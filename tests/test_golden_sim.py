"""Golden for the cycle simulators: both models, absolute statistics.

``golden_tiny.json`` pins a few in-order numbers at ``tiny``; this
golden pins what both timing models report, on all seven paper
workloads × {inorder, ooo} × {base, ssp} × {tiny, small}:

* ``cycles``;
* the Figure 10 ``cycle_breakdown``;
* the sha256 of the canonical ``SimStats.to_dict()`` JSON, which covers
  every other counter (spawns, chk.c fires, per-load hit levels,
  prefetch usefulness, ...).

``base`` runs the original binary without spawning and ``ssp`` the
adapted binary with spawning, as the runner's variants do.  Any change
here is a change in what the simulators compute and must be reviewed,
then the file regenerated deliberately with
``PYTHONPATH=src python tests/test_golden_sim.py``.
"""

import hashlib
import json
import os

import pytest

from repro import PAPER_ORDER, SSPPostPassTool, collect_profile, make_workload
from repro.isa.instructions import numbered_after
from repro.sim.machine import make_simulator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_sim.json")
SCALES = ("tiny", "small")
MODELS = ("inorder", "ooo")
VARIANTS = ("base", "ssp")


def _row(stats) -> dict:
    data = stats.to_dict()
    canonical = json.dumps(data, sort_keys=True)
    return {"cycles": data["cycles"],
            "cycle_breakdown": data["cycle_breakdown"],
            "sha256": hashlib.sha256(canonical.encode()).hexdigest()}


def compute(name: str, scale: str) -> dict:
    """Rows for one workload and scale, keyed ``"<model>/<variant>"``."""
    w = make_workload(name, scale)
    # Numbered as the runner numbers them, so uids (and the per-load
    # statistics keyed by them) do not depend on what the process built
    # before.
    with numbered_after(0):
        program = w.build_program()
    profile = collect_profile(program, w.build_heap)
    last = max(instr.uid for instr in program.instructions())
    with numbered_after(last):
        result = SSPPostPassTool().adapt(program, profile, w.build_heap)
    inputs = {"base": (program, False),
              "ssp": (result.program if result.adapted is not None
                      else program, True)}
    rows = {}
    for model in MODELS:
        for variant in VARIANTS:
            binary, spawning = inputs[variant]
            sim = make_simulator(binary, w.build_heap(), model=model,
                                 spawning=spawning)
            sim.run()
            rows[f"{model}/{variant}"] = _row(sim.stats)
    return rows


def regenerate() -> None:  # pragma: no cover - manual utility
    golden = {f"{name}@{scale}": compute(name, scale)
              for scale in SCALES for name in PAPER_ORDER}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_simulators_match_golden(name, scale, golden):
    assert compute(name, scale) == golden[f"{name}@{scale}"], (
        f"{name}@{scale}: simulated statistics changed — if intentional, "
        "regenerate tests/golden_sim.json")


def test_golden_covers_every_workload_model_variant_and_scale(golden):
    assert sorted(golden) == sorted(f"{n}@{s}" for s in SCALES
                                    for n in PAPER_ORDER)
    for key, rows in golden.items():
        assert sorted(rows) == sorted(f"{m}/{v}" for m in MODELS
                                      for v in VARIANTS), key
        for row in rows.values():
            assert sum(row["cycle_breakdown"].values()) == row["cycles"]
    # SSP must actually run adapted binaries somewhere, not only no-ops.
    assert any(rows["inorder/ssp"] != rows["inorder/base"]
               for rows in golden.values())


if __name__ == "__main__":  # pragma: no cover
    regenerate()
    print(f"regenerated {GOLDEN_PATH}")
