"""Golden for the tool path: profile → delinquent loads → adapt → verify.

``golden_tiny.json`` pins a few end-to-end numbers; this golden pins
what the tool itself computes from its functional passes, on all seven
paper workloads at ``tiny`` and ``small``:

* the profile's ``exec_counts`` and ``indirect_targets`` (as sha256 of
  their canonical JSON) and ``baseline_cycles``;
* the selected ``delinquent_uids``;
* the adapted program's ``disassemble()`` listing (sha256);
* ``differential_check(program, adapted, build_heap).to_dict()``.

Any change here is a change in what the tool produces and must be
reviewed, then the file regenerated deliberately with
``PYTHONPATH=src python tests/test_golden_tool.py``.
"""

import hashlib
import json
import os

import pytest

from repro import PAPER_ORDER, SSPPostPassTool, collect_profile, make_workload
from repro.codegen.verify import differential_check
from repro.isa.instructions import numbered_after

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_tool.json")
SCALES = ("tiny", "small")


def _sha256(obj) -> str:
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(obj.encode()).hexdigest()


def compute(name: str, scale: str) -> dict:
    w = make_workload(name, scale)
    # Numbered as the runner numbers them, so uids do not depend on what
    # the process built before.
    with numbered_after(0):
        program = w.build_program()
    profile = collect_profile(program, w.build_heap)
    last = max(instr.uid for instr in program.instructions())
    with numbered_after(last):
        result = SSPPostPassTool().adapt(program, profile, w.build_heap)
    row = {
        "exec_counts": _sha256(
            {str(uid): n for uid, n in profile.exec_counts.items()}),
        "indirect_targets": _sha256(
            {str(uid): t for uid, t in profile.indirect_targets.items()}),
        "baseline_cycles": profile.baseline_cycles,
        "delinquent_uids": list(result.delinquent_uids),
        "adapted": None,
        "differential": None,
    }
    if result.adapted is not None:
        adapted = result.program
        row["adapted"] = _sha256(adapted.disassemble())
        row["differential"] = differential_check(
            program, adapted, w.build_heap).to_dict()
    return row


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
def test_tool_path_matches_golden(name, scale, golden):
    assert compute(name, scale) == golden[f"{name}@{scale}"], (
        f"{name}@{scale}: tool output changed — if intentional, "
        "regenerate tests/golden_tool.json")


def test_golden_covers_every_workload_and_scale(golden):
    assert sorted(golden) == sorted(f"{n}@{s}" for s in SCALES
                                    for n in PAPER_ORDER)
    # The golden must exercise the verify path, not only no-op adaptations.
    assert all(row["differential"] is not None
               and row["differential"]["equivalent"]
               for row in golden.values())


if __name__ == "__main__":  # pragma: no cover
    regenerate()
    print(f"regenerated {GOLDEN_PATH}")
