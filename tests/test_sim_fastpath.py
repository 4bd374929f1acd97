"""Differential suite: the simulators against their reference loops.

Each timing model runs one cycle loop over the pre-decoded issue table.
``tests/reference_sim.py`` keeps the loops that step ``Instruction``
objects through ``execute``; the production loops must be
*byte-identical* to them: same cycles, same Figure 10 breakdown, same
spawn/chk/prefetch counters, on every paper workload and on randomly
generated programs.  These tests are the gate for that claim:

* all seven paper workloads x both machine models, one shared adapted
  binary per workload (adaptation itself is deterministic; sharing it
  isolates the comparison to the simulators),
* the same with one issuing thread per cycle (``max_threads_per_cycle``
  1, the other value the in-order issue stage models),
* a fuzz corpus of generated workloads through the same comparison,
* the accounting invariant ``sum(cycle_breakdown) == cycles``.
"""

from __future__ import annotations

import dataclasses

import pytest
from reference_sim import REFERENCE

from repro import SSPPostPassTool, collect_profile
from repro.check.fuzz import FuzzWorkload
from repro.sim.machine import make_config, make_simulator
from repro.workloads.base import make_workload

PAPER_WORKLOADS = ("mcf", "em3d", "health", "mst", "vpr",
                   "treeadd.df", "treeadd.bf")
#: Machines the differential tests run: each model's Table 1 preset, plus
#: the in-order model issuing from one thread per cycle (the other
#: ``max_threads_per_cycle`` value its issue stage models).
MACHINES = {
    "inorder": ("inorder", {}),
    "ooo": ("ooo", {}),
    "inorder-1thread": ("inorder", {"max_threads_per_cycle": 1}),
}

FUZZ_SEEDS = tuple(range(25))


def _adapted(workload):
    """One adapted binary, shared between the production and reference
    runs."""
    program = workload.build_program()
    profile = collect_profile(program, workload.build_heap)
    result = SSPPostPassTool().adapt(program, profile)
    return result.program if result.adapted is not None else program


def _run(program, workload, machine, reference):
    model, overrides = MACHINES[machine]
    config = dataclasses.replace(make_config(model), **overrides)
    heap = workload.build_heap()
    if reference:
        sim = REFERENCE[model](program, heap, config)
    else:
        sim = make_simulator(program, heap, model=model, config=config)
    sim.run()
    return sim.stats.to_dict()


@pytest.mark.parametrize("model", MACHINES)
@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_fast_path_byte_identical_on_paper_workloads(name, model):
    w = make_workload(name, "tiny")
    adapted = _adapted(w)
    fast = _run(adapted, w, model, reference=False)
    reference = _run(adapted, w, model, reference=True)
    assert fast == reference
    assert sum(fast["cycle_breakdown"].values()) == fast["cycles"]


@pytest.mark.parametrize("model", MACHINES)
def test_fast_path_byte_identical_on_fuzz_corpus(model):
    mismatches = []
    for seed in FUZZ_SEEDS:
        w = FuzzWorkload(seed)
        adapted = _adapted(w)
        fast = _run(adapted, w, model, reference=False)
        reference = _run(adapted, w, model, reference=True)
        if fast != reference:
            diff = {k: (fast[k], reference[k]) for k in fast
                    if fast[k] != reference[k]}
            mismatches.append((seed, diff))
        assert sum(fast["cycle_breakdown"].values()) == fast["cycles"], seed
    assert not mismatches


@pytest.mark.parametrize("model", ("inorder", "ooo"))
def test_breakdown_sums_to_cycles_without_spawning(model):
    # The invariant must hold on the unadapted binary too (no spec
    # threads, different stall mix).
    w = make_workload("mcf", "tiny")
    sim = make_simulator(w.build_program(), w.build_heap(), model=model,
                         spawning=False)
    sim.run()
    assert sum(sim.stats.cycle_breakdown.values()) == sim.stats.cycles
