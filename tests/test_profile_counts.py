"""The profile's one run of the original binary, and the verify's reference.

``collect_profile`` runs the original binary once, on the in-order timing
model, which records the main thread's execution counts (one
difference-array update per run of consecutive pcs, at the taken jump
that ends it) and indirect-call targets, and
the digest of the run's final main-thread state and heap.  The
differential verify compares the adapted binary's shadow run with that
digest and runs the original only to explain a mismatch.

Checked here:

* on SSP runs where ``chk.c`` fires, the counts sum to
  ``main_instructions``, cover each fired stub exactly, never reach
  p-slice code, and leave every original instruction's count unchanged;
  in sampled mode too;
* counts and targets survive ``snapshot()`` / ``restore()``;
* heaps built, with a counting heap factory: one per profile, one per
  clean verify, one per rollback iteration plus one per report that has
  to explain a mismatch;
* a digest mismatch still yields the full report, and a stale digest
  cannot roll back a sound adaptation.

Equality of the counts with a per-instruction reference count is in
``tests/test_interp_decoded.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro import PAPER_ORDER, SSPPostPassTool, collect_profile, make_workload
from repro.codegen import verify
from repro.codegen.verify import (
    SLICE_PREFIX,
    STUB_PREFIX,
    SpeculativeEffectError,
    differential_check,
)
from repro.guard import injecting
from repro.isa import Heap
from repro.sim.config import inorder_config
from repro.sim.inorder import InOrderSimulator
from repro.sim.sampling import run_sampled

from test_guard import _arc_scan, _reference_scan, _scan_heap
from test_interp_decoded import _indirect_program


class CountingFactory:
    """A heap factory that counts the heaps it builds."""

    def __init__(self, build):
        self.build = build
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.build()


def _adapt(name: str, scale: str = "tiny"):
    w = make_workload(name, scale)
    program = w.build_program()
    profile = collect_profile(program, w.build_heap)
    result = SSPPostPassTool().adapt(program, profile,
                                     heap_factory=w.build_heap)
    assert result.adapted is not None
    return w, program, profile, result.adapted.program


def _uids_in_blocks(program, prefix: str) -> set:
    return {i.uid for func in program.functions.values()
            for block in func.blocks if block.label.startswith(prefix)
            for i in block.instrs}


def _check_ssp_counts(program, profile, adapted, sim, stats) -> None:
    counts = sim.exec_counts()
    assert sum(counts.values()) == stats.main_instructions
    # The main thread never executes p-slice code ...
    assert not set(counts) & _uids_in_blocks(adapted, SLICE_PREFIX)
    # ... runs each stub's closing rfi once per fired chk.c ...
    rfis = {i.uid for i in adapted.code if i.op == "rfi"}
    assert sum(counts.get(uid, 0) for uid in rfis) == stats.chk_fired
    stub_uids = _uids_in_blocks(adapted, STUB_PREFIX)
    chk_uids = {i.uid for i in adapted.code if i.op == "chk.c"}
    original = {i.uid for i in program.code}
    assert set(counts) <= original | stub_uids | chk_uids
    # ... and every original instruction the adapted binary kept runs
    # exactly as often as in the profile of the original.
    kept = original & {i.uid for i in adapted.code}
    assert {uid: counts.get(uid, 0) for uid in kept} == \
        {uid: profile.exec_counts.get(uid, 0) for uid in kept}


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_ssp_run_counts_sum_to_main_instructions(name):
    w, program, profile, adapted = _adapt(name)
    sim = InOrderSimulator(adapted, w.build_heap(), inorder_config())
    stats = sim.run()
    assert stats.chk_fired > 0
    _check_ssp_counts(program, profile, adapted, sim, stats)


def test_sampled_ssp_run_counts_fast_forwarded_instructions():
    w, program, profile, adapted = _adapt("vpr")
    sim = InOrderSimulator(adapted, w.build_heap(), inorder_config())
    stats = run_sampled(sim, interval=2000, window=500)
    assert stats.chk_fired > 0
    _check_ssp_counts(program, profile, adapted, sim, stats)


@pytest.mark.parametrize("spawning", [False, True])
def test_counts_survive_snapshot_restore(spawning):
    w, _, _, adapted = _adapt("health")
    cases = [(adapted, w.build_heap),
             (_indirect_program(), lambda: Heap(1 << 14))]
    for program, build_heap in cases:
        golden = InOrderSimulator(program, build_heap(), inorder_config(),
                                  spawning=spawning)
        cycles = golden.run().cycles
        snaps = []
        InOrderSimulator(program, build_heap(), inorder_config(),
                         spawning=spawning).run(
            checkpoint_every=max(1, cycles // 2),
            on_checkpoint=lambda s: snaps.append(
                pickle.dumps(s.snapshot())) if not snaps else None)
        assert snaps
        resumed = InOrderSimulator(program, build_heap(), inorder_config(),
                                   spawning=spawning)
        resumed.restore(pickle.loads(snaps[0]))
        resumed.run()
        assert resumed.exec_counts() == golden.exec_counts()
        assert resumed.indirect_targets == golden.indirect_targets
    assert golden.indirect_targets  # the indirect program's call sites


# -- heaps built -----------------------------------------------------------------


def test_profile_builds_one_heap():
    w = make_workload("mcf", "tiny")
    factory = CountingFactory(w.build_heap)
    collect_profile(w.build_program(), factory)
    assert factory.calls == 1


def test_clean_adapt_builds_one_verify_heap():
    w = make_workload("mcf", "tiny")
    program = w.build_program()
    profile = collect_profile(program, w.build_heap)
    factory = CountingFactory(w.build_heap)
    result = SSPPostPassTool().adapt(program, profile, heap_factory=factory)
    assert result.adapted is not None and not result.guard.rolled_back
    assert factory.calls == 1


def test_differential_check_runs_the_original_only_on_mismatch():
    reference = collect_profile(_reference_scan(),
                                _scan_heap).reference_digest
    factory = CountingFactory(_scan_heap)
    report = differential_check(_reference_scan(), _arc_scan(), factory,
                                reference=reference)
    assert report.equivalent and report.spawned_threads > 0
    assert factory.calls == 1

    # A speculative store is reported from the adapted run alone.
    factory.calls = 0
    report = differential_check(_reference_scan(), _arc_scan("spec_store"),
                                factory, reference=reference)
    assert not report.equivalent and report.function == "main"
    assert factory.calls == 1

    # A diverging main thread is explained by one reference run, with
    # the report the digest-free check gives.
    factory.calls = 0
    report = differential_check(_reference_scan(), _arc_scan("main_drift"),
                                factory, reference=reference)
    assert factory.calls == 2
    full = differential_check(_reference_scan(), _arc_scan("main_drift"),
                              _scan_heap)
    assert not report.equivalent
    assert report.to_dict() == full.to_dict()


def test_stale_digest_cannot_roll_back_a_sound_adaptation():
    w = make_workload("mcf", "tiny")
    program = w.build_program()
    profile = collect_profile(program, w.build_heap)
    profile.reference_digest = "0" * 64
    factory = CountingFactory(w.build_heap)
    result = SSPPostPassTool().adapt(program, profile, heap_factory=factory)
    assert result.adapted is not None and not result.guard.rolled_back
    assert factory.calls == 2  # the adapted run + the explaining run


def test_heap_mismatch_rollback_builds_the_explaining_heap():
    w = make_workload("mcf", "tiny")
    program = w.build_program()
    profile = collect_profile(program, w.build_heap)

    def marked_heap():
        # Every heap differs in one word, so no two runs can agree.
        heap = w.build_heap()
        heap.store(heap.alloc(8), factory.calls)
        return heap

    factory = CountingFactory(marked_heap)
    result = SSPPostPassTool().adapt(program, profile, heap_factory=factory)
    assert result.adapted is None and result.guard.rolled_back
    (diagnostic,) = [d for d in result.guard.diagnostics
                     if d.stage == "verify"]
    assert "final heap differs" in diagnostic.message
    # One iteration, one mismatch report.
    assert factory.calls == 2


def test_injected_mismatch_rollback_builds_one_heap():
    w = make_workload("mcf", "tiny")
    program = w.build_program()
    profile = collect_profile(program, w.build_heap)
    factory = CountingFactory(w.build_heap)
    with injecting("verify.mismatch"):
        result = SSPPostPassTool().adapt(program, profile,
                                         heap_factory=factory)
    assert result.adapted is None and result.guard.rolled_back
    assert factory.calls == 1


def test_per_function_rollback_builds_one_heap_per_iteration(monkeypatch):
    # mst adapts two functions; fail the first p-slice the verify runs,
    # so its function is rolled back and the rest is verified again.
    w = make_workload("mst", "tiny")
    program = w.build_program()
    profile = collect_profile(program, w.build_heap)
    real = verify.ShadowInterpreter._run_speculative
    failed = []

    def fail_once(self, dcode, parent, target_pc, home):
        if not failed:
            failed.append(home)
            raise SpeculativeEffectError("injected", function=home)
        return real(self, dcode, parent, target_pc, home)

    monkeypatch.setattr(verify.ShadowInterpreter, "_run_speculative",
                        fail_once)
    factory = CountingFactory(w.build_heap)
    result = SSPPostPassTool().adapt(program, profile, heap_factory=factory)
    assert result.adapted is not None
    assert [r["function"] for r in result.guard.rollbacks] == failed
    # Two iterations, no report that needed the original run.
    assert factory.calls == 2
