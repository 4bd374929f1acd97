"""The tool's functional interpreters against the ``execute`` step loops.

:class:`~repro.isa.interp.FunctionalInterpreter` and
:class:`~repro.codegen.verify.ShadowInterpreter` (the differential verify)
walk the pre-decoded table with ``step_decoded``.  The two reference
classes below keep the loops they replaced, which step ``Instruction``
objects through ``execute`` (from ``tests/reference_sim.py``); this module
checks that both interpreters agree with them:

* on the fuzz corpus of ``tests/test_sim_fastpath.py``, original and
  adapted binaries: final registers, predicates, heap words and
  ``steps``; for the shadow interpreter also the spawn, budget-kill and
  ``chk.c`` fire counts;
* on a program with indirect calls (no workload makes one);
* on the error paths: exception class, message and culprit function;
* when the speculative step budget and the chain cap fire.

``ReferenceFunctional`` also keeps the per-instruction counting the
profile's functional pass once did: ``collect_profile``'s execution
counts, indirect-call targets and reference digest, all recorded by its
one in-order timing run, must equal it on every paper workload at
``tiny`` and ``small``, on the fuzz corpus and on the indirect-call
program.
"""

from __future__ import annotations

import pytest
from reference_sim import execute

from repro import (PAPER_ORDER, SSPPostPassTool, collect_profile,
                   make_workload)
from repro.check.fuzz import FuzzWorkload
from repro.codegen.verify import (ShadowInterpreter, SpeculativeEffectError,
                                  outcome_digest)
from repro.isa import (
    ExecutionError,
    FunctionalInterpreter,
    FunctionBuilder,
    Heap,
    Program,
    ThreadState,
    spawn_thread,
)
from repro.isa.instructions import Instruction

FUZZ_SEEDS = tuple(range(25))


class ReferenceFunctional(FunctionalInterpreter):
    """The ``execute`` step loop :class:`FunctionalInterpreter` replaced.

    It keeps the per-instruction counting of the profile's old functional
    pass — ``exec_counts`` per uid and ``indirect_targets`` per call site,
    a predicated-off indirect call included — as the oracle for the counts
    the in-order timing run records for ``collect_profile``.
    """

    def __init__(self, program: Program, heap: Heap, **kwargs):
        super().__init__(program, heap, **kwargs)
        self.exec_counts = {}
        self.indirect_targets = {}

    def run(self) -> ThreadState:
        program = self.program
        state = ThreadState(tid=0,
                            pc=program.function_entry[program.entry])
        counts = self.exec_counts
        code = program.code
        steps = 0
        while not state.done:
            if steps >= self.max_steps:
                raise ExecutionError(
                    f"exceeded {self.max_steps} steps; infinite loop?")
            instr = code[state.pc]
            uid = instr.uid
            counts[uid] = counts.get(uid, 0) + 1
            if instr.op == "br.call.ind":
                fid = state.regs.get(instr.srcs[0], 0)
                if 0 <= fid < len(program.function_by_id):
                    per_site = self.indirect_targets.setdefault(instr.uid, {})
                    name = program.function_by_id[fid]
                    per_site[name] = per_site.get(name, 0) + 1
            execute(program, self.heap, state, instr)
            steps += 1
        self.steps += steps
        return state


class ReferenceShadow(ShadowInterpreter):
    """The ``execute`` step loops :class:`ShadowInterpreter` replaced."""

    def run(self) -> ThreadState:
        program = self.program
        state = ThreadState(tid=0,
                            pc=program.function_entry[program.entry])
        code = program.code
        steps = 0
        while not state.done:
            if steps >= self.max_steps:
                raise ExecutionError(
                    f"exceeded {self.max_steps} steps; infinite loop?")
            instr = code[state.pc]
            fires = False
            if instr.op == "chk.c":
                fired = self._chk_fires.get(state.pc, 0)
                if fired < self.fire_limit:
                    self._chk_fires[state.pc] = fired + 1
                    fires = True
            result = execute(program, self.heap, state, instr,
                             chk_fires=fires)
            if result.spawn_target is not None:
                home = program.function_of_index[state.pc]
                self._run_reference_speculative(state, result.spawn_target,
                                                home)
            steps += 1
        return state

    def _run_reference_speculative(self, parent: ThreadState,
                                   target_pc: int, home: str) -> None:
        chained = 0
        pending = [spawn_thread(parent, self._tid(), target_pc)]
        while pending:
            child = pending.pop()
            self.spawned_threads += 1
            steps = 0
            while not child.done:
                if steps >= self.spec_step_budget:
                    self.killed_by_budget += 1
                    break
                instr = self.program.code[child.pc]
                try:
                    result = execute(self.program, self.heap, child, instr)
                except ExecutionError as exc:
                    raise SpeculativeEffectError(str(exc), function=home) \
                        from exc
                if result.spawn_target is not None:
                    chained += 1
                    if chained <= self.max_chained:
                        pending.append(spawn_thread(
                            child, self._tid(), result.spawn_target))
                steps += 1


def _state(state: ThreadState, heap: Heap) -> dict:
    return {"regs": dict(state.regs), "preds": dict(state.preds),
            "pc": state.pc, "halted": state.halted, "killed": state.killed,
            "lib_out": list(state.lib_out), "heap": dict(heap._words)}


def _functional(cls, program, heap_factory, **kwargs) -> dict:
    interp = cls(program, heap_factory(), **kwargs)
    first = _state(interp.run(), interp.heap)
    # A second run over the same heap: steps accumulate.
    second = _state(interp.run(), interp.heap)
    return {"first": first, "second": second, "steps": interp.steps}


def _profile_counts(program, heap_factory) -> dict:
    """What ``collect_profile``'s one timing run recorded."""
    profile = collect_profile(program, heap_factory)
    return {"exec_counts": profile.exec_counts,
            "indirect_targets": profile.indirect_targets,
            "reference": profile.reference_digest}


def _reference_counts(program, heap_factory) -> dict:
    """The same, from the ``execute`` loop's per-instruction counting."""
    interp = ReferenceFunctional(program, heap_factory())
    state = interp.run()
    return {"exec_counts": interp.exec_counts,
            "indirect_targets": interp.indirect_targets,
            "reference": outcome_digest(state, interp.heap)}


def _shadow(cls, program, heap_factory, **kwargs) -> dict:
    interp = cls(program, heap_factory(), **kwargs)
    return {"final": _state(interp.run(), interp.heap),
            "spawned_threads": interp.spawned_threads,
            "killed_by_budget": interp.killed_by_budget,
            "chk_fires": interp._chk_fires}


def _raised(run) -> tuple:
    with pytest.raises(ExecutionError) as info:
        run()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "function", None)


@pytest.fixture(scope="module")
def fuzz_corpus():
    """(seed, workload, original, adapted) for every fuzz seed."""
    corpus = []
    for seed in FUZZ_SEEDS:
        w = FuzzWorkload(seed)
        program = w.build_program()
        profile = collect_profile(program, w.build_heap)
        result = SSPPostPassTool().adapt(program, profile)
        adapted = result.program if result.adapted is not None else None
        corpus.append((seed, w, program, adapted))
    return corpus


def test_fuzz_corpus_adapts(fuzz_corpus):
    # Otherwise the shadow comparison below never runs a p-slice.
    assert sum(adapted is not None for *_, adapted in fuzz_corpus) >= 20


def test_functional_matches_reference_on_fuzz_corpus(fuzz_corpus):
    for seed, w, program, adapted in fuzz_corpus:
        for prog in (program, adapted or program):
            got = _functional(FunctionalInterpreter, prog, w.build_heap)
            want = _functional(ReferenceFunctional, prog, w.build_heap)
            assert got == want, seed


def test_profile_counts_match_reference_on_fuzz_corpus(fuzz_corpus):
    # Adapted binaries too: chk.c never fires in either run.
    for seed, w, program, adapted in fuzz_corpus:
        for prog in (program, adapted or program):
            assert _profile_counts(prog, w.build_heap) == \
                _reference_counts(prog, w.build_heap), seed


@pytest.mark.parametrize("scale", ("tiny", "small"))
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_profile_counts_match_reference_on_workloads(name, scale):
    w = make_workload(name, scale)
    program = w.build_program()
    got = _profile_counts(program, w.build_heap)
    assert got == _reference_counts(program, w.build_heap)
    assert got["exec_counts"]


def test_shadow_matches_reference_on_fuzz_corpus(fuzz_corpus):
    spawned = 0
    for seed, w, program, adapted in fuzz_corpus:
        for prog in (program, adapted or program):
            got = _shadow(ShadowInterpreter, prog, w.build_heap)
            want = _shadow(ReferenceShadow, prog, w.build_heap)
            assert got == want, seed
            spawned += got["spawned_threads"]
    assert spawned > 0


# -- hand-built programs ---------------------------------------------------------

N_ARCS = 120
STRIDE = 64


def _scan_layout():
    """Heap of the Figure 3 arc scan, with its arc array and output cell."""
    heap = Heap(1 << 20)
    nodes = [heap.alloc(64, align=64) for _ in range(40)]
    arcs = heap.alloc(N_ARCS * STRIDE, align=64)
    for i in range(N_ARCS):
        heap.store(arcs + i * STRIDE, nodes[i % len(nodes)])
    for i, node in enumerate(nodes):
        heap.store(node + 16, i)
    out = heap.alloc(8)
    return heap, arcs, out


def _scan_heap() -> Heap:
    return _scan_layout()[0]


def _scan_program(spec_store: bool = False) -> Program:
    """``main`` calls ``scan``, an arc scan adapted with a chaining
    p-slice; ``spec_store`` makes the p-slice write memory."""
    _, arcs, out = _scan_layout()
    prog = Program(entry="main")
    m = FunctionBuilder(prog.add_function("main"))
    m.call("scan")
    m.halt()

    fb = FunctionBuilder(prog.add_function("scan"))
    fb.mov_imm(arcs, dest="r50")
    fb.mov_imm(arcs + N_ARCS * STRIDE, dest="r51")
    fb.mov_imm(0, dest="r52")
    fb.chk_c("stub1")
    fb.label("loop")
    u = fb.load("r50", 0)
    pot = fb.load(u, 16)
    fb.add("r52", pot, dest="r52")
    fb.add("r50", imm=STRIDE, dest="r50")
    p = fb.cmp("lt", "r50", "r51")
    fb.br_cond(p, "loop")
    fb.store(fb.mov_imm(out), "r52")
    fb.ret()

    fb.label("stub1")
    fb.lib_store(0, "r50")
    fb.lib_store(1, "r51")
    fb.spawn("slice1")
    fb.rfi()

    fb.label("slice1")
    fb.lib_load(0, dest="r60")
    fb.lib_load(1, dest="r61")
    fb.mov("r60", dest="r62")
    fb.add("r60", imm=STRIDE, dest="r60")
    fb.lib_store(0, "r60")
    fb.lib_store(1, "r61")
    pc2 = fb.cmp("lt", "r60", "r61")
    fb.emit(Instruction(op="spawn", target="slice1", pred=pc2))
    fb.load("r62", 0, dest="r63")
    if spec_store:
        fb.store("r63", "r62")
    fb.prefetch("r63", 16)
    fb.kill()
    prog.finalize()
    return prog


def _indirect_program() -> Program:
    """A loop whose indirect call alternates between two callees, plus a
    predicated-off indirect call."""
    prog = Program(entry="main")
    for name, value in (("f1", 3), ("f2", 5)):
        g = FunctionBuilder(prog.add_function(name))
        g.ret(g.mov_imm(value))
    prog.finalize()  # to learn the function ids
    f1, f2 = prog.function_id["f1"], prog.function_id["f2"]
    m = FunctionBuilder(prog.add_function("main"))
    m.mov_imm(0, dest="r50")
    m.mov_imm(0, dest="r51")
    m.label("loop")
    odd = m.and_("r50", imm=1)
    is_odd = m.cmp("ne", odd, imm=0)
    fid = m.mov_imm(f1)
    m.emit(Instruction(op="mov", dest=fid, imm=f2, pred=is_odd))
    r = m.fresh()
    m.call_indirect(fid, ret=r)
    m.add("r51", r, dest="r51")
    never = m.cmp("lt", "r50", imm=0)
    m.emit(Instruction(op="br.call.ind", srcs=(fid,), pred=never))
    m.add("r50", imm=1, dest="r50")
    more = m.cmp("lt", "r50", imm=7)
    m.br_cond(more, "loop")
    m.halt()
    prog.finalize()
    return prog


def test_functional_matches_reference_on_indirect_calls():
    prog = _indirect_program()
    got = _functional(FunctionalInterpreter, prog, lambda: Heap(1 << 14))
    want = _functional(ReferenceFunctional, prog, lambda: Heap(1 << 14))
    assert got == want
    assert got["first"]["regs"]["r51"] == 4 * 3 + 3 * 5


def test_profile_counts_match_reference_on_indirect_calls():
    prog = _indirect_program()
    got = _profile_counts(prog, lambda: Heap(1 << 14))
    assert got == _reference_counts(prog, lambda: Heap(1 << 14))
    # Both sites are recorded, the predicated-off one included.
    assert sorted(sorted(t.items()) for t in got["indirect_targets"].values()) \
        == [[("f1", 4), ("f2", 3)], [("f1", 4), ("f2", 3)]]


def test_shadow_matches_reference_on_scan():
    prog = _scan_program()
    got = _shadow(ShadowInterpreter, prog, _scan_heap)
    assert got == _shadow(ReferenceShadow, prog, _scan_heap)
    assert got["spawned_threads"] > 1 and got["killed_by_budget"] == 0


@pytest.mark.parametrize("budget,max_chained,cut", [
    (9, 4096, False),   # each thread spawns its successor, then is killed
    (4096, 3, True),    # the chain cap drops the fourth chained spawn
    (7, 4096, True),    # killed just before the chain spawn, the 8th step
])
def test_budgets_fire_identically(budget, max_chained, cut):
    prog = _scan_program()
    kwargs = {"spec_step_budget": budget, "max_chained": max_chained}
    got = _shadow(ShadowInterpreter, prog, _scan_heap, **kwargs)
    want = _shadow(ReferenceShadow, prog, _scan_heap, **kwargs)
    assert got == want
    if budget < 4096:
        assert got["killed_by_budget"] > 0
    unbounded = _shadow(ShadowInterpreter, prog, _scan_heap)
    assert (got["spawned_threads"] < unbounded["spawned_threads"]) == cut


# -- error paths ---------------------------------------------------------------


def _bad_load_program() -> Program:
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    fb.load(fb.mov_imm(3))  # misaligned, below the heap
    fb.halt()
    prog.finalize()
    return prog


def _spin_program() -> Program:
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    fb.label("spin")
    fb.br("spin")
    prog.finalize()
    return prog


@pytest.mark.parametrize("decoded,reference", [
    (FunctionalInterpreter, ReferenceFunctional),
    (ShadowInterpreter, ReferenceShadow),
])
@pytest.mark.parametrize("build,kwargs,match", [
    (_bad_load_program, {}, "bad load address"),
    (_spin_program, {"max_steps": 1000}, "exceeded 1000 steps"),
])
def test_main_thread_errors_unchanged(decoded, reference, build, kwargs,
                                      match):
    prog = build()
    got = _raised(decoded(prog, Heap(1 << 14), **kwargs).run)
    assert got == _raised(reference(prog, Heap(1 << 14), **kwargs).run)
    assert got[0] is ExecutionError and match in got[1]


def test_speculative_store_error_unchanged():
    prog = _scan_program(spec_store=True)
    got = _raised(ShadowInterpreter(prog, _scan_heap()).run)
    assert got == _raised(ReferenceShadow(prog, _scan_heap()).run)
    assert got[0] is SpeculativeEffectError
    assert "attempted a store" in got[1]
    assert got[2] == "scan"
