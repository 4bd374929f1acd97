"""Architectural (functional) semantics shared by all execution engines.

A :class:`ThreadState` is one hardware thread context's architectural state.
Every execution engine — both timing simulators' cycle loops,
:class:`FunctionalInterpreter` and the differential verify's
``ShadowInterpreter`` — steps it with :func:`repro.isa.decode.step_decoded`
over a pre-decoded table; this module holds the state, the ALU and compare
operators that step applies, and :func:`spawn_thread`.

Speculative threads never modify the main thread's architectural state: they
have their own :class:`ThreadState`, may not execute stores (the emitter
guarantees it; the step enforces it), and loads of garbage addresses
return 0 instead of faulting — the deferred-exception behaviour the paper
relies on ("the SSP paradigm does not require p-slice computation to satisfy
the correctness constraints").
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .memory import Heap
from .program import Program
from . import registers as regs


class ExecutionError(Exception):
    """Raised for run-time errors in the *main* thread (bad address, etc.)."""


_RELATIONS: Dict[str, Callable[[int, int], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_ALU: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
}

#: Number of live-in buffer slots per spawn site (the RSE backing-store
#: region is small; Table 2 shows slices need < 8 live-ins).
LIB_SLOTS = 16


class ThreadState:
    """Architectural state of one hardware thread context."""

    __slots__ = ("tid", "pc", "regs", "preds", "call_stack", "rfi_stack",
                 "lib_out", "lib_in", "speculative", "halted", "killed")

    def __init__(self, tid: int, pc: int, speculative: bool = False):
        self.tid = tid
        self.pc = pc
        self.regs: Dict[str, int] = {regs.ZERO: 0}
        self.preds: Dict[str, bool] = {regs.TRUE_PREDICATE: True}
        # Each frame is (return_pc, saved_regs) — a register-stack window.
        self.call_stack: List[tuple] = []
        self.rfi_stack: List[int] = []
        # Staging buffer this thread writes live-ins into before a spawn.
        self.lib_out: List[int] = [0] * LIB_SLOTS
        # Snapshot of the parent's lib_out taken at spawn time.
        self.lib_in: List[int] = [0] * LIB_SLOTS
        self.speculative = speculative
        self.halted = False
        self.killed = False

    @property
    def done(self) -> bool:
        return self.halted or self.killed

    def read(self, reg: str) -> int:
        return self.regs.get(reg, 0)

    def read_pred(self, pred: str) -> bool:
        return self.preds.get(pred, False)


def spawn_thread(parent: ThreadState, tid: int, target_pc: int) -> ThreadState:
    """Create a speculative thread context started by ``parent``.

    The child receives a *snapshot* of the parent's live-in staging buffer —
    the values the parent's stub code copied there — modelling the on-chip
    RSE backing-store buffer of Section 2.1, which "eliminat[es] the
    possibility of inter-thread hazards where a register may be overwritten
    before a child thread has read it".
    """
    child = ThreadState(tid, target_pc, speculative=True)
    child.lib_in = list(parent.lib_out)
    return child


class FunctionalInterpreter:
    """Timing-free whole-program execution.

    Used by workload unit tests to validate program semantics and by the
    cross-model oracle and fuzzer as the architectural reference.  Runs a
    single thread; ``chk.c`` never fires and ``spawn`` is ignored (a spawn
    with no free context is dropped, and functionally a p-slice has no
    architectural effect anyway).

    Steps the pre-decoded table of :mod:`repro.isa.decode` with
    :func:`~repro.isa.decode.step_decoded`, the same per-instruction
    semantics the timing simulators use.
    """

    def __init__(self, program: Program, heap: Heap,
                 max_steps: int = 50_000_000):
        if not program.finalized:
            program.finalize()
        self.program = program
        self.heap = heap
        self.max_steps = max_steps
        self.steps = 0

    def run(self) -> ThreadState:
        """Run from the program entry until halt; returns the final state."""
        # decode imports this module, so it is imported here.
        from .decode import decode_program, step_decoded
        program = self.program
        heap = self.heap
        dcode = decode_program(program)
        state = ThreadState(tid=0,
                            pc=program.function_entry[program.entry])
        max_steps = self.max_steps
        steps = 0
        while not (state.halted or state.killed):
            if steps >= max_steps:
                raise ExecutionError(
                    f"exceeded {max_steps} steps; infinite loop?")
            step_decoded(program, heap, state, dcode[state.pc])
            steps += 1
        self.steps += steps
        return state
