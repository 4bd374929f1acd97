"""Seeded random-program fuzzing of the whole adaptation pipeline.

The seven benchmark kernels exercise the tool along seven fixed paths; the
fuzzer generates an unbounded family of pointer-chasing kernels and drives
each through the complete pipeline — profile → slice → schedule → trigger
→ emit → **lint** → **differential oracle** — asserting at the end what
the linter and oracle assert for the real workloads.  Violations are
reported through the :mod:`repro.guard` diagnostic taxonomy (stage
``"check"``) and emitted as :mod:`repro.obs` events, so a fuzz run plugs
into the same reporting machinery as a tool run.

The generated programs are linked-list traversals — the delinquent-load
shape SSP targets — randomised along the axes that have historically
broken binary rewriters:

* 1–3 independent lists of 24–96 shuffled 64-byte nodes (cache-hostile);
* an optional *partner* pointer field, giving the slice a second
  dependent load off the chase spine;
* an optional callee wrapper around the value load, exercising region
  slicing across calls and speculative callee cloning;
* 0–3 scheduling ``nop``s sprinkled at loop headers and *inside* loop
  bodies — including directly after the chase load, which is exactly the
  slot a naive nearby-nop search would illegally steal for the trigger.

Everything is derived from one integer seed, so any failure replays with
``run_case(seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..codegen.verify import _architectural_outcome, differential_check
from ..guard.errors import ABORT, ERROR, FATAL, Diagnostic
from ..isa.builder import FunctionBuilder
from ..isa.interp import FunctionalInterpreter
from ..isa.memory import Heap
from ..isa.program import Program
from ..obs.tracer import NULL_TRACER
from ..profiling.collect import collect_profile
from ..sim.config import inorder_config
from ..sim.inorder import InOrderSimulator
from ..tool.postpass import SSPPostPassTool
from ..workloads.base import Workload
from .lint import lint_program

NODE_BYTES = 64
OFF_NEXT = 0
OFF_VALUE = 8
OFF_PARTNER = 16


class FuzzWorkload(Workload):
    """One random pointer-chasing kernel, fully determined by its seed."""

    name = "fuzz"
    description = "generated linked-list chase"
    suite = "fuzz"

    def __init__(self, seed: int):
        super().__init__("tiny", seed)

    def heap_bytes(self) -> int:
        return 1 << 22

    def _build_layout(self, heap: Heap, rng: random.Random) -> dict:
        num_lists = rng.randint(1, 3)
        partner = rng.random() < 0.5
        callee = rng.random() < 0.4
        lists = []
        expected = 0
        for _ in range(num_lists):
            count = rng.randint(24, 96)
            nodes = [heap.alloc(NODE_BYTES, align=64)
                     for _ in range(count)]
            rng.shuffle(nodes)
            for i, node in enumerate(nodes):
                value = rng.randrange(1, 100)
                expected += value
                heap.store(node + OFF_VALUE, value)
                heap.store(node + OFF_NEXT,
                           nodes[i + 1] if i + 1 < count else 0)
                if partner:
                    heap.store(node + OFF_PARTNER,
                               nodes[rng.randrange(count)])
            lists.append(nodes[0])
        if partner:
            # Partner values are only known once every node is filled in;
            # accumulate them in a deterministic second pass.
            for head in lists:
                cur = head
                while cur:
                    mate = heap.load(cur + OFF_PARTNER)
                    expected += heap.load(mate + OFF_VALUE)
                    cur = heap.load(cur + OFF_NEXT)
        out = heap.alloc(8)
        # Nop sprinkling positions, drawn here so layout and program agree.
        nops = {
            "preheader": rng.randint(0, 2),
            "after_chase": rng.randint(0, 2),
            "mid_body": rng.randint(0, 1),
        }
        return {"heads": lists, "out": out, "expected": expected,
                "partner": partner, "callee": callee, "nops": nops}

    def expected_output(self, layout: dict) -> Optional[int]:
        return layout["expected"]

    def _build_program(self, layout: dict) -> Program:
        prog = Program(entry="main")
        partner = layout["partner"]
        nops = layout["nops"]

        if layout["callee"]:
            cb = FunctionBuilder(prog.add_function("nodeval",
                                                   num_params=1))
            (n,) = cb.params(1)
            v = cb.load(n, OFF_VALUE)
            cb.ret(v)

        fb = FunctionBuilder(prog.add_function("main"))
        total = fb.mov_imm(0, dest="r110")
        for li, head in enumerate(layout["heads"]):
            fb.mov_imm(head, dest="r111")
            for _ in range(nops["preheader"]):
                fb.nop()  # scheduling slack at the preheader: trigger slot
            fb.label(f"loop{li}")
            done = fb.cmp("eq", "r111", imm=0)
            fb.br_cond(done, f"done{li}")
            if layout["callee"]:
                v = fb.call_fresh("nodeval", ["r111"])
            else:
                v = fb.load("r111", OFF_VALUE)
            fb.add(total, v, dest=total)
            for _ in range(nops["mid_body"]):
                fb.nop()
            if partner:
                mate = fb.load("r111", OFF_PARTNER)
                mv = fb.load(mate, OFF_VALUE)
                fb.add(total, mv, dest=total)
            fb.load("r111", OFF_NEXT, dest="r111")  # the chase load
            for _ in range(nops["after_chase"]):
                fb.nop()  # nop *after* the chase: an illegal trigger slot
            fb.br(f"loop{li}")
            fb.label(f"done{li}")
        o = fb.mov_imm(layout["out"])
        fb.store(o, total)
        fb.halt()
        return prog


@dataclass
class FuzzOutcome:
    """Result of one fuzz case."""

    seed: int
    stages: List[str] = field(default_factory=list)
    violations: List[Diagnostic] = field(default_factory=list)
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def violate(self, error: str, message: str,
                severity: str = ERROR) -> None:
        self.violations.append(Diagnostic(
            stage="check", error=error, severity=severity, policy=ABORT,
            message=f"seed {self.seed}: {message}"))


def run_case(seed: int, tracer=NULL_TRACER) -> FuzzOutcome:
    """One random program through the complete pipeline."""
    outcome = FuzzOutcome(seed=seed)
    with tracer.span("fuzz_case", category="check", seed=seed):
        _run_case(seed, outcome, tracer)
    for diag in outcome.violations:
        tracer.event("fuzz_violation", category="check",
                     **diag.to_dict())
    return outcome


def _run_case(seed: int, outcome: FuzzOutcome, tracer) -> None:
    workload = FuzzWorkload(seed)
    program = workload.build_program()

    # Pipeline front half: profile and adapt (the tool's own guard layer
    # is allowed to degrade — drops and rollbacks are not fuzz failures,
    # crashes and invariant violations are).
    try:
        profile = collect_profile(program, workload.build_heap)
    except Exception as exc:  # noqa: BLE001 - fuzzing for crashes
        outcome.violate("ProfileCrash", repr(exc), severity=FATAL)
        return
    outcome.stages.append("profile")

    result = SSPPostPassTool(tracer=tracer).adapt(
        program, profile, heap_factory=workload.build_heap)
    outcome.stages.append("adapt")
    if result.adapted is None:
        outcome.degraded = True
        return  # guarded degradation: legal, nothing left to lint
    adapted = result.adapted.program

    # Lint: every static rule on the adapted binary.
    for violation in lint_program(program, adapted):
        outcome.violate(f"Lint:{violation.rule}", str(violation))
    outcome.stages.append("lint")

    # Differential: interpreter equality (chk.c inert) ...
    heap = workload.build_heap()
    ref_state = FunctionalInterpreter(program, heap).run()
    workload.check_output(heap)
    heap = workload.build_heap()
    interp = FunctionalInterpreter(adapted, heap)
    try:
        adapted_state = interp.run()
        workload.check_output(heap)
    except Exception as exc:  # noqa: BLE001
        outcome.violate("InterpDivergence", repr(exc), severity=FATAL)
        return
    if _architectural_outcome(adapted_state) != \
            _architectural_outcome(ref_state):
        outcome.violate("InterpDivergence",
                        "adapted main-thread state differs",
                        severity=FATAL)
    outcome.stages.append("interp")

    # ... forced-fire shadow run (p-slices really execute) ...
    report = differential_check(program, adapted, workload.build_heap)
    if not report.equivalent:
        outcome.violate("ShadowDivergence", report.reason or "diverged",
                        severity=FATAL)
    outcome.stages.append("shadow")

    # ... and a live in-order run: results + net retired instructions.
    heap = workload.build_heap()
    sim = InOrderSimulator(adapted, heap, inorder_config(), True,
                           50_000_000)
    try:
        stats = sim.run()
        workload.check_output(heap)
    except Exception as exc:  # noqa: BLE001
        outcome.violate("SimDivergence", repr(exc), severity=FATAL)
        return
    if _architectural_outcome(sim.main_state) != \
            _architectural_outcome(ref_state):
        outcome.violate("SimDivergence",
                        "in-order final state differs from interpreter",
                        severity=FATAL)
    net = stats.main_instructions - stats.main_stub_instructions
    if net != interp.steps:
        outcome.violate(
            "RetiredMismatch",
            f"in-order retires {net} net main instructions, "
            f"interpreter {interp.steps}")
    outcome.stages.append("inorder")


@dataclass
class FuzzReport:
    """Aggregate of one fuzz run."""

    base_seed: int
    cases: List[FuzzOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def degraded(self) -> int:
        return sum(1 for case in self.cases if case.degraded)

    def summary(self) -> str:
        failed = [case for case in self.cases if not case.ok]
        lines = [f"fuzz: {len(self.cases)} programs, "
                 f"{self.degraded} guarded degradations, "
                 f"{len(failed)} with violations (base seed "
                 f"{self.base_seed})"]
        for case in failed:
            for diag in case.violations:
                lines.append(f"  [{diag.error}] {diag.message}")
        return "\n".join(lines)


def run_fuzz(count: int = 50, base_seed: int = 20020617,
             tracer=NULL_TRACER) -> FuzzReport:
    """Run ``count`` seeded cases; seeds are ``base_seed + i``."""
    report = FuzzReport(base_seed=base_seed)
    for i in range(count):
        report.cases.append(run_case(base_seed + i, tracer=tracer))
    return report
