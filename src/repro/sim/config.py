"""Machine configuration — the research Itanium models of Table 1.

Two presets are provided: :func:`inorder_config` (12-stage pipeline,
16-bundle expansion queue) and :func:`ooo_config` (16-stage pipeline,
255-entry ROB, 18-entry reservation station).  Everything else — SMT with 4
hardware thread contexts, fetch/issue of 2 bundles from one thread or 1
bundle each from two threads, 4 int / 2 FP / 3 branch units and 2 memory
ports, the 16K/256K/3M cache hierarchy with 64-byte lines, the 16-entry fill
buffer, 230-cycle memory and 30-cycle TLB miss — is common to both models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = 64

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"cache geometry gives non-power-of-2 sets: {sets}")
        return sets


@dataclass(frozen=True)
class MachineConfig:
    """Full machine model parameters (Table 1)."""

    name: str = "in-order"
    out_of_order: bool = False

    # Threading / pipeline.
    hardware_contexts: int = 4
    pipeline_stages: int = 12
    bundle_size: int = 3
    #: Max bundles fetched+issued per cycle: 2 from one thread, or 1 each
    #: from two threads.
    bundles_per_cycle: int = 2
    #: Threads that may issue in one cycle: 1 or 2 (the in-order issue
    #: stage selects at most two candidates).
    max_threads_per_cycle: int = 2

    # OOO structures (ignored by the in-order model).
    rob_entries: int = 255
    rs_entries: int = 18
    #: In-order per-thread expansion queue (bundles).
    expansion_queue_bundles: int = 16

    # Function units.
    int_units: int = 4
    fp_units: int = 2
    branch_units: int = 3
    memory_ports: int = 2

    # Branch prediction.
    gshare_entries: int = 2048
    btb_entries: int = 256
    btb_ways: int = 4

    # Memory hierarchy.
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(16 * 1024, 4, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, 4, 14))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(3072 * 1024, 12, 30))
    memory_latency: int = 230
    fill_buffer_entries: int = 16
    tlb_entries: int = 128
    tlb_page_bytes: int = 8192
    tlb_miss_penalty: int = 30

    # SSP support costs.  Spawning uses the lightweight exception-recovery
    # mechanism: a firing chk.c flushes the pipeline like an exception
    # (Section 4.4.1), and a spawned thread needs a few cycles before its
    # first fetch (context allocation + start-address transfer).
    chk_flush_penalty: int = 12
    spawn_startup_latency: int = 4

    # Runaway-slice containment: hard budgets for *speculative* contexts.
    # A speculative thread that issues more than spec_instruction_budget
    # instructions, or occupies its context longer than spec_cycle_budget
    # cycles, is killed (counted in SimStats.budget_kills) — a buggy
    # chaining slice cannot spin forever.  The main thread is never
    # budgeted.  0 disables a budget.
    spec_instruction_budget: int = 1_000_000
    spec_cycle_budget: int = 0

    # Experiment knobs (Figure 2): a perfect memory subsystem, or perfect
    # behaviour for a designated set of delinquent loads.
    perfect_memory: bool = False
    perfect_load_uids: FrozenSet[int] = frozenset()

    # Section 4.4.1's future-work extension, implemented: "future dynamic
    # optimizers can monitor the coverage and timeliness data associated
    # with a prefetching thread and if the thread does not help reduce
    # latency, future chk.c instructions for that thread will return no
    # available context."  When enabled, a trigger whose speculative
    # threads are not producing useful (partial-hit) prefetches is
    # suppressed after a sampling period.
    dynamic_chk_throttle: bool = False
    #: Fires sampled before a throttling decision.
    throttle_sample_fires: int = 8
    #: Minimum main-thread partial hits per fire to keep a trigger alive.
    throttle_min_benefit: float = 0.5

    def __post_init__(self) -> None:
        # Overrides arrive from outside the program (RunSpec payloads),
        # so a value the issue stage cannot model is refused, not run.
        if self.max_threads_per_cycle not in (1, 2):
            raise ValueError(
                f"max_threads_per_cycle must be 1 or 2, got "
                f"{self.max_threads_per_cycle!r}")

    @property
    def issue_width(self) -> int:
        """Peak instructions issued per cycle (bundles * bundle size)."""
        return self.bundles_per_cycle * self.bundle_size

    @property
    def mispredict_penalty(self) -> int:
        """Front-end refill cost of a branch misprediction."""
        return self.pipeline_stages

    def with_perfect_memory(self) -> "MachineConfig":
        return replace(self, perfect_memory=True,
                       name=self.name + "+perfect-mem")

    def with_perfect_loads(self, uids) -> "MachineConfig":
        return replace(self, perfect_load_uids=frozenset(uids),
                       name=self.name + "+perfect-dloads")


def inorder_config() -> MachineConfig:
    """The baseline in-order research Itanium model (12-stage)."""
    return MachineConfig(name="in-order", out_of_order=False,
                         pipeline_stages=12)


def ooo_config() -> MachineConfig:
    """The out-of-order research model: 4 extra front-end stages, 255-entry
    ROB, 18-entry reservation station."""
    return MachineConfig(name="ooo", out_of_order=True, pipeline_stages=16,
                         chk_flush_penalty=16)


def table1_rows():
    """The Table 1 parameter listing, as (parameter, value) rows."""
    cfg = inorder_config()
    ooo = ooo_config()
    return [
        ("Threading", f"SMT processor with {cfg.hardware_contexts} hardware "
                      "thread contexts"),
        ("Pipelining", f"In-order: {cfg.pipeline_stages}-stage pipeline. "
                       f"OOO: {ooo.pipeline_stages}-stage pipeline."),
        ("Fetch per cycle", "2 bundles from 1 thread or 1 bundle each from "
                            "2 threads"),
        ("Branch predict.", f"{cfg.gshare_entries}-entry GSHARE. "
                            f"{cfg.btb_entries}-entry {cfg.btb_ways}-way "
                            "associative BTB."),
        ("Issue per cycle", "2 bundles from 1 thread or 1 bundle each from "
                            "2 threads"),
        ("Function units", f"{cfg.int_units} int. units, {cfg.fp_units} FP "
                           f"units, {cfg.branch_units} branch units, "
                           f"{cfg.memory_ports} memory port"),
        ("OOO structures", f"{ooo.rob_entries}-entry reorder buffer, "
                           f"{ooo.rs_entries}-entry reservation station"),
        ("L1", f"{cfg.l1.size_bytes // 1024}KB, {cfg.l1.ways}-way, "
               f"{cfg.l1.latency}-cycle latency"),
        ("L2", f"{cfg.l2.size_bytes // 1024}KB, {cfg.l2.ways}-way, "
               f"{cfg.l2.latency}-cycle latency"),
        ("L3", f"{cfg.l3.size_bytes // 1024}KB, {cfg.l3.ways}-way, "
               f"{cfg.l3.latency}-cycle latency"),
        ("Fill buffer", f"{cfg.fill_buffer_entries} entries"),
        ("Line size", f"{cfg.l1.line_bytes} bytes (all caches)"),
        ("Memory", f"{cfg.memory_latency}-cycle latency"),
        ("TLB", f"miss penalty {cfg.tlb_miss_penalty} cycles"),
    ]
