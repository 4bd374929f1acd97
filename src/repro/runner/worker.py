"""Spec execution: build artifacts, simulate, serialise the result.

:func:`execute_spec` is the unit of work the runner schedules.  It takes
one picklable argument and rebuilds everything it needs from the spec
alone, so the same call runs inline, in a forked supervisor worker, or
in a service worker on another host.

:func:`execute_task` is the supervised flavour: a :class:`WorkerTask`
adds the resilience contract — heartbeats for the watchdog, periodic
checkpoints, resume-from-checkpoint, and wall-clock/RSS budgets enforced
at checkpoint boundaries.  ``execute_spec`` is ``execute_task`` with
everything switched off, so both paths share one execution core.

Expensive intermediate artifacts (profile, tool adaptation, hand binary)
are memoised per process and per (workload, scale, tool options), so the
many specs of one experiment share one profiling run and one adaptation
within each worker.  Supervisor workers live for a whole batch, so the
memo carries across the tasks each one runs, and a forked worker
inherits whatever the parent had already built.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..guard import faultinject
from ..guard.errors import CheckpointError, ResourceBudgetError
from ..obs.tracer import NULL_TRACER
from ..profiling.collect import collect_profile
from ..profiling.profile import ProgramProfile
from ..resilience.checkpoint import CheckpointStore
from ..resilience.heartbeat import Heartbeat
from ..sim.config import MachineConfig
from ..sim.machine import make_config, make_simulator
from ..tool.postpass import SSPPostPassTool, ToolOptions, ToolResult
from ..workloads import make_workload
from .spec import RunSpec

#: Variants whose run must leave the workload's expected output in the
#: heap (the ``perfect_*`` ablations alter memory behaviour, not results,
#: but are excluded to mirror the historical experiment harness).
_CHECKED_VARIANTS = ("base", "ssp")


class WorkloadArtifacts:
    """Lazily-built products for one (workload, scale, tool options)."""

    def __init__(self, name: str, scale: str,
                 tool_options: Optional[Dict[str, Any]] = None):
        self.name = name
        self.scale = scale
        self.tool_options = (ToolOptions(**tool_options)
                             if tool_options else None)
        self.workload = make_workload(name, scale)
        self.program = self.workload.build_program()
        #: Observability sink for the expensive builds below; callers that
        #: want spans (the CLI's ``--trace``) set this before the first
        #: access to :attr:`profile` / :attr:`tool_result`.
        self.tracer = NULL_TRACER
        self._profile: Optional[ProgramProfile] = None
        self._tool_result: Optional[ToolResult] = None
        self._hand_workload = None

    @property
    def profile(self) -> ProgramProfile:
        if self._profile is None:
            with self.tracer.span("collect_profile",
                                  category="profiling") as sp:
                self._profile = collect_profile(self.program,
                                                self.workload.build_heap)
                sp.set(baseline_cycles=self._profile.baseline_cycles,
                       total_miss_cycles=self._profile.total_miss_cycles())
        return self._profile

    @property
    def tool_result(self) -> ToolResult:
        if self._tool_result is None:
            tool = SSPPostPassTool(self.tool_options, tracer=self.tracer)
            # The heap factory enables the differential verify stage
            # (semantic-equivalence rollback) inside the tool.
            self._tool_result = tool.adapt(
                self.program, self.profile,
                heap_factory=self.workload.build_heap)
        return self._tool_result

    @property
    def delinquent_uids(self):
        return self.tool_result.delinquent_uids

    @property
    def hand_workload(self):
        if self._hand_workload is None:
            self._hand_workload = make_workload(self.name + ".hand",
                                                self.scale)
        return self._hand_workload

    # -- per-variant run inputs ------------------------------------------------------

    def run_inputs(self, variant: str):
        """(program, heap-building workload) for one variant."""
        if variant == "ssp":
            result = self.tool_result
            if result.adapted is None:
                # Adaptation degraded to a no-op (guard drops/rollback):
                # run the unadapted binary — never worse than no
                # adaptation, never an exception.
                return self.program, self.workload
            return result.adapted.program, self.workload
        if variant == "hand":
            return self.hand_workload.build_program(), self.hand_workload
        return self.program, self.workload


#: Per-process artifact memo: (workload, scale, frozen options) -> built.
_ARTIFACTS: Dict[Tuple, WorkloadArtifacts] = {}


def artifacts_for(spec: RunSpec) -> WorkloadArtifacts:
    key = (spec.workload, spec.scale, spec.tool_options)
    artifacts = _ARTIFACTS.get(key)
    if artifacts is None:
        artifacts = _ARTIFACTS[key] = WorkloadArtifacts(
            spec.workload, spec.scale, spec.tool_options_dict())
    return artifacts


def clear_artifact_cache() -> None:
    """Drop memoised artifacts (tests; long-lived worker hygiene)."""
    _ARTIFACTS.clear()


def config_for(spec: RunSpec,
               artifacts: Optional[WorkloadArtifacts] = None
               ) -> MachineConfig:
    """The machine configuration a spec resolves to."""
    config = make_config(spec.model)
    if spec.variant == "perfect_mem":
        config = config.with_perfect_memory()
    elif spec.variant == "perfect_dloads":
        artifacts = artifacts or artifacts_for(spec)
        config = config.with_perfect_loads(artifacts.delinquent_uids)
    if spec.config_overrides:
        overrides = {}
        for key, value in spec.config_overrides:
            if key == "perfect_load_uids":
                value = frozenset(value)
            overrides[key] = value
        config = dataclasses.replace(config, **overrides)
    return config


@dataclass
class WorkerTask:
    """One supervised execution attempt, as picklable data.

    The plain ``execute_spec`` path is ``WorkerTask(spec)`` with every
    resilience feature off; the supervisor fills in the rest per attempt.
    """

    spec: RunSpec
    attempt: int = 1
    #: Heartbeat file this attempt keeps fresh (None = no heartbeats).
    heartbeat_path: Optional[str] = None
    #: Write a checkpoint every N simulated cycles (None = never).
    checkpoint_every: Optional[int] = None
    #: Root directory for checkpoints (None = the default
    #: ``REPRO_CHECKPOINT_DIR`` / ``.repro-cache/checkpoints``).  The
    #: service plane points this at ``<service-root>/checkpoints`` so a
    #: lease stolen by a worker on another host finds the victim's
    #: checkpoints over the shared filesystem.
    checkpoint_root: Optional[str] = None
    #: Start from the newest intact on-disk checkpoint, if any.
    resume: bool = False
    #: Soft wall-clock budget (seconds), checked at checkpoint cadence.
    deadline: Optional[float] = None
    #: Peak-RSS budget (MiB), checked at checkpoint cadence.
    rss_budget_mb: Optional[float] = None
    #: How long a fired ``worker.hang`` site sleeps.  >0 simulates a
    #: real hang for the watchdog to kill; 0 raises immediately (serial
    #: mode — there is no watchdog and a sleep would block the caller).
    hang_seconds: float = 0.0
    #: Align ``times``-bounded fault plans with the attempt number (set
    #: by the supervisor; see :func:`faultinject.sync_fired`).
    sync_faults: bool = False


#: Cycle cadence for heartbeats/budget checks when the task wants them
#: but checkpointing is off.
_PROGRESS_CADENCE = 50_000

#: Sites whose fired-counts follow the attempt number across the fork
#: boundary (a child's increments never reach the parent).
_WORKER_SITES = ("worker.hang", "worker.oom")


def _peak_rss_mb() -> Optional[float]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute_task(task: WorkerTask) -> Dict[str, Any]:
    """Run one (possibly supervised) attempt to completion.

    Returns the same payload shape as :func:`execute_spec` plus a
    ``"resilience"`` record: checkpoints written, the cycle resumed
    from (or None), and any checkpoint files refused as damaged.
    """
    started = time.perf_counter()
    spec = task.spec
    if task.sync_faults:
        for site in _WORKER_SITES:
            faultinject.sync_fired(site, task.attempt - 1)
    heartbeat = (Heartbeat(Path(task.heartbeat_path))
                 if task.heartbeat_path else None)
    if heartbeat is not None:
        heartbeat.beat(stage="start")
    # Chaos sites: a worker that stops heartbeating (watchdog path when
    # supervised, an immediate structured failure inline) and one that
    # dies of memory exhaustion (ladder path).
    if faultinject.fires("worker.hang"):
        if task.hang_seconds > 0:
            time.sleep(task.hang_seconds)
        raise faultinject.InjectedFault(
            "worker.hang", "injected fault at site 'worker.hang'")
    if faultinject.fires("worker.oom"):
        raise MemoryError("injected fault at site 'worker.oom'")

    resilience: Dict[str, Any] = {"checkpoints": 0,
                                  "resumed_from_cycle": None,
                                  "checkpoint_errors": []}
    store: Optional[CheckpointStore] = None
    key = spec.content_hash()
    if task.checkpoint_every or task.resume:
        store = CheckpointStore(root=task.checkpoint_root)

    artifacts = artifacts_for(spec)
    program, heap_workload = artifacts.run_inputs(spec.variant)
    heap = heap_workload.build_heap()
    sim = make_simulator(program, heap, spec.model,
                         config=config_for(spec, artifacts),
                         spawning=spec.effective_spawning,
                         max_cycles=spec.max_cycles)
    if task.resume and store is not None:
        errors: list = []
        loaded = store.load(key, errors)
        resilience["checkpoint_errors"] = errors
        if loaded is not None:
            state, header = loaded
            try:
                sim.restore(state["state"])
            except (CheckpointError, KeyError) as exc:
                resilience["checkpoint_errors"].append(str(exc))
            else:
                resilience["resumed_from_cycle"] = header.get("cycle", 0)

    cadence = task.checkpoint_every
    if cadence is None and (heartbeat is not None or task.deadline
                            or task.rss_budget_mb):
        cadence = _PROGRESS_CADENCE

    def on_checkpoint(running_sim) -> None:
        if heartbeat is not None:
            heartbeat.beat(cycle=running_sim.cycle, stage="simulate")
        if task.deadline is not None:
            elapsed = time.perf_counter() - started
            if elapsed > task.deadline:
                raise ResourceBudgetError(
                    f"{spec.label()} exceeded its {task.deadline}s "
                    f"wall-clock budget at cycle {running_sim.cycle} "
                    f"({elapsed:.1f}s elapsed)")
        if task.rss_budget_mb is not None:
            rss = _peak_rss_mb()
            if rss is not None and rss > task.rss_budget_mb:
                raise ResourceBudgetError(
                    f"{spec.label()} exceeded its {task.rss_budget_mb} "
                    f"MiB RSS budget at cycle {running_sim.cycle} "
                    f"({rss:.0f} MiB peak)")
        if store is not None and task.checkpoint_every:
            store.save(key, {"state": running_sim.snapshot()},
                       cycle=running_sim.cycle, label=spec.label())
            resilience["checkpoints"] += 1

    if spec.sample_interval:
        from ..sim.sampling import run_sampled
        stats = run_sampled(sim, spec.sample_interval, spec.sample_window,
                            checkpoint_every=cadence,
                            on_checkpoint=on_checkpoint)
    else:
        stats = sim.run(checkpoint_every=cadence,
                        on_checkpoint=on_checkpoint)
    if spec.variant in _CHECKED_VARIANTS:
        # After a restore the live heap is the snapshot's, not the one
        # this process built — always check what the simulator ran on.
        heap_workload.check_output(sim.heap)
    if store is not None:
        # The run completed; its checkpoints have served their purpose.
        store.discard(key)
    if heartbeat is not None:
        heartbeat.beat(cycle=stats.cycles, stage="done")

    payload: Dict[str, Any] = {
        "stats": stats.to_dict(),
        "wall_time": time.perf_counter() - started,
        "resilience": resilience,
    }
    if spec.variant == "ssp":
        # Attach the per-delinquent-load prefetch effectiveness so a later
        # cache hit can still report coverage/accuracy/timeliness without
        # re-simulating.  Keys are strings to survive the JSON round trip.
        payload["metrics"] = {
            "delinquent_uids": list(artifacts.delinquent_uids),
            "prefetch": {
                str(uid): row for uid, row in stats.prefetch_metrics(
                    artifacts.delinquent_uids).items()},
        }
    return payload


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one spec to completion; returns ``{"stats": ..., "wall_time"}``.

    The stats value is the JSON-safe :meth:`SimStats.to_dict` form (not the
    object) so the same payload crosses process boundaries and lands in
    the result cache without re-serialisation.
    """
    return execute_task(WorkerTask(spec=spec))
