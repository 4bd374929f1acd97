"""Watchdog supervision of runner workers, with breaker and ladder.

The :class:`Supervisor` is the one place that forks simulation workers.
It owns a batch of specs and drives each one to a terminal
:class:`SupervisedOutcome` through an explicit failure policy:

* each of the ``jobs`` slots keeps one forked ``multiprocessing.Process``
  alive across attempts, feeding it tasks and reading results over a
  pipe (a pool cannot kill one hung member); a worker is replaced only
  after a watchdog kill, a crash, or a resource-budget failure, and every
  worker is joined before :meth:`Supervisor.run` returns;
* the watchdog kills workers whose
  :class:`~repro.resilience.heartbeat.Heartbeat` goes stale past
  ``heartbeat_timeout`` (and, as a hard backstop, workers that outlive
  the wall-clock deadline the worker itself was supposed to enforce),
  both timed from the start of the current task;
* failed attempts retry after exponential backoff with **deterministic
  jitter** (seeded from the spec hash and attempt number — chaos runs
  reproduce);
* repeated failures trip a per-spec **circuit breaker** from parallel to
  in-process serial execution; repeated serial failures — and any
  resource-budget blowout — descend the
  :mod:`~repro.resilience.ladder`; a spec that exhausts the ladder (or
  the global attempt cap) is **skipped with a diagnostic** instead of
  wedging the batch.

The supervisor is deliberately generic over the unit of work: the
executor supplies ``make_task``/``task_fn`` (keeping this module free of
imports from :mod:`repro.runner.worker`, which imports *us*).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..guard import faultinject
from ..guard.errors import CheckpointError, ResourceBudgetError
from ..obs.tracer import NULL_TRACER
from .heartbeat import heartbeat_age
from .ladder import STEP_FULL, degrade_spec, ladder_steps

#: Failure kinds that mean "resource pressure" — descend the ladder
#: immediately rather than retrying the same capability level.
_BUDGET_KINDS = ("budget", "deadline", "oom")


def classify_failure(exc: BaseException) -> str:
    """Map an exception to the failure kind the policy routes on."""
    if isinstance(exc, ResourceBudgetError):
        return "budget"
    if isinstance(exc, MemoryError):
        return "oom"
    if isinstance(exc, CheckpointError):
        return "checkpoint"
    if isinstance(exc, faultinject.InjectedFault):
        return "fault"
    return "error"


@dataclass
class ResilienceConfig:
    """Knobs for supervised execution (CLI flags map onto these)."""

    #: Per-run wall-clock budget (seconds).  The worker enforces it
    #: softly at checkpoint boundaries (ResourceBudgetError → ladder);
    #: the supervisor backstops it with a hard kill.
    deadline: Optional[float] = None
    #: Simulated cycles between checkpoint writes (None = no checkpoints).
    checkpoint_every: Optional[int] = None
    #: Resume first attempts from existing on-disk checkpoints.
    resume: bool = False
    #: Peak-RSS budget (MiB), enforced at checkpoint boundaries.
    rss_budget_mb: Optional[float] = None
    #: Seconds without a heartbeat before the watchdog kills a worker.
    heartbeat_timeout: float = 30.0
    #: Supervisor event-loop cadence.
    poll_interval: float = 0.05
    #: Failures at one (mode, rung) before the breaker advances:
    #: parallel → serial → next ladder rung.
    breaker_threshold: int = 2
    #: Hard cap on total attempts per spec (safety net).
    max_attempts: int = 10
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 5.0


@dataclass
class SupervisedOutcome:
    """Terminal state of one spec under supervision."""

    spec: Any
    executed_spec: Any
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    ladder_step: str = STEP_FULL
    watchdog_kills: int = 0
    serial: bool = False
    skipped: bool = False
    reasons: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.payload is not None


class _Job:
    """Mutable per-spec supervision state."""

    def __init__(self, spec: Any):
        self.spec = spec
        self.executed_spec = spec
        self.step = STEP_FULL
        self.mode = "parallel"
        self.attempts = 0
        self.failures_in_mode = 0
        self.watchdog_kills = 0
        self.not_before = 0.0          # monotonic earliest next attempt
        self.reasons: List[str] = []
        self.outcome: Optional[SupervisedOutcome] = None


class _Slot:
    """One reusable worker process and the attempt it is running."""

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.job: Optional[_Job] = None
        self.heartbeat_path: Optional[Path] = None
        self.started_wall = 0.0

    def assign(self, job: _Job, task: Any, heartbeat_path: Path) -> None:
        self.job = job
        self.heartbeat_path = heartbeat_path
        self.started_wall = time.time()
        self.conn.send(task)

    def stop(self) -> None:
        """Ask the worker to exit; kill it if it will not."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.proc.join(timeout=5)
        self.kill()

    def kill(self) -> None:
        self.proc.kill()          # a no-op once the worker was reaped
        self.proc.join(timeout=10)
        self.conn.close()


def _die_with_supervisor() -> None:
    """Tie this worker's life to its supervisor's.

    ``daemon=True`` only covers a *clean* supervisor exit; a SIGKILLed
    supervisor leaves the worker orphaned, silently finishing — and then
    *retiring the checkpoints of* — the very run the kill abandoned,
    racing any resumed replacement.  ``PR_SET_PDEATHSIG`` makes the
    kernel deliver SIGKILL here the moment the parent dies (Linux-only;
    elsewhere the orphan completes, which is safe but untidy).  The
    ``getppid`` check closes the fork-to-prctl race: a parent that died
    first has already reparented us, and no signal will ever arrive.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # 1 == PR_SET_PDEATHSIG
    except Exception:  # pragma: no cover - non-Linux hosts
        return
    if os.getppid() == 1:  # pragma: no cover - lost the race already
        os._exit(1)


def _worker_loop(task_fn, conn) -> None:
    """Child-process loop: run each task received, reply once per task,
    exit on ``None`` or a closed pipe."""
    _die_with_supervisor()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        try:
            msg = ("ok", task_fn(task))
        except Exception as exc:  # noqa: BLE001 - report, don't judge
            # (An interrupt or exit ends the worker; the supervisor sees
            # the closed pipe as a crash.)
            msg = ("error", f"{type(exc).__name__}: {exc}",
                   classify_failure(exc))
        try:
            conn.send(msg)
        except Exception:
            break
    conn.close()


class Supervisor:
    """Drives specs to terminal outcomes under the failure policy."""

    def __init__(self, config: ResilienceConfig,
                 task_fn: Callable[[Any], Dict[str, Any]],
                 make_task: Callable[..., Any],
                 jobs: int = 1,
                 telemetry: Optional[Any] = None,
                 tracer=NULL_TRACER):
        """
        Args:
            config: supervision knobs.
            task_fn: unit of work (``execute_task``), run in the forked
                workers — and in-process once a breaker trips.
            make_task: builds the task object for one attempt; called as
                ``make_task(spec=, attempt=, heartbeat_path=, resume=,
                hang_seconds=)``.
            jobs: worker slots, each one reusable forked process (1
                still supervises — one killable process at a time).
            telemetry: a :class:`~repro.runner.telemetry.RunnerTelemetry`
                (or None) receiving launch/kill/trip/degrade/skip events.
            tracer: observability sink for supervision events.
        """
        self.config = config
        self.task_fn = task_fn
        self.make_task = make_task
        self.jobs = max(1, int(jobs))
        self.telemetry = telemetry
        self.tracer = tracer
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._ctx = multiprocessing.get_context()

    # -- public API ------------------------------------------------------------------

    def run(self, specs: Sequence[Any]) -> List[SupervisedOutcome]:
        jobs = [_Job(spec) for spec in specs]
        queue = deque(jobs)
        slots: List[_Slot] = []
        try:
            with tempfile.TemporaryDirectory(prefix="repro-hb-") as hb_dir:
                hb_root = Path(hb_dir)
                while queue or any(slot.job for slot in slots):
                    self._fill_slots(queue, slots, hb_root)
                    self._poll(queue, slots)
        finally:
            # Join every worker before returning: none outlives the
            # batch, and RUSAGE_CHILDREN accounts for all of their CPU.
            for slot in slots:
                slot.stop()
        return [job.outcome for job in jobs]

    # -- scheduling ------------------------------------------------------------------

    def _fill_slots(self, queue, slots: List[_Slot], hb_root: Path) -> None:
        now = time.monotonic()
        deferred: List[_Job] = []
        while queue:
            job = queue.popleft()
            if job.not_before > now:
                deferred.append(job)
                continue
            if job.mode == "serial":
                # Breaker is open: run in-process, one at a time.
                self._run_serial_attempt(job, hb_root, queue)
                now = time.monotonic()
                continue
            try:
                slot = self._idle_slot(slots)
            except OSError as exc:  # pragma: no cover - host trouble
                # Can't fork at all: fall straight back to serial.
                job.mode = "serial"
                self._on_failure(job, "crash",
                                 f"worker failed to start: {exc}", queue)
                continue
            if slot is None:
                deferred.append(job)
                break
            self._launch(job, slot, hb_root, slots, queue)
        queue.extend(deferred)

    def _idle_slot(self, slots: List[_Slot]) -> Optional[_Slot]:
        """An idle worker, a freshly forked one if a slot is free, or
        None when all ``jobs`` workers are busy."""
        for slot in slots:
            if slot.job is None:
                return slot
        if len(slots) >= self.jobs:
            return None
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_loop,
                                 args=(self.task_fn, child_conn),
                                 daemon=True)
        try:
            proc.start()
        finally:
            child_conn.close()
        slot = _Slot(proc, conn)
        slots.append(slot)
        return slot

    def _launch(self, job: _Job, slot: _Slot, hb_root: Path,
                slots: List[_Slot], queue) -> None:
        job.attempts += 1
        hb_path = hb_root / f"{job.spec.content_hash()[:16]}.hb"
        task = self.make_task(
            spec=job.executed_spec, attempt=job.attempts,
            heartbeat_path=str(hb_path), resume=self._resume_for(job),
            hang_seconds=max(4 * self.config.heartbeat_timeout, 1.0))
        if self.telemetry is not None:
            self.telemetry.record_launch(job.executed_spec.label())
        try:
            slot.assign(job, task, hb_path)
        except Exception as exc:  # noqa: BLE001 - routed by policy
            # A dead idle worker or an unpicklable task: replace the
            # worker and let the policy retry (serial needs no pipe).
            self._retire(slot, slots)
            self._on_failure(job, "crash",
                             f"worker unreachable: {exc}", queue)

    def _resume_for(self, job: _Job) -> bool:
        if self.config.resume:
            return True
        # Retries of a checkpointing run resume from the last good
        # checkpoint rather than starting over — that is the point.
        return (job.attempts > 1
                and self.config.checkpoint_every is not None)

    @staticmethod
    def _retire(slot: _Slot, slots: List[_Slot]) -> None:
        slot.kill()
        slots.remove(slot)

    # -- event loop ------------------------------------------------------------------

    def _poll(self, queue, slots: List[_Slot]) -> None:
        busy = [slot for slot in slots if slot.job is not None]
        if not busy:
            # Everything runnable is backing off.
            time.sleep(self.config.poll_interval)
            return
        ready = multiprocessing.connection.wait(
            [slot.conn for slot in busy], timeout=self.config.poll_interval)
        for slot in busy:
            job = slot.job
            if slot.conn in ready:
                try:
                    msg = slot.conn.recv()
                except (EOFError, OSError):
                    msg = None
                if msg is None:
                    self._retire(slot, slots)
                    self._on_failure(
                        job, "crash",
                        f"worker exited (code {slot.proc.exitcode}) "
                        f"without reporting a result", queue)
                    continue
                slot.job = None
                if msg[0] == "ok":
                    self._finish_ok(job, msg[1])
                    continue
                if msg[2] in _BUDGET_KINDS:
                    # Peak RSS only grows: a worker that blew a budget
                    # would fail every later task it is handed.
                    self._retire(slot, slots)
                self._on_failure(job, msg[2], msg[1], queue)
                continue
            verdict = self._liveness_verdict(slot)
            if verdict is not None:
                kind, message = verdict
                self._retire(slot, slots)
                job.watchdog_kills += 1
                if self.telemetry is not None:
                    self.telemetry.record_watchdog_kill(
                        job.executed_spec.label(), message)
                self.tracer.event("watchdog.kill", category="resilience",
                                  spec=job.spec.label(), kind=kind)
                self._on_failure(job, kind, message, queue)

    def _liveness_verdict(self, slot: _Slot):
        """(kind, message) when a busy worker must die, else None.

        Both clocks start at the current task's hand-off, so a reused
        worker is never charged for its earlier tasks."""
        cfg = self.config
        now_wall = time.time()
        elapsed = now_wall - slot.started_wall
        age = heartbeat_age(slot.heartbeat_path, now=now_wall)
        silence = elapsed if age is None else min(age, elapsed)
        if silence > cfg.heartbeat_timeout:
            return ("hang", f"no heartbeat for {silence:.1f}s "
                            f"(deadline {cfg.heartbeat_timeout}s)")
        if cfg.deadline is not None:
            hard = cfg.deadline + max(cfg.heartbeat_timeout, 5.0)
            if elapsed > hard:
                return ("deadline", f"worker alive {elapsed:.1f}s past "
                                    f"the {cfg.deadline}s deadline")
        return None

    # -- serial attempts -------------------------------------------------------------

    def _run_serial_attempt(self, job: _Job, hb_root: Path,
                            queue) -> None:
        job.attempts += 1
        hb_path = hb_root / f"{job.spec.content_hash()[:16]}.hb"
        # hang_seconds=0: an in-process worker.hang firing raises
        # immediately — there is no watchdog to exercise and a real
        # sleep would block the supervisor itself.
        task = self.make_task(
            spec=job.executed_spec, attempt=job.attempts,
            heartbeat_path=str(hb_path), resume=self._resume_for(job),
            hang_seconds=0.0)
        if self.telemetry is not None:
            self.telemetry.record_launch(job.executed_spec.label())
        try:
            payload = self.task_fn(task)
        except Exception as exc:  # noqa: BLE001 - routed by policy
            self._on_failure(job, classify_failure(exc),
                             f"{type(exc).__name__}: {exc}", queue)
        else:
            self._finish_ok(job, payload)

    # -- outcome policy --------------------------------------------------------------

    def _finish_ok(self, job: _Job, payload: Dict[str, Any]) -> None:
        meta = payload.get("resilience") or {}
        if self.telemetry is not None:
            resumed = meta.get("resumed_from_cycle")
            if resumed is not None:
                self.telemetry.record_resume(job.executed_spec.label(),
                                             resumed)
            self.telemetry.record_checkpoints(meta.get("checkpoints", 0))
        job.outcome = SupervisedOutcome(
            spec=job.spec, executed_spec=job.executed_spec,
            payload=payload, attempts=job.attempts,
            ladder_step=job.step, watchdog_kills=job.watchdog_kills,
            serial=(job.mode == "serial"), reasons=list(job.reasons))

    def _on_failure(self, job: _Job, kind: str, message: str,
                    queue) -> None:
        job.reasons.append(
            f"attempt {job.attempts} [{job.mode}/{job.step}] "
            f"{kind}: {message}")
        self.tracer.event("worker.failure", category="resilience",
                          spec=job.spec.label(), kind=kind,
                          attempt=job.attempts, mode=job.mode,
                          step=job.step)
        if job.attempts >= self.config.max_attempts:
            self._skip(job, f"attempt cap ({self.config.max_attempts}) "
                            f"reached")
            return
        if kind in _BUDGET_KINDS:
            # Resource pressure: same capability level will blow the
            # same budget — descend the ladder now.
            if not self._descend(job, kind):
                self._skip(job, f"{kind} failure with the degradation "
                                f"ladder exhausted")
                return
        else:
            job.failures_in_mode += 1
            if job.failures_in_mode >= self.config.breaker_threshold:
                if job.mode == "parallel":
                    self._trip_breaker(job)
                elif not self._descend(job, kind):
                    self._skip(job, "repeated failures with the "
                                    "degradation ladder exhausted")
                    return
        job.not_before = time.monotonic() + self._backoff(job)
        queue.append(job)

    def _trip_breaker(self, job: _Job) -> None:
        job.mode = "serial"
        job.failures_in_mode = 0
        if self.telemetry is not None:
            self.telemetry.record_circuit_trip(job.spec.label())
        self.tracer.event("breaker.trip", category="resilience",
                          spec=job.spec.label(),
                          failures=self.config.breaker_threshold)

    def _descend(self, job: _Job, kind: str) -> bool:
        steps = ladder_steps(job.spec)
        try:
            idx = steps.index(job.step)
        except ValueError:  # pragma: no cover - defensive
            return False
        if idx + 1 >= len(steps):
            return False
        job.step = steps[idx + 1]
        job.executed_spec = degrade_spec(job.spec, job.step)
        job.failures_in_mode = 0
        if self.telemetry is not None:
            self.telemetry.record_degraded(job.spec.label(), job.step,
                                           kind)
        self.tracer.event("ladder.descend", category="resilience",
                          spec=job.spec.label(), step=job.step,
                          kind=kind)
        return True

    def _skip(self, job: _Job, why: str) -> None:
        diagnostic = f"skipped: {why}; " + "; ".join(job.reasons[-3:])
        if self.telemetry is not None:
            self.telemetry.record_skip(job.spec.label(), why)
        self.tracer.event("spec.skip", category="resilience",
                          spec=job.spec.label(), why=why)
        job.outcome = SupervisedOutcome(
            spec=job.spec, executed_spec=job.executed_spec,
            error=diagnostic, attempts=job.attempts,
            ladder_step=job.step, watchdog_kills=job.watchdog_kills,
            serial=(job.mode == "serial"), skipped=True,
            reasons=list(job.reasons))

    # -- backoff ---------------------------------------------------------------------

    def _backoff(self, job: _Job) -> float:
        cfg = self.config
        exponent = max(0, job.attempts - 1)
        delay = min(cfg.backoff_max,
                    cfg.backoff_base * (cfg.backoff_factor ** exponent))
        # Deterministic jitter in [0, 0.5): same spec + attempt always
        # waits the same time, so chaos runs reproduce exactly.
        seed = f"{job.spec.content_hash()}:{job.attempts}"
        digest = hashlib.sha256(seed.encode("utf-8")).digest()
        jitter = int.from_bytes(digest[:4], "big") / 2 ** 33
        return delay * (1.0 + jitter)
