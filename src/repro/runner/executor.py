"""Run orchestration: cache lookup, then one of three execution paths.

The :class:`Runner` turns a batch of :class:`~repro.runner.spec.RunSpec`
into :class:`~repro.sim.stats.SimStats`.  Every spec is first looked up
in the content-addressed :class:`~repro.runner.cache.ResultCache`
(near-instant, zero simulations); the misses then run on exactly one
path:

1. **service** — with a service root configured, the misses are
   submitted to the shared queue and drained by an inline worker;
2. **inline** — ``jobs=1`` without a
   :class:`~repro.resilience.supervisor.ResilienceConfig` runs each spec
   in-process, one attempt, and a failure becomes a structured error;
3. **supervised** — everything else runs under the
   :class:`~repro.resilience.supervisor.Supervisor`: ``jobs`` reusable
   forked workers with a pipe-fed watchdog, backoff, circuit breaker,
   degradation ladder and skip (a plain ``jobs>1`` runner uses the
   default ``ResilienceConfig()``).

A supervised batch builds each adaptation once.  When the parent's
artifact memo lacks an adaptation some specs need, the batch runs in two
phases: first one spec per missing (workload, scale, tool options) plus
every spec that needs no new adaptation, then — on workers forked
afterwards, which inherit the memo — the rest.  Each payload that built
an adaptation carries it home (see :mod:`repro.runner.worker`); the
runner installs it in the parent's memo and strips it from the payload
before anything is cached or returned.  With nothing missing the batch
is one :meth:`~repro.resilience.supervisor.Supervisor.run` call.

Every successful execution is written back to the cache, and every
outcome is recorded in the attached
:class:`~repro.runner.telemetry.RunnerTelemetry`.  Identical specs in one
batch are coalesced into a single execution.

Results are deterministic: a spec fully determines its statistics, so
inline, supervised and cached executions of the same spec yield identical
``SimStats`` snapshots (asserted by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..sim.stats import SimStats
from .cache import ResultCache
from .spec import RunSpec
from .telemetry import RunnerTelemetry
from .worker import (WorkerTask, execute_spec, execute_task,
                     has_adaptation, install_artifacts, memo_key)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.supervisor import ResilienceConfig
    from ..service.client import ServiceConfig

#: Sentinel meaning "build the default cache from the environment".
_DEFAULT_CACHE = object()

#: Sentinel meaning "enable service mode iff REPRO_SERVICE_ROOT is set".
_DEFAULT_SERVICE = object()


class RunnerError(RuntimeError):
    """A run failed: its one inline attempt, or its supervised policy."""


@dataclass
class RunResult:
    """Outcome of one spec: statistics or an error, plus provenance."""

    spec: RunSpec
    stats: Optional[SimStats] = None
    cached: bool = False
    wall_time: float = 0.0
    attempts: int = 0
    error: Optional[str] = None
    stats_dict: Dict = field(default_factory=dict, repr=False)
    #: Observability metrics attached by the worker (per-delinquent-load
    #: prefetch effectiveness for SSP runs); survives cache hits.
    metrics: Dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.stats is not None


class Runner:
    """Executes run specs with caching and supervised parallelism."""

    def __init__(self, jobs: int = 1,
                 cache=_DEFAULT_CACHE,
                 telemetry: Optional[RunnerTelemetry] = None,
                 task_fn: Callable[[RunSpec], Dict] = execute_spec,
                 resilience: Optional["ResilienceConfig"] = None,
                 service=_DEFAULT_SERVICE):
        """
        Args:
            jobs: supervised worker processes; 1 (without
                ``resilience``) runs everything in-process.
            cache: a :class:`ResultCache`, None to disable caching, or the
                default — honours ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``.
            telemetry: shared counters; a fresh instance by default.
            task_fn: the unit of work, ``task_fn(spec) -> payload``
                (overridable for tests and benchmarks); supervised runs
                call it in the forked workers.
            resilience: supervision knobs (heartbeat watchdog,
                checkpoint/resume, circuit breaker, degradation ladder);
                given, even ``jobs=1`` runs under the
                :class:`~repro.resilience.supervisor.Supervisor`.
                ``jobs>1`` without it uses ``ResilienceConfig()``.
            service: a :class:`~repro.service.client.ServiceConfig`, a
                service root path, None to force standalone mode, or the
                default — honours ``REPRO_SERVICE_ROOT``.  With a
                service configured the runner keeps its synchronous
                interface but becomes a submit+wait client of the
                shared queue/backend: cache misses are enqueued, an
                inline worker drains them (alongside any external
                ``repro service worker`` processes), and results
                another worker paid for count as dedupe hits.
        """
        self.jobs = max(1, int(jobs))
        self.service = self._resolve_service(service)
        if cache is _DEFAULT_CACHE and self.service is not None:
            # In service mode the shared backend IS the cache: lookups,
            # write-backs and dedupe all go through the same store.
            cache = self.service.make_backend()
        self.cache: Optional[ResultCache] = (
            ResultCache.from_environment() if cache is _DEFAULT_CACHE
            else cache)
        self.telemetry = telemetry or RunnerTelemetry()
        self.task_fn = task_fn
        self.resilience = resilience
        self._service_client = None

    @staticmethod
    def _resolve_service(service) -> Optional["ServiceConfig"]:
        if service is None:
            return None
        # Lazy: repro.service imports runner modules at load time; a
        # top-level import here would close the cycle.
        from ..service.client import ServiceConfig
        if service is _DEFAULT_SERVICE:
            return ServiceConfig.from_environment()
        if isinstance(service, ServiceConfig):
            return service
        return ServiceConfig.resolve(service)

    # -- public API ------------------------------------------------------------------

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def stats(self, spec: RunSpec) -> SimStats:
        """Statistics for one spec; raises :class:`RunnerError` on failure."""
        result = self.run_one(spec)
        if not result.ok:
            raise RunnerError(
                f"{spec.label()} failed after {result.attempts} "
                f"attempt(s): {result.error}")
        return result.stats

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute a batch; the result list parallels the input order."""
        specs = list(specs)
        by_hash: Dict[str, RunResult] = {}
        order: List[str] = []
        pending: List[RunSpec] = []
        for spec in specs:
            digest = spec.content_hash()
            order.append(digest)
            if digest in by_hash:
                continue
            cached = self._lookup(spec, digest)
            if cached is not None:
                by_hash[digest] = cached
            else:
                by_hash[digest] = RunResult(spec)
                pending.append(spec)
        if pending:
            if self.service is not None:
                executed = self._run_service(pending)
            elif self.jobs == 1 and self.resilience is None:
                executed = [self._run_inline(spec) for spec in pending]
            else:
                executed = self._run_supervised(pending)
            for result in executed:
                by_hash[result.spec.content_hash()] = result
        if self.cache is not None and hasattr(self.cache,
                                              "counters_snapshot"):
            self.telemetry.record_backend_stats(
                self.cache.counters_snapshot(),
                backend_id=f"{type(self.cache).__name__}:{id(self.cache)}")
        return [by_hash[digest] for digest in order]

    # -- cache -----------------------------------------------------------------------

    def _lookup(self, spec: RunSpec, digest: str) -> Optional[RunResult]:
        if self.cache is None:
            return None
        entry = self.cache.get(spec)
        if entry is None:
            return None
        wall = entry.get("wall_time", 0.0)
        self.telemetry.record_cache_hit(spec.label(), wall, digest)
        return RunResult(spec, stats=SimStats.from_dict(entry["stats"]),
                         cached=True, wall_time=wall,
                         stats_dict=entry["stats"],
                         metrics=entry.get("metrics") or {})

    def _complete(self, spec: RunSpec, payload: Dict, attempts: int,
                  executed_spec: Optional[RunSpec] = None,
                  resilience: Optional[Dict] = None) -> RunResult:
        """Cache a payload under the spec that actually ran; wrap it.

        An adaptation the payload carries home is installed in this
        process's memo and never cached or returned."""
        built = payload.pop("artifacts", None)
        if built is not None:
            install_artifacts(executed_spec or spec, built)
        wall = payload.get("wall_time", 0.0)
        metrics = dict(payload.get("metrics") or {})
        if resilience is not None:
            metrics["resilience"] = resilience
        if self.cache is not None:
            self.cache.put(executed_spec or spec, payload["stats"], wall,
                           metrics=metrics)
        self.telemetry.record_complete(spec.label(), wall, attempts,
                                       spec.content_hash())
        return RunResult(spec, stats=SimStats.from_dict(payload["stats"]),
                         wall_time=wall, attempts=attempts,
                         stats_dict=payload["stats"], metrics=metrics)

    def _fail(self, spec: RunSpec, error: str, attempts: int,
              metrics: Optional[Dict] = None) -> RunResult:
        self.telemetry.record_failure(spec.label(), error, attempts)
        return RunResult(spec, attempts=attempts, error=error,
                         metrics=metrics or {})

    # -- inline execution ------------------------------------------------------------

    def _run_inline(self, spec: RunSpec) -> RunResult:
        """One in-process attempt; a failure is a structured error."""
        self.telemetry.record_launch(spec.label())
        try:
            payload = self.task_fn(spec)
        except Exception as exc:  # noqa: BLE001 - surfaced, not raised
            return self._fail(spec, f"{type(exc).__name__}: {exc}", 1)
        return self._complete(spec, payload, 1)

    # -- service execution -----------------------------------------------------------

    def _run_service(self, specs: List[RunSpec]) -> List[RunResult]:
        """Submit cache misses to the shared queue and drain them with
        an inline worker: the synchronous interface over the service."""
        from ..service.client import ServiceClient

        if self._service_client is None:
            self._service_client = ServiceClient(backend=self.cache,
                                                 config=self.service)
        return self._service_client.run_batch(
            specs, telemetry=self.telemetry, task_fn=self.task_fn)

    # -- supervised execution --------------------------------------------------------

    def _run_supervised(self, specs: List[RunSpec]) -> List[RunResult]:
        """Execute on the supervisor's reusable workers (watchdog,
        checkpoints, backoff, circuit breaker, degradation ladder).

        A degraded run's payload is cached under the **degraded** spec's
        own content hash — never the original's — so a later request for
        the full-capability spec is an honest cache miss.
        """
        # Lazy: repro.resilience imports runner modules at load time; a
        # top-level import here would close the cycle.
        from ..resilience.supervisor import ResilienceConfig, Supervisor

        cfg = self.resilience or ResilienceConfig()

        def make_task(spec, attempt, resume, hang_seconds):
            return WorkerTask(spec=spec, attempt=attempt,
                              checkpoint_every=cfg.checkpoint_every,
                              resume=resume, deadline=cfg.deadline,
                              rss_budget_mb=cfg.rss_budget_mb,
                              hang_seconds=hang_seconds,
                              sync_faults=True)

        task_fn = execute_task
        if self.task_fn is not execute_spec:
            def task_fn(task):
                return self.task_fn(task.spec)

        supervisor = Supervisor(cfg, task_fn=task_fn,
                                make_task=make_task, jobs=self.jobs,
                                telemetry=self.telemetry)
        results = []
        for phase in _phases(specs):
            # Each phase's outcomes are completed (and any adaptation
            # they carry installed) before the next phase forks.
            results.extend(self._settle(outcome)
                           for outcome in supervisor.run(phase))
        return results

    def _settle(self, outcome) -> RunResult:
        """One supervised outcome as a completed or failed result."""
        meta = None
        # Only a caller who asked for resilience, or a run the policy
        # had to act on, gets the record: a clean plain parallel run
        # caches exactly what an inline run would.
        if self.resilience is not None or outcome.reasons:
            meta = {
                "ladder_step": outcome.ladder_step,
                "watchdog_kills": outcome.watchdog_kills,
                "serial": outcome.serial,
                "skipped": outcome.skipped,
            }
            if outcome.reasons:
                meta["reasons"] = list(outcome.reasons)
            if outcome.executed_spec is not outcome.spec:
                meta["executed_spec"] = outcome.executed_spec.key()
        if outcome.payload is None:
            return self._fail(
                outcome.spec, outcome.error or "skipped by supervisor",
                outcome.attempts, metrics={"resilience": meta})
        if meta is not None:
            meta.update(outcome.payload.get("resilience") or {})
        return self._complete(
            outcome.spec, outcome.payload, outcome.attempts,
            executed_spec=outcome.executed_spec, resilience=meta)


def _phases(specs: List[RunSpec]) -> List[List[RunSpec]]:
    """Split a supervised batch so each missing adaptation is built once.

    Phase 1 holds one spec per (workload, scale, tool options) whose
    adaptation the memo lacks, then every spec that needs no new
    adaptation; phase 2 holds the remaining specs of the missing keys,
    to run on workers forked after phase 1 carried the adaptations home.
    Only peeks at the memo: building here would run in the parent.
    """
    builders: Dict[tuple, RunSpec] = {}
    waiting: List[RunSpec] = []
    ready: List[RunSpec] = []
    for spec in specs:
        if not spec.needs_adaptation or has_adaptation(spec):
            ready.append(spec)
        elif memo_key(spec) in builders:
            waiting.append(spec)
        else:
            builders[memo_key(spec)] = spec
    if not waiting:
        return [specs]
    return [list(builders.values()) + ready, waiting]
