"""Resilient execution layer: checkpoint/resume, watchdog, degradation.

The paper's headline experiments are long cycle-accurate simulations; this
package keeps them alive through the failures long runs actually hit:

* :mod:`~repro.resilience.checkpoint` — versioned, checksummed,
  atomically-written checkpoint files for the simulators'
  ``snapshot()``/``restore()`` state, so a killed run resumes from its
  last good checkpoint instead of restarting (and lands on byte-identical
  statistics).
* :mod:`~repro.resilience.heartbeat` — progress beats, which reach the
  supervisor over each worker's pipe, and the service's lease files.
* :mod:`~repro.resilience.supervisor` — the watchdog: kills hung workers,
  retries with exponential backoff + deterministic jitter, trips a
  per-spec circuit breaker to serial execution, and finally skips with a
  diagnostic rather than wedging a batch.
* :mod:`~repro.resilience.ladder` — the graceful-degradation ladder a run
  descends when it blows its wall-clock/RSS budgets: chaining SP →
  basic SP → top-1 delinquent load → unadapted binary.
"""

from .checkpoint import CHECKPOINT_FORMAT, CheckpointStore
from .heartbeat import Heartbeat, beat, heartbeat_age
from .ladder import (
    LADDER,
    STEP_BASIC,
    STEP_FULL,
    STEP_TOP1,
    STEP_UNADAPTED,
    degrade_spec,
    ladder_applies,
    ladder_steps,
    next_step,
)
from .supervisor import ResilienceConfig, SupervisedOutcome, Supervisor

__all__ = [
    "CHECKPOINT_FORMAT", "CheckpointStore",
    "Heartbeat", "beat", "heartbeat_age",
    "LADDER", "STEP_BASIC", "STEP_FULL", "STEP_TOP1", "STEP_UNADAPTED",
    "degrade_spec", "ladder_applies", "ladder_steps", "next_step",
    "ResilienceConfig", "SupervisedOutcome", "Supervisor",
]
