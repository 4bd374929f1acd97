"""Parallel simulation-run orchestration with a content-addressed cache.

The evaluation harness re-runs the cycle-accurate simulators for many
overlapping (workload, scale, model, variant, config) combinations; this
package turns each combination into a declarative
:class:`~repro.runner.spec.RunSpec`, executes batches of them through a
:class:`~repro.runner.executor.Runner` (inline for one job, otherwise on
the resilience supervisor's reusable forked workers), and memoises every
result on disk in a
:class:`~repro.runner.cache.ResultCache` keyed by spec content hash and a
source-tree salt.  Experiments, the CLI and the benchmark harness all
route their simulations through here.
"""

from .spec import RunSpec, VARIANTS, freeze_options, freeze_overrides
from .cache import ResultCache, code_version
from .telemetry import RunnerTelemetry
from .executor import Runner, RunnerError, RunResult
from .worker import (
    WorkerTask,
    WorkloadArtifacts,
    artifacts_for,
    clear_artifact_cache,
    config_for,
    execute_spec,
    execute_task,
)

__all__ = [
    "RunSpec", "VARIANTS", "freeze_options", "freeze_overrides",
    "ResultCache", "code_version",
    "RunnerTelemetry",
    "Runner", "RunnerError", "RunResult",
    "WorkerTask", "WorkloadArtifacts", "artifacts_for",
    "clear_artifact_cache", "config_for", "execute_spec", "execute_task",
]
