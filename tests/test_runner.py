"""Tests for repro.runner: specs, cache, executor, telemetry, wiring."""

import dataclasses
import json
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext, figure8
from repro.guard.faultinject import injecting
from repro.resilience import ResilienceConfig, Supervisor
from repro.runner import (
    ResultCache,
    Runner,
    RunnerError,
    RunSpec,
    clear_artifact_cache,
    code_version,
    execute_spec,
    freeze_options,
    freeze_overrides,
)
from repro.runner import worker as runner_worker
from repro.runner.worker import has_adaptation
from repro.sim.caches import MemorySystem
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.tool import ToolOptions

#: A structurally valid (all-zero) stats payload for fake task functions.
EMPTY_STATS = SimStats(MemorySystem(MachineConfig())).to_dict()

#: Calls made to the counting fake task, keyed by spec hash.
_CALLS = []


def counting_task(spec):
    _CALLS.append(spec.content_hash())
    return {"stats": EMPTY_STATS, "wall_time": 0.25}


def marker_task(spec):
    """Fails (or goes silent) until its marker file exists.

    The spec's ``workload`` field carries the marker path and its
    ``variant``-agnostic ``scale`` field selects the failure mode, so the
    one picklable module-level function serves every fault-injection
    test.
    """
    marker = Path(spec.workload)
    if not marker.exists():
        marker.write_text("attempted")
        if spec.scale == "small":     # "small" => transient exception
            raise RuntimeError("transient failure")
        time.sleep(2.5)               # otherwise: silent, gets killed
    return {"stats": EMPTY_STATS, "wall_time": 0.0}


def fake_spec(name="w", **kwargs):
    # Bypasses __post_init__ validation side effects by using real model/
    # variant names; only workload/scale carry fake payloads.
    return RunSpec(workload=name, **kwargs)


class TestRunSpec:
    def test_equal_specs_equal_hash(self):
        a = RunSpec.create("mcf", scale="tiny")
        b = RunSpec.create("mcf", scale="tiny")
        assert a == b
        assert a.content_hash() == b.content_hash()

    @pytest.mark.parametrize("change", [
        dict(workload="vpr"),
        dict(scale="default"),
        dict(model="ooo"),
        dict(variant="ssp"),
        dict(spawning=True),
        dict(tool_options=(("coverage", 0.5),)),
        dict(config_overrides=(("memory_latency", 100),)),
        dict(max_cycles=1000),
    ])
    def test_hash_changes_on_any_field(self, change):
        base = RunSpec(workload="mcf", scale="tiny")
        changed = dataclasses.replace(base, **change)
        assert changed.content_hash() != base.content_hash()

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(workload="mcf", model="vliw")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(workload="mcf", variant="warp-speed")

    def test_spawning_derived_from_variant(self):
        assert not RunSpec(workload="m").effective_spawning
        assert RunSpec(workload="m", variant="ssp").effective_spawning
        assert RunSpec(workload="m", variant="hand").effective_spawning
        assert not RunSpec(workload="m",
                           variant="perfect_mem").effective_spawning
        assert RunSpec(workload="m", spawning=True).effective_spawning

    def test_freeze_options_order_insensitive(self):
        assert freeze_options({"b": 2, "a": 1}) == \
            freeze_options({"a": 1, "b": 2})

    def test_freeze_options_accepts_dataclass(self):
        frozen = freeze_options(ToolOptions(coverage=0.5))
        assert ("coverage", 0.5) in frozen

    def test_freeze_overrides_normalises_sequences(self):
        assert freeze_overrides({"perfect_load_uids": {3, 1}}) == \
            freeze_overrides([("perfect_load_uids", [1, 3])])

    def test_spec_is_picklable(self):
        import pickle
        spec = RunSpec.create("mcf", tool_options=ToolOptions())
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = fake_spec()
        assert cache.get(spec) is None
        cache.put(spec, EMPTY_STATS, wall_time=1.5)
        entry = cache.get(spec)
        assert entry["stats"] == EMPTY_STATS
        assert entry["wall_time"] == 1.5

    def test_salt_partitions_generations(self, tmp_path):
        spec = fake_spec()
        ResultCache(root=tmp_path, salt="old").put(spec, EMPTY_STATS)
        assert ResultCache(root=tmp_path, salt="new").get(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = fake_spec()
        path = cache.put(spec, EMPTY_STATS)
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="cur")
        stale = ResultCache(root=tmp_path, salt="old")
        cache.put(fake_spec("a"), EMPTY_STATS)
        cache.put(fake_spec("b"), EMPTY_STATS)
        stale.put(fake_spec("a"), EMPTY_STATS)
        info = cache.stats()
        assert info["entries"] == 3
        assert {g["salt"]: g["entries"]
                for g in info["generations"]} == {"cur": 2, "old": 1}
        assert cache.clear(stale_only=True) == 1
        assert cache.stats()["entries"] == 2
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestRunnerCaching:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = fake_spec()
        _CALLS.clear()
        first = Runner(cache=cache, task_fn=counting_task).run_one(spec)
        assert not first.cached and len(_CALLS) == 1
        second = Runner(cache=cache, task_fn=counting_task).run_one(spec)
        assert second.cached
        assert len(_CALLS) == 1, "cache hit must not re-simulate"
        assert second.stats.to_dict() == first.stats.to_dict()

    def test_duplicate_specs_coalesce(self, tmp_path):
        spec = fake_spec()
        _CALLS.clear()
        runner = Runner(cache=None, task_fn=counting_task)
        results = runner.run([spec, spec, spec])
        assert len(_CALLS) == 1
        assert all(r.ok for r in results)

    def test_telemetry_counters(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        runner = Runner(cache=cache, task_fn=counting_task)
        runner.run([fake_spec("a"), fake_spec("b")])
        runner.run([fake_spec("a"), fake_spec("c")])
        snap = runner.telemetry.snapshot()
        assert snap["launched"] == 3
        assert snap["cache_hits"] == 1
        assert snap["hit_rate"] == pytest.approx(0.25)
        assert snap["sim_wall_time"] == pytest.approx(0.75)
        assert snap["saved_wall_time"] == pytest.approx(0.25)


def always_fails(spec):
    raise RuntimeError("boom")


#: Supervision with test-sized backoff.
FAST = dict(poll_interval=0.02, backoff_base=0.01, backoff_max=0.02)


class TestRetryAndTimeout:
    """The failure contract: a plain one-job run gets one inline attempt
    and then a structured error; every other run follows the
    supervisor's backoff -> breaker -> ladder -> skip policy."""

    def test_plain_serial_run_makes_one_attempt(self, tmp_path):
        spec = fake_spec(str(tmp_path / "marker"), scale="small")
        runner = Runner(cache=None, task_fn=marker_task)
        result = runner.run_one(spec)
        assert not result.ok
        assert result.attempts == 1
        assert "transient failure" in result.error
        assert runner.telemetry.failures == 1
        assert runner.telemetry.retries == 0

    def test_serial_retry_on_transient_failure(self, tmp_path):
        # The forked attempt fails, the breaker trips at once and the
        # retry runs serially in-process.
        spec = fake_spec(str(tmp_path / "marker"), scale="small")
        runner = Runner(cache=None, task_fn=marker_task,
                        resilience=ResilienceConfig(breaker_threshold=1,
                                                    **FAST))
        result = runner.run_one(spec)
        assert result.ok
        assert result.attempts == 2
        assert result.metrics["resilience"]["serial"] is True

    def test_serial_failure_exhausts_retries(self):
        runner = Runner(cache=None, task_fn=always_fails,
                        resilience=ResilienceConfig(max_attempts=3, **FAST))
        result = runner.run_one(fake_spec())
        assert not result.ok
        assert result.attempts == 3
        assert "boom" in result.error
        assert result.metrics["resilience"]["skipped"] is True
        with pytest.raises(RunnerError):
            runner.stats(fake_spec())

    def test_parallel_timeout_retried_serially(self, tmp_path):
        specs = [fake_spec(str(tmp_path / "m1"), scale="tiny"),
                 fake_spec(str(tmp_path / "m2"), scale="tiny")]
        config = ResilienceConfig(heartbeat_timeout=0.3,
                                  breaker_threshold=1, **FAST)
        runner = Runner(jobs=2, cache=None, task_fn=marker_task,
                        resilience=config)
        results = runner.run(specs)
        assert all(r.ok for r in results)
        # Workers wrote the markers before going silent; the watchdog
        # killed them and the serial retry in this process found the
        # markers and returned immediately.
        assert (tmp_path / "m1").exists() and (tmp_path / "m2").exists()
        assert runner.telemetry.watchdog_kills == 2
        assert runner.telemetry.retries >= 1

    def test_parallel_worker_exception_retried(self, tmp_path):
        # A plain jobs>1 runner is supervised with the default policy.
        spec = fake_spec(str(tmp_path / "m"), scale="small")
        runner = Runner(jobs=2, cache=None, task_fn=marker_task)
        results = runner.run([spec, fake_spec(str(tmp_path / "m_ok"),
                                              scale="small")])
        assert all(r.ok for r in results)
        for result in results:
            assert result.attempts == 2
            meta = result.metrics["resilience"]
            assert meta["serial"] is False
            assert "transient failure" in meta["reasons"][0]


class TestSerialParallelParity:
    def test_real_specs_bit_identical(self):
        specs = [RunSpec.create("mcf", scale="tiny", model=m)
                 for m in ("inorder", "ooo")]
        serial = Runner(jobs=1, cache=None).run(specs)
        parallel = Runner(jobs=2, cache=None).run(specs)
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.stats.to_dict() == p.stats.to_dict()

    def test_cache_entries_identical(self, tmp_path):
        # Whole entries, stats plus metrics: a clean supervised run must
        # not record anything an inline run would not.  Each half starts
        # from an empty artifact memo, so the jobs=2 half builds its
        # adaptations in a worker and carries them home.
        specs = [RunSpec.create("mcf", scale="tiny", model=m, variant=v)
                 for m in ("inorder", "ooo")
                 for v in ("base", "ssp", "perfect_dloads")]
        entries = []
        for jobs in (1, 2):
            clear_artifact_cache()
            cache = ResultCache(root=tmp_path / f"jobs{jobs}")
            results = Runner(jobs=jobs, cache=cache).run(specs)
            assert all(r.ok for r in results)
            assert not any("artifacts" in r.metrics for r in results)
            entries.append([
                {key: cache.get(spec).get(key)
                 for key in ("spec", "stats", "metrics")}
                for spec in specs])
        assert has_adaptation(specs[1])
        assert entries[0] == entries[1]
        assert entries[1][1]["metrics"]["prefetch"]
        assert not any(set(entry["metrics"] or {}) & {"resilience",
                                                      "artifacts"}
                       for entry in entries[1])


def _log_profiles(monkeypatch, log: Path) -> None:
    """Append one line per profiling run to ``log``, in this process and
    in every worker forked after this call."""
    real = runner_worker.collect_profile

    def logged(program, heap_factory):
        with open(log, "a") as out:
            out.write(f"{heap_factory.__self__.name}\n")
        return real(program, heap_factory)

    monkeypatch.setattr(runner_worker, "collect_profile", logged)


def _grid(names, variants=("base", "perfect_dloads", "ssp")):
    return [RunSpec.create(name, scale="tiny", model=model, variant=variant)
            for name in names for model in ("inorder", "ooo")
            for variant in variants]


def execute_and_drop_artifacts(spec):
    """``execute_spec`` whose payload never carries an adaptation home."""
    payload = execute_spec(spec)
    payload.pop("artifacts", None)
    return payload


class TestBuildOnceAcrossProcesses:
    """A jobs>1 batch builds each adaptation once in the whole process
    tree: the first worker carries it home, later workers inherit it."""

    NAMES = ("mcf", "treeadd.df")

    def _serial_stats(self, specs):
        clear_artifact_cache()
        return [r.stats.to_dict()
                for r in Runner(jobs=1, cache=None).run(specs)]

    def test_each_profile_built_once(self, tmp_path, monkeypatch):
        specs = _grid(self.NAMES)
        log = tmp_path / "profiles.log"
        log.touch()
        _log_profiles(monkeypatch, log)
        batches = []
        real_run = Supervisor.run

        def counted_run(supervisor, batch):
            batches.append(len(batch))
            return real_run(supervisor, batch)

        monkeypatch.setattr(Supervisor, "run", counted_run)
        clear_artifact_cache()
        results = Runner(jobs=2, cache=None).run(specs)
        built = log.read_text().split()
        assert len(built) == len(self.NAMES) == len(set(built))
        assert all(has_adaptation(spec) for spec in specs)
        assert all(r.ok and "artifacts" not in r.metrics for r in results)
        # One builder per workload plus the base specs, then the rest.
        assert batches == [3 * len(self.NAMES), 3 * len(self.NAMES)]
        # With every adaptation at home, a batch is one call, no builds.
        Runner(jobs=2, cache=None).run(specs)
        assert batches[2:] == [len(specs)]
        assert log.read_text().split() == built
        assert [r.stats.to_dict() for r in results] == \
            self._serial_stats(specs)

    def test_failed_phase_one_attempts_are_retried(self):
        # Every spec's first attempt hangs and is killed by the watchdog,
        # the adaptation builders included; the retries build, carry the
        # adaptations home and the batch matches a clean run.
        specs = _grid(self.NAMES[:1])
        clear_artifact_cache()
        config = ResilienceConfig(heartbeat_timeout=0.5, **FAST)
        with injecting("worker.hang:1:1"):
            runner = Runner(jobs=2, cache=None, resilience=config)
            results = runner.run(specs)
        assert runner.telemetry.watchdog_kills >= len(specs)
        assert all(r.ok and "artifacts" not in r.metrics for r in results)
        assert all(has_adaptation(spec) for spec in specs)
        assert [r.stats.to_dict() for r in results] == \
            self._serial_stats(specs)

    def test_second_phase_builds_lazily_when_nothing_comes_home(
            self, tmp_path, monkeypatch):
        specs = _grid(self.NAMES[:1])
        log = tmp_path / "profiles.log"
        log.touch()
        _log_profiles(monkeypatch, log)
        clear_artifact_cache()
        results = Runner(jobs=2, cache=None,
                         task_fn=execute_and_drop_artifacts).run(specs)
        assert not any(has_adaptation(spec) for spec in specs)
        # The phase-1 builder, then each second-phase worker on its own.
        assert len(log.read_text().split()) == 3
        assert [r.stats.to_dict() for r in results] == \
            self._serial_stats(specs)

    def test_service_results_carry_no_artifacts(self, tmp_path):
        clear_artifact_cache()
        spec = RunSpec.create("mcf", scale="tiny", variant="ssp")
        runner = Runner(service=tmp_path / "svc")
        result = runner.run_one(spec)
        assert result.ok and "artifacts" not in result.metrics
        entry = runner.cache.get(spec)
        assert set(entry["metrics"]) == {"delinquent_uids", "prefetch"}


class TestExecuteSpec:
    def test_base_variant_runs(self):
        payload = execute_spec(RunSpec.create("mcf", scale="tiny"))
        assert payload["stats"]["cycles"] > 0
        assert payload["wall_time"] > 0

    def test_config_overrides_apply(self):
        slow = execute_spec(RunSpec.create(
            "mcf", scale="tiny",
            config_overrides={"memory_latency": 460}))
        fast = execute_spec(RunSpec.create("mcf", scale="tiny"))
        assert slow["stats"]["cycles"] > fast["stats"]["cycles"]

    @pytest.mark.parametrize("value", [0, 3])
    def test_unmodelled_threads_per_cycle_fails_cleanly(self, value):
        # The issue stage selects at most two threads a cycle; a payload
        # asking for another count is refused before anything runs.
        spec = RunSpec.create(
            "mcf", scale="tiny",
            config_overrides={"max_threads_per_cycle": value})
        with pytest.raises(ValueError, match="must be 1 or 2"):
            execute_spec(spec)
        result = Runner(cache=None, service=None).run_one(spec)
        assert not result.ok
        assert result.error.startswith("ValueError: max_threads_per_cycle")

    def test_cached_entry_round_trips_stats(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec.create("mcf", scale="tiny")
        live = Runner(cache=cache).stats(spec)
        restored = Runner(cache=cache).run_one(spec)
        assert restored.cached
        assert restored.stats.to_dict() == live.to_dict()
        # The on-disk entry is plain JSON, re-loadable without the runner.
        entry = json.loads(
            (tmp_path / cache.salt /
             f"{spec.content_hash()}.json").read_text())
        assert entry["stats"]["cycles"] == live.cycles


class TestExperimentIntegration:
    def test_second_context_is_fully_cached(self, tmp_path):
        """The ISSUE acceptance check: a figure driver re-run launches
        zero simulations, everything served from the cache."""
        cache_root = tmp_path / "cache"
        cold = ExperimentContext(
            "tiny", runner=Runner(cache=ResultCache(root=cache_root)))
        first = figure8.run(context=cold, scale="tiny",
                            benchmarks=["mcf"])
        assert cold.telemetry.launched > 0

        clear_artifact_cache()   # simulate a fresh process
        warm = ExperimentContext(
            "tiny", runner=Runner(cache=ResultCache(root=cache_root)))
        second = figure8.run(context=warm, scale="tiny",
                             benchmarks=["mcf"])
        assert warm.telemetry.launched == 0
        assert warm.telemetry.cache_hits == cold.telemetry.launched
        assert first.rows == second.rows

    def test_context_memoises_stats_objects(self):
        context = ExperimentContext("tiny", runner=Runner(cache=None))
        run = context.run("mcf")
        assert run.stats("inorder", "base") is run.stats("inorder", "base")
        assert context.telemetry.memo_hits == 1
