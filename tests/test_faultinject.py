"""Chaos suite: every fault-injection site forced at probability 1.0.

For each site the CLI and a runner batch over all seven paper workloads
must complete without an unhandled exception, emit structured diagnostics
for what was lost, and fall back to the unadapted binary where the
adaptation degraded to nothing.  See README "Robustness & failure modes".
"""

import pytest

from repro.guard import SITES, injecting
from repro.guard.faultinject import describe_sites
from repro.runner import ResultCache, Runner, RunSpec
from repro.runner.worker import clear_artifact_cache
from repro.tool.cli import main
from repro.workloads import PAPER_ORDER

#: Sites whose failure degrades the *adaptation pipeline* (diagnostics
#: land on the GuardReport) as opposed to the runner / cache layers.
PIPELINE_SITES = ("slice.exception", "schedule.negative_slack",
                  "codegen.invalid_program", "verify.mismatch")
CACHE_SITES = ("cache.corrupt", "cache.truncate")
RESILIENCE_SITES = ("checkpoint.corrupt", "worker.hang", "worker.oom")
#: Sites that kill the attempt inside the runner worker itself.
WORKER_SITES = ("worker.hang", "worker.oom")
# Service-plane sites (fleet chaos); exercised end to end in
# tests/test_service_chaos.py, registry-checked here.
SERVICE_SITES = ("queue.lease.corrupt", "queue.steal.race",
                 "worker.crash", "worker.summary.torn",
                 "backend.put.partial", "backend.read.ioerror")


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    # The per-process artifact memo is not keyed on the injector state;
    # a poisoned (or clean) adaptation must never leak across tests.
    clear_artifact_cache()
    yield
    clear_artifact_cache()


def test_site_registry_is_complete():
    assert set(SITES) == set(PIPELINE_SITES + CACHE_SITES
                             + RESILIENCE_SITES + SERVICE_SITES)
    assert len(describe_sites()) == len(SITES)


class TestCLIChaos:
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_cli_survives_site(self, site, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["mcf", "--scale", "tiny", "--inject", site])
        assert code in (0, 1, 3, 4)

    def test_exit_code_degraded(self, capsys):
        assert main(["mcf", "--scale", "tiny", "--no-cache",
                     "--inject", "slice.exception"]) == 3
        assert "[guard]" in capsys.readouterr().out

    def test_exit_code_rolled_back(self, capsys):
        assert main(["mcf", "--scale", "tiny", "--no-cache",
                     "--inject", "verify.mismatch"]) == 4

    def test_inject_list(self, capsys):
        assert main(["--inject", "list"]) == 0
        out = capsys.readouterr().out
        assert "cache.corrupt" in out and "verify.mismatch" in out

    def test_inject_rejects_unknown_site(self, capsys):
        assert main(["mcf", "--inject", "no.such.site"]) == 2

    def test_injector_never_leaks(self):
        from repro.guard import faultinject
        main(["mcf", "--scale", "tiny", "--no-cache",
              "--inject", "slice.exception"])
        assert faultinject.active() is None


class TestRunnerBatchChaos:
    def _batch(self):
        return [RunSpec.create(name, scale="tiny", model="inorder",
                               variant="ssp") for name in PAPER_ORDER]

    @pytest.mark.parametrize("site", PIPELINE_SITES)
    def test_pipeline_site_degrades_to_fallback(self, site):
        # Adaptation fails (or rolls back) for every workload, so every
        # spec simulates the unadapted binary — all runs succeed.
        runner = Runner(jobs=1, cache=None)
        with injecting(site):
            results = runner.run(self._batch())
        assert len(results) == len(PAPER_ORDER)
        for result in results:
            assert result.error is None, result.error
            assert result.stats is not None and result.stats.cycles > 0

    @pytest.mark.parametrize("site", WORKER_SITES)
    def test_runner_site_records_failures(self, site):
        # A plain one-job runner makes one inline attempt per spec.  Every
        # attempt dies inside the worker; the batch still completes and
        # each result carries a structured error, never an exception.
        runner = Runner(jobs=1, cache=None)
        with injecting(site):
            results = runner.run(self._batch())
        assert len(results) == len(PAPER_ORDER)
        for result in results:
            assert result.stats is None
            assert result.attempts == 1
            assert "injected fault" in result.error

    @pytest.mark.parametrize("site", CACHE_SITES)
    def test_cache_site_quarantines_and_recovers(self, site, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                              variant="ssp")
        clean = Runner(jobs=1, cache=cache).stats(spec)
        assert cache.get(spec) is not None
        with injecting(site):
            chaos = Runner(jobs=1, cache=cache).stats(spec)
        # The damaged entry was quarantined and the spec re-simulated to
        # the same answer; the .bad file is kept for post-mortems.
        assert chaos.cycles == clean.cycles
        bad = list(tmp_path.rglob("*.json.bad"))
        assert len(bad) == 1
        info = cache.stats()
        assert any(gen["quarantined"] == 1
                   for gen in info["generations"])
        # The re-simulated result was re-stored for the next lookup.
        assert cache.get(spec) is not None

    def test_structured_diagnostics_surface_in_batch(self):
        from repro.runner.worker import artifacts_for
        spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                              variant="ssp")
        with injecting("slice.exception"):
            Runner(jobs=1, cache=None).run([spec])
            guard = artifacts_for(spec).tool_result.guard
        assert guard.degraded
        assert all(d.stage == "slicing" for d in guard.diagnostics)
        assert {d.load_uid for d in guard.diagnostics}.issubset(
            set(artifacts_for(spec).tool_result.delinquent_uids))
