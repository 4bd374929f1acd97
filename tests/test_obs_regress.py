"""Tests for the perf-regression ledger (:mod:`repro.obs.regress`).

Covers the statistical gate over synthetic records (noise band AND
relative-floor semantics, improved/missing verdicts), real median-of-K
measurement, ledger append/read durability, baseline pin/load, and the
``bench record`` / ``bench compare`` CLI including the injected-slowdown
self-test the acceptance criteria call for.
"""

import copy
import json

import pytest

from repro.obs import regress
from repro.tool.cli import main


def _record(cps, mad=10.0, name="mcf"):
    return {"workloads": {name: {"cps_median": float(cps),
                                 "cps_mad": float(mad)}}}


class TestCompareGate:
    def test_identical_records_pass(self):
        rec = _record(1000.0)
        result = regress.compare(rec, rec)
        assert result["ok"] and result["regressions"] == 0
        assert result["rows"][0]["verdict"] == "ok"

    def test_jitter_within_band_passes(self):
        # 0.8% drop: under both the 3-sigma band and the 10% floor.
        result = regress.compare(_record(1000.0), _record(992.0))
        assert result["ok"]

    def test_big_drop_fails(self):
        result = regress.compare(_record(1000.0), _record(600.0))
        assert not result["ok"]
        row = result["rows"][0]
        assert row["verdict"] == "regressed"
        assert row["delta_rel"] == pytest.approx(-0.4)

    def test_drop_beyond_band_but_under_floor_passes(self):
        # 5% drop clears a tight band but not the 10% relative floor:
        # both conditions must hold for a regression.
        result = regress.compare(_record(1000.0, mad=1.0),
                                 _record(950.0, mad=1.0))
        assert result["ok"]

    def test_drop_beyond_floor_but_in_band_passes(self):
        # 20% drop inside a huge noise band: still not a regression.
        result = regress.compare(_record(1000.0, mad=200.0),
                                 _record(800.0, mad=200.0))
        assert result["ok"]

    def test_noisy_baseline_cannot_veto_a_catastrophic_drop(self):
        # MAD over tiny K is a crude sigma estimate; a pathologically
        # noisy baseline must not produce an unclearable band.
        result = regress.compare(_record(1000.0, mad=500.0),
                                 _record(100.0, mad=50.0))
        assert not result["ok"]
        assert result["rows"][0]["rel_band"] == regress.MAX_REL_BAND

    def test_improvement_never_fails(self):
        result = regress.compare(_record(1000.0), _record(2000.0))
        assert result["ok"]
        assert result["rows"][0]["verdict"] == "improved"

    def test_missing_and_new_workloads(self):
        base = {"workloads": {"mcf": {"cps_median": 1.0, "cps_mad": 0.0}}}
        cur = {"workloads": {"health": {"cps_median": 1.0,
                                        "cps_mad": 0.0}}}
        result = regress.compare(base, cur)
        assert result["ok"]  # missing is reported, not gated
        assert result["rows"][0]["verdict"] == "missing"
        assert result["new_workloads"] == ["health"]

    def test_render_compare(self):
        result = regress.compare(_record(1000.0), _record(600.0))
        text = regress.render_compare(result)
        assert "regressed" in text
        assert "gate: FAIL (1 regression(s))" in text
        passing = regress.render_compare(
            regress.compare(_record(1000.0), _record(1000.0)))
        assert "gate: PASS" in passing

    def test_stale_baseline_fails_the_gate(self):
        # A zeroed cps_median carries no throughput signal: relative
        # drops are undefined against it, so before the stale verdict a
        # total stall (new_cps ~ 0 too) sailed through as "ok".
        result = regress.compare(_record(0.0), _record(0.0))
        assert not result["ok"]
        assert result["stale"] == 1 and result["regressions"] == 0
        assert result["rows"][0]["verdict"] == "stale"
        text = regress.render_compare(result)
        assert "stale" in text and "re-pin" in text
        assert "gate: FAIL" in text and "stale baseline row(s)" in text
        # A healthy baseline against a zeroed current is an ordinary
        # (catastrophic) regression, not stale.
        result = regress.compare(_record(1000.0), _record(0.0))
        assert not result["ok"] and result["regressions"] == 1

    def test_median_speedup_reported(self):
        result = regress.compare(_record(1000.0), _record(3000.0))
        assert result["median_speedup"] == pytest.approx(3.0)
        assert "3.00x" in regress.render_compare(result)
        # No comparable rows -> 0.0, never a crash.
        assert regress.compare(_record(0.0),
                               _record(500.0))["median_speedup"] == 0.0

    def test_sample_counts_in_rows(self):
        base = _record(1000.0)
        base["workloads"]["mcf"]["n"] = 5
        new = _record(1000.0)
        new["workloads"]["mcf"]["n"] = 3
        result = regress.compare(base, new)
        row = result["rows"][0]
        assert row["base_n"] == 5 and row["new_n"] == 3
        assert "5/3" in regress.render_compare(result)


class TestMeasure:
    def test_measure_shape_and_json_safety(self):
        rec = regress.measure(["health"], scale="tiny", k=2,
                              label="unit")
        json.dumps(rec)
        assert rec["schema"] == regress.LEDGER_SCHEMA
        assert rec["label"] == "unit"
        assert rec["k"] == 2
        row = rec["workloads"]["health"]
        assert row["cycles"] > 0
        assert len(row["wall"]) == 2
        assert row["cps_median"] > 0
        assert row["wall_mad"] >= 0
        # An unchanged self-compare must pass the gate.
        assert regress.compare(rec, rec)["ok"]

    def test_injected_slowdown_regresses_against_itself(self):
        # inject_slowdown scales every wall sample deterministically, so
        # a 4x-slowed copy of a record regresses against the original by
        # construction once measurement noise is clamped out.
        rec = regress.measure(["health"], scale="tiny", k=2)
        base = json.loads(json.dumps(rec))
        slowed = json.loads(json.dumps(rec))
        for doc, scale in ((base, 1.0), (slowed, 4.0)):
            row = doc["workloads"]["health"]
            row["cps_median"] /= scale
            row["cps_mad"] = 0.02 * row["cps_median"]
        assert regress.compare(base, base)["ok"]
        assert not regress.compare(base, slowed)["ok"]

    def test_validation(self):
        with pytest.raises(ValueError):
            regress.measure(["health"], k=0)
        with pytest.raises(ValueError):
            regress.measure(["health"], inject_slowdown=0.0)


class TestLedgerFiles:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "ledger" / regress.LEDGER_NAME
        regress.append_record({"a": 1}, path)
        regress.append_record({"b": 2}, path)
        assert regress.read_ledger(path) == [{"a": 1}, {"b": 2}]

    def test_read_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / regress.LEDGER_NAME
        regress.append_record({"a": 1}, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn": ')  # killed mid-write
        assert regress.read_ledger(path) == [{"a": 1}]

    def test_read_missing_ledger(self, tmp_path):
        assert regress.read_ledger(tmp_path / "absent.jsonl") == []

    def test_pin_and_load_baseline(self, tmp_path):
        path = tmp_path / regress.BASELINE_NAME
        regress.pin_baseline({"workloads": {}}, path)
        assert regress.load_baseline(path) == {"workloads": {}}
        assert regress.load_baseline(tmp_path / "absent.json") is None


class TestCLIBench:
    def test_record_pin_compare_and_injected_regression(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "record", "health", "--k", "3",
                     "--pin", "--label", "seed"]) == 0
        out = capsys.readouterr().out
        assert "baseline pinned" in out
        assert (tmp_path / regress.BASELINE_NAME).exists()
        ledger = regress.read_ledger(tmp_path / regress.LEDGER_NAME)
        assert len(ledger) == 1 and ledger[0]["label"] == "seed"

        # An unchanged re-run passes the gate ...
        assert main(["bench", "compare", "health", "--k", "3"]) == 0
        assert "gate: PASS" in capsys.readouterr().out
        assert len(regress.read_ledger(
            tmp_path / regress.LEDGER_NAME)) == 2

        # ... and an injected synthetic regression fails it, without
        # polluting the ledger trajectory.  25x leaves the 96% drop
        # clear of the noise band even on a jittery CI host.
        assert main(["bench", "compare", "health", "--k", "3",
                     "--inject-slowdown", "25.0"]) == 1
        assert "gate: FAIL" in capsys.readouterr().out
        assert len(regress.read_ledger(
            tmp_path / regress.LEDGER_NAME)) == 2

    def test_compare_without_baseline_is_usage_error(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "compare", "health", "--k", "1"]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_record_without_pin_leaves_no_baseline(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "record", "health", "--k", "1"]) == 0
        assert not (tmp_path / regress.BASELINE_NAME).exists()
        assert (tmp_path / regress.LEDGER_NAME).exists()

    def test_pin_with_k_below_three_is_usage_error(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for k in ("1", "2"):
            assert main(["bench", "record", "health", "--k", k,
                         "--pin"]) == 2
            err = capsys.readouterr().err
            assert "cannot pin a baseline" in err
            assert not (tmp_path / regress.BASELINE_NAME).exists()
            # Rejected before measuring: nothing appended either.
            assert not (tmp_path / regress.LEDGER_NAME).exists()

    def test_k_below_three_without_pin_warns(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "record", "health", "--k", "1"]) == 0
        assert "degenerate noise estimate" in capsys.readouterr().err

    def test_assert_speedup_gate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "record", "health", "--k", "3",
                     "--pin"]) == 0
        capsys.readouterr()
        # Replay the pinned record instead of re-measuring, so host noise
        # cannot trip the regression gate: the ratio is exactly 1x.
        pinned = regress.load_baseline(tmp_path / regress.BASELINE_NAME)
        monkeypatch.setattr(regress, "measure",
                            lambda *args, **kwargs: copy.deepcopy(pinned))
        # A 100x assertion must fail even though the regression gate
        # itself passes ...
        assert main(["bench", "compare", "health", "--k", "3",
                     "--no-ledger", "--assert-speedup", "100"]) == 1
        captured = capsys.readouterr()
        assert "below asserted" in captured.err
        # ... and a trivial floor passes.
        assert main(["bench", "compare", "health", "--k", "3",
                     "--no-ledger", "--assert-speedup", "0.01"]) == 0
        assert "asserted speedup met" in capsys.readouterr().out
