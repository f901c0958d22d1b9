"""Tests for the cross-run telemetry ledger (repro.obs.ledger)."""

import json
import os

import pytest

from repro.analysis.harness import ExperimentHarness
from repro.core.results import MODEL_VERSION
from repro.obs.ledger import (LEDGER_ENV, RunLedger, default_ledger_path,
                              record_from_bench, record_from_cell,
                              record_from_result, resolve_ledger)


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "ledger.jsonl")


# -- append / read round trips ------------------------------------------------


class TestAppend:
    def test_append_creates_file_and_returns_run_id(self, ledger):
        run_id = ledger.append({"kind": "run", "cell": "vecadd/none",
                                "metrics": {"cycles": 100}})
        assert isinstance(run_id, str) and len(run_id) == 12
        records = ledger.records()
        assert len(records) == 1
        assert records[0]["run_id"] == run_id

    def test_provenance_stamped_on_every_record(self, ledger):
        ledger.append({"kind": "run", "cell": "vecadd/none", "metrics": {}})
        rec = ledger.records()[0]
        assert rec["format"] == 1
        assert rec["model_version"] == MODEL_VERSION
        assert isinstance(rec["ts"], float)
        # In this repo the git SHA resolves; outside git it would be None.
        assert "git_sha" in rec

    def test_each_line_is_one_complete_json_record(self, ledger):
        for i in range(5):
            ledger.append({"kind": "run", "cell": f"c/{i}", "metrics": {}})
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert isinstance(json.loads(line), dict)

    def test_run_ids_are_unique(self, ledger):
        ids = {ledger.append({"kind": "run", "cell": "x/y", "metrics": {}})
               for _ in range(10)}
        assert len(ids) == 10

    def test_caller_fields_win_over_defaults(self, ledger):
        ledger.append({"kind": "bench", "ts": 1.5, "git_sha": "abc",
                       "metrics": {}})
        rec = ledger.records()[0]
        assert rec["ts"] == 1.5 and rec["git_sha"] == "abc"

    def test_safe_append_swallows_os_errors(self, tmp_path, capsys):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("file, not directory")
        bad = RunLedger(blocked / "ledger.jsonl")
        assert bad.safe_append({"kind": "run", "metrics": {}}) is None
        assert bad.safe_append({"kind": "run", "metrics": {}}) is None
        err = capsys.readouterr().err
        assert err.count("warning: ledger append") == 1  # warns once


class TestTornTail:
    """Crash tolerance: a half-written final line must not poison the
    ledger — it is skipped on read and healed on the next append."""

    def test_torn_tail_skipped_on_read(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        with ledger.path.open("a") as fh:
            fh.write('{"kind": "run", "cell": "torn')  # no newline
        records = ledger.records()
        assert len(records) == 1
        assert records[0]["cell"] == "a/b"

    def test_append_after_torn_tail_starts_fresh_line(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        with ledger.path.open("a") as fh:
            fh.write('{"half": ')
        ledger.append({"kind": "run", "cell": "c/d", "metrics": {}})
        cells = [r["cell"] for r in ledger.records()]
        assert cells == ["a/b", "c/d"]  # fragment dropped, not merged

    def test_blank_and_garbage_lines_tolerated(self, ledger):
        ledger.path.write_text('\n\nnot json\n{"kind": "run", '
                               '"cell": "ok/ok", "run_id": "x"}\n')
        assert [r["cell"] for r in ledger.records()] == ["ok/ok"]

    def test_missing_file_reads_empty(self, ledger):
        assert ledger.records() == []
        assert ledger.tail(5) == []


class TestFind:
    def test_find_by_prefix(self, ledger):
        run_id = ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        assert ledger.find(run_id[:6])["run_id"] == run_id

    def test_find_missing_returns_none(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        assert ledger.find("zzzzzz") is None

    def test_ambiguous_prefix_raises(self, ledger):
        ledger.append({"kind": "run", "run_id": "aa11", "metrics": {}})
        ledger.append({"kind": "run", "run_id": "aa22", "metrics": {}})
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.find("aa")


# -- the derived index --------------------------------------------------------


class TestIndex:
    def test_index_tracks_counts_and_cells(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b",
                       "metrics": {"cycles": 7}})
        ledger.append({"kind": "run", "cell": "a/b",
                       "metrics": {"cycles": 9}})
        ledger.append({"kind": "bench", "metrics": {}})
        idx = ledger.index()
        assert idx["count"] == 3
        assert idx["kinds"] == {"run": 2, "bench": 1}
        assert idx["cells"]["a/b"]["count"] == 2
        assert idx["cells"]["a/b"]["last_cycles"] == 9

    def test_index_is_a_pure_cache(self, ledger):
        """Deleting the index loses nothing — it is rebuilt by scan."""
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        assert ledger.index_path.exists()
        ledger.index_path.unlink()
        assert ledger.index()["count"] == 1

    def test_stale_index_rebuilt_from_jsonl(self, ledger):
        """An out-of-band append desyncs the byte count; the next read
        must notice and rescan rather than serve stale aggregates."""
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        with ledger.path.open("a") as fh:
            fh.write(json.dumps({"kind": "run", "cell": "c/d",
                                 "run_id": "x", "metrics": {}}) + "\n")
        idx = ledger.index()
        assert idx["count"] == 2
        assert set(idx["cells"]) == {"a/b", "c/d"}

    def test_corrupt_index_rebuilt(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        ledger.index_path.write_text("{corrupt")
        assert ledger.index()["count"] == 1

    def test_incremental_update_matches_full_rebuild(self, ledger):
        for i in range(4):
            ledger.append({"kind": "run", "cell": f"w/{i % 2}",
                           "metrics": {"cycles": i}})
        incremental = ledger.index()
        rebuilt = ledger.rebuild_index()
        assert incremental == rebuilt


# -- configuration ------------------------------------------------------------


class TestResolveLedger:
    def test_false_disables(self):
        assert resolve_ledger(False) is None

    def test_path_builds_ledger(self, tmp_path):
        led = resolve_ledger(tmp_path / "l.jsonl")
        assert isinstance(led, RunLedger)
        assert led.path == tmp_path / "l.jsonl"

    def test_ledger_passes_through(self, ledger):
        assert resolve_ledger(ledger) is ledger

    def test_env_off_disables_default(self, monkeypatch):
        for value in ("off", "0", "none", "disabled", ""):
            monkeypatch.setenv(LEDGER_ENV, value)
            assert default_ledger_path() is None
            assert resolve_ledger(None) is None

    def test_env_path_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "alt.jsonl"))
        assert default_ledger_path() == tmp_path / "alt.jsonl"

    def test_default_lives_in_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_ledger_path() == tmp_path / "ledger.jsonl"


# -- record builders ----------------------------------------------------------


class TestRecordBuilders:
    def test_record_from_result_carries_provenance(self, small_config,
                                                   tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=False)
        result = harness.run("vecadd", "none")
        rec = record_from_result(result, label="t", config=small_config,
                                 scale=tiny_gen.scale, seed=tiny_gen.seed)
        assert rec["kind"] == "run"
        assert rec["cell"] == "vecadd/none"
        assert rec["cached"] is False
        assert rec["metrics"]["cycles"] == result.cycles
        assert rec["metrics"]["total_dram_bytes"] > 0
        assert rec["metrics"]["events"] > 0
        assert rec["metrics"]["events_per_sec"] > 0
        assert len(rec["config_key"]) == 64  # result-cache content hash

    def test_record_from_cell_derives_traffic_split(self):
        rec = record_from_cell(
            {"cell": "vecadd/cachecraft", "workload": "vecadd",
             "scheme": "cachecraft", "cycles": 500, "host_seconds": 0.1,
             "traffic": {"data": 100, "metadata": 30, "verify_fill": 10,
                         "metadata_write": 5}},
            scale=0.1, seed=3)
        assert rec["metrics"]["total_dram_bytes"] == 145
        assert rec["metrics"]["demand_bytes"] == 100
        assert rec["metrics"]["overhead_bytes"] == 45
        assert rec["scale"] == 0.1 and rec["seed"] == 3
        assert rec["fidelity"] == "event" and "degraded" not in rec

    def test_record_from_cell_flags_degraded_rescue(self):
        rec = record_from_cell(
            {"cell": "vecadd/none", "workload": "vecadd",
             "scheme": "none", "cycles": 500, "host_seconds": 0.1,
             "fidelity": "functional", "degraded": True,
             "traffic": {"data": 100}})
        # A functional-tier rescue must never alias the event-tier
        # cell's history: the id carries the tier, the flag the cause.
        assert rec["cell"] == "vecadd/none@functional"
        assert rec["fidelity"] == "functional"
        assert rec["degraded"] is True

    def test_record_from_bench_keeps_full_payload(self):
        payload = {"raw_engine": {"events_per_sec": 1000},
                   "real_sim": {"events_per_sec": 200}}
        rec = record_from_bench(payload)
        assert rec["kind"] == "bench"
        assert rec["metrics"] == {"raw_events_per_sec": 1000,
                                  "sim_events_per_sec": 200}
        assert rec["bench"] is payload

    def test_record_from_result_links_log_path(self, small_config,
                                               tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed, ledger=False)
        result = harness.run("vecadd", "none")
        rec = record_from_result(result, label="t", config=small_config,
                                 scale=tiny_gen.scale, seed=tiny_gen.seed,
                                 log_path="/tmp/run.log.jsonl")
        assert rec["log"] == "/tmp/run.log.jsonl"
        bare = record_from_result(result, label="t", config=small_config,
                                  scale=tiny_gen.scale, seed=tiny_gen.seed)
        assert "log" not in bare

    def test_record_from_session_summarizes_fleet(self):
        from repro.obs.ledger import record_from_session

        summary = {"cells_total": 6, "cells_done": 5, "cells_failed": 1,
                   "cells_cached": 0, "cache_hit_ratio": 0.0,
                   "wall_seconds": 12.5, "note": "not-a-metric"}
        rec = record_from_session("campaign", summary,
                                  log_path="/tmp/c.log.jsonl")
        assert rec["kind"] == "session"
        assert rec["cell"] == "session/campaign"
        assert rec["label"] == "campaign"
        assert rec["metrics"]["cells_done"] == 5
        assert "note" not in rec["metrics"]  # numeric metrics only
        assert rec["log"] == "/tmp/c.log.jsonl"


# -- harness integration ------------------------------------------------------


class TestHarnessLedger:
    def test_serial_run_appends_with_cached_flags(self, ledger,
                                                  small_config, tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=ledger)
        harness.run("vecadd", "none")
        harness.run("vecadd", "cachecraft")
        records = ledger.records()
        assert [r["cell"] for r in records] == ["vecadd/none",
                                                "vecadd/cachecraft"]
        assert all(r["cached"] is False for r in records)
        assert all(r["label"] == "harness" for r in records)

    def test_mem_cache_hit_logged_once_per_harness(self, ledger,
                                                   small_config, tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=ledger)
        harness.run("vecadd", "none")
        harness.run("vecadd", "none")  # mem-cache hit: no second record
        assert len(ledger.records()) == 1

    def test_persistent_cache_hit_flagged_cached(self, ledger, tmp_path,
                                                 small_config, tiny_gen):
        cache_dir = tmp_path / "cache"
        warm = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                 seed=tiny_gen.seed, cache_dir=cache_dir,
                                 ledger=False)
        warm.run("vecadd", "none")
        replay = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                   seed=tiny_gen.seed, cache_dir=cache_dir,
                                   ledger=ledger)
        replay.run("vecadd", "none")
        records = ledger.records()
        assert len(records) == 1
        assert records[0]["cached"] is True
        assert replay.sims_run == 0

    def test_parallel_matrix_appends_from_parent(self, ledger,
                                                 small_config, tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=ledger)
        harness.matrix(["vecadd"], ["none", "sideband"], workers=2)
        cells = sorted(r["cell"] for r in ledger.records())
        assert cells == ["vecadd/none", "vecadd/sideband"]

    def test_ledger_false_disables(self, small_config, tiny_gen,
                                   monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=False)
        harness.run("vecadd", "none")
        assert not (tmp_path / "ledger.jsonl").exists()


class TestCampaignLedger:
    def test_campaign_cells_append_on_receipt(self, ledger, tmp_path):
        from repro.resilience.campaign import CampaignRunner, build_cells

        runner = CampaignRunner(str(tmp_path / "journal.jsonl"),
                                workers=2, ledger=ledger)
        summary = runner.run(build_cells(["vecadd"], ["none", "cachecraft"],
                                         scale=0.04, seed=7))
        assert summary.ok
        records = ledger.records()
        runs = [r for r in records if r["kind"] == "run"]
        assert sorted(r["cell"] for r in runs) == ["vecadd/cachecraft",
                                                   "vecadd/none"]
        for rec in runs:
            assert rec["label"] == "campaign"
            assert rec["metrics"]["cycles"] > 0
            assert rec["metrics"]["total_dram_bytes"] > 0
        # The campaign also records one session summary for `obs history`.
        (session,) = [r for r in records if r["kind"] == "session"]
        assert session["cell"] == "session/campaign"
        assert session["metrics"]["cells_done"] == 2
        assert session["metrics"]["wall_seconds"] >= 0
