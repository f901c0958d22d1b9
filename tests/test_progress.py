"""Lifecycle fold of the structured log: snapshot, rendering, `obs top`."""

import json
from pathlib import Path

from repro.cli import main
from repro.obs.progress import (DEFAULT_STALE_AFTER, HeartbeatThread,
                                LiveRenderer, render_top, snapshot,
                                summary_dict)
from repro.obs.structlog import StructLog, read_jsonl

T0 = 1_700_000_000.0
GOLDEN = Path(__file__).parent / "data" / "top_frames_golden.txt"


def _rec(ts, pid, event, **fields):
    """One structured-log record as :class:`StructLog` writes it."""
    return {"ts": ts, "level": "info", "event": event, "pid": pid, **fields}


def _write(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


#: A mid-run fleet: 2 done, 1 cached, 1 failed, 2 in flight (one on a
#: stale worker), 6 planned.  Parent pid 100; pid 101 is healthy
#: (finished two cells, heartbeating on a third); pid 102 failed one
#: cell, then went silent mid-cell.
MID_RUN = [
    _rec(T0, 100, "plan", total=6),
    _rec(T0 + 0.1, 100, "cell.cached", cell="spmv/none"),
    _rec(T0 + 1, 101, "cell.start", cell="spmv/ecc"),
    _rec(T0 + 1, 102, "cell.start", cell="spmv/bad"),
    _rec(T0 + 2, 102, "cell.failed", cell="spmv/bad",
         error="watchdog: livelock"),
    _rec(T0 + 2, 102, "cell.start", cell="vecadd/none"),
    _rec(T0 + 2.5, 102, "heartbeat"),
    _rec(T0 + 3, 101, "cell.done", cell="spmv/ecc", events=1000,
         host_seconds=2.0),
    _rec(T0 + 3, 101, "cell.start", cell="saxpy/ecc"),
    _rec(T0 + 7, 101, "cell.done", cell="saxpy/ecc", events=3000,
         host_seconds=4.0),
    _rec(T0 + 7, 101, "cell.start", cell="vecadd/ecc"),
    _rec(T0 + 9, 101, "heartbeat"),
]
ALL_RESOLVED = [
    _rec(T0, 1, "plan", total=1),
    _rec(T0 + 1, 1, "cell.done", cell="a/b", events=10, host_seconds=1.0),
]
RETRY = [
    _rec(T0, 1, "cell.start", cell="a/b"),
    _rec(T0 + 1, 1, "cell.retry", cell="a/b", error="boom", attempt=2),
]
#: A worker logs the start; the dispatching parent later logs the
#: failure verdict.
LATEST_STATUS = [
    _rec(T0, 2, "cell.start", cell="a/b"),
    _rec(T0 + 5, 1, "cell.failed", cell="a/b", error="timeout"),
]
#: A resumed campaign: plan first, then the journal's verdicts.
QUARANTINE = [
    _rec(T0, 1, "plan", total=2),
    _rec(T0, 1, "cell.cached", cell="a/b"),
    _rec(T0 + 0.5, 1, "cell.quarantined", cell="c/d",
         error="worker exited with status 13"),
]

NOW = T0 + 10  # pid 101 fresh (1s ago), pid 102 silent for 7.5s

#: (name, records, now, stale_after) for every frame in GOLDEN.
GOLDEN_CASES = [
    ("mid-run", MID_RUN, NOW, 10.0),
    ("mid-run", MID_RUN, NOW, 5.0),
    ("mid-run", MID_RUN, NOW, 60.0),
    ("all-resolved", ALL_RESOLVED, T0 + 2, 10.0),
    ("retry", RETRY, T0 + 2, 10.0),
    ("latest-status", LATEST_STATUS, T0 + 6, 10.0),
    ("quarantine", QUARANTINE, T0 + 1, 10.0),
    ("empty", [], NOW, 10.0),
]


def canned_log(tmp_path):
    return _write(tmp_path / "run.log.jsonl", MID_RUN)


class TestSnapshot:
    def test_counts_and_totals(self, tmp_path):
        snap = snapshot(read_jsonl(canned_log(tmp_path)), now=NOW)
        assert (snap.total, snap.done, snap.failed, snap.cached) \
            == (6, 2, 1, 1)
        assert snap.resolved == 4 and snap.remaining == 2
        assert [s.cell for s in snap.in_flight] \
            == ["vecadd/none", "vecadd/ecc"]
        assert [s.cell for s in snap.failed_cells] == ["spmv/bad"]
        assert snap.failed_cells[0].error == "watchdog: livelock"

    def test_throughput_and_cache_ratio(self, tmp_path):
        snap = snapshot(read_jsonl(canned_log(tmp_path)), now=NOW)
        assert snap.events == 4000
        assert snap.events_per_sec == 4000 / 6.0
        assert snap.cache_hit_ratio == 0.25
        assert snap.elapsed_seconds == 10.0

    def test_ewma_and_eta(self, tmp_path):
        snap = snapshot(read_jsonl(canned_log(tmp_path)), now=NOW,
                        stale_after=5.0)
        ewma = 0.3 * 4.0 + 0.7 * 2.0  # alpha=0.3 over [2.0, 4.0]
        assert abs(snap.ewma_cell_seconds - ewma) < 1e-9
        # one live lane (pids 100/102 are silent): 2 cells in series
        assert abs(snap.eta_seconds - 2 * ewma) < 1e-9

    def test_stale_worker_detection(self):
        snap = snapshot(MID_RUN, now=NOW, stale_after=5.0)
        assert snap.stale_workers == [102]
        # generous threshold: everyone counts as live
        assert snapshot(MID_RUN, now=NOW, stale_after=60.0).stale_workers \
            == []

    def test_deterministic_given_now(self):
        assert snapshot(MID_RUN, now=NOW) == snapshot(MID_RUN, now=NOW)

    def test_empty_directory(self, tmp_path):
        snap = snapshot(read_jsonl(tmp_path / "absent.jsonl"), now=NOW)
        assert snap.total == 0 and snap.resolved == 0
        assert snap.eta_seconds is None

    def test_all_resolved_eta_is_zero(self):
        snap = snapshot(ALL_RESOLVED, now=T0 + 2)
        assert snap.eta_seconds == 0.0

    def test_retry_reenters_flight_later(self):
        snap = snapshot(RETRY, now=T0 + 2)
        assert [s.cell for s in snap.retrying] == ["a/b"]
        assert snap.retrying[0].attempts == 2
        assert not snap.in_flight

    def test_latest_status_wins_across_files(self):
        snap = snapshot(LATEST_STATUS, now=T0 + 6)
        assert snap.failed == 1 and not snap.in_flight

    def test_folds_only_the_run_after_the_last_plan(self):
        # A reused --log-out file: an earlier run, then this one.
        records = [
            _rec(T0 - 50, 7, "plan", total=3),
            _rec(T0 - 49, 7, "cell.done", cell="x/y", events=5,
                 host_seconds=1.0),
            _rec(T0 - 48, 7, "cell.failed", cell="x/z", error="old"),
        ] + MID_RUN
        assert snapshot(records, now=NOW) == snapshot(MID_RUN, now=NOW)

    def test_other_events_are_liveness_not_cells(self):
        records = MID_RUN + [_rec(T0 + 9.5, 102, "pool.done", cells=4)]
        snap = snapshot(records, now=NOW, stale_after=5.0)
        assert snap.stale_workers == []
        assert snap.resolved == 4 and len(snap.in_flight) == 2


class TestRenderTop:
    def test_frame_has_counts_rows_and_stale_marker(self):
        snap = snapshot(MID_RUN, now=NOW, stale_after=5.0)
        frame = render_top(snap, title="fleet")
        assert "== fleet ==" in frame
        assert "4/6 cells" in frame
        assert ("done 2  failed 1  cached 1  quarantined 0  "
                "in-flight 2") in frame
        assert "cache hit ratio 25%" in frame
        assert "STALE pids [102]" in frame
        assert "RUN  vecadd/ecc" in frame
        assert "[stale]" in frame          # on pid 102's in-flight row
        assert "FAIL spmv/bad" in frame
        assert "watchdog: livelock" in frame

    def test_frame_is_plain_text(self):
        frame = render_top(snapshot(MID_RUN, now=NOW))
        assert "\x1b" not in frame  # no TTY control codes, CI-safe


class TestGoldenFrames:
    """Every canned fleet renders the frame pinned in GOLDEN."""

    def test_frames_match_golden(self, tmp_path):
        frames = []
        for name, records, now, stale_after in GOLDEN_CASES:
            log = _write(tmp_path / "run.log.jsonl", records)
            snap = snapshot(read_jsonl(log), now=now,
                            stale_after=stale_after)
            frames.append(f"### {name} now=T0+{now - T0:g} "
                          f"stale_after={stale_after:g}\n"
                          + render_top(snap, title="fleet") + "\n")
        assert "\n".join(frames) == GOLDEN.read_text()


class TestWriters:
    def test_writer_and_reader_round_trip(self, tmp_path):
        log = StructLog(tmp_path / "run.log.jsonl")
        log.info("plan", total=3)
        log.bind(cell="a/b").info("cell.start")
        log.bind(cell="a/b").info("cell.done", events=5, host_seconds=0.5)
        records = log.records()
        assert [r["event"] for r in records] \
            == ["plan", "cell.start", "cell.done"]
        assert all("ts" in r and "pid" in r for r in records)
        snap = snapshot(records)
        assert (snap.total, snap.done, snap.events) == (3, 1, 5)

    def test_heartbeat_thread_writes_liveness(self, tmp_path):
        log = StructLog(tmp_path / "run.log.jsonl")
        HeartbeatThread(log).start().stop()
        events = [r["event"] for r in log.records()]
        assert events.count("heartbeat") >= 2  # start + final flush

    def test_unwritable_dir_warns_not_raises(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("a file where the directory should be")
        HeartbeatThread(StructLog(target / "run.log.jsonl")).start().stop()
        assert capsys.readouterr().err.count("warning") == 1


class TestLiveRenderer:
    def test_single_frame_mode_prints_only_on_stop(self, tmp_path, capsys):
        renderer = LiveRenderer(canned_log(tmp_path), interval=0,
                                title="ci").start()
        assert capsys.readouterr().out == ""  # silent while "running"
        renderer.stop()
        out = capsys.readouterr().out
        assert out.count("== ci ==") == 1


class TestSummaryDict:
    def test_keys_and_values(self):
        summary = summary_dict(snapshot(MID_RUN, now=NOW))
        assert summary == {
            "cells_total": 6, "cells_done": 2, "cells_failed": 1,
            "cells_cached": 1, "cells_quarantined": 0,
            "cache_hit_ratio": 0.25, "events": 4000,
            "events_per_sec": round(4000 / 6.0), "wall_seconds": 10.0,
        }


class TestObsTopCli:
    def test_single_frame_from_canned_dir(self, tmp_path, capsys):
        log = canned_log(tmp_path)
        rc = main(["obs", "top", str(log), "--stale-after", "1e9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4/6 cells" in out
        assert "FAIL spmv/bad" in out
        # default stale_after matches the module constant
        assert DEFAULT_STALE_AFTER == 10.0

    def test_stale_flag_reaches_snapshot(self, tmp_path, capsys):
        log = canned_log(tmp_path)
        # Every heartbeat in the fixture is ancient relative to real
        # time, so any finite threshold marks pid 101 and 102 stale.
        main(["obs", "top", str(log), "--stale-after", "5"])
        assert "STALE pids" in capsys.readouterr().out

    def test_empty_dir_renders_zero_frame(self, tmp_path, capsys):
        rc = main(["obs", "top", str(tmp_path / "absent.log.jsonl")])
        assert rc == 0
        assert "0/0 cells" in capsys.readouterr().out

    def test_torn_tail_tolerated(self, tmp_path, capsys):
        log = canned_log(tmp_path)
        with open(log, "a") as fh:
            fh.write('{"event": "cell.done", "cell": "torn')  # killed
        rc = main(["obs", "top", str(log), "--stale-after", "1e9"])
        assert rc == 0
        assert "4/6 cells" in capsys.readouterr().out
