"""Structured log: records, context binding, durability discipline."""

import json
import os
import subprocess
import sys
import time

from repro.obs.structlog import (CHECKSUM_FIELD, LOG_ENV, NULL_LOG, NullLog,
                                 StructLog, append_jsonl, read_jsonl,
                                 record_checksum, resolve_log, run_context)


class TestJsonlPrimitives:
    def test_append_then_read_round_trips(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        append_jsonl(path, {"b": 2})
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_read_skips_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        with open(path, "a") as fh:
            fh.write('{"torn": tru')  # interrupted write, no newline
        assert list(read_jsonl(path)) == [{"a": 1}]

    def test_append_heals_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        with open(path, "a") as fh:
            fh.write('{"torn": tru')
        append_jsonl(path, {"b": 2})
        records = list(read_jsonl(path))
        assert records[0] == {"a": 1}
        assert records[-1] == {"b": 2}

    def test_read_missing_file_is_empty(self, tmp_path):
        assert list(read_jsonl(tmp_path / "absent.jsonl")) == []

    def test_append_returns_bytes_written(self, tmp_path):
        path = tmp_path / "log.jsonl"
        written = append_jsonl(path, {"a": 1})
        assert written == path.stat().st_size


class TestRecordChecksums:
    def test_records_carry_ck_on_disk_but_not_on_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        on_disk = json.loads(path.read_text())
        assert on_disk[CHECKSUM_FIELD] == record_checksum({"a": 1})
        assert list(read_jsonl(path)) == [{"a": 1}]  # field stripped

    def test_checksum_excludes_itself(self):
        assert record_checksum({"a": 1}) \
            == record_checksum({"a": 1, CHECKSUM_FIELD: "ff"})

    def test_corrupted_record_skipped_on_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        append_jsonl(path, {"b": 2})
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        first["a"] = 999  # in-place corruption; _ck now wrong
        path.write_text(json.dumps(first) + "\n" + lines[1] + "\n")
        assert list(read_jsonl(path)) == [{"b": 2}]

    def test_verify_false_keeps_corrupted_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        rec = json.loads(path.read_text())
        rec["a"] = 999
        path.write_text(json.dumps(rec) + "\n")
        assert list(read_jsonl(path, verify=False)) == [{"a": 999}]

    def test_checksum_optional_on_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1}, checksum=False)
        assert CHECKSUM_FIELD not in json.loads(path.read_text())
        assert list(read_jsonl(path)) == [{"a": 1}]  # legacy-style record


class TestStructLog:
    def test_events_carry_level_ts_pid_and_fields(self, tmp_path):
        log = StructLog(tmp_path / "log.jsonl")
        log.info("cell.start", cell="spmv/none")
        (rec,) = log.records()
        assert rec["event"] == "cell.start"
        assert rec["level"] == "info"
        assert rec["cell"] == "spmv/none"
        assert rec["pid"] == os.getpid()
        assert isinstance(rec["ts"], float)

    def test_bind_merges_context_into_children(self, tmp_path):
        log = StructLog(tmp_path / "log.jsonl").bind(run="r1")
        log.bind(cell="saxpy/none").info("x")
        (rec,) = log.records()
        assert rec["run"] == "r1" and rec["cell"] == "saxpy/none"

    def test_field_overrides_bound_context(self, tmp_path):
        log = StructLog(tmp_path / "log.jsonl").bind(cell="old")
        log.info("x", cell="new")
        assert log.records()[0]["cell"] == "new"

    def test_json_lines_on_disk(self, tmp_path):
        path = tmp_path / "log.jsonl"
        StructLog(path).info("e", n=3)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["n"] == 3

    def test_unwritable_path_warns_but_never_raises(self, tmp_path, capsys):
        log = StructLog(tmp_path)  # a directory: appends must fail
        log.info("a")
        log.info("b")
        err = capsys.readouterr().err
        assert err.count("warning") == 1  # warn once, then stay quiet


class TestResolveLog:
    def test_false_is_null(self):
        assert resolve_log(False) is NULL_LOG

    def test_env_unset_is_null(self, monkeypatch):
        monkeypatch.delenv(LOG_ENV, raising=False)
        assert not resolve_log(None).enabled

    def test_env_off_values_are_null(self, monkeypatch):
        for off in ("off", "0", "none", "disabled"):
            monkeypatch.setenv(LOG_ENV, off)
            assert not resolve_log(None).enabled

    def test_env_path_and_level(self, tmp_path, monkeypatch):
        # Every level is recorded (the log carries the cell lifecycle
        # stream); readers filter on each record's level field.
        monkeypatch.setenv(LOG_ENV, str(tmp_path / "env.jsonl"))
        log = resolve_log(None)
        assert log.enabled
        log.debug("a")
        log.info("b")
        assert [(r["event"], r["level"]) for r in log.records()] \
            == [("a", "debug"), ("b", "info")]

    def test_existing_log_passes_through(self, tmp_path):
        log = StructLog(tmp_path / "log.jsonl")
        assert resolve_log(log) is log

    def test_null_log_is_inert(self):
        log = NullLog()
        assert log.bind(run="x") is log
        log.debug("a")
        log.info("b")
        log.warn("c")
        log.error("d")  # nothing to assert beyond "does not raise"


class TestRunContext:
    def test_includes_git_sha_and_extras(self):
        ctx = run_context(cell="a/b")
        assert ctx["cell"] == "a/b"
        sha = ctx.get("git_sha")
        if sha is not None:  # absent outside a git checkout
            assert len(sha) <= 12


class TestLogResilience:
    def test_reader_tolerates_concurrent_style_interleaving(self, tmp_path):
        # Whole-line O_APPEND writes from different "pids" interleave at
        # line granularity; the reader must see every record.
        path = tmp_path / "log.jsonl"
        a = StructLog(path)
        b = StructLog(path)
        for i in range(10):
            (a if i % 2 else b).info("e", i=i)
        assert sorted(r["i"] for r in a.records()) == list(range(10))

    def test_records_skip_foreign_garbage(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructLog(path)
        log.info("good")
        with open(path, "a") as fh:
            fh.write("not json at all\n")
        log.info("also-good")
        events = [r.get("event") for r in log.records()]
        assert events == ["good", "also-good"]


APPENDER = """\
import sys
sys.path.insert(0, {src!r})
from repro.obs.structlog import append_jsonl
for i in range({n}):
    append_jsonl({path!r}, {{"tag": sys.argv[1], "i": i}})
"""


class TestConcurrentAppendHealing:
    def test_two_processes_heal_torn_tail_without_losing_records(
            self, tmp_path):
        """Two appenders race on one file whose tail starts torn, while
        a reader polls mid-flight: every record must land exactly once
        and the torn fragment must never corrupt a neighbour."""
        path = tmp_path / "shared.jsonl"
        append_jsonl(path, {"tag": "seed", "i": 0})
        with path.open("a") as fh:
            fh.write('{"tag": "torn", "i": 99')  # killed mid-write
        src = str((os.path.dirname(os.path.dirname(__file__))) + "/src")
        n = 200
        script = APPENDER.format(src=src, n=n, path=str(path))
        procs = [subprocess.Popen([sys.executable, "-c", script, tag])
                 for tag in ("a", "b")]
        # Poll while the writers race: the reader must only ever see
        # whole, verified records (monotonically growing).
        seen = 0
        while any(p.poll() is None for p in procs):
            records = list(read_jsonl(path))
            assert all(set(r) == {"tag", "i"} for r in records)
            assert len(records) >= seen
            seen = len(records)
            time.sleep(0.01)
        assert [p.wait() for p in procs] == [0, 0]
        records = list(read_jsonl(path))
        by_tag = {}
        for rec in records:
            by_tag.setdefault(rec["tag"], []).append(rec["i"])
        assert by_tag.pop("seed") == [0]
        assert "torn" not in by_tag  # the fragment stayed dead
        assert sorted(by_tag) == ["a", "b"]
        for tag in ("a", "b"):  # no record lost or duplicated
            assert sorted(by_tag[tag]) == list(range(n))
