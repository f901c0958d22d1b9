"""The structured log is the one cell-lifecycle stream.

Each run below writes everything under ``tmp_path``; the test reads
every JSONL file it finds there and counts lifecycle records per
(cell, status).  Every transition must appear exactly once, under the
``cell.*`` names, whichever process (serial harness, pool worker,
campaign worker or campaign parent) owned it.
"""

from collections import Counter

import pytest

from repro.analysis.harness import ExperimentHarness
from repro.cli import main
from repro.core.config import ALL_SCHEMES
from repro.obs.structlog import LOG_ENV, read_jsonl
from repro.sim.engine import SimulationError

#: Lifecycle names the repo has used; only the first may appear.
LIFECYCLE_PREFIXES = ("cell.", "worker.cell.", "campaign.cell.")


@pytest.fixture(autouse=True)
def no_env_log(monkeypatch):
    monkeypatch.delenv(LOG_ENV, raising=False)


def lifecycle(tmp_path):
    """``(counts, events)``: lifecycle records per (cell, status) over
    every JSONL file under ``tmp_path``, and every lifecycle event name
    seen, in file order."""
    counts, names = Counter(), []
    for path in sorted(tmp_path.rglob("*.jsonl")):
        for rec in read_jsonl(path):
            event = str(rec.get("event") or "")
            if rec.get("kind") == "cell":
                names.append(f"kind=cell/{rec.get('status')}")
                counts[rec.get("cell"), rec.get("status")] += 1
            elif event.startswith(LIFECYCLE_PREFIXES):
                names.append(event)
                counts[rec.get("cell"), event.rsplit(".", 1)[1]] += 1
    return counts, names


def ran_once(workload, schemes):
    return Counter({(f"{workload}/{s}", status): 1
                    for s in schemes for status in ("start", "done")})


def compare(tmp_path, *extra):
    log = tmp_path / "run.log.jsonl"
    assert main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
                 "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--log-out", str(log), *extra]) == 0
    return log


def test_serial_compare_logs_each_transition_once(tmp_path):
    compare(tmp_path)
    counts, names = lifecycle(tmp_path)
    assert counts == ran_once("vecadd", ALL_SCHEMES)
    assert set(names) == {"cell.start", "cell.done"}


def test_pool_compare_logs_each_transition_once(tmp_path, capsys):
    log = compare(tmp_path, "--workers", "2", "--live",
                  "--live-interval", "0")
    assert "6/6 cells" in capsys.readouterr().out
    counts, names = lifecycle(tmp_path)
    assert counts == ran_once("vecadd", ALL_SCHEMES)
    assert set(names) == {"cell.start", "cell.done"}
    events = [r["event"] for r in read_jsonl(log)]
    assert events.count("plan") == 1
    assert "pool.start" in events and "pool.done" in events
    # The same log, read back by `obs top`, shows the finished grid.
    assert main(["obs", "top", str(log), "--stale-after", "1e9"]) == 0
    assert "6/6 cells" in capsys.readouterr().out


def test_pool_failures_log_one_verdict_per_cell(tmp_path):
    harness = ExperimentHarness(scale=0.03, max_events=5, ledger=False,
                                log=tmp_path / "run.log.jsonl")
    with pytest.raises(SimulationError):
        harness.matrix(["vecadd"], ["none", "cachecraft"], workers=2)
    counts, names = lifecycle(tmp_path)
    assert counts == Counter({(f"vecadd/{s}", status): 1
                              for s in ("none", "cachecraft")
                              for status in ("start", "failed")})
    assert set(names) == {"cell.start", "cell.failed"}


def test_campaign_crash_logs_retry_then_verdict_once(tmp_path):
    log = tmp_path / "run.log.jsonl"
    rc = main(["campaign", "-w", "vecadd", "-s", "none,cachecraft",
               "--scale", "0.03", "--retry-backoff", "0.01",
               "--journal", str(tmp_path / "campaign.jsonl"),
               "--sabotage", "vecadd/none=crash",
               "--ledger", str(tmp_path / "ledger.jsonl"),
               "--log-out", str(log)])
    assert rc == 1  # the sabotaged cell never completes
    counts, names = lifecycle(tmp_path)
    # The crashing cell starts once per attempt; the parent logs one
    # retry between the attempts and one final verdict.
    assert counts == Counter({
        ("vecadd/none", "start"): 2, ("vecadd/none", "retry"): 1,
        ("vecadd/none", "quarantined"): 1,
        ("vecadd/cachecraft", "start"): 1, ("vecadd/cachecraft", "done"): 1,
    })
    assert all(name.startswith("cell.") for name in names)
    assert names.index("cell.retry") < names.index("cell.quarantined")
    plans = [r for r in read_jsonl(log) if r.get("event") == "plan"]
    assert [p["total"] for p in plans] == [2]
