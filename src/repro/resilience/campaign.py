"""Resilient campaign runner: subprocess fan-out with checkpoint/resume.

A *campaign* is a list of JSON cell specs (see
:mod:`repro.resilience.worker`).  The :class:`CampaignRunner` executes
them in parallel subprocess workers with:

* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  unhandled exception) fails only its own cell;
* **per-run timeouts** — a hung worker is killed after ``timeout``
  host seconds;
* **a failure taxonomy** — every failure is classified:

  - *transient* (the process died: signal, hard exit, timeout) —
    retried up to ``max_attempts`` times with exponential backoff,
    a configurable cap (``retry_backoff_max``) and deterministic
    per-cell jitter so retry stampedes desynchronize;
  - *persistent* (the worker ran and reported its own error JSON) —
    retried a bounded number of times (at most
    :attr:`CampaignRunner.persistent_max_attempts`) regardless of
    ``max_attempts``, because the same input will keep producing the
    same error;
  - *crash-looping* (every attempt died transiently, two or more
    times) — the cell is **quarantined**: journaled as
    ``status="quarantined"``, skipped by future resumes, surfaced in
    :class:`CampaignSummary`, ``obs top`` and the session ledger
    record.  ``repro fsck --repair`` releases quarantines, which is
    the operator's explicit "try again" signal;

* **graceful degradation** — with ``degrade=True``, a cell that
  exhausts its attempt budget (and carries no resilience config) gets
  one final rescue attempt on the functional fidelity tier,
  flagged ``degraded`` in the journal and ledger provenance;
* **a JSONL journal** — one fsynced, checksummed record per outcome
  via the shared :func:`~repro.obs.structlog.append_jsonl` path.
  Re-running with ``resume=True`` skips every cell the journal
  already marks ``done`` (or ``quarantined``), so a campaign killed
  mid-flight completes only the unfinished cells.  The journal also
  carries per-cell attempt counts across resumes, which keeps
  deterministic chaos (:mod:`repro.resilience.chaos`) drawing fresh
  fault decisions instead of re-dooming the same attempt forever.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.structlog import (LOG_ENV, NullLog, append_jsonl, read_jsonl,
                                 resolve_log, run_context)
from repro.resilience.chaos import active_chaos, stream_unit


def build_cells(workloads: Sequence[str], schemes: Sequence[str],
                scale: float = 0.3, seed: int = 42,
                gpu: Optional[Dict[str, Any]] = None,
                protection: Optional[Dict[str, Any]] = None,
                resilience: Optional[Dict[str, Any]] = None,
                max_events: Optional[int] = None,
                max_wall_seconds: Optional[float] = None,
                sabotage: Optional[Dict[str, str]] = None
                ) -> List[Dict[str, Any]]:
    """The standard workload x scheme grid as a list of cell specs.

    ``sabotage`` maps cell ids (``"workload/scheme"``) to a sabotage
    mode — a testing aid for exercising the runner's fault handling.
    """
    cells = []
    for workload in workloads:
        for scheme in schemes:
            cell_id = f"{workload}/{scheme}"
            spec: Dict[str, Any] = {
                "cell": cell_id, "workload": workload, "scheme": scheme,
                "scale": scale, "seed": seed,
            }
            if gpu:
                spec["gpu"] = dict(gpu)
            if protection:
                spec["protection"] = dict(protection)
            if resilience is not None:
                spec["resilience"] = resilience
            if max_events is not None:
                spec["max_events"] = max_events
            if max_wall_seconds is not None:
                spec["max_wall_seconds"] = max_wall_seconds
            if sabotage and cell_id in sabotage:
                spec["sabotage"] = sabotage[cell_id]
            cells.append(spec)
    return cells


@dataclass
class CampaignSummary:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    done: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    #: Cells skipped because the journal already marked them done.
    skipped: List[str] = field(default_factory=list)
    #: Crash-looping cells parked on the journal-backed quarantine
    #: list (this run or a prior one); not retried until released.
    quarantined: List[str] = field(default_factory=list)
    #: Cells rescued by the graceful-degradation hook (functional
    #: tier); they also appear in :attr:`done`.
    degraded: List[str] = field(default_factory=list)
    #: Final journal record per executed cell id.
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no cell ended in failure or quarantine."""
        return not self.failed and not self.quarantined


class _Running:
    """Bookkeeping for one in-flight worker process."""

    def __init__(self, cell: Dict[str, Any], attempt: int,
                 proc: subprocess.Popen, deadline: Optional[float],
                 degraded: bool = False):
        self.cell = cell
        self.attempt = attempt
        self.proc = proc
        self.deadline = deadline
        self.degraded = degraded
        self.started = time.monotonic()


class CampaignRunner:
    """Fans cell specs out to subprocess workers; journals outcomes."""

    #: Attempt ceiling for *persistent* failures (the worker ran and
    #: reported its own error): the same input keeps producing the
    #: same error, so retrying past this is waste.
    persistent_max_attempts = 2

    #: Minimum transient-failure count before a cell is declared
    #: crash-looping and quarantined rather than plain-failed.
    quarantine_after = 2

    def __init__(self, journal_path: str, workers: int = 2,
                 timeout: Optional[float] = None, max_attempts: int = 2,
                 retry_backoff: float = 0.5,
                 retry_backoff_max: float = 30.0,
                 degrade: bool = False,
                 python: Optional[str] = None,
                 ledger=None,
                 log: Union[None, bool, str, os.PathLike, NullLog] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if retry_backoff_max <= 0:
            raise ValueError("retry_backoff_max must be > 0")
        self.journal_path = Path(journal_path)
        self.workers = workers
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.degrade = degrade
        self.python = python or sys.executable
        #: Structured event log (:mod:`repro.obs.structlog`); workers
        #: inherit it through ``REPRO_LOG`` so one file narrates the
        #: whole campaign across processes.  The parent logs the plan
        #: and every verdict (cached/retry/failed/quarantined) — it is
        #: the authority on outcomes — while workers log their own
        #: ``cell.start``/``cell.done`` and heartbeats.
        self.log = resolve_log(log)
        if self.log.enabled:
            self.log = self.log.bind(**run_context(run="campaign",
                                                   role="parent"))
        #: Optional cross-run telemetry ledger
        #: (:class:`repro.obs.ledger.RunLedger`).  Subprocess workers
        #: cannot write it themselves — the parent appends one record
        #: per completed cell on result receipt, so campaign cells
        #: leave the same run-history trail as in-process experiments.
        self.ledger = ledger
        self._journal_warned = False
        #: Failure-class history per cell for the current invocation.
        self._fail_classes: Dict[str, List[str]] = {}
        #: Journal-derived attempt counts from prior invocations, so
        #: chaos decision sites keep advancing across resumes.
        self._attempt_offset: Dict[str, int] = {}

    # -- journal ---------------------------------------------------------------

    def journal_state(self) -> Tuple[Dict[str, Dict[str, Any]],
                                     Dict[str, Dict[str, Any]],
                                     Dict[str, int]]:
        """Fold the journal into ``(done, quarantined, attempts)``.

        ``done`` and ``quarantined`` map cell ids to their latest
        terminal record (a later ``done`` releases an earlier
        quarantine — fsck rewrote the journal, or an operator reran
        the cell); ``attempts`` carries the highest attempt number
        each cell has burned across all prior invocations.
        """
        done: Dict[str, Dict[str, Any]] = {}
        quarantined: Dict[str, Dict[str, Any]] = {}
        attempts: Dict[str, int] = {}
        for record in read_jsonl(self.journal_path):
            cell = record.get("cell")
            if not cell:
                continue
            n = record.get("attempts")
            if isinstance(n, int):
                attempts[cell] = max(attempts.get(cell, 0), n)
            status = record.get("status")
            if status == "done":
                done[cell] = record
                quarantined.pop(cell, None)
            elif status == "quarantined":
                quarantined[cell] = record
        return done, quarantined, attempts

    def _journal(self, record: Dict[str, Any]) -> None:
        """Append one fsynced journal record (best-effort: a full disk
        must degrade to re-running cells on resume, not kill the
        campaign mid-sweep)."""
        try:
            append_jsonl(self.journal_path, record, fsync=True)
        except OSError as exc:
            if not self._journal_warned:
                self._journal_warned = True
                print(f"warning: campaign journal append to "
                      f"{self.journal_path} failed: {exc}", file=sys.stderr)
            self.log.warn("campaign.journal.append_failed", error=str(exc))

    def retry_delay(self, cell_id: str, attempt: int) -> float:
        """Backoff before retrying ``cell_id`` after failed ``attempt``:
        exponential growth from ``retry_backoff``, capped at
        ``retry_backoff_max``, scaled by a deterministic per-cell
        jitter factor in ``[0.5, 1.5)`` so simultaneous failures do
        not retry in lockstep."""
        base = min(self.retry_backoff * (2 ** (attempt - 1)),
                   self.retry_backoff_max)
        jitter = 0.5 + stream_unit(0, f"jitter:{cell_id}:{attempt}")
        return round(base * jitter, 6)

    @staticmethod
    def classify_failure(result: Dict[str, Any]) -> str:
        """``"transient"`` or ``"persistent"`` for one failed harvest.

        The worker *reporting its own error* (exit 1 with a
        ``status="error"`` JSON object) means the input is bad in a
        repeatable way — persistent.  Everything else (signal death,
        hard exit without a report, timeout) is the host's fault —
        transient, worth a full retry budget.
        """
        if result.get("timeout"):
            return "transient"
        if result.get("worker_reported") and result.get("returncode") == 1:
            return "persistent"
        return "transient"

    def _degradable(self, cell: Dict[str, Any]) -> bool:
        """Can this cell be rescued on the functional tier?  Only
        event-fidelity cells without a resilience config — the
        functional tier rejects fault injection by design."""
        return (cell.get("resilience") is None
                and cell.get("fidelity", "event") == "event")

    def _ledger_append(self, cell: Dict[str, Any],
                       result: Dict[str, Any]) -> None:
        """Cross-run telemetry for one completed cell (parent-side)."""
        if self.ledger is None:
            return
        # Imported lazily: the ledger is optional equipment here.
        from repro.obs.ledger import record_from_cell

        self.ledger.safe_append(record_from_cell(
            result, scale=cell.get("scale"), seed=cell.get("seed")))

    # -- workers ---------------------------------------------------------------

    def _spawn(self, cell: Dict[str, Any], attempt: int,
               degraded: bool = False) -> _Running:
        spec = cell
        if degraded:
            # Rescue attempts run the counters-only tier and are
            # exempt from worker chaos: the point is to salvage a
            # result, not to keep attacking it.
            spec = dict(cell)
            spec["fidelity"] = "functional"
            spec["degraded"] = True
            spec.pop("chaos_attempt", None)
        elif active_chaos() is not None:
            spec = dict(cell)
            spec["chaos_attempt"] = (
                self._attempt_offset.get(cell["cell"], 0) + attempt)
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        # The log crosses the subprocess boundary by path.
        if self.log.enabled:
            env[LOG_ENV] = str(self.log.path)
        proc = subprocess.Popen(
            [self.python, "-m", "repro.resilience.worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)
        assert proc.stdin is not None
        proc.stdin.write(json.dumps(spec))
        proc.stdin.close()
        # communicate() must not try to flush the already-closed pipe.
        proc.stdin = None
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        return _Running(cell, attempt, proc, deadline, degraded)

    @staticmethod
    def _harvest(run: _Running) -> Dict[str, Any]:
        """Collect a finished worker's result (or error description).

        Error results carry the raw material the failure taxonomy
        classifies on: the exit status and whether the worker managed
        to report its own ``status="error"`` object (ran-but-rejected,
        versus died-without-a-word).
        """
        stdout, stderr = run.proc.communicate()
        rc = run.proc.returncode
        if rc == 0:
            for line in stdout.splitlines():
                line = line.strip()
                if line.startswith("{"):
                    try:
                        return json.loads(line)
                    except ValueError:
                        break
        error = f"worker exited with status {rc}"
        worker_reported = False
        for line in stdout.splitlines():  # worker's own error object
            line = line.strip()
            if line.startswith("{"):
                try:
                    parsed = json.loads(line)
                    if parsed.get("error"):
                        error = parsed["error"]
                        worker_reported = True
                except ValueError:
                    pass
        if stderr.strip():
            error += f"; stderr: {stderr.strip().splitlines()[-1]}"
        return {"status": "error", "error": error, "returncode": rc,
                "worker_reported": worker_reported}

    # -- the sweep --------------------------------------------------------------

    def run(self, cells: Sequence[Dict[str, Any]], resume: bool = True,
            progress=None) -> CampaignSummary:
        """Execute a campaign; returns its :class:`CampaignSummary`.

        ``progress`` is an optional callable receiving one line of
        human-readable status per event (spawn/done/fail/retry).
        """
        summary = CampaignSummary()
        started_at = time.monotonic()
        say = progress or (lambda _line: None)
        self._fail_classes = {}
        done, quarantined, self._attempt_offset = (
            self.journal_state() if resume else ({}, {}, {}))
        if not resume and self.journal_path.exists():
            self.journal_path.unlink()
        pending: List[tuple] = []  # (not_before, attempt, cell, degraded)
        # The plan comes first: `obs top` folds from the last plan on,
        # so the resumed verdicts below belong to this run's frame.
        self.log.info("plan", total=len(cells))
        for cell in cells:
            cell_id = cell["cell"]
            if cell_id in done:
                summary.skipped.append(cell_id)
                summary.records[cell_id] = done[cell_id]
                # Resumed cells are resolved without simulation — the
                # campaign analogue of a cache hit.
                self.log.info("cell.cached", cell=cell_id, source="journal")
                continue
            if cell_id in quarantined:
                # Journal-backed quarantine: crash-looping cells stay
                # parked until `repro fsck --repair` releases them.
                summary.quarantined.append(cell_id)
                summary.records[cell_id] = quarantined[cell_id]
                self.log.warn("cell.quarantined", cell=cell_id,
                              error=quarantined[cell_id].get("error"),
                              source="journal")
                say(f"QUAR  {cell_id} (quarantined; "
                    f"`repro fsck --repair` releases)")
                continue
            pending.append((0.0, 1, cell, False))
        self.log.info("campaign.start", cells=len(cells),
                      skipped=len(summary.skipped),
                      quarantined=len(summary.quarantined),
                      workers=self.workers,
                      journal=str(self.journal_path))
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        running: List[_Running] = []
        try:
            while pending or running:
                now = time.monotonic()
                # Launch while capacity and due work exist.
                while len(running) < self.workers:
                    due = next((i for i, entry in enumerate(pending)
                                if entry[0] <= now), None)
                    if due is None:
                        break
                    _nb, attempt, cell, degraded = pending.pop(due)
                    run = self._spawn(cell, attempt, degraded)
                    running.append(run)
                    self.log.info("campaign.worker.spawn",
                                  cell=cell["cell"], attempt=attempt,
                                  degraded=degraded,
                                  worker_pid=run.proc.pid)
                    say(f"start {cell['cell']} (attempt {attempt}"
                        + (", degraded rescue)" if degraded else ")"))
                # Poll in-flight workers.
                still: List[_Running] = []
                for run in running:
                    code = run.proc.poll()
                    timed_out = (code is None and run.deadline is not None
                                 and now >= run.deadline)
                    if code is None and not timed_out:
                        still.append(run)
                        continue
                    if timed_out:
                        run.proc.kill()
                        run.proc.communicate()
                        result = {"status": "error",
                                  "error": f"timeout after {self.timeout}s",
                                  "timeout": True}
                        self.log.warn("campaign.worker.timeout",
                                      cell=run.cell["cell"],
                                      attempt=run.attempt,
                                      worker_pid=run.proc.pid,
                                      timeout=self.timeout)
                    else:
                        result = self._harvest(run)
                    elapsed = round(time.monotonic() - run.started, 3)
                    cell_id = run.cell["cell"]
                    if result.get("status") == "ok":
                        record = {"cell": cell_id, "status": "done",
                                  "attempts": run.attempt,
                                  "elapsed": elapsed, "result": result}
                        if run.degraded:
                            record["degraded"] = True
                        self._journal(record)
                        summary.done.append(cell_id)
                        if run.degraded:
                            summary.degraded.append(cell_id)
                        summary.records[cell_id] = result
                        self._ledger_append(run.cell, result)
                        say(f"done  {cell_id} ({elapsed}s"
                            + (", degraded)" if run.degraded else ")"))
                        continue
                    error = result.get("error", "unknown failure")
                    fclass = self.classify_failure(result)
                    history = self._fail_classes.setdefault(cell_id, [])
                    history.append(fclass)
                    budget = (self.max_attempts if fclass == "transient"
                              else min(self.max_attempts,
                                       self.persistent_max_attempts))
                    if not run.degraded and run.attempt < budget:
                        delay = self.retry_delay(cell_id, run.attempt)
                        self._journal({"cell": cell_id,
                                       "status": "attempt_failed",
                                       "attempts": run.attempt,
                                       "class": fclass,
                                       "error": error, "retry_in": delay})
                        pending.append((time.monotonic() + delay,
                                        run.attempt + 1, run.cell, False))
                        self.log.warn("cell.retry", cell=cell_id,
                                      attempt=run.attempt + 1, error=error,
                                      failure_class=fclass, retry_in=delay)
                        say(f"retry {cell_id}: {error} [{fclass}] "
                            f"(attempt {run.attempt + 1} in {delay}s)")
                    elif (self.degrade and not run.degraded
                          and self._degradable(run.cell)):
                        # Graceful degradation: one rescue attempt on
                        # the functional tier before giving up.
                        self._journal({"cell": cell_id,
                                       "status": "degrading",
                                       "attempts": run.attempt,
                                       "class": fclass, "error": error})
                        pending.append((time.monotonic(),
                                        run.attempt + 1, run.cell, True))
                        self.log.warn("cell.retry", cell=cell_id,
                                      attempt=run.attempt + 1, error=error,
                                      failure_class=fclass, degraded=True)
                        say(f"degrade {cell_id}: {error} "
                            f"(functional-tier rescue)")
                    else:
                        crash_looping = (
                            len(history) >= self.quarantine_after
                            and all(c == "transient" for c in history))
                        status = ("quarantined" if crash_looping
                                  else "failed")
                        record = {"cell": cell_id, "status": status,
                                  "attempts": run.attempt, "error": error,
                                  "classes": list(history),
                                  "elapsed": elapsed}
                        if crash_looping:
                            record["class"] = "crash-looping"
                        self._journal(record)
                        summary.records[cell_id] = record
                        if crash_looping:
                            summary.quarantined.append(cell_id)
                            self.log.error("cell.quarantined",
                                           cell=cell_id,
                                           attempts=run.attempt, error=error)
                            say(f"QUAR  {cell_id}: {error} "
                                f"(crash-looping; `repro fsck --repair` "
                                f"releases)")
                        else:
                            summary.failed.append(cell_id)
                            self.log.error("cell.failed",
                                           cell=cell_id,
                                           attempts=run.attempt, error=error)
                            say(f"FAIL  {cell_id}: {error}")
                running = still
                if pending or running:
                    time.sleep(0.02)
        finally:
            for run in running:  # interrupted: leave no orphans behind
                try:
                    run.proc.kill()
                    run.proc.communicate()
                except (OSError, ValueError):
                    pass
        wall_seconds = round(time.monotonic() - started_at, 3)
        self.log.info("campaign.done", done=len(summary.done),
                      failed=len(summary.failed),
                      skipped=len(summary.skipped),
                      quarantined=len(summary.quarantined),
                      degraded=len(summary.degraded),
                      wall_seconds=wall_seconds)
        self._session_record(summary, wall_seconds)
        return summary

    def _session_record(self, summary: CampaignSummary,
                        wall_seconds: float) -> None:
        """One ``kind="session"`` ledger record closing the campaign,
        linking it to its structured log."""
        if self.ledger is None:
            return
        from repro.obs.ledger import record_from_session

        self.ledger.safe_append(record_from_session(
            "campaign",
            {"cells_total": (len(summary.done) + len(summary.failed)
                             + len(summary.skipped)
                             + len(summary.quarantined)),
             "cells_done": len(summary.done),
             "cells_failed": len(summary.failed),
             "cells_cached": len(summary.skipped),
             "cells_quarantined": len(summary.quarantined),
             "cells_degraded": len(summary.degraded),
             "wall_seconds": wall_seconds},
            log_path=str(self.log.path) if self.log.enabled else None))
