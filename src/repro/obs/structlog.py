"""Structured logging: the logs pillar of the observability stack.

The tracer answers *where cycles went inside one simulation*; the
ledger answers *what every run produced*.  This module answers the
operational question in between: **what is the execution stack doing
right now, and what did it do on the way** — cells starting and
finishing, cache hits and misses, workers spawning, retrying and
tripping watchdogs.

A :class:`StructLog` is a JSONL event log with the same durability
contract as the run ledger (:mod:`repro.obs.ledger`):

* **Appends are atomic** — one ``O_APPEND`` ``write()`` of one
  complete line, so concurrent appenders (pool workers, campaign
  subprocesses, the parent) interleave whole records, never
  half-records;
* **A torn tail is tolerated** — a record cut short by a kill is
  skipped on read and healed on the next append (a fresh line instead
  of gluing onto the fragment);
* **every record carries correlation IDs** — ``pid`` always; bound
  context (``cell``, ``fidelity``, ``run_id``, ``git_sha``, worker
  role) via :meth:`StructLog.bind`, so one grep reconstructs any
  cell's life across processes.

The log is also the run's cell lifecycle stream (``cell.*``, ``plan``
and ``heartbeat`` records, folded by :mod:`repro.obs.progress`), so
an enabled log records every call: there is no level threshold.
Each record keeps its ``level`` field, and readers filter on it.

Configuration mirrors the ledger: the ``REPRO_LOG`` environment
variable names the log file (absent = logging off), and every CLI
entry point also takes ``--log-out FILE``.  The disabled path is the
shared :data:`NULL_LOG` singleton — one truthiness test per call site.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

#: On-disk record format; bump on incompatible schema changes.
LOG_FORMAT = 1

#: Reserved per-record checksum field (see :func:`record_checksum`).
CHECKSUM_FIELD = "_ck"


def record_checksum(record: Dict[str, Any]) -> str:
    """Checksum of one JSONL record: blake2b over its canonical JSON
    form (sorted keys, :data:`CHECKSUM_FIELD` excluded).

    Stored under ``_ck`` by :func:`append_jsonl` and verified by
    :func:`read_jsonl`; records without the field (older stores) are
    accepted unverified, so the format change is purely additive.
    """
    body = {k: v for k, v in record.items() if k != CHECKSUM_FIELD}
    canon = json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    return hashlib.blake2b(canon, digest_size=8).hexdigest()

#: Environment variable naming the log file (absent/empty = off).
LOG_ENV = "REPRO_LOG"


def read_jsonl(path: Union[str, os.PathLike],
               verify: bool = True) -> Iterator[Dict[str, Any]]:
    """Yield JSON records from a JSONL file, tolerating a torn tail.

    The shared reader for every append-only JSONL artifact in this
    package (log, ledger, campaign journals): unparseable
    or non-object lines — the torn tail of a killed appender — are
    skipped, never raised.  Records carrying a ``_ck`` checksum are
    verified (and the field stripped); a mismatch — a silently
    corrupted line — is skipped like a torn one.  Records without the
    field (older stores) pass through unverified.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # torn tail from a killed appender
            if not isinstance(rec, dict):
                continue
            ck = rec.pop(CHECKSUM_FIELD, None)
            if verify and ck is not None and ck != record_checksum(rec):
                continue  # corrupted in place: treat like a torn line
            yield rec


def append_jsonl(path: Path, record: Dict[str, Any],
                 fsync: bool = False, checksum: bool = True) -> int:
    """Append one record as one atomic ``O_APPEND`` line; returns the
    number of bytes written.

    If the file's current tail is torn (no trailing newline), a
    newline is prepended so the fragment stays skippable instead of
    corrupting this record too — the ledger's heal-on-append rule.
    ``checksum`` stamps the record with ``_ck`` (see
    :func:`record_checksum`); ``fsync`` forces durability for stores
    that must survive a host crash (the campaign journal, the ledger).

    This is the instrumented seam for host-fault injection: an active
    :class:`~repro.resilience.chaos.ChaosPolicy` may tear the write or
    raise a simulated ``ENOSPC`` here.
    """
    path = Path(path)
    if checksum:
        record = dict(record)
        record[CHECKSUM_FIELD] = record_checksum(record)
    data = (json.dumps(record, sort_keys=True, default=str) + "\n")\
        .encode("utf-8")
    try:
        with path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                data = b"\n" + data
    except (OSError, ValueError):
        pass  # new/empty file: nothing to heal
    chaos = _active_chaos()
    if chaos is not None:
        data = chaos.mangle_append(path.name, data)  # may raise ENOSPC
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return len(data)


def _active_chaos():
    """Late import of :func:`repro.resilience.chaos.active_chaos` —
    obs must stay importable without the resilience package loaded."""
    from repro.resilience.chaos import active_chaos

    return active_chaos()


class NullLog:
    """Shared do-nothing logger; the default everywhere.

    Every emit method is a no-op and :meth:`bind` returns ``self``, so
    call sites can thread a logger unconditionally and pay one
    attribute load when logging is off.
    """

    enabled = False
    path: Optional[Path] = None
    context: Dict[str, Any] = {}

    def bind(self, **_context: Any) -> "NullLog":
        return self

    def log(self, level: str, event: str, **fields: Any) -> None:
        pass

    def debug(self, event: str, **fields: Any) -> None:
        pass

    def info(self, event: str, **fields: Any) -> None:
        pass

    def warn(self, event: str, **fields: Any) -> None:
        pass

    def error(self, event: str, **fields: Any) -> None:
        pass


#: The process-wide disabled logger.
NULL_LOG = NullLog()


class StructLog(NullLog):
    """JSONL event log with bound correlation context.

    ``bind(**context)`` returns a child logger appending the given
    fields to every record — the idiom for correlation IDs::

        log = StructLog("run.log.jsonl").bind(run="compare", cell="spmv/ecc")
        log.info("cell.start", scale=0.3)

    A bound child shares the parent's file; records from any number of
    processes interleave whole-line-atomically (see module docstring).
    """

    enabled = True

    def __init__(self, path: Union[str, os.PathLike],
                 context: Optional[Dict[str, Any]] = None):
        self.path = Path(path)
        self.context = dict(context or {})
        self._warned = False

    @classmethod
    def default(cls) -> NullLog:
        """The environment-configured logger (``REPRO_LOG``), or
        :data:`NULL_LOG` when unset."""
        path = os.environ.get(LOG_ENV, "").strip()
        if not path or path.lower() in ("off", "0", "none", "disabled"):
            return NULL_LOG
        return cls(path)

    def bind(self, **context: Any) -> "StructLog":
        merged = dict(self.context)
        merged.update(context)
        return StructLog(self.path, context=merged)

    # -- writing -------------------------------------------------------------

    def log(self, level: str, event: str, **fields: Any) -> None:
        """Append one record; a failing log never fails the run."""
        record: Dict[str, Any] = {
            "ts": round(time.time(), 3),
            "level": level,
            "event": event,
            "pid": os.getpid(),
        }
        record.update(self.context)
        record.update(fields)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            append_jsonl(self.path, record)
        except OSError as exc:
            if not self._warned:
                self._warned = True
                print(f"warning: structured log append to {self.path} "
                      f"failed: {exc}", file=sys.stderr)

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warn(self, event: str, **fields: Any) -> None:
        self.log("warn", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)

    # -- reading -------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """All readable records, oldest first (torn tail skipped)."""
        return list(read_jsonl(self.path))


def resolve_log(log: Union[None, bool, str, os.PathLike, NullLog]
                ) -> NullLog:
    """Normalize the ``log=`` argument accepted across the repo.

    ``None``/``True`` — the environment default (off unless
    ``REPRO_LOG`` is set); ``False`` — disabled; a path — a
    :class:`StructLog` on that file; a logger — itself.
    """
    if log is False:
        return NULL_LOG
    if log is None or log is True:
        return StructLog.default()
    if isinstance(log, NullLog):
        return log
    return StructLog(log)


def run_context(**extra: Any) -> Dict[str, Any]:
    """Standard correlation context for a new top-level logger:
    repo git SHA plus whatever the caller adds (cell, fidelity,
    worker role...)."""
    from repro.obs.ledger import git_sha

    ctx: Dict[str, Any] = {}
    sha = git_sha()
    if sha:
        ctx["git_sha"] = sha[:12]
    ctx.update(extra)
    return ctx
