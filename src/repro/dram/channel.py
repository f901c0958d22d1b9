"""One memory channel: banks, FR-FCFS scheduling, shared data bus.

The channel accepts 32 B-atom read/write requests and calls each
request's callback at data-return time.  Scheduling is first-ready
FCFS: among requests whose bank can accept a command *now*, row hits
beat row misses, then age; when nothing is issuable the channel sleeps
until the earliest bank frees up.

Writes are *posted*: the issuer's callback (if any) fires when the
write is accepted into the queue, but the write still competes for
bank/bus time — so write traffic degrades read latency, which is the
effect that matters.

Every request carries a :class:`RequestKind` so the traffic experiment
(F2) can split DRAM bytes into data / metadata / verification-fill /
writeback components without the protection layer owning counters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dram.mapping import AddressMapping
from repro.dram.timing import DramTiming
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup


class RequestKind(enum.Enum):
    """Why a DRAM access happened — the traffic-breakdown dimension."""

    DATA = "data"                  # demand data fetch
    METADATA = "metadata"          # ECC/tag metadata fetch
    VERIFY_FILL = "verify_fill"    # extra data fetched only to verify a granule
    WRITEBACK = "writeback"        # dirty data eviction
    METADATA_WRITE = "metadata_write"  # metadata update on writeback
    RETRY = "retry"                # recovery replay of a DUE granule


@dataclass
class DramRequest:
    """One 32 B-atom access."""

    addr: int
    is_write: bool
    kind: RequestKind
    callback: Optional[Callable[[], None]] = None
    #: Number of consecutive atoms (same row unless it crosses one).
    atoms: int = 1
    enqueue_time: int = field(default=0, init=False)
    # Decoded coordinates, filled in at enqueue (scheduler hot path).
    bank: int = field(default=0, init=False)
    row: int = field(default=0, init=False)


#: Larger than any bank-ready time (the empty-window minimum).
_NEVER = 1 << 62


class _Bank:
    __slots__ = ("ready_at", "open_row", "last_activate")

    def __init__(self) -> None:
        self.ready_at = 0
        self.open_row = -1
        self.last_activate = -(1 << 30)


class MemoryChannel:
    """Event-driven FR-FCFS memory channel with write draining.

    Reads and writes live in separate queues.  Reads are served
    preferentially; writes accumulate until the high watermark (or
    until no reads are pending) and then drain in a batch down to the
    low watermark — the standard controller policy that amortizes the
    read/write bus turnaround.
    """

    #: Cap on how many queued requests the scheduler scans per decision.
    SCHED_WINDOW = 32
    #: Write-drain watermarks.
    WRITE_HI = 24
    WRITE_LO = 8

    def __init__(self, name: str, sim: Simulator, timing: DramTiming,
                 stats: Optional[StatGroup] = None, atom_bytes: int = 32,
                 tracer=None):
        self.name = name
        self.sim = sim
        self.timing = timing
        self.atom_bytes = atom_bytes
        self._tracer = tracer
        #: Cached per-category answer so the disabled path is one load.
        self._trace_dram = tracer is not None and tracer.wants("dram")
        self._trace_tid = int(name[4:]) if name.startswith("dram") \
            and name[4:].isdigit() else 0
        self.mapping = AddressMapping(timing.banks, timing.row_bytes)
        self._banks = [_Bank() for _ in range(timing.banks)]
        self._read_q: List[DramRequest] = []
        self._write_q: List[DramRequest] = []
        self._write_mode = False
        self._bus_free_at = 0
        self._last_was_write = False
        self._wakeup_scheduled = False
        self._next_refresh = timing.t_refi if timing.refresh_enabled else None
        #: Scheduler memo of the last failed FR-FCFS scan (see
        #: :meth:`_choose`): until ``_blocked_until`` every tick would
        #: fail the same way, so it only re-books the wakeup for
        #: ``_soonest`` (lazily computed).  Everything the scan reads --
        #: the queues, bank ready times and open rows -- changes only in
        #: :meth:`enqueue`, :meth:`_issue` and :meth:`_maybe_refresh`,
        #: which clear it; :meth:`_update_mode` is idempotent while the
        #: queue lengths are fixed.
        self._blocked_until = 0
        self._soonest: Optional[int] = None
        #: Opt-in per-bank row-locality view; set exclusively by
        #: :class:`repro.obs.inspect.MemoryInspector`.  The hook in
        #: :meth:`_issue` guards on it, so disabled runs only pay one
        #: None-check and every counter stays bit-identical.
        self._insp = None

        group = stats.child(name) if stats is not None else StatGroup(name)
        self.stats = group
        self._reads = group.counter("reads")
        self._writes = group.counter("writes")
        self._row_hits = group.counter("row_hits")
        self._row_misses = group.counter("row_misses")
        self._refreshes = group.counter("refreshes")
        self._queue_latency = group.histogram(
            "read_latency", [50, 100, 200, 400, 800, 1600])
        #: Cycles the shared data bus spent transferring (utilization
        #: numerator for the sampler and the profile report).
        self._busy = group.counter("bus_busy_cycles")
        #: Last-observed queue depths (occupancy-style, hence gauges).
        self._read_depth = group.gauge("read_queue_depth")
        self._write_depth = group.gauge("write_queue_depth")
        self._bytes_by_kind: Dict[RequestKind, int] = {k: 0 for k in RequestKind}

    # -- public interface ---------------------------------------------------

    def enqueue(self, request: DramRequest) -> None:
        """Submit a request; its callback fires at data-return time."""
        request.enqueue_time = self.sim.now
        self._blocked_until = 0
        frame = request.addr // self.timing.row_bytes
        request.bank = frame % self.timing.banks
        request.row = frame // self.timing.banks
        (self._write_q if request.is_write else self._read_q).append(request)
        self._read_depth.set(len(self._read_q))
        self._write_depth.set(len(self._write_q))
        self._bytes_by_kind[request.kind] += request.atoms * self.atom_bytes
        if request.is_write:
            self._writes.add(request.atoms)
            # Posted write: ack immediately, keep competing for bank time.
            if request.callback is not None:
                cb = request.callback
                request.callback = None
                self.sim.schedule(0, cb)
        else:
            self._reads.add(request.atoms)
        self._wake(0)

    def bytes_by_kind(self) -> Dict[str, int]:
        """Traffic totals keyed by kind value (for F2)."""
        return {k.value: v for k, v in self._bytes_by_kind.items()}

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes_by_kind.values())

    @property
    def queue_depth(self) -> int:
        return len(self._read_q) + len(self._write_q)

    # -- scheduling ----------------------------------------------------------

    def _wake(self, delay: int) -> None:
        if not self._wakeup_scheduled:
            self._wakeup_scheduled = True
            self.sim.schedule(delay, self._tick)

    def _update_mode(self) -> None:
        if self._write_mode:
            if not self._write_q or (self._read_q
                                     and len(self._write_q) <= self.WRITE_LO):
                self._write_mode = False
        else:
            if (not self._read_q and self._write_q) \
                    or len(self._write_q) >= self.WRITE_HI:
                self._write_mode = True

    def _tick(self) -> None:
        self._wakeup_scheduled = False
        now = self.sim.now
        self._maybe_refresh(now)
        if now < self._blocked_until:
            # Nothing changed since the last failed scan: it would fail
            # again and book the same wakeup.
            self._wake(max(1, self._soonest_ready() - now))
            return
        while self._read_q or self._write_q:
            self._update_mode()
            queue = self._write_q if self._write_mode else self._read_q
            chosen = self._choose(queue, now)
            if chosen is None:
                if not self._wakeup_scheduled:
                    self._wake(max(1, self._soonest_ready() - now))
                return
            self._issue(chosen, now)
            now = self.sim.now  # unchanged; issue just books future times

    def _choose(self, queue: List[DramRequest],
                now: int) -> Optional[DramRequest]:
        """FR-FCFS over a bounded window of one queue.

        On failure, records the scheduler memo: ``_blocked_until``, the
        earliest time a bank of this window frees up (nothing in the
        window is issuable before it).
        """
        best_idx = -1
        blocked = _NEVER
        banks = self._banks
        limit = min(len(queue), self.SCHED_WINDOW)
        for idx in range(limit):
            req = queue[idx]
            bank = banks[req.bank]
            ready = bank.ready_at
            if ready > now:
                if ready < blocked:
                    blocked = ready
                continue
            if bank.open_row == req.row:
                best_idx = idx
                break  # oldest row hit wins
            if best_idx < 0:
                best_idx = idx
        if best_idx < 0:
            self._blocked_until = blocked
            self._soonest = None
            return None
        return queue.pop(best_idx)

    def _soonest_ready(self) -> int:
        """Earliest bank-ready time over both windows, computed once per
        memo (the scanned window's part is ``_blocked_until``)."""
        if self._soonest is None:
            other = self._read_q if self._write_mode else self._write_q
            banks = self._banks
            soonest = self._blocked_until
            for idx in range(min(len(other), self.SCHED_WINDOW)):
                ready = banks[other[idx].bank].ready_at
                if ready < soonest:
                    soonest = ready
            self._soonest = soonest
        return self._soonest

    def _issue(self, req: DramRequest, now: int) -> None:
        self._blocked_until = 0
        t = self.timing
        bank = self._banks[req.bank]

        access_start = max(now, bank.ready_at, self._bus_free_at - t.t_cl)
        if bank.open_row == req.row:
            self._row_hits.add(1)
            if self._insp is not None:
                self._insp.row_hits[req.bank] += 1
            cas_at = access_start
        else:
            self._row_misses.add(1)
            if self._insp is not None:
                # A different open row means a precharge (conflict); no
                # open row at all is a cold/closed-bank miss.
                (self._insp.row_conflicts if bank.open_row >= 0
                 else self._insp.row_misses)[req.bank] += 1
            precharge = t.t_rp if bank.open_row >= 0 else 0
            activate_at = access_start + precharge
            gap = bank.last_activate + t.t_rc - activate_at
            if gap > 0:
                activate_at += gap
            bank.last_activate = activate_at
            bank.open_row = req.row
            cas_at = activate_at + t.t_rcd

        data_start = cas_at + t.t_cl
        if self._last_was_write != req.is_write:
            data_start += t.t_turnaround
        self._last_was_write = req.is_write

        data_start = max(data_start, self._bus_free_at)
        data_end = data_start + t.t_burst * req.atoms
        self._bus_free_at = data_end
        self._busy.add(data_end - data_start)
        self._read_depth.set(len(self._read_q))
        self._write_depth.set(len(self._write_q))
        if self._trace_dram:
            self._tracer.complete(
                "dram", req.kind.value, req.enqueue_time,
                data_end - req.enqueue_time, tid=self._trace_tid,
                args={"bank": req.bank, "row": req.row, "atoms": req.atoms,
                      "write": req.is_write})
        # Column commands pipeline at t_CCD (~ the burst time): the bank
        # can accept its next command one burst after this CAS.  Writes
        # additionally observe write recovery before the row may close.
        if req.is_write:
            bank.ready_at = data_end + t.t_wr
        else:
            bank.ready_at = cas_at + t.t_burst * req.atoms

        if req.is_write:
            # Posted writes carry no callback, but the transfer must
            # still anchor simulated time: otherwise a run could "end"
            # before its trailing write drain has left the bus.
            self.sim.schedule_at(data_end, _noop)
        else:
            latency = data_end - req.enqueue_time
            self._queue_latency.record(latency)
            self.sim.schedule_at(data_end, req.callback or _noop)
        if self._read_q or self._write_q:
            self._wake(1)

    def _maybe_refresh(self, now: int) -> None:
        if self._next_refresh is None or now < self._next_refresh:
            return
        t = self.timing
        # Blackout: all banks unavailable for t_rfc, rows closed.
        self._blocked_until = 0
        end = now + t.t_rfc
        for bank in self._banks:
            bank.ready_at = max(bank.ready_at, end)
            bank.open_row = -1
        self._refreshes.add(1)
        self._next_refresh = now + t.t_refi


def _noop() -> None:
    """Time anchor for posted write completions."""
