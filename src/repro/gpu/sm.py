"""The streaming multiprocessor model.

Execution model (deliberately simple, occupancy-centric):

* each SM runs ``W`` warps, each a finite trace of warp-ops;
* one warp-op issues per cycle, round-robin over *ready* warps;
* a compute op sleeps its warp; a load blocks its warp until every
  coalesced transaction has data in the L1; stores are fire-and-forget
  through a bounded store buffer;
* the L1 is sectored, write-through no-allocate, with an MSHR file
  whose exhaustion stalls the issuing warp (the main backpressure).

This reproduces the first-order GPU behavior that matters for a memory
-protection study: when outstanding-miss capacity or DRAM bandwidth is
exhausted, added protection latency/traffic turns into lost cycles;
when occupancy can hide it, it does not.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Iterator, List, Optional, Tuple

from repro.cache.mshr import MshrFile
from repro.cache.replacement import ReplacementPolicy
from repro.cache.sectored import SectoredCache
from repro.gpu.coalescer import coalesce, coalesce_summary
from repro.gpu.crossbar import Crossbar
from repro.gpu.trace import ComputeOp, MemoryOp, WarpOp
from repro.sim.engine import Simulator
from repro.sim.resources import OccupancyLimiter
from repro.sim.stats import Counter, StatGroup


class _WarpState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"    # waiting on loads or a structural stall
    SLEEPING = "sleeping"  # compute delay
    DONE = "done"


class _Warp:
    __slots__ = ("warp_id", "ops", "state", "txns", "next_txn",
                 "outstanding", "is_store_op", "is_atomic_op", "mem_start",
                 "stall_epoch", "stall_deltas", "stall_touch")

    def __init__(self, warp_id: int, ops: Iterator[WarpOp]):
        self.warp_id = warp_id
        self.ops = ops
        self.state = _WarpState.READY
        self.txns: List[Tuple[int, int]] = []
        self.next_txn = 0
        self.outstanding = 0
        self.is_store_op = False
        self.is_atomic_op = False
        #: Trace-only: issue time of the in-flight memory op (None when
        #: tracing is off or no memory op is in flight).
        self.mem_start: Optional[int] = None
        #: Memo of the last failed issue attempt (see
        #: :meth:`StreamingMultiprocessor._advance_mem_op`): the SM
        #: epoch it failed at, the counter deltas it made and the
        #: replacement touch ``(policy, way)`` of its L1 sector hits.
        self.stall_epoch = -1
        self.stall_deltas: Tuple[Tuple[Counter, int], ...] = ()
        self.stall_touch: Optional[Tuple[ReplacementPolicy, int]] = None


class StreamingMultiprocessor:
    """One SM: warps, L1, store buffer, crossbar port."""

    RETRY_CYCLES = 4

    def __init__(self, sm_id: int, sim: Simulator, crossbar: Crossbar,
                 slices: List, route: Callable[[int], int],
                 l1_size: int = 32 * 1024, l1_ways: int = 4,
                 line_bytes: int = 128, sector_bytes: int = 32,
                 l1_latency: int = 28, l1_mshr_entries: int = 64,
                 store_buffer: int = 64,
                 stats: Optional[StatGroup] = None,
                 scheduler: str = "rr", obs=None,
                 blocking_stores: bool = False):
        if scheduler not in ("rr", "gto"):
            raise ValueError("scheduler must be 'rr' or 'gto'")
        self.sm_id = sm_id
        self.sim = sim
        self.crossbar = crossbar
        self.slices = slices
        self.route = route
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.l1_latency = l1_latency
        #: Warps wait for store/atomic acks before retiring the op
        #: (serializes the memory stream; see GpuConfig.blocking_stores).
        self.blocking_stores = blocking_stores
        self._attributor = obs.latency if obs is not None else None
        tracer = obs.tracer if obs is not None else None
        self._tracer = tracer
        self._trace_sm = tracer is not None and tracer.wants("sm")

        group = stats.child(f"sm{sm_id}") if stats is not None \
            else StatGroup(f"sm{sm_id}")
        self.stats = group
        self.l1 = SectoredCache("l1", l1_size, l1_ways, line_bytes=line_bytes,
                                sector_bytes=sector_bytes, stats=group)
        self.l1_mshrs = MshrFile("l1mshr", l1_mshr_entries, max_merges=32,
                                 stats=group)
        self.store_credits = OccupancyLimiter("storebuf", store_buffer,
                                              stats=group)
        self._instructions = group.counter("instructions")
        self._loads = group.counter("loads")
        self._stores = group.counter("stores")
        self._atomics = group.counter("atomics")
        self._load_txns = group.counter("load_transactions")
        self._store_txns = group.counter("store_transactions")
        self._stall_retries = group.counter("stall_retries")

        self._warps: List[_Warp] = []
        self._ready: Deque[_Warp] = deque()
        self._issue_scheduled = False
        self._last_issue_time = -1
        self._active_warps = 0
        self.finish_time: Optional[int] = None
        #: "rr" rotates over ready warps; "gto" (greedy-then-oldest)
        #: keeps issuing the same warp until it stalls, then falls back
        #: to the oldest ready warp — fewer live access streams at a
        #: time, friendlier to DRAM row locality.
        self.scheduler = scheduler
        self._greedy_warp: Optional[_Warp] = None
        #: Bumped by every change a failed issue attempt depends on:
        #: an issued transaction, an L2 response (L1 fill, MSHR
        #: completion) and a store-credit release.  A warp whose memo
        #: carries the current epoch would fail again exactly as before.
        self._epoch = 0

    # -- setup ---------------------------------------------------------------

    def add_warp(self, ops) -> None:
        warp = _Warp(len(self._warps), iter(ops))
        self._warps.append(warp)
        self._active_warps += 1

    def start(self) -> None:
        """Launch all warps with a small deterministic stagger.

        Perfectly lock-stepped warps form DRAM-bank convoys that make
        results chaotically sensitive to a few cycles of protection
        latency; real warps launch a few cycles apart, which
        decorrelates them.
        """
        for warp in self._warps:
            delay = (warp.warp_id * 11 + self.sm_id * 7) % 64
            self.sim.schedule(delay, self._warp_ready, warp)

    @property
    def done(self) -> bool:
        return self._active_warps == 0

    # -- issue loop ---------------------------------------------------------------

    def _wake_issue(self, delay: int = 0) -> None:
        """Schedule the next issue slot, never exceeding 1 op/cycle —
        a warp that re-readies in the same cycle (fire-and-forget
        stores) must not let the SM issue twice in one cycle."""
        if self._issue_scheduled or not self._ready:
            return
        when = max(self.sim.now + delay, self._last_issue_time + 1)
        self._issue_scheduled = True
        self.sim.schedule_at(when, self._issue)

    def _issue(self) -> None:
        self._issue_scheduled = False
        if not self._ready:
            return
        self._last_issue_time = self.sim.now
        warp = self._pick_warp()
        self._dispatch(warp)
        self._wake_issue()

    def _pick_warp(self) -> _Warp:
        if self.scheduler == "gto" and self._greedy_warp is not None:
            greedy = self._greedy_warp
            try:
                self._ready.remove(greedy)
            except ValueError:
                pass  # greedy warp stalled/slept: fall through to oldest
            else:
                return greedy
        warp = self._ready.popleft()
        self._greedy_warp = warp
        return warp

    def _dispatch(self, warp: _Warp) -> None:
        op = next(warp.ops, None)
        if op is None:
            warp.state = _WarpState.DONE
            self._active_warps -= 1
            if self._active_warps == 0:
                self.finish_time = self.sim.now
            return
        self._instructions.add(1)
        if isinstance(op, ComputeOp):
            warp.state = _WarpState.SLEEPING
            self.sim.schedule(op.cycles, self._warp_ready, warp)
            return
        assert isinstance(op, MemoryOp)
        warp.txns = coalesce(op.addresses, self.line_bytes, self.sector_bytes)
        warp.next_txn = 0
        warp.outstanding = 0
        warp.is_store_op = op.is_store
        warp.is_atomic_op = op.is_atomic
        if self._trace_sm:
            warp.mem_start = self.sim.now
        if op.is_atomic:
            self._atomics.add(1)
        elif op.is_store:
            self._stores.add(1)
        else:
            self._loads.add(1)
        warp.state = _WarpState.BLOCKED
        self._advance_mem_op(warp)

    def _warp_ready(self, warp: _Warp) -> None:
        if warp.mem_start is not None:
            kind = ("atomic" if warp.is_atomic_op
                    else "store" if warp.is_store_op else "load")
            args = coalesce_summary(warp.txns)
            args["warp"] = warp.warp_id
            self._tracer.complete(
                "sm", f"mem_{kind}", warp.mem_start,
                self.sim.now - warp.mem_start, tid=self.sm_id, args=args)
            warp.mem_start = None
        warp.state = _WarpState.READY
        self._ready.append(warp)
        self._wake_issue()

    # -- memory op progression ------------------------------------------------------

    def _advance_mem_op(self, warp: _Warp) -> None:
        """Issue remaining transactions; park on structural stalls.

        A stalled warp polls every ``RETRY_CYCLES``.  While the SM's
        epoch is unchanged, a retry would redo the failed attempt with
        the same outcome, so it replays the memoized counter deltas
        instead (bit-identical, including the event count).
        """
        if warp.stall_epoch == self._epoch:
            for counter, delta in warp.stall_deltas:
                counter.value += delta
            if warp.stall_touch is not None:
                policy, way = warp.stall_touch
                policy.on_access(way)
            self._stall_retries.add(1)
            self.sim.schedule(self.RETRY_CYCLES, self._advance_mem_op, warp)
            return
        while warp.next_txn < len(warp.txns):
            line_addr, mask = warp.txns[warp.next_txn]
            if warp.is_atomic_op:
                issued = self._issue_atomic_txn(warp, line_addr, mask)
            elif warp.is_store_op:
                issued = self._issue_store_txn(warp, line_addr, mask)
            else:
                issued = self._issue_load_txn(warp, line_addr, mask)
            if not issued:
                self._stall_retries.add(1)
                self.sim.schedule(self.RETRY_CYCLES, self._advance_mem_op, warp)
                return
            self._epoch += 1
            warp.next_txn += 1
        if (warp.is_store_op and not self.blocking_stores) \
                or warp.outstanding == 0:
            # Stores retire immediately (unless blocking); loads only if
            # everything hit.
            self._warp_ready(warp)

    def _park(self, warp: _Warp, deltas: Tuple[Tuple[Counter, int], ...],
              touch: Optional[Tuple[ReplacementPolicy, int]] = None) -> None:
        """Memoize a failed attempt's effects for its retries.  Skipped
        under introspection, whose per-set hooks only the full lookup
        path feeds."""
        if self.l1._insp is None:
            warp.stall_epoch = self._epoch
            warp.stall_deltas = deltas
            warp.stall_touch = touch

    # -- loads ------------------------------------------------------------------------

    def _issue_load_txn(self, warp: _Warp, line_addr: int, mask: int) -> bool:
        hit_mask, line = self.l1.lookup_mask(line_addr, mask,
                                             require_verified=False)
        miss_mask = mask & ~hit_mask
        if not miss_mask:
            self._load_txns.add(1)
            warp.outstanding += 1
            self.sim.schedule(self.l1_latency, self._load_credit, warp)
            return True
        existing = self.l1_mshrs.get(line_addr)
        previously = existing.sector_mask if existing else 0
        entry = self.l1_mshrs.allocate(line_addr, miss_mask,
                                       waiter=lambda: self._load_credit(warp))
        if entry is None:
            deltas, touch = self.l1.lookup_mask_effects(mask, hit_mask, line)
            self._park(warp,
                       deltas + ((self.l1_mshrs.stall_counter(line_addr), 1),),
                       touch)
            return False
        self._load_txns.add(1)
        warp.outstanding += 1
        if entry.payload is None:
            entry.payload = {"filled": 0}
        new_sectors = miss_mask & ~previously
        if new_sectors:
            self._send_load(line_addr, new_sectors)
        return True

    def _send_load(self, line_addr: int, mask: int) -> None:
        slice_id = self.route(line_addr)
        slice_obj = self.slices[slice_id]
        attributor = self._attributor
        token = attributor.issue() if attributor is not None else None
        self.crossbar.send_request(
            slice_id, 0,
            lambda: slice_obj.receive_load(
                line_addr, mask,
                lambda granted: self._queue_response(slice_id, line_addr,
                                                     granted, token),
                token))

    def _queue_response(self, slice_id: int, line_addr: int, mask: int,
                        token=None) -> None:
        sectors = mask.bit_count()
        self.crossbar.send_response(
            slice_id, sectors,
            lambda: self._on_l2_response(line_addr, mask, token))

    def _on_l2_response(self, line_addr: int, mask: int, token=None) -> None:
        self._epoch += 1
        if token is not None:
            self._attributor.complete(token)
        line, evicted = self.l1.allocate(line_addr)
        # L1 is write-through: evictions are silent, nothing to do.
        del evicted
        new_mask = mask & ~line.valid_mask
        if new_mask:
            self.l1.fill_sectors(line, new_mask, dirty=False, verified=True)
        entry = self.l1_mshrs.get(line_addr)
        if entry is None:
            return
        entry.payload["filled"] |= mask
        if entry.sector_mask & ~entry.payload["filled"]:
            return
        for waiter in self.l1_mshrs.complete(line_addr):
            waiter()

    def _load_credit(self, warp: _Warp) -> None:
        warp.outstanding -= 1
        if (warp.outstanding == 0 and warp.next_txn >= len(warp.txns)
                and warp.state is _WarpState.BLOCKED):
            self._warp_ready(warp)

    # -- stores ------------------------------------------------------------------------

    def _store_ack(self, warp: _Warp) -> None:
        """Blocking-store acknowledgment: free the store-buffer credit
        and retire the op once every transaction has been acked."""
        self._release_store_credit()
        self._load_credit(warp)

    def _release_store_credit(self) -> None:
        self._epoch += 1
        self.store_credits.release()

    def _store_ack_cb(self, warp: _Warp) -> Callable[[], None]:
        if not self.blocking_stores:
            return self._release_store_credit
        warp.outstanding += 1
        return lambda: self._store_ack(warp)

    def _issue_atomic_txn(self, warp: _Warp, line_addr: int,
                          mask: int) -> bool:
        """Atomics bypass the L1 (they execute at the L2's atomic unit)
        and invalidate any stale L1 copy of the touched sectors."""
        if not self.store_credits.try_acquire():
            self._park(warp, ((self.store_credits.full_rejections, 1),))
            return False
        self._store_txns.add(1)
        line = self.l1.probe(line_addr)
        if line is not None:
            line.valid_mask &= ~mask  # L1 copy is now stale
            line.verified_mask &= ~mask
        slice_id = self.route(line_addr)
        slice_obj = self.slices[slice_id]
        ack = self._store_ack_cb(warp)
        self.crossbar.send_request(
            slice_id, mask.bit_count(),
            lambda: slice_obj.receive_atomic(line_addr, mask, ack))
        return True

    def _issue_store_txn(self, warp: _Warp, line_addr: int,
                         mask: int) -> bool:
        if not self.store_credits.try_acquire():
            self._park(warp, ((self.store_credits.full_rejections, 1),))
            return False
        # Write-through, no-allocate: the L1 copy, if any, is updated in
        # place with no state change.
        self._store_txns.add(1)
        slice_id = self.route(line_addr)
        slice_obj = self.slices[slice_id]
        sectors = mask.bit_count()
        ack = self._store_ack_cb(warp)
        self.crossbar.send_request(
            slice_id, sectors,
            lambda: slice_obj.receive_store(line_addr, mask, ack))
        return True
