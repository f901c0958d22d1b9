"""The functional fidelity tier: event-free traffic simulation.

``SystemConfig(fidelity="functional")`` replays the same materialized
warp traces through the *same* ``SectoredCache`` / MSHR-merge /
``mdcache`` / protection-scheme state machines as the discrete-event
tier — but with no event heap, no cycle clock and no per-event
dispatch overhead.  Three pieces make that possible:

``ImmediateQueue``
    Duck-types the :class:`~repro.sim.engine.Simulator` scheduling
    surface (``now`` / ``schedule`` / ``schedule_at`` /
    ``schedule_daemon``) as a plain FIFO micro-task queue.  The L2
    slices, every protection scheme, the dedicated metadata caches and
    CacheCraft's reconstruction buffer touch the engine *only* through
    that surface, so they run **verbatim** — zero functional-mode
    reimplementation of the layer the paper is about.  Delays are
    dropped; completion *order* is preserved (FIFO), which is exactly
    event order when the memory stream is serialized (below).

``FunctionalChannel``
    Mirrors :class:`~repro.dram.channel.MemoryChannel`'s enqueue-time
    accounting (bytes by :class:`~repro.dram.channel.RequestKind`,
    read/write atom counters, posted-write acks) and fires read
    callbacks through the queue instead of the FR-FCFS timing model.

``FunctionalSm``
    A tight-loop warp replayer with the event SM's exact counter
    semantics: coalesce once per memory op, probe the same sectored
    L1, allocate/merge in the same ``MshrFile``, take the same
    store-buffer credits — then drive each transaction straight into
    ``L2Slice.receive_load/store/atomic`` and drain the queue.

**Parity contract** (enforced by ``tests/test_fidelity_parity.py``):
on a *serialized memory stream* — one SM, one warp, one lane,
``blocking_stores=True`` — every traffic, hit/miss,
eviction/writeback and metadata counter matches the event tier
bit-for-bit.  Timing-only statistics (cycles, DRAM row/bus/queue
figures, crossbar ports, latency attribution) are absent; the
explicit list is :data:`TIMING_ONLY_STAT_PATTERNS`.  On *concurrent*
configurations the functional tier is still deterministic and its
counters remain valid hit/miss accounting, but concurrency-window
effects (MSHR merge timing, reconstruction-buffer merging, FR-FCFS
install order) make small event-vs-functional deviations expected —
see docs/PERFORMANCE.md ("Fidelity tiers").
"""

from __future__ import annotations

import re
import time
from collections import OrderedDict, deque
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.mshr import MshrFile
from repro.cache.sectored import SectoredCache
from repro.dram.channel import DramRequest, RequestKind
from repro.gpu.coalescer import coalesce
from repro.gpu.trace import ComputeOp, MemoryOp, WarpOp
from repro.sim.engine import SimulationError
from repro.sim.resources import OccupancyLimiter
from repro.sim.stats import StatGroup


def _noop(*_args) -> None:
    return None


class ImmediateQueue:
    """A FIFO micro-task queue duck-typing the Simulator surface.

    ``schedule``/``schedule_at`` append; ``drain`` pops and calls in
    order.  ``now`` is always 0 (there is no clock) and daemons never
    fire (they exist to sample timing).  Because every component above
    DRAM schedules its own continuations through this surface, FIFO
    drain order equals event order whenever at most one memory op is
    in flight — the serialized-stream parity condition.
    """

    #: There is no clock; components may read ``sim.now`` freely.
    now = 0

    def __init__(self) -> None:
        self._q: deque = deque()
        self.events_executed = 0
        #: Optional budgets (mirroring Simulator.run's safety valves).
        self.max_events: Optional[int] = None
        self._deadline: Optional[float] = None

    # -- Simulator surface ---------------------------------------------------

    def schedule(self, _delay: int, fn: Callable, *args) -> None:
        self._q.append((fn, args))

    def schedule_at(self, _when: int, fn: Callable, *args) -> None:
        self._q.append((fn, args))

    def schedule_daemon(self, _interval: int, _fn: Callable, *args) -> None:
        """Daemons sample timing; there is none to sample."""

    def pending(self) -> int:
        return len(self._q)

    # -- budgets -------------------------------------------------------------

    def set_budget(self, max_events: Optional[int] = None,
                   max_wall_seconds: Optional[float] = None) -> None:
        self.max_events = max_events
        self._deadline = (time.monotonic() + max_wall_seconds
                          if max_wall_seconds is not None else None)

    # -- execution -----------------------------------------------------------

    def drain(self) -> None:
        """Run queued micro-tasks (and whatever they enqueue) to
        exhaustion, honoring the optional budgets.

        The budget check runs *before* each pop: with
        ``max_events=N``, at most ``N`` micro-tasks execute across the
        whole run — a run whose total work fits the budget completes,
        and a (N+1)-th pending task raises without running.  (The
        historical comparison ran budget+1 tasks before noticing,
        off-by-one against the documented safety-valve contract.)
        """
        q = self._q
        popleft = q.popleft
        executed = self.events_executed
        budget = self.max_events
        deadline = self._deadline
        while q:
            if budget is not None and executed >= budget:
                self.events_executed = executed
                raise SimulationError(
                    f"functional run exceeded max_events={budget}")
            fn, args = popleft()
            fn(*args)
            executed += 1
            if deadline is not None and not executed % 65536 \
                    and time.monotonic() > deadline:
                self.events_executed = executed
                raise SimulationError(
                    "functional run exceeded the wall-clock budget")
        self.events_executed = executed


class FunctionalChannel:
    """Enqueue-time DRAM accounting with no timing model.

    Byte/atom accounting matches
    :meth:`repro.dram.channel.MemoryChannel.enqueue` exactly (it all
    happens at enqueue there too); reads complete through the queue,
    writes are posted.  The FR-FCFS machinery's statistics (row
    hits/misses, refreshes, bus busy, queue depths, read-latency
    histogram) are timing-only and deliberately absent.
    """

    def __init__(self, name: str, sim: ImmediateQueue,
                 stats: Optional[StatGroup] = None, atom_bytes: int = 32):
        self.name = name
        self.sim = sim
        self.atom_bytes = atom_bytes
        group = stats.child(name) if stats is not None else StatGroup(name)
        self.stats = group
        self._reads = group.counter("reads")
        self._writes = group.counter("writes")
        self._bytes_by_kind: Dict[RequestKind, int] = \
            {k: 0 for k in RequestKind}

    def enqueue(self, request: DramRequest) -> None:
        self._bytes_by_kind[request.kind] += request.atoms * self.atom_bytes
        if request.is_write:
            # Posted write: ack immediately (same as the timing model).
            self._writes.add(request.atoms)
        else:
            self._reads.add(request.atoms)
        # Schedule the completion without mutating the caller's
        # request: nulling ``request.callback`` here (as the timing
        # channel may, because it keeps the object queued) would
        # silently drop the ack if the same object were re-enqueued by
        # a retry/replay path.
        if request.callback is not None:
            self.sim.schedule(0, request.callback)

    def bytes_by_kind(self) -> Dict[str, int]:
        return {k.value: v for k, v in self._bytes_by_kind.items()}

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes_by_kind.values())


class FunctionalSm:
    """Tight-loop warp replayer with the event SM's counter semantics.

    Creates the same per-SM statistics tree (``sm{i}``: instructions /
    loads / stores / atomics / load_transactions / store_transactions /
    stall_retries, the sectored L1, the L1 MSHR file and the
    store-buffer limiter) so the flattened result is key-compatible
    with the event tier.  Structural stalls cannot occur — the queue
    is drained after every memory op, so MSHRs and store credits are
    always free — hence ``stall_retries`` stays 0, matching the event
    tier on serialized streams.
    """

    def __init__(self, sm_id: int, sim: ImmediateQueue, slices: List,
                 route: Callable[[int], int], l1_size: int = 32 * 1024,
                 l1_ways: int = 4, line_bytes: int = 128,
                 sector_bytes: int = 32, l1_mshr_entries: int = 64,
                 store_buffer: int = 64,
                 stats: Optional[StatGroup] = None):
        self.sm_id = sm_id
        self.sim = sim
        self.slices = slices
        self.route = route
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes

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
        # Always 0 here; created for stat-key parity with the event SM.
        group.counter("stall_retries")

        self._warps: List[Iterator[WarpOp]] = []

    # -- setup (same surface as StreamingMultiprocessor) ---------------------

    def add_warp(self, ops) -> None:
        self._warps.append(iter(ops))

    @property
    def num_warps(self) -> int:
        return len(self._warps)

    @property
    def done(self) -> bool:
        return not self._warps

    # -- replay --------------------------------------------------------------

    def step(self, warp_index: int) -> bool:
        """Replay one op of one warp; False when the warp is done."""
        op = next(self._warps[warp_index], None)
        if op is None:
            return False
        self._instructions.add(1)
        if isinstance(op, ComputeOp):
            return True
        assert isinstance(op, MemoryOp)
        txns = coalesce(op.addresses, self.line_bytes, self.sector_bytes)
        if op.is_atomic:
            self._atomics.add(1)
            issue = self._atomic_txn
        elif op.is_store:
            self._stores.add(1)
            issue = self._store_txn
        else:
            self._loads.add(1)
            issue = self._load_txn
        for line_addr, mask in txns:
            issue(line_addr, mask)
        # Complete the whole op (fills, writebacks, metadata traffic)
        # before the next one issues — the serialized-stream condition.
        self.sim.drain()
        return True

    # -- loads (mirrors StreamingMultiprocessor._issue_load_txn) -------------

    def _load_txn(self, line_addr: int, mask: int) -> None:
        hit_mask, _line = self.l1.lookup_mask(line_addr, mask,
                                              require_verified=False)
        miss_mask = mask & ~hit_mask
        if not miss_mask:
            self._load_txns.add(1)
            return
        existing = self.l1_mshrs.get(line_addr)
        previously = existing.sector_mask if existing else 0
        entry = self.l1_mshrs.allocate(line_addr, miss_mask, waiter=_noop)
        if entry is None:
            # Event semantics: drain (frees entries — the functional
            # "retry"), and redo from the lookup.
            self.sim.drain()
            self._load_txn(line_addr, mask)
            return
        self._load_txns.add(1)
        if entry.payload is None:
            entry.payload = {"filled": 0}
        new_sectors = miss_mask & ~previously
        if new_sectors:
            slice_obj = self.slices[self.route(line_addr)]
            slice_obj.receive_load(
                line_addr, new_sectors,
                lambda granted: self._l1_fill(line_addr, granted))

    def _l1_fill(self, line_addr: int, mask: int) -> None:
        """Mirror of the event SM's ``_on_l2_response``."""
        line, evicted = self.l1.allocate(line_addr)
        del evicted  # L1 is write-through: evictions are silent.
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

    # -- stores/atomics ------------------------------------------------------

    def _acquire_store_credit(self) -> None:
        if self.store_credits.try_acquire():
            return
        # Event semantics: park and retry; functionally a drain always
        # frees credits (acks are queued completions).
        self.sim.drain()
        if not self.store_credits.try_acquire():
            raise SimulationError(
                "store-buffer credit unavailable after drain "
                "(functional-tier invariant violated)")

    def _atomic_txn(self, line_addr: int, mask: int) -> None:
        self._acquire_store_credit()
        self._store_txns.add(1)
        line = self.l1.probe(line_addr)
        if line is not None:
            line.valid_mask &= ~mask  # L1 copy is now stale
            line.verified_mask &= ~mask
        self.slices[self.route(line_addr)].receive_atomic(
            line_addr, mask, self.store_credits.release)

    def _store_txn(self, line_addr: int, mask: int) -> None:
        self._acquire_store_credit()
        self._store_txns.add(1)  # write-through, no-allocate
        self.slices[self.route(line_addr)].receive_store(
            line_addr, mask, self.store_credits.release)


def replay(sms: List[FunctionalSm], queue: ImmediateQueue) -> None:
    """Drive all warps round-robin (one op per warp per round) until
    every trace is exhausted — the functional analogue of the event
    tier's ready-warp rotation."""
    active: List[Tuple[FunctionalSm, int]] = [
        (sm, w) for sm in sms for w in range(sm.num_warps)]
    while active:
        active = [(sm, w) for sm, w in active if sm.step(w)]
    for sm in sms:
        sm._warps.clear()
    queue.drain()


# -- columnar (vectorized) replay --------------------------------------------


class _ColumnarSmState:
    """Per-SM lean replay state for :func:`replay_columnar`.

    Replicates the *observable* behavior of the scalar
    :class:`FunctionalSm` front end — the exact LRU sectored L1,
    MSHR/store-credit accounting and every flattened counter — with
    plain dicts and local integers instead of per-access
    :class:`~repro.sim.stats.Counter` calls and state-machine
    dispatch.  One ``OrderedDict`` per set models true LRU exactly:
    insertion order is fill order, ``move_to_end`` is the hit
    promotion, ``popitem(last=False)`` the victim choice (the scalar
    cache fills invalid ways first, but every fill becomes MRU
    regardless of which physical way it landed in, so the dict's
    recency order and the way-list policy order are the same total
    order).  Each entry is a one-element list holding the valid
    sector mask; a line whose mask was zeroed by atomics stays
    resident (tag match, all sectors miss) and, like the scalar
    cache, does not count as an eviction when displaced.
    """

    __slots__ = ("sets", "num_sets", "ways", "pending", "capacity",
                 "credits", "hits", "sector_misses", "line_misses",
                 "line_miss_sectors", "evictions", "mshr_allocs",
                 "rejections")

    def __init__(self, sm: FunctionalSm):
        l1 = sm.l1
        self.num_sets = l1.num_sets
        self.ways = l1.ways
        self.sets: List[OrderedDict] = [
            OrderedDict() for _ in range(l1.num_sets)]
        #: line -> sector mask still awaiting L2 fill (the lean MSHR
        #: file; must be empty at every op boundary on the serialized
        #: replay, which :func:`replay_columnar` asserts).
        self.pending: Dict[int, int] = {}
        self.capacity = sm.store_credits.capacity
        self.credits = 0
        self.hits = 0
        self.sector_misses = 0
        self.line_misses = 0
        self.line_miss_sectors = 0
        self.evictions = 0
        self.mshr_allocs = 0
        self.rejections = 0

    def fill(self, line_addr: int, granted: int) -> None:
        """L2 fill callback — mirror of :meth:`FunctionalSm._l1_fill`:
        allocate (evicting like the scalar cache, without promotion of
        an already-resident line), install the granted sectors, retire
        the pending-fill entry."""
        sd = self.sets[line_addr % self.num_sets]
        ent = sd.get(line_addr)
        if ent is None:
            if len(sd) >= self.ways:
                _victim, vent = sd.popitem(last=False)
                if vent[0]:
                    self.evictions += 1
            ent = [0]
            sd[line_addr] = ent
        ent[0] |= granted
        rem = self.pending.get(line_addr)
        if rem is not None:
            rem &= ~granted
            if rem:
                self.pending[line_addr] = rem
            else:
                del self.pending[line_addr]

    def release(self) -> None:
        """Store/atomic ack from the L2 — frees one store credit."""
        self.credits -= 1


def replay_columnar(compiled, sms: List[FunctionalSm],
                    slices: List, queue: ImmediateQueue,
                    slice_chunk_bytes: int) -> None:
    """Vectorized functional replay of a columnar trace artifact.

    Bit-for-bit equivalent to :func:`replay` over the same traces on
    **any** configuration: the scalar loop drains the queue after
    every memory op, so execution is serialized at op granularity and
    its round-robin rotation is a fixed total order — which
    :func:`repro.gpu.columnar.round_robin_order` precomputes.  With
    the order and the per-op coalesced transactions both compile-time
    data, replay reduces to:

    * **batched bookkeeping** — instruction/op-kind/transaction
      counters are exact functions of the artifact, summed per SM in
      numpy and added once (compute ops cost *nothing* per-op);
    * **a lean L1 pass** (:class:`_ColumnarSmState`) over the
      transaction columns, touching local integers on the hit path;
    * **the verbatim L2/scheme machinery** for every miss, store and
      atomic — exactly the micro-tasks the scalar tier runs, drained
      at the same op boundaries, so the protection-layer state
      machines (the part the paper is about) are never reimplemented.

    Raises :class:`SimulationError` if an L2 fill fails to complete
    inside its op's drain (impossible on the serialized contract; the
    guard keeps a future concurrent L2 model from silently breaking
    counter parity).
    """
    import numpy as np

    from repro.gpu.columnar import (OP_ATOMIC, OP_COMPUTE, OP_LOAD,
                                    round_robin_order)

    for sm in sms:
        if sm.l1._policy_name != "lru":
            raise ValueError("columnar replay models the functional "
                             "tier's LRU L1 only")
    n = len(sms)
    if compiled.num_ops == 0 or n == 0:
        for sm in sms:
            sm._warps.clear()
        queue.drain()
        return

    # Execution order and per-op attribution (see round_robin_order).
    counts = np.diff(compiled.warp_ptr)
    op_warp = np.repeat(np.arange(compiled.num_warps, dtype=np.int64),
                        counts)
    op_sm = compiled.warp_sm.astype(np.int64)[op_warp]
    order = round_robin_order(compiled, n)
    kind = compiled.op_kind
    txn_counts = np.diff(compiled.op_txn_ptr)

    # Batched static counters: exact per-SM sums over executed ops.
    k_sm = op_sm[order]
    k_kind = kind[order]
    k_txns = txn_counts[order]
    is_load = k_kind == OP_LOAD
    is_atomic = k_kind == OP_ATOMIC
    is_store_like = k_kind >= 2  # OP_STORE | OP_ATOMIC
    instructions = np.bincount(k_sm, minlength=n)
    loads = np.bincount(k_sm[is_load], minlength=n)
    atomics = np.bincount(k_sm[is_atomic], minlength=n)
    stores = np.bincount(k_sm[is_store_like & ~is_atomic], minlength=n)
    load_txns = np.bincount(k_sm[is_load], weights=k_txns[is_load],
                            minlength=n)
    store_txns = np.bincount(k_sm[is_store_like],
                             weights=k_txns[is_store_like], minlength=n)

    # Per-transaction slice routing, vectorized once.
    num_slices = len(slices)
    routes = ((compiled.txn_line * compiled.line_bytes)
              // slice_chunk_bytes) % num_slices

    # The memory-op schedule as plain python lists (plain-int access
    # in the hot loop is much faster than numpy scalar extraction).
    sel = order[kind[order] != OP_COMPUTE]
    sched_kind = kind[sel].tolist()
    sched_sm = op_sm[sel].tolist()
    sched_start = compiled.op_txn_ptr[sel].tolist()
    sched_end = compiled.op_txn_ptr[sel + 1].tolist()
    tl = compiled.txn_line.tolist()
    tm = compiled.txn_mask.tolist()
    rt = routes.tolist()

    states = [_ColumnarSmState(sm) for sm in sms]
    drain = queue.drain
    for i in range(len(sched_kind)):
        st = states[sched_sm[i]]
        k = sched_kind[i]
        s = sched_start[i]
        e = sched_end[i]
        if k == OP_LOAD:
            sets = st.sets
            nsets = st.num_sets
            pending = st.pending
            missed = False
            for t in range(s, e):
                line = tl[t]
                mask = tm[t]
                sd = sets[line % nsets]
                ent = sd.get(line)
                if ent is None:
                    st.line_misses += 1
                    st.line_miss_sectors += mask.bit_count()
                    miss = mask
                else:
                    valid = ent[0]
                    hit = mask & valid
                    miss = mask & ~valid
                    if hit:
                        st.hits += hit.bit_count()
                        sd.move_to_end(line)
                    if miss:
                        st.sector_misses += miss.bit_count()
                    else:
                        continue
                st.mshr_allocs += 1
                pending[line] = miss
                missed = True
                slices[rt[t]].receive_load(line, miss,
                                           partial(st.fill, line))
            if missed:
                drain()
                if pending:
                    raise SimulationError(
                        "columnar replay: an L2 fill did not complete "
                        "within its op's drain — the serialized-replay "
                        "contract is broken (use the scalar tier)")
        elif k == OP_ATOMIC:
            release = st.release
            sets = st.sets
            nsets = st.num_sets
            for t in range(s, e):
                if st.credits >= st.capacity:
                    st.rejections += 1
                    drain()
                    if st.credits >= st.capacity:
                        st.rejections += 1
                        raise SimulationError(
                            "store-buffer credit unavailable after drain "
                            "(functional-tier invariant violated)")
                st.credits += 1
                line = tl[t]
                mask = tm[t]
                ent = sets[line % nsets].get(line)
                if ent is not None:
                    ent[0] &= ~mask  # L1 copy is now stale
                slices[rt[t]].receive_atomic(line, mask, release)
            drain()
        else:  # OP_STORE: write-through, no-allocate — L1 untouched
            release = st.release
            for t in range(s, e):
                if st.credits >= st.capacity:
                    st.rejections += 1
                    drain()
                    if st.credits >= st.capacity:
                        st.rejections += 1
                        raise SimulationError(
                            "store-buffer credit unavailable after drain "
                            "(functional-tier invariant violated)")
                st.credits += 1
                slices[rt[t]].receive_store(tl[t], tm[t], release)
            drain()

    # Flush the batched counters into the same stat tree the scalar
    # tier populates — flattened results are key- and bit-compatible.
    for i, sm in enumerate(sms):
        st = states[i]
        sm._instructions.add(int(instructions[i]))
        sm._loads.add(int(loads[i]))
        sm._stores.add(int(stores[i]))
        sm._atomics.add(int(atomics[i]))
        sm._load_txns.add(int(load_txns[i]))
        sm._store_txns.add(int(store_txns[i]))
        l1_stats = sm.l1.stats
        l1_stats.get("hits").add(st.hits)
        l1_stats.get("sector_misses").add(st.sector_misses)
        l1_stats.get("line_misses").add(st.line_misses)
        l1_stats.get("line_miss_sectors").add(st.line_miss_sectors)
        l1_stats.get("evictions").add(st.evictions)
        sm.l1_mshrs.stats.get("allocations").add(st.mshr_allocs)
        sm.store_credits.acquires.add(int(store_txns[i]))
        sm.store_credits.full_rejections.add(st.rejections)
        sm._warps.clear()
    queue.drain()


# -- parity helpers ----------------------------------------------------------

#: Flattened-stat keys the event tier produces and the functional tier
#: legitimately does not: they measure *time*, not traffic or cache
#: behavior.  Everything else must match bit-for-bit on serialized
#: streams (see tests/test_fidelity_parity.py and docs/PERFORMANCE.md).
TIMING_ONLY_STAT_PATTERNS: Tuple[str, ...] = (
    # The two tiers are different machines; event counts are compared
    # as throughput provenance, not model output.
    r"engine\.events",
    # DRAM timing machinery (FR-FCFS, refresh, bus, queues).
    r"dram\d+\.(row_hits|row_misses|refreshes|bus_busy_cycles)",
    r"dram\d+\.(read_queue_depth|write_queue_depth)",
    r"dram\d+\.read_latency(\..*)?",
    # Crossbar bandwidth ports (pure interconnect timing).
    r"xbar\..*",
    # Latency attribution (only present on observed runs anyway).
    r"latency\..*",
)

_TIMING_ONLY_RE = re.compile(
    "^(" + "|".join(TIMING_ONLY_STAT_PATTERNS) + ")$")


def is_timing_only_stat(key: str) -> bool:
    """Is a flattened stat key excluded from the parity contract?"""
    return _TIMING_ONLY_RE.match(key) is not None


def parity_diff(event_stats: Dict[str, float],
                functional_stats: Dict[str, float]) -> List[str]:
    """Violations of the exact-counter parity contract (empty = parity).

    * a key present in both tiers with different values,
    * a functional-only key (the functional tier must never invent
      statistics the event tier does not have),
    * an event-only key not covered by
      :data:`TIMING_ONLY_STAT_PATTERNS`.
    """
    problems: List[str] = []
    for key in sorted(functional_stats):
        if is_timing_only_stat(key):
            continue
        if key not in event_stats:
            problems.append(f"functional-only stat: {key}")
        elif event_stats[key] != functional_stats[key]:
            problems.append(
                f"mismatch {key}: event={event_stats[key]} "
                f"functional={functional_stats[key]}")
    for key in sorted(event_stats):
        if key not in functional_stats and not is_timing_only_stat(key):
            problems.append(f"unexplained event-only stat: {key}")
    return problems
