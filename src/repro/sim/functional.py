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

``FunctionalSm`` and :func:`replay_columnar`
    The warps, compiled to the columnar IR (:mod:`repro.gpu.columnar`),
    replay in the event SM's round-robin order with its exact counter
    semantics: a lean model of the same LRU sectored L1
    (:class:`FunctionalL1`), the same MSHR and store-buffer accounting
    — then each transaction goes straight into
    ``L2Slice.receive_load/store/atomic`` and the queue drains after
    every memory op.

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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cache.mshr import MshrFile
from repro.dram.channel import DramRequest, RequestKind
from repro.gpu.trace import WarpOp
from repro.sim.engine import SimulationError
from repro.sim.resources import OccupancyLimiter
from repro.sim.stats import StatGroup


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

    #: Nothing ever waits here: reads complete through the queue and
    #: writes are posted.
    queue_depth = 0

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


#: The sectored cache's per-cache counters, in its creation order; the
#: functional L1 creates the same keys (stat-key parity).
_L1_COUNTERS = ("hits", "sector_misses", "line_misses", "line_miss_sectors",
                "evictions", "writebacks", "metadata_fills",
                "metadata_hits")


class FunctionalL1:
    """The functional SM's L1: an exact, lean model of the event SM's
    LRU :class:`~repro.cache.sectored.SectoredCache`.

    The L1 is write-through and no-allocate and is looked up without
    verification, so only tags, valid sectors and LRU order are
    observable.  One ``OrderedDict`` per set models true LRU exactly:
    insertion order is fill order, ``move_to_end`` is the hit
    promotion, ``popitem(last=False)`` the victim choice (the sectored
    cache fills invalid ways first, but every fill becomes MRU
    regardless of which physical way it lands in, so the dict's
    recency order and the way-list policy order are the same total
    order).  Each value is the line's valid sector mask; a line whose
    mask was zeroed by atomics stays resident (tag match, all sectors
    miss) and, like the sectored cache, does not count as an eviction
    when displaced.

    The state persists across replays (kernels).  Counts accumulate in
    plain integers and reach the ``l1.*`` counters in one
    :meth:`publish` per replay.
    """

    #: The counts the lean model keeps; the sectored cache's writeback
    #: and metadata counters stay 0 on an L1.
    _COUNTS = ("hits", "sector_misses", "line_misses", "line_miss_sectors",
               "evictions")
    __slots__ = ("sets", "num_sets", "ways", "stats") + _COUNTS

    def __init__(self, size_bytes: int, ways: int, line_bytes: int,
                 stats: StatGroup):
        if size_bytes % (ways * line_bytes):
            raise ValueError("size_bytes must be a multiple of ways * line_bytes")
        self.num_sets = size_bytes // (ways * line_bytes)
        self.ways = ways
        self.sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)]
        self.stats = stats.child("l1")
        for name in _L1_COUNTERS:
            self.stats.counter(name)
        for name in self._COUNTS:
            setattr(self, name, 0)

    def lookup(self, line_addr: int, mask: int) -> int:
        """Look up ``mask``'s sectors of a line; returns the missing ones.

        Counts like ``SectoredCache.lookup_mask``: a tag miss once per
        access (plus the sectors it requested), hits and sector misses
        per sector.  A hit promotes the line to most recently used.
        """
        sd = self.sets[line_addr % self.num_sets]
        valid = sd.get(line_addr)
        if valid is None:
            self.line_misses += 1
            self.line_miss_sectors += mask.bit_count()
            return mask
        hit = mask & valid
        if hit:
            self.hits += hit.bit_count()
            sd.move_to_end(line_addr)
        miss = mask & ~valid
        if miss:
            self.sector_misses += miss.bit_count()
        return miss

    def fill(self, line_addr: int, mask: int) -> None:
        """Install sectors, allocating the line (and evicting the least
        recently used one) on a tag miss.  A resident line is not
        promoted, exactly like ``SectoredCache.allocate``."""
        sd = self.sets[line_addr % self.num_sets]
        valid = sd.get(line_addr)
        if valid is None:
            if len(sd) >= self.ways and sd.popitem(last=False)[1]:
                self.evictions += 1
            valid = 0
        sd[line_addr] = valid | mask  # an update keeps the line's rank

    def invalidate(self, line_addr: int, mask: int) -> None:
        """Mark ``mask``'s sectors stale (an atomic wrote them at the
        L2); the tag stays resident."""
        sd = self.sets[line_addr % self.num_sets]
        valid = sd.get(line_addr)
        if valid is not None:
            sd[line_addr] = valid & ~mask

    def occupancy(self) -> float:
        """Fraction of lines holding a tag."""
        return sum(map(len, self.sets)) / (self.num_sets * self.ways)

    def publish(self) -> None:
        """Add the accumulated counts to the ``l1.*`` counters."""
        for name in self._COUNTS:
            self.stats.get(name).add(getattr(self, name))
            setattr(self, name, 0)


class FunctionalSm:
    """One SM of the functional tier: warps to replay plus the L1,
    MSHR and store-buffer state :func:`replay_columnar` drives.

    Creates the same per-SM statistics tree as the event SM (``sm{i}``:
    instructions / loads / stores / atomics / load_transactions /
    store_transactions / stall_retries, the L1, the L1 MSHR file and
    the store-buffer limiter) so the flattened result is key-compatible
    with the event tier.  Structural stalls cannot occur — the queue
    is drained after every memory op, so MSHRs and store credits are
    always free — hence ``stall_retries`` stays 0, matching the event
    tier on serialized streams.  L1 contents persist across kernels, as
    on the event tier.
    """

    def __init__(self, sm_id: int, l1_size: int = 32 * 1024,
                 l1_ways: int = 4, line_bytes: int = 128,
                 l1_mshr_entries: int = 64, store_buffer: int = 64,
                 stats: Optional[StatGroup] = None):
        self.sm_id = sm_id
        group = stats.child(f"sm{sm_id}") if stats is not None \
            else StatGroup(f"sm{sm_id}")
        self.stats = group
        self.l1 = FunctionalL1(l1_size, l1_ways, line_bytes, group)
        # The MSHR file and the store-buffer limiter carry the counters;
        # the replay keeps their state in ``_pending`` / ``_credits``.
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

        #: line -> sectors still awaiting an L2 fill (the lean MSHR
        #: file; empty at every op boundary, which the replay asserts).
        self._pending: Dict[int, int] = {}
        #: Store-buffer credits held by in-flight stores and atomics.
        self._credits = 0
        #: The op sequences of the warps added since the last retire.
        self.warps: List[Iterable[WarpOp]] = []

    # -- warps (same surface as StreamingMultiprocessor) ---------------------

    def add_warp(self, ops: Iterable[WarpOp]) -> None:
        self.warps.append(ops)

    @property
    def done(self) -> bool:
        return not self.warps

    def retire(self) -> None:
        """Drop the replayed kernel's warps; the L1 persists."""
        self.warps = []

    # -- L2 callbacks --------------------------------------------------------

    def _fill(self, line_addr: int, granted: int) -> None:
        """L2 fill: install the granted sectors, retire the pending fill."""
        self.l1.fill(line_addr, granted)
        rem = self._pending.get(line_addr)
        if rem is not None:
            rem &= ~granted
            if rem:
                self._pending[line_addr] = rem
            else:
                del self._pending[line_addr]

    def _release(self) -> None:
        """Store/atomic ack from the L2: frees one store credit."""
        self._credits -= 1


def replay_columnar(compiled, sms: List[FunctionalSm],
                    slices: List, queue: ImmediateQueue,
                    slice_chunk_bytes: int) -> None:
    """The functional tier's replay of a columnar trace artifact.

    Warps run round-robin, one op per still-active warp per round, in
    flattened SM-major warp order, and the queue is drained after every
    memory op.  Execution is therefore serialized at op granularity and
    the rotation is a fixed total order, which
    :func:`repro.gpu.columnar.round_robin_order` precomputes.  With the
    order and the per-op coalesced transactions both compile-time data,
    replay reduces to:

    * **batched bookkeeping** — instruction/op-kind/transaction
      counters are exact functions of the artifact, summed per SM in
      numpy and added once (compute ops cost *nothing* per-op);
    * **a lean L1 pass** (:class:`FunctionalL1`) over the transaction
      columns, counting in plain integers on the hit path;
    * **the verbatim L2/scheme machinery** for every miss, store and
      atomic, drained at op boundaries, so the protection-layer state
      machines (the part the paper is about) are never reimplemented.

    Raises :class:`SimulationError` if an L2 fill fails to complete
    inside its op's drain (impossible on the serialized contract; the
    guard keeps a future concurrent L2 model from silently breaking
    counter parity).
    """
    import numpy as np

    from repro.gpu.columnar import (OP_ATOMIC, OP_COMPUTE, OP_LOAD,
                                    round_robin_order)

    n = len(sms)
    if compiled.num_ops == 0 or n == 0:
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

    mshr_allocs = [0] * n
    rejections = [0] * n
    drain = queue.drain
    for i in range(len(sched_kind)):
        si = sched_sm[i]
        sm = sms[si]
        k = sched_kind[i]
        if k == OP_LOAD:
            lookup = sm.l1.lookup
            pending = sm._pending
            fill = sm._fill
            missed = 0
            for t in range(sched_start[i], sched_end[i]):
                line = tl[t]
                miss = lookup(line, tm[t])
                if miss:
                    missed += 1
                    pending[line] = miss
                    slices[rt[t]].receive_load(line, miss,
                                               partial(fill, line))
            if missed:
                mshr_allocs[si] += missed
                drain()
                if pending:
                    raise SimulationError(
                        "columnar replay: an L2 fill did not complete "
                        "within its op's drain — the serialized-replay "
                        "contract is broken")
            continue
        # Stores and atomics: write-through, no-allocate; an atomic
        # also makes the L1 copy of its sectors stale.
        release = sm._release
        capacity = sm.store_credits.capacity
        for t in range(sched_start[i], sched_end[i]):
            if sm._credits >= capacity:
                rejections[si] += 1
                drain()
                if sm._credits >= capacity:
                    rejections[si] += 1
                    raise SimulationError(
                        "store-buffer credit unavailable after drain "
                        "(functional-tier invariant violated)")
            sm._credits += 1
            line = tl[t]
            mask = tm[t]
            if k == OP_ATOMIC:
                sm.l1.invalidate(line, mask)
                slices[rt[t]].receive_atomic(line, mask, release)
            else:
                slices[rt[t]].receive_store(line, mask, release)
        drain()

    # Flush the batched counters into the same stat tree the event tier
    # populates — flattened results are key- and bit-compatible.
    for i, sm in enumerate(sms):
        sm._instructions.add(int(instructions[i]))
        sm._loads.add(int(loads[i]))
        sm._stores.add(int(stores[i]))
        sm._atomics.add(int(atomics[i]))
        sm._load_txns.add(int(load_txns[i]))
        sm._store_txns.add(int(store_txns[i]))
        sm.l1.publish()
        sm.l1_mshrs.stats.get("allocations").add(mshr_allocs[i])
        sm.store_credits.acquires.add(int(store_txns[i]))
        sm.store_credits.full_rejections.add(rejections[i])
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
