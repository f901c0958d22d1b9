"""Protection-scheme interface and shared machinery.

A scheme implements two operations:

``fetch(slice_id, line_addr, sector_mask, on_ready)``
    The L2 slice missed on ``sector_mask`` of ``line_addr``.  The
    scheme issues whatever DRAM traffic verification requires and calls
    ``on_ready(granted_mask)`` exactly once, where ``granted_mask`` is
    a superset of ``sector_mask`` — extra sectors the scheme fetched
    anyway (full-granule fetch, verification fills) are granted to the
    slice so they get cached.

``writeback(slice_id, line_addr, dirty_mask, valid_mask, is_metadata)``
    A dirty line fell out of the L2 (or a dedicated structure).  The
    scheme writes the data and regenerates/updates metadata, issuing
    read-modify-write fills when the codeword needs absent sectors.

The :class:`ProtectionContext` is the scheme's window into the system:
memory channels, L2 probes/fills, the inline-ECC layout, the optional
functional store, and a stats group.  Schemes never talk to SMs.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.dram.backing import FunctionalMemory
from repro.dram.channel import DramRequest, MemoryChannel, RequestKind
from repro.dram.layout import InlineEccLayout
from repro.ecc.base import DecodeStatus, ErrorCode
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup


@lru_cache(maxsize=4096)
def mask_runs(mask: int, limit: int) -> Tuple[Tuple[int, int], ...]:
    """``(start_sector, length)`` for contiguous runs in a mask.

    Memoized: only ``2**sectors_per_line`` distinct masks exist, and
    run extraction sits on every DRAM read/write path.
    """
    runs = []
    sector = 0
    while sector < limit:
        if mask & (1 << sector):
            start = sector
            while sector < limit and mask & (1 << sector):
                sector += 1
            runs.append((start, sector - start))
        else:
            sector += 1
    return tuple(runs)


class ProtectionContext:
    """System services handed to a scheme at bind time."""

    def __init__(self, sim: Simulator, layout: InlineEccLayout,
                 channels: List[MemoryChannel], stats: StatGroup,
                 sector_bytes: int, line_bytes: int,
                 slice_chunk_bytes: int,
                 functional: Optional[FunctionalMemory] = None,
                 ecc_check_latency: int = 4,
                 obs=None, recovery=None):
        if obs is None:
            from repro.obs.hub import OBS_OFF
            obs = OBS_OFF
        self.sim = sim
        self.layout = layout
        self.channels = channels
        self.stats = stats
        #: The run's observability hub (tracer + optional attributor).
        self.obs = obs
        self.tracer = obs.tracer
        # Cached so the disabled hot path is a single None check; the
        # attributor must already be attached when the context is built.
        self._latency = obs.latency
        self.sector_bytes = sector_bytes
        self.line_bytes = line_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        #: Partition interleave granularity (one metadata atom's coverage).
        self.slice_chunk_bytes = slice_chunk_bytes
        self.functional = functional
        self.ecc_check_latency = ecc_check_latency
        #: Optional :class:`~repro.resilience.recovery.RecoveryController`;
        #: ``None`` keeps the legacy count-only verification path.
        self.recovery = recovery
        # Wired in by the system after slices exist.
        self._resident_cb: Optional[Callable[[int, int], int]] = None
        self._install_cb: Optional[Callable[..., None]] = None
        self._poison_cb: Optional[Callable[[int, int, int], None]] = None
        self._invalidate_cb: Optional[Callable[[int, int], None]] = None

    # -- wiring -------------------------------------------------------------

    def wire_l2(self, resident_cb: Callable[[int, int], int],
                install_cb: Callable[..., None],
                poison_cb: Optional[Callable[[int, int, int], None]] = None,
                invalidate_cb: Optional[Callable[[int, int], None]] = None
                ) -> None:
        """Connect L2 probe and install callbacks (called by the system).

        ``poison_cb(slice_id, line_addr, mask)`` and
        ``invalidate_cb(slice_id, line_addr)`` are the recovery layer's
        hooks; optional so hand-wired test contexts keep working.
        """
        self._resident_cb = resident_cb
        self._install_cb = install_cb
        self._poison_cb = poison_cb
        self._invalidate_cb = invalidate_cb

    # -- L2 services ----------------------------------------------------------

    def l2_resident_verified(self, slice_id: int, line_addr: int,
                             clean_only: bool = True) -> int:
        """Mask of reusable sectors of a line in that slice's L2.

        With ``clean_only`` (the default, used for data reconstruction)
        dirty sectors are excluded: their DRAM copy is stale, so they
        cannot stand in for a DRAM fetch when checking the *DRAM*
        codeword.  With ``clean_only=False`` (metadata probes) dirty
        sectors count — a dirty metadata sector is the authoritative
        copy.
        """
        assert self._resident_cb is not None, "context not wired"
        return self._resident_cb(slice_id, line_addr, clean_only)

    def l2_install(self, slice_id: int, line_addr: int, sector_mask: int, *,
                   is_metadata: bool = False, low_priority: bool = False,
                   dirty: bool = False, verified: bool = True) -> None:
        """Insert sectors into a slice's L2 (reconstructed caching).

        ``verified=False`` installs write-only state (masked metadata
        updates) that later reads must not hit."""
        assert self._install_cb is not None, "context not wired"
        self._install_cb(slice_id, line_addr, sector_mask,
                         is_metadata=is_metadata, low_priority=low_priority,
                         dirty=dirty, verified=verified)

    def l2_poison(self, slice_id: int, line_addr: int, mask: int) -> None:
        """Mark sectors of a resident L2 line poisoned (no-op if unwired)."""
        if self._poison_cb is not None:
            self._poison_cb(slice_id, line_addr, mask)

    def l2_invalidate(self, slice_id: int, line_addr: int) -> None:
        """Drop a resident L2 line without writeback (no-op if unwired)."""
        if self._invalidate_cb is not None:
            self._invalidate_cb(slice_id, line_addr)

    # -- address helpers ------------------------------------------------------

    def slice_of_addr(self, addr: int) -> int:
        """Partition of a data byte address (chunk-interleaved)."""
        return (addr // self.slice_chunk_bytes) % len(self.channels)

    def to_channel_local(self, addr: int) -> int:
        """Squeeze the slice-interleave bits out of a global address so
        each channel sees a dense local address space (keeps the DRAM
        row model honest)."""
        slices = len(self.channels)
        if slices == 1:
            return addr
        if self.layout.is_metadata(addr):
            base = self.layout.metadata_base
            offset = addr - base
            local = base // slices + offset // slices
            return local - (local % self.sector_bytes)
        chunk = self.slice_chunk_bytes
        return (addr // chunk // slices) * chunk + (addr % chunk)

    # -- DRAM access helpers ----------------------------------------------------

    def dram_read(self, slice_id: int, addr: int, kind: RequestKind,
                  callback: Callable[[], None], atoms: int = 1) -> None:
        latency = self._latency
        if latency is not None and latency.current is not None:
            # Inside an attributed fetch scope: stamp the in-scope load
            # token when this read's data returns (data vs metadata).
            callback = latency.link_read(
                kind is RequestKind.METADATA, callback)
        self.channels[slice_id].enqueue(DramRequest(
            addr=self.to_channel_local(addr), is_write=False, kind=kind,
            callback=callback, atoms=atoms))

    def dram_write(self, slice_id: int, addr: int, kind: RequestKind,
                   atoms: int = 1) -> None:
        self.channels[slice_id].enqueue(DramRequest(
            addr=self.to_channel_local(addr), is_write=True, kind=kind,
            callback=None, atoms=atoms))


class ProtectionScheme(abc.ABC):
    """Base class for all schemes; subclasses register themselves."""

    #: Registry key; subclasses must override.
    name: str = ""

    #: True when the scheme stores metadata inline in data DRAM —
    #: gates the trace-level metadata-locality prediction (see
    #: :mod:`repro.analysis.locality`).
    has_inline_metadata: bool = False

    def __init__(self) -> None:
        self.ctx: Optional[ProtectionContext] = None
        self.stats: Optional[StatGroup] = None

    def bind(self, ctx: ProtectionContext) -> None:
        """Attach to a built system; called once before simulation."""
        self.ctx = ctx
        self.stats = ctx.stats.child(f"protection.{self.name}")
        self._decode_clean = self.stats.counter("decode_clean")
        self._decode_corrected = self.stats.counter("decode_corrected")
        self._decode_due = self.stats.counter("decode_due")
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook for extra stats/structures."""

    # -- the scheme interface ---------------------------------------------------

    @abc.abstractmethod
    def fetch(self, slice_id: int, line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        """Serve an L2 sector miss; see module docstring."""

    @abc.abstractmethod
    def writeback(self, slice_id: int, line_addr: int, dirty_mask: int,
                  valid_mask: int, is_metadata: bool) -> None:
        """Handle a dirty eviction; see module docstring."""

    def drain(self) -> None:
        """End-of-run hook: flush any scheme-private dirty state (e.g.
        a dedicated metadata cache) so writes are fully accounted."""

    def attach_introspection(self, insp) -> None:
        """Register scheme-private structures with a
        :class:`~repro.obs.inspect.MemoryInspector` (opt-in
        observability).  The base scheme has nothing to register;
        schemes with dedicated caches override this."""

    # -- overhead accounting ------------------------------------------------------

    def storage_overhead(self) -> float:
        """DRAM capacity fraction consumed by metadata."""
        return 0.0

    def sram_overhead_bytes(self) -> int:
        """Dedicated SRAM the scheme adds (0 for CacheCraft: it
        repurposes the L2)."""
        return 0

    # -- shared helpers -----------------------------------------------------------

    _mask_runs = staticmethod(mask_runs)

    def read_mask(self, slice_id: int, line_addr: int, mask: int,
                  kind: RequestKind, on_done: Callable[[], None]) -> None:
        """Read all sectors in ``mask`` of a line; ``on_done`` fires once
        every atom has returned.  Contiguous sectors share one burst."""
        ctx = self.ctx
        assert ctx is not None
        runs = mask_runs(mask, ctx.sectors_per_line)
        if not runs:
            ctx.sim.schedule(0, on_done)
            return
        base = line_addr * ctx.line_bytes
        if len(runs) == 1:
            start, length = runs[0]
            ctx.dram_read(slice_id, base + start * ctx.sector_bytes,
                          kind, on_done, atoms=length)
            return
        remaining = [len(runs)]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                on_done()

        for start, length in runs:
            ctx.dram_read(slice_id, base + start * ctx.sector_bytes,
                          kind, one_done, atoms=length)

    def write_mask(self, slice_id: int, line_addr: int, mask: int,
                   kind: RequestKind) -> None:
        """Write all sectors in ``mask`` of a line (posted)."""
        ctx = self.ctx
        assert ctx is not None
        base = line_addr * ctx.line_bytes
        for start, length in self._mask_runs(mask, ctx.sectors_per_line):
            ctx.dram_write(slice_id, base + start * ctx.sector_bytes,
                           kind, atoms=length)

    # -- functional verification --------------------------------------------------

    def verify_status(self, granule: int) -> Optional[DecodeStatus]:
        """Run the real decoder and count the outcome.

        Returns the :class:`DecodeStatus` (``None`` when no functional
        store / no code is configured).  DUEs are counted, not fatal —
        the reliability experiments inspect the counters.
        """
        ctx = self.ctx
        assert ctx is not None
        if ctx.functional is None:
            self._decode_clean.add(1)
            return None
        result = ctx.functional.verify_granule(granule)
        if result is None or result.status is DecodeStatus.CLEAN:
            self._decode_clean.add(1)
            return None if result is None else result.status
        if result.status is DecodeStatus.CORRECTED:
            self._decode_corrected.add(1)
        else:
            self._decode_due.add(1)
        return result.status

    def verify_granules_then(self, slice_id: int, granules,
                             proceed: Callable[[], None]) -> None:
        """Verify granules, then run ``proceed`` after the check latency.

        Without a recovery controller this is exactly the legacy fetch
        epilogue: one counted decode per entry (duplicates included),
        then ``proceed`` scheduled ``ecc_check_latency`` cycles out.
        With recovery, each *distinct* granule runs through the
        recovery state machine (correction stall, bounded re-fetch,
        poisoning) and ``proceed`` fires only once all are resolved.
        """
        ctx = self.ctx
        assert ctx is not None
        recovery = ctx.recovery
        if recovery is None:
            if ctx.functional is None:
                # Every decode is clean without a functional store.
                self._decode_clean.add(len(granules))
            else:
                for granule in granules:
                    self.verify_status(granule)
            ctx.sim.schedule(ctx.ecc_check_latency, proceed)
            return
        distinct = list(dict.fromkeys(granules))
        if not distinct:
            ctx.sim.schedule(ctx.ecc_check_latency, proceed)
            return
        remaining = [len(distinct)]

        def resolved() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                ctx.sim.schedule(ctx.ecc_check_latency, proceed)

        for granule in distinct:
            recovery.resolve(self, slice_id, granule, resolved)

    # -- recovery surface ---------------------------------------------------------

    def _granule_lines(self, granule: int):
        """Yield ``(line_addr, sector_mask)`` covering one granule."""
        ctx = self.ctx
        assert ctx is not None
        base = ctx.layout.granule_base(granule)
        end = base + ctx.layout.granule_bytes
        addr = base
        while addr < end:
            line_addr = addr // ctx.line_bytes
            line_base = line_addr * ctx.line_bytes
            upto = min(end, line_base + ctx.line_bytes)
            mask = 0
            for s in range((addr - line_base) // ctx.sector_bytes,
                           (upto - line_base + ctx.sector_bytes - 1)
                           // ctx.sector_bytes):
                mask |= 1 << s
            yield line_addr, mask
            addr = upto

    def refetch_granule(self, slice_id: int, granule: int,
                        on_done: Callable[[], None]) -> None:
        """Re-read a granule's data + metadata atom (recovery replay).

        All traffic is tagged :attr:`RequestKind.RETRY` so recovery
        bandwidth is a distinct line in the traffic breakdown.
        """
        ctx = self.ctx
        assert ctx is not None
        parts = list(self._granule_lines(granule))
        remaining = [len(parts) + 1]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                on_done()

        for line_addr, mask in parts:
            self.read_mask(slice_id, line_addr, mask, RequestKind.RETRY,
                           one_done)
        ctx.dram_read(slice_id, ctx.layout.metadata_addr(granule),
                      RequestKind.RETRY, one_done)

    def poison_granule(self, slice_id: int, granule: int) -> None:
        """Mark the granule's resident L2 sectors poisoned."""
        for line_addr, mask in self._granule_lines(granule):
            assert self.ctx is not None
            self.ctx.l2_poison(slice_id, line_addr, mask)

    def invalidate_metadata(self, slice_id: int, granule: int) -> None:
        """Drop any cached copy of the granule's metadata.

        The base implementation is a no-op: schemes that re-read
        metadata from DRAM on every verification have nothing to
        invalidate.  Caching schemes override this.
        """

    def functional_writeback(self, line_addr: int, dirty_mask: int) -> None:
        """Commit dirty sectors to the functional store and re-encode
        the granules they touch."""
        ctx = self.ctx
        assert ctx is not None
        if ctx.functional is None:
            return
        fm = ctx.functional
        base = line_addr * ctx.line_bytes
        granules = set()
        for start, length in self._mask_runs(dirty_mask, ctx.sectors_per_line):
            for s in range(start, start + length):
                addr = base + s * ctx.sector_bytes
                fm.write_sector(addr, _dirty_pattern(addr, ctx.sector_bytes))
                granules.add(ctx.layout.granule_of(addr))
        for granule in granules:
            fm.update_metadata(granule)


def _dirty_pattern(addr: int, sector_bytes: int) -> bytes:
    """Deterministic 'new data' for a store — the simulator does not
    track register values, only that the bytes changed."""
    import hashlib

    return hashlib.blake2b(
        addr.to_bytes(8, "little"), digest_size=sector_bytes,
        person=b"store-data",
    ).digest()


#: name -> scheme class; populated by subclasses via register_scheme.
SCHEME_REGISTRY: Dict[str, Type[ProtectionScheme]] = {}


def register_scheme(cls: Type[ProtectionScheme]) -> Type[ProtectionScheme]:
    """Class decorator adding a scheme to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no name")
    if cls.name in SCHEME_REGISTRY:
        raise ValueError(f"duplicate scheme name {cls.name!r}")
    SCHEME_REGISTRY[cls.name] = cls
    return cls


def make_scheme(name: str, **kwargs) -> ProtectionScheme:
    """Instantiate a registered scheme by name."""
    # Importing here lets `make_scheme("cachecraft")` work without the
    # caller importing repro.core first.
    from repro.core import cachecraft  # noqa: F401  (registers itself)

    try:
        cls = SCHEME_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {sorted(SCHEME_REGISTRY)}"
        ) from None
    return cls(**kwargs)
