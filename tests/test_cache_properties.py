"""Property-based tests for cache structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement import LruPolicy
from repro.cache.sectored import SectoredCache
from repro.sim.functional import FunctionalL1
from repro.sim.stats import StatGroup


@st.composite
def access_sequences(draw):
    """A sequence of (line_addr, sector, is_write) accesses."""
    n = draw(st.integers(5, 60))
    return [
        (draw(st.integers(0, 40)), draw(st.integers(0, 3)),
         draw(st.booleans()))
        for _ in range(n)
    ]


def _check_directory(cache: SectoredCache) -> None:
    seen = set()
    for set_idx, ways in enumerate(cache._sets):
        tagged = 0
        for way, line in enumerate(ways):
            if line is not None and line.line_addr >= 0:
                tagged += 1
                assert cache._directory[line.line_addr] == (set_idx, way)
                assert line.valid_mask <= cache.full_sector_mask
                assert line.dirty_mask & ~line.valid_mask == 0
                assert line.verified_mask & ~line.valid_mask == 0
                seen.add(line.line_addr)
        assert cache._occupied[set_idx] == tagged
    assert seen == set(cache._directory)


@given(access_sequences())
@settings(max_examples=60)
def test_cache_directory_invariants(seq):
    """After any access sequence, and again after invalidating every
    other resident line: directory matches array state, masks stay
    within the line, dirty implies valid, and each set's occupancy
    count equals its tagged lines.  Ways never allocated hold ``None``
    and are skipped."""
    cache = SectoredCache("c", 4096, 2, line_bytes=128, sector_bytes=32)
    for line_addr, sector, is_write in seq:
        line, _ev = cache.allocate(line_addr)
        cache.fill_sector(line, sector, dirty=is_write)
    _check_directory(cache)
    for line_addr in list(cache._directory)[::2]:
        cache.invalidate(line_addr)
    _check_directory(cache)


@given(access_sequences())
@settings(max_examples=60)
def test_flush_leaves_cache_empty_and_returns_all_dirty(seq):
    cache = SectoredCache("c", 4096, 2, line_bytes=128, sector_bytes=32)
    dirty_lines = set()
    for line_addr, sector, is_write in seq:
        line, ev = cache.allocate(line_addr)
        cache.fill_sector(line, sector, dirty=is_write)
        if is_write:
            dirty_lines.add(line_addr)
        if ev is not None:
            dirty_lines.discard(ev.line_addr)
    evictions = cache.flush()
    assert {e.line_addr for e in evictions} == dirty_lines
    assert cache.occupancy() == 0.0
    assert all(e.needs_writeback for e in evictions)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=200))
@settings(max_examples=60)
def test_lru_victim_is_oldest_untouched(accesses):
    """LRU invariant: the victim is always the way whose last access is
    the furthest in the past."""
    lru = LruPolicy(8)
    last_touch = {way: -1 for way in range(8)}
    for t, way in enumerate(accesses):
        lru.on_access(way)
        last_touch[way] = t
    victim = lru.victim()
    assert last_touch[victim] == min(last_touch.values())


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)),
                min_size=1, max_size=100))
@settings(max_examples=60)
def test_lookup_after_fill_always_hits(fills):
    """Any sector that was filled and never evicted must hit."""
    cache = SectoredCache("c", 16 * 1024, 16, line_bytes=128, sector_bytes=32)
    # 16 KiB 16-way with 128 B lines = 8 sets; 16 distinct lines max
    # cannot overflow a set here (16 ways), so nothing is ever evicted.
    for line_addr, sector in fills:
        line, ev = cache.allocate(line_addr)
        assert ev is None or not ev.valid_mask
        cache.fill_sector(line, sector)
    for line_addr, sector in fills:
        hit_mask, _ = cache.lookup_mask(line_addr, 1 << sector)
        assert hit_mask == 1 << sector


@st.composite
def l1_op_sequences(draw):
    """(kind, line_addr, sector_mask) ops an SM's L1 sees: load
    lookups, L2 fills and atomic invalidations.  Full-line masks are
    drawn often, so atomics also empty whole lines that must then stay
    resident and be evicted without counting."""
    n = draw(st.integers(5, 120))
    masks = st.one_of(st.just(0b1111), st.integers(1, 0b1111))
    return [
        (draw(st.sampled_from(("load", "fill", "atomic"))),
         draw(st.integers(0, 40)), draw(masks))
        for _ in range(n)
    ]


@given(l1_op_sequences())
@settings(max_examples=80)
def test_functional_l1_matches_sectored_lru_cache(seq):
    """The functional tier's lean L1 and an LRU ``SectoredCache`` driven
    the way the event SM drives its L1 agree on every hit, miss and
    eviction count, and on which sectors stay resident."""
    ref = SectoredCache("l1", 4096, 2, line_bytes=128, sector_bytes=32,
                        stats=StatGroup("sm"))
    lean = FunctionalL1(4096, 2, 128, StatGroup("sm"))
    for kind, line_addr, mask in seq:
        if kind == "load":
            hit, _line = ref.lookup_mask(line_addr, mask,
                                         require_verified=False)
            assert lean.lookup(line_addr, mask) == mask & ~hit
        elif kind == "fill":
            line, _evicted = ref.allocate(line_addr)
            ref.fill_sectors(line, mask, dirty=False, verified=True)
            lean.fill(line_addr, mask)
        else:  # an atomic makes the L1 copy of its sectors stale
            line = ref.probe(line_addr)
            if line is not None:
                line.valid_mask &= ~mask
                line.verified_mask &= ~mask
            lean.invalidate(line_addr, mask)
    lean.publish()
    assert lean.stats.flatten() == ref.stats.flatten()
    assert lean.occupancy() == ref.occupancy()
    for line_addr in range(41):
        line = ref.probe(line_addr)
        resident = lean.sets[line_addr % lean.num_sets].get(line_addr)
        assert resident == (None if line is None else line.valid_mask)
