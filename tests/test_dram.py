"""Unit tests for the DRAM substrate: timing, mapping, channel, layout."""

import pytest

from repro.dram.channel import DramRequest, MemoryChannel, RequestKind
from repro.dram.layout import InlineEccLayout
from repro.dram.mapping import AddressMapping
from repro.dram.timing import DramTiming
from repro.sim.engine import Simulator


def make_channel(sim=None, **timing_overrides):
    sim = sim or Simulator()
    timing = DramTiming(refresh_enabled=False, **timing_overrides)
    return sim, MemoryChannel("ch", sim, timing)


def read(addr, cb=None, atoms=1):
    return DramRequest(addr=addr, is_write=False, kind=RequestKind.DATA,
                       callback=cb, atoms=atoms)


def write(addr, cb=None, atoms=1):
    return DramRequest(addr=addr, is_write=True, kind=RequestKind.WRITEBACK,
                       callback=cb, atoms=atoms)


class TestTiming:
    def test_derived_latencies(self):
        t = DramTiming()
        assert t.row_hit_latency == t.t_cl + t.t_burst
        assert t.row_miss_latency == t.t_rp + t.t_rcd + t.t_cl + t.t_burst

    def test_validation(self):
        with pytest.raises(ValueError):
            DramTiming(t_cl=0)
        with pytest.raises(ValueError):
            DramTiming(banks=0)


class TestMapping:
    def test_coordinates_decompose(self):
        mapping = AddressMapping(banks=16, row_bytes=2048)
        coords = mapping.coordinates(2048 * 16 + 100)
        assert coords.row == 1 and coords.bank == 0 and coords.column == 100

    def test_adjacent_rows_hit_different_banks(self):
        mapping = AddressMapping(banks=16, row_bytes=2048)
        a = mapping.coordinates(0)
        b = mapping.coordinates(2048)
        assert a.bank != b.bank

    def test_same_row_helper(self):
        mapping = AddressMapping(banks=4, row_bytes=1024)
        assert mapping.same_row(0, 1000)
        assert not mapping.same_row(0, 1024)


class TestChannelLatency:
    def test_cold_read_pays_row_miss(self):
        sim, ch = make_channel()
        done = []
        ch.enqueue(read(0, cb=lambda: done.append(sim.now)))
        sim.run()
        t = ch.timing
        assert done[0] == t.t_rcd + t.t_cl + t.t_burst

    def test_row_hit_follows_faster(self):
        sim, ch = make_channel()
        times = []
        ch.enqueue(read(0, cb=lambda: times.append(sim.now)))
        ch.enqueue(read(32, cb=lambda: times.append(sim.now)))
        sim.run()
        first, second = times
        assert second - first <= ch.timing.t_burst + 2
        flat = ch.stats.flatten()
        assert flat["ch.row_hits"] == 1
        assert flat["ch.row_misses"] == 1

    def test_row_conflict_pays_precharge(self):
        sim, ch = make_channel()
        times = []
        row_span = ch.timing.row_bytes * ch.timing.banks
        ch.enqueue(read(0, cb=lambda: times.append(sim.now)))
        sim.run()
        ch.enqueue(read(row_span, cb=lambda: times.append(sim.now)))
        sim.run()
        conflict_latency = times[1] - times[0]
        assert conflict_latency >= ch.timing.t_rp + ch.timing.t_rcd

    def test_multi_atom_burst(self):
        sim, ch = make_channel()
        times = []
        ch.enqueue(read(0, cb=lambda: times.append(sim.now), atoms=4))
        sim.run()
        assert times[0] == ch.timing.t_rcd + ch.timing.t_cl \
            + 4 * ch.timing.t_burst


class TestChannelBehaviour:
    def test_posted_write_acks_immediately(self):
        sim, ch = make_channel()
        acked = []
        ch.enqueue(write(0, cb=lambda: acked.append(sim.now)))
        sim.run(until=1)
        assert acked and acked[0] == 0

    def test_bank_parallelism_beats_single_bank(self):
        def total_time(addrs):
            sim, ch = make_channel()
            for a in addrs:
                ch.enqueue(read(a))
            return sim.run()

        same_bank = [i * 2048 * 16 for i in range(8)]   # all bank 0
        spread = [i * 2048 for i in range(8)]           # 8 banks
        assert total_time(spread) < total_time(same_bank)

    def test_fr_fcfs_prefers_row_hit(self):
        sim, ch = make_channel()
        order = []
        ch.enqueue(read(0, cb=lambda: order.append("miss-open")))
        sim.run()  # row 0 of bank 0 now open
        ch.enqueue(read(2048 * 16, cb=lambda: order.append("conflict")))
        ch.enqueue(read(64, cb=lambda: order.append("hit")))
        sim.run()
        assert order == ["miss-open", "hit", "conflict"]

    def test_traffic_accounting_by_kind(self):
        sim, ch = make_channel()
        ch.enqueue(read(0))
        ch.enqueue(DramRequest(64, False, RequestKind.METADATA))
        ch.enqueue(write(128, atoms=2))
        sim.run()
        by_kind = ch.bytes_by_kind()
        assert by_kind["data"] == 32
        assert by_kind["metadata"] == 32
        assert by_kind["writeback"] == 64
        assert ch.total_bytes == 128

    def test_turnaround_penalty_on_rw_switch(self):
        sim, ch = make_channel()
        times = []
        ch.enqueue(write(0))
        sim.run()  # the write issues (no reads pending)
        # Read a *different* bank so the open-row the write left behind
        # cannot mask the bus-turnaround cost.
        ch.enqueue(read(2048, cb=lambda: times.append(sim.now)))
        start = sim.now
        sim.run()
        sim2, ch2 = make_channel()
        times2 = []
        ch2.enqueue(read(2048, cb=lambda: times2.append(sim2.now)))
        sim2.run()
        assert times[0] - start > times2[0]

    def test_reads_preferred_over_writes(self):
        sim, ch = make_channel()
        order = []
        ch.enqueue(write(0, cb=None))
        ch.enqueue(read(2048, cb=lambda: order.append("read")))
        sim.run()
        flat = ch.stats.flatten()
        assert order == ["read"]
        assert flat["ch.reads"] == 1 and flat["ch.writes"] == 1

    def test_write_drain_on_high_watermark(self):
        sim, ch = make_channel()
        # Saturate writes while a steady read stream exists.
        for i in range(ch.WRITE_HI + 8):
            ch.enqueue(write(i * 64))
        done = []
        ch.enqueue(read(0, cb=lambda: done.append(sim.now)))
        sim.run()
        assert done  # reads still complete despite the write burst
        assert ch.queue_depth == 0

    def test_refresh_blocks_banks(self):
        sim = Simulator()
        timing = DramTiming(refresh_enabled=True, t_refi=200, t_rfc=100)
        ch = MemoryChannel("ch", sim, timing)
        done = []
        ch.enqueue(read(0, cb=lambda: done.append(sim.now)))
        sim.run()
        # Advance past a refresh interval, then issue another request.
        sim.schedule_at(250, lambda: ch.enqueue(
            read(64, cb=lambda: done.append(sim.now))))
        sim.run()
        flat = ch.stats.flatten()
        assert flat["ch.refreshes"] >= 1
        assert done[1] >= 350  # blocked behind the 100-cycle blackout


def record_issues_and_ticks(ch):
    """Log ``(cycle, addr)`` per issued request and the cycle of every
    scheduler tick (instance shadows; behaviour unchanged)."""
    issues, ticks = [], []
    issue, tick = ch._issue, ch._tick

    def logged_issue(req, now):
        issues.append((ch.sim.now, req.addr))
        issue(req, now)

    def logged_tick():
        ticks.append(ch.sim.now)
        tick()

    ch._issue = logged_issue
    ch._tick = logged_tick
    return issues, ticks


class TestSchedulerMemo:
    """The failed-scan memo (``_blocked_until``) must never change an
    issue cycle or a tick.  Each case keeps a memo live while a
    ready-bank request in the other queue makes the channel poll every
    cycle, then changes state the memo depends on.

    Shared set-up: ``A`` is a 16-atom read of bank 0 row 0 issued at 0
    (CAS at t_rcd = 28, so bank 0 is busy until 28 + 16 x t_burst = 60);
    ``B`` reads bank 0 row 1 and waits for that bank.
    """

    B_ADDR = 2048 * 32  # bank 0, row 1

    def test_enqueue_to_idle_bank_clears_memo(self):
        sim, ch = make_channel()
        issues, ticks = record_issues_and_ticks(ch)
        ch.enqueue(read(0, atoms=16))
        ch.enqueue(read(self.B_ADDR))
        ch.enqueue(write(4096))  # bank 2, ready: read mode polls
        sim.schedule_at(10, lambda: ch.enqueue(read(2048)))  # bank 1
        sim.run()
        # C (bank 1) issues on the tick it arrives, not when B's bank
        # frees up; the write drains after the last read.
        assert issues == [(0, 0), (10, 2048), (60, self.B_ADDR), (60, 4096)]
        assert ticks == list(range(0, 62))

    def test_refresh_inside_memo_window_clears_memo(self):
        sim = Simulator()
        timing = DramTiming(refresh_enabled=True, t_refi=100, t_rfc=50)
        ch = MemoryChannel("ch", sim, timing)
        issues, ticks = record_issues_and_ticks(ch)
        ch.enqueue(read(0, atoms=64))  # bank 0 busy until 28 + 128 = 156
        ch.enqueue(read(self.B_ADDR))
        ch.enqueue(write(4096))  # bank 2, ready: read mode polls
        sim.run()
        # The refresh at 100 blocks every bank until 150, so the
        # polling stops there and resumes at bank 2's new ready time.
        assert issues == [(0, 0), (156, self.B_ADDR), (156, 4096)]
        assert ticks == list(range(0, 101)) + list(range(150, 158))
        assert ch.stats.flatten()["ch.refreshes"] == 1

    def test_write_mode_flip_clears_memo(self):
        sim, ch = make_channel()
        issues, ticks = record_issues_and_ticks(ch)
        writes = [2048 * bank for bank in range(2, 26)]  # 24 idle banks
        ch.enqueue(read(0, atoms=16))
        ch.enqueue(read(self.B_ADDR))
        for addr in writes[:-1]:  # 23 writes: below WRITE_HI
            ch.enqueue(write(addr))
        sim.schedule_at(10, lambda: ch.enqueue(write(writes[-1])))
        sim.run()
        # The 24th write flips the channel into write mode at 10: it
        # drains 16 writes down to WRITE_LO, then serves reads again.
        assert ch.WRITE_HI == 24 and ch.WRITE_LO == 8
        assert issues == ([(0, 0)] + [(10, a) for a in writes[:16]]
                          + [(60, self.B_ADDR)]
                          + [(60, a) for a in writes[16:]])
        assert ticks == list(range(0, 62))


class TestInlineLayout:
    def test_coverage_arithmetic(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.granules_per_meta_atom == 16
        assert layout.data_per_meta_atom == 2048
        assert layout.capacity_overhead == pytest.approx(2 / 128)

    def test_granule_mapping(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.granule_of(0) == 0
        assert layout.granule_of(127) == 0
        assert layout.granule_of(128) == 1
        assert layout.granule_base(3) == 384

    def test_metadata_addresses_dense_and_aligned(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.metadata_addr(0) == layout.metadata_base
        assert layout.metadata_addr(1) == layout.metadata_base + 2
        atom = layout.metadata_atom(17)
        assert atom % 32 == 0
        assert atom >= layout.metadata_base

    def test_neighbouring_granules_share_atom(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.metadata_atom(0) == layout.metadata_atom(15)
        assert layout.metadata_atom(0) != layout.metadata_atom(16)

    def test_metadata_region_guard(self):
        layout = InlineEccLayout()
        assert layout.is_metadata(layout.metadata_base)
        assert not layout.is_metadata(1 << 20)
        with pytest.raises(ValueError):
            layout.granule_of(layout.metadata_base + 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            InlineEccLayout(granule_bytes=100)
        with pytest.raises(ValueError):
            InlineEccLayout(meta_per_granule=3)  # must divide the atom

    def test_sectors_per_granule(self):
        assert InlineEccLayout(granule_bytes=256).sectors_per_granule(32) == 8
