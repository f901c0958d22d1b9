"""Unit/integration tests for the SM model (via a tiny full system)."""

import pytest

from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem
from repro.gpu.sm import StreamingMultiprocessor, _WarpState
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.sim.engine import Simulator


def run_single_warp(ops, **gpu_overrides):
    """One SM, one warp, real hierarchy underneath."""
    config = make_test_config(**gpu_overrides).with_gpu(num_sms=1)
    system = GpuSystem(config)
    system.sms[0].add_warp(ops)
    cycles = system.run()
    return system, cycles


class TestBasicExecution:
    def test_compute_only_warp(self):
        system, cycles = run_single_warp([ComputeOp(100)])
        assert cycles >= 100
        assert system.sms[0].done

    def test_empty_warp_finishes(self):
        system, cycles = run_single_warp([])
        assert system.sms[0].done

    def test_load_blocks_until_memory_returns(self):
        _, compute_only = run_single_warp([ComputeOp(1)])
        _, with_load = run_single_warp([MemoryOp((0,)), ComputeOp(1)])
        # The load must add at least DRAM + crossbar latency.
        assert with_load > compute_only + 50

    def test_store_does_not_block(self):
        _, with_store = run_single_warp(
            [MemoryOp((0,), is_store=True)] + [ComputeOp(1)] * 10)
        _, with_load = run_single_warp(
            [MemoryOp((0,))] + [ComputeOp(1)] * 10)
        assert with_store < with_load

    def test_instruction_counting(self):
        system, _ = run_single_warp(
            [ComputeOp(1), MemoryOp((0,)), MemoryOp((128,), is_store=True)])
        flat = system.stats.flatten()
        assert flat["sm0.instructions"] == 3
        assert flat["sm0.loads"] == 1
        assert flat["sm0.stores"] == 1


class TestCachingBehaviour:
    def test_second_load_hits_l1(self):
        system, _ = run_single_warp([MemoryOp((0,)), MemoryOp((0,))])
        flat = system.stats.flatten()
        assert flat["sm0.l1.hits"] >= 1

    def test_divergent_load_makes_many_transactions(self):
        addrs = tuple(i * 4096 for i in range(16))
        system, _ = run_single_warp([MemoryOp(addrs)])
        flat = system.stats.flatten()
        assert flat["sm0.load_transactions"] == 16

    def test_coalesced_load_is_one_transaction(self):
        addrs = tuple(i * 4 for i in range(32))
        system, _ = run_single_warp([MemoryOp(addrs)])
        assert system.stats.flatten()["sm0.load_transactions"] == 1


class TestLatencyHiding:
    def test_more_warps_hide_latency(self):
        def run_n_warps(n):
            config = make_test_config().with_gpu(num_sms=1)
            system = GpuSystem(config)
            for w in range(n):
                ops = [MemoryOp((w * 65536 + i * 131072,))
                       for i in range(8)]
                system.sms[0].add_warp(ops)
            return system.run()

        one = run_n_warps(1)
        eight = run_n_warps(8)
        # 8 warps do 8x the work; with latency hiding the time must be
        # far below 8x one warp's time.
        assert eight < one * 4

    def test_mshr_pressure_counted_under_divergence(self):
        config = make_test_config().with_gpu(num_sms=1, l1_mshr_entries=4)
        system = GpuSystem(config)
        ops = [MemoryOp(tuple(i * 4096 + j * 524288 for i in range(32)))
               for j in range(4)]
        system.sms[0].add_warp(ops)
        system.run()
        flat = system.stats.flatten()
        assert flat["sm0.stall_retries"] > 0


class TestStoreBuffer:
    def test_store_buffer_backpressure(self):
        config = make_test_config().with_gpu(num_sms=1, store_buffer=2)
        system = GpuSystem(config)
        ops = [MemoryOp(tuple(i * 4096 + j * 262144 for i in range(16)),
                        is_store=True) for j in range(4)]
        system.sms[0].add_warp(ops)
        system.run()
        flat = system.stats.flatten()
        assert flat["sm0.storebuf.full_rejections"] > 0
        assert flat["sm0.store_transactions"] == 64


class TestCompletionInvariants:
    def test_all_warps_complete_under_protection(self):
        for scheme in ("none", "inline-sector", "inline-full", "cachecraft"):
            config = make_test_config().with_scheme(scheme).with_gpu(num_sms=1)
            system = GpuSystem(config)
            for w in range(4):
                system.sms[0].add_warp(
                    [MemoryOp((w * 8192 + i * 640,)) for i in range(6)]
                    + [MemoryOp((w * 8192,), is_store=True)])
            system.run()
            assert system.sms[0].done, scheme

    def test_finish_time_recorded(self):
        system, _ = run_single_warp([ComputeOp(10)])
        assert system.sms[0].finish_time is not None


class _HandFabric:
    """Zero-latency crossbar plus one L2 slice that answers nothing by
    itself: the test fires load responses and store acks by hand, so
    every issue cycle below is computable from the SM alone."""

    def __init__(self, sim):
        self.sim = sim
        self.sends = []      # (cycle, kind, line_addr) per transaction
        self.respond = {}    # line_addr -> respond(mask)
        self.acks = []

    def send_request(self, slice_id, sectors, deliver):
        deliver()

    def send_response(self, slice_id, sectors, deliver):
        deliver()

    def receive_load(self, line_addr, mask, respond, token=None):
        self.sends.append((self.sim.now, "load", line_addr))
        self.respond[line_addr] = lambda: respond(mask)

    def receive_store(self, line_addr, mask, ack):
        self.sends.append((self.sim.now, "store", line_addr))
        self.acks.append(ack)

    def receive_atomic(self, line_addr, mask, ack):
        self.sends.append((self.sim.now, "atomic", line_addr))
        self.acks.append(ack)


def hand_sm(warps, **kwargs):
    """One SM on a :class:`_HandFabric`.  Warps launch at their stagger
    ``(11 * warp_id) % 64``: 0, 11, 22, ..."""
    sim = Simulator()
    fabric = _HandFabric(sim)
    sm = StreamingMultiprocessor(0, sim, fabric, [fabric], lambda line: 0,
                                 **kwargs)
    for ops in warps:
        sm.add_warp(ops)
    sm.start()
    return sim, fabric, sm


class TestStallRetryMemo:
    """A parked warp retries every ``RETRY_CYCLES`` (4) and replays its
    memoized failure while the SM epoch is unchanged.  Each case
    releases the warp through one epoch hook and checks the cycle of
    its first successful issue: with the hook deleted the warp would
    keep replaying its failure and never issue."""

    def test_released_by_l2_response(self):
        # MSHR holds one line: warp 1 (line 1) parks behind warp 0's
        # miss at 11 and retries at 15, 19, 23, 27.
        sim, fabric, sm = hand_sm([[MemoryOp((0,))], [MemoryOp((128,))]],
                                  l1_mshr_entries=1)
        sim.schedule_at(25, lambda: fabric.respond[0]())
        sim.run(until=100)
        assert fabric.sends == [(0, "load", 0), (27, "load", 1)]
        flat = sm.stats.flatten()
        assert flat["sm0.stall_retries"] == 4  # 11, 15, 19, 23
        assert flat["sm0.l1mshr.full_stalls"] == 4
        assert flat["sm0.l1.line_misses"] == 6  # 2 issues + 4 failures
        fabric.respond[1]()
        sim.run()
        assert sm.done

    def test_released_by_store_credit_ack(self):
        # One store-buffer credit: warp 1's store parks at 11 until the
        # ack of warp 0's store frees it at 25; the retry at 27 issues.
        sim, fabric, sm = hand_sm(
            [[MemoryOp((0,), is_store=True)],
             [MemoryOp((128,), is_store=True)]], store_buffer=1)
        sim.schedule_at(25, lambda: fabric.acks[0]())
        sim.run(until=100)
        assert fabric.sends == [(0, "store", 0), (27, "store", 1)]
        flat = sm.stats.flatten()
        assert flat["sm0.stall_retries"] == 4
        assert flat["sm0.storebuf.full_rejections"] == 4
        fabric.acks[1]()
        sim.run()
        assert sm.done

    def test_released_when_merge_possible(self):
        # Two waiters per MSHR entry: warp 1 merges into warp 0's miss,
        # warp 2 hits the merge limit at 22 and retries at 26, 30.  The
        # response at 28 completes the entry and fills the line, so the
        # retry at 30 is an L1 hit and warp 2 retires l1_latency later.
        sim, fabric, sm = hand_sm([[MemoryOp((0,))]] * 3)
        sm.l1_mshrs.max_merges = 2
        retired = []
        ready = sm._warp_ready

        def log_ready(warp):
            if warp.state is not _WarpState.READY:  # not the launch
                retired.append((sim.now, warp.warp_id))
            ready(warp)
        sm._warp_ready = log_ready
        sim.schedule_at(28, lambda: fabric.respond[0]())
        sim.run(until=200)
        assert fabric.sends == [(0, "load", 0)]
        assert retired == [(28, 0), (28, 1), (30 + sm.l1_latency, 2)]
        flat = sm.stats.flatten()
        assert flat["sm0.l1mshr.merge_stalls"] == 2  # 22, 26
        assert flat["sm0.l1mshr.merges"] == 1
        assert flat["sm0.l1.hits"] == 1
        assert sm.done

    def test_replay_follows_an_issued_transaction(self):
        # Warp 1 wants sectors 0-1 of line 1 with sector 0 resident: each
        # failed attempt counts one hit and one sector miss.  Warp 2's
        # atomic at 22 invalidates sector 0, so from the retry at 23 on
        # each attempt counts two sector misses instead.
        sim, fabric, sm = hand_sm(
            [[MemoryOp((0,))], [MemoryOp((128, 160))],
             [MemoryOp((128,), is_store=True, is_atomic=True)]],
            l1_mshr_entries=1)
        line, _ = sm.l1.allocate(1)
        sm.l1.fill_sectors(line, 0b1)
        sim.schedule_at(40, lambda: fabric.respond[0]())
        sim.run(until=100)
        # Failures at 11, 15, 19 (1 hit + 1 miss) and 23..39 (2 misses),
        # then the retry at 43 issues (2 misses).
        assert fabric.sends == [(0, "load", 0), (22, "atomic", 1),
                                (43, "load", 1)]
        flat = sm.stats.flatten()
        assert flat["sm0.l1.hits"] == 3
        assert flat["sm0.l1.sector_misses"] == 3 + 5 * 2 + 2
        assert flat["sm0.stall_retries"] == 8
