"""Unit/integration tests for the SM model (via a tiny full system)."""

import pytest

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem
from repro.gpu.sm import StreamingMultiprocessor, _WarpState
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.sim.engine import Simulator
from repro.workloads import make_workload
from tests.test_event_golden import SCALE as GOLDEN_SCALE, SEED as GOLDEN_SEED


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


def disable_wake(sm, site):
    """Run ``sm.<site>`` with the parked list hidden, so that this one
    wake site wakes nobody; warps it parks itself are kept."""
    inner = getattr(sm, site)

    def call(*args):
        parked, sm._parked = sm._parked, []
        inner(*args)
        sm._parked = parked + sm._parked
    setattr(sm, site, call)


def record_attempts(sm):
    """Log ``(cycle, warp_id)`` per issue attempt of a memory op."""
    attempts = []
    advance = sm._advance_mem_op

    def logged(warp):
        attempts.append((sm.sim.now, warp.warp_id))
        advance(warp)
    sm._advance_mem_op = logged
    return attempts


class TestStallRetryMemo:
    """A warp whose issue attempt fails is parked: it queues no event
    until one of the SM's wake sites -- an issued transaction, an L2
    response, a store-credit release -- wakes every parked warp once.
    A woken warp re-attempts at the first point of its own 4-cycle
    (``RETRY_CYCLES``) grid after the wake, ``parked_at + 4k``.  Each
    case pins the cycle of the parked warp's issue.  ``disabled`` names
    a wake site to switch off (pytest passes none): the missing-wake
    guards below run each case with its own site off and require it
    to fail."""

    def l2_response_case(self, disabled=None):
        # MSHR holds one line: warp 1 (line 1) parks behind warp 0's
        # miss at 11; the response at 25 wakes it for 11 + 4k = 27.
        sim, fabric, sm = hand_sm([[MemoryOp((0,))], [MemoryOp((128,))]],
                                  l1_mshr_entries=1)
        if disabled:
            disable_wake(sm, disabled)
        sim.schedule_at(25, lambda: fabric.respond[0]())
        sim.run(until=100)
        return sim, fabric, sm

    def test_released_by_l2_response(self, disabled=None):
        sim, fabric, sm = self.l2_response_case(disabled)
        assert fabric.sends == [(0, "load", 0), (27, "load", 1)]
        flat = sm.stats.flatten()
        assert flat["sm0.stall_retries"] == 1  # 11
        assert flat["sm0.l1mshr.full_stalls"] == 1
        assert flat["sm0.l1.line_misses"] == 3  # 2 issues + 1 failure
        fabric.respond[1]()
        sim.run()
        assert sm.done

    def store_credit_ack_case(self, disabled=None):
        # One store-buffer credit: warp 1's store parks at 11 until the
        # ack of warp 0's store frees it at 25; it issues at 27.
        sim, fabric, sm = hand_sm(
            [[MemoryOp((0,), is_store=True)],
             [MemoryOp((128,), is_store=True)]], store_buffer=1)
        if disabled:
            disable_wake(sm, disabled)
        sim.schedule_at(25, lambda: fabric.acks[0]())
        sim.run(until=100)
        return sim, fabric, sm

    def test_released_by_store_credit_ack(self, disabled=None):
        sim, fabric, sm = self.store_credit_ack_case(disabled)
        assert fabric.sends == [(0, "store", 0), (27, "store", 1)]
        flat = sm.stats.flatten()
        assert flat["sm0.stall_retries"] == 1
        assert flat["sm0.storebuf.full_rejections"] == 1
        fabric.acks[1]()
        sim.run()
        assert sm.done

    def merge_possible_case(self, disabled=None):
        # Two waiters per MSHR entry: warp 1 merges into warp 0's miss,
        # warp 2 hits the merge limit at 22 and parks.  The response at
        # 28 completes the entry and fills the line, so the re-attempt
        # at 30 is an L1 hit and warp 2 retires l1_latency later.
        sim, fabric, sm = hand_sm([[MemoryOp((0,))]] * 3)
        sm.l1_mshrs.max_merges = 2
        if disabled:
            disable_wake(sm, disabled)
        retired = []
        ready = sm._warp_ready

        def log_ready(warp):
            if warp.state is not _WarpState.READY:  # not the launch
                retired.append((sim.now, warp.warp_id))
            ready(warp)
        sm._warp_ready = log_ready
        sim.schedule_at(28, lambda: fabric.respond[0]())
        sim.run(until=200)
        return sim, fabric, sm, retired

    def test_released_when_merge_possible(self, disabled=None):
        sim, fabric, sm, retired = self.merge_possible_case(disabled)
        assert fabric.sends == [(0, "load", 0)]
        assert retired == [(28, 0), (28, 1), (30 + sm.l1_latency, 2)]
        flat = sm.stats.flatten()
        assert flat["sm0.l1mshr.merge_stalls"] == 1  # 22
        assert flat["sm0.l1mshr.merges"] == 1
        assert flat["sm0.l1.hits"] == 1
        assert sm.done

    def issued_transaction_case(self, disabled=None):
        # Warp 1 wants sectors 0-1 of line 1 with sector 0 resident and
        # parks at 11 (1 hit + 1 sector miss).  Warp 2's atomic at 22
        # wakes it: the re-attempt at 23 fails again, now with two
        # sector misses (the atomic invalidated sector 0).  The
        # response at 40 wakes it for 43, where it issues.
        sim, fabric, sm = hand_sm(
            [[MemoryOp((0,))], [MemoryOp((128, 160))],
             [MemoryOp((128,), is_store=True, is_atomic=True)]],
            l1_mshr_entries=1)
        line, _ = sm.l1.allocate(1)
        sm.l1.fill_sectors(line, 0b1)
        if disabled:
            disable_wake(sm, disabled)
        attempts = record_attempts(sm)
        sim.schedule_at(40, lambda: fabric.respond[0]())
        sim.run(until=100)
        return sim, fabric, sm, attempts

    def test_replay_follows_an_issued_transaction(self, disabled=None):
        sim, fabric, sm, attempts = self.issued_transaction_case(disabled)
        assert fabric.sends == [(0, "load", 0), (22, "atomic", 1),
                                (43, "load", 1)]
        assert [t for t, warp in attempts if warp == 1] == [11, 23, 43]
        flat = sm.stats.flatten()
        assert flat["sm0.l1.hits"] == 1
        assert flat["sm0.l1.sector_misses"] == 1 + 2 + 2
        assert flat["sm0.stall_retries"] == 2

    @pytest.mark.parametrize("case, site", [
        ("l2_response", "_on_l2_response"),
        ("store_credit_ack", "_release_store_credit"),
        ("merge_possible", "_on_l2_response"),
    ])
    def test_missing_wake_never_issues(self, case, site):
        # Without the wake of the event that frees it, nothing is
        # queued for the parked warp: the run drains around it.
        sim, _fabric, sm, *_ = getattr(self, f"{case}_case")(disabled=site)
        sim.run()
        assert [w.warp_id for w in sm._parked] == [len(sm._warps) - 1]
        assert not sm.done

    @pytest.mark.parametrize("test, site", [
        ("test_released_by_l2_response", "_on_l2_response"),
        ("test_released_by_store_credit_ack", "_release_store_credit"),
        ("test_released_when_merge_possible", "_on_l2_response"),
        ("test_replay_follows_an_issued_transaction", "_advance_mem_op"),
    ])
    def test_missing_wake_is_caught(self, test, site):
        # The issued-transaction wake frees nothing (issuing only takes
        # resources); without it the warp still issues at 43, but its
        # re-attempt at 23 and that attempt's counters are lost.
        with pytest.raises(AssertionError):
            getattr(self, test)(disabled=site)


class TestParkedWarpEvents:
    def test_attempts_are_bounded_by_freeing_events(self):
        """A parked warp re-attempts only when woken, so the issue
        attempts queued as events stay within the events that free an
        SM resource (L2 responses and store-credit releases).  A warp
        that polled its resource would exceed them several times over
        on pchase, the latency-bound probe."""
        config = bench_config().with_scheme("cachecraft")
        system = GpuSystem(config)
        system.load_workload(make_workload("pchase"), bench_gen_ctx(
            config, scale=GOLDEN_SCALE, seed=GOLDEN_SEED))
        sim = system.sim
        counts = {"attempts": 0, "freeing": 0}

        def count_attempts(inner):
            def schedule(when, fn, *args):
                if getattr(fn, "__name__", "") == "_advance_mem_op":
                    counts["attempts"] += 1
                inner(when, fn, *args)
            return schedule

        def count_freeing(inner):
            def site(*args):
                counts["freeing"] += 1
                inner(*args)
            return site

        sim.schedule = count_attempts(sim.schedule)
        sim.schedule_at = count_attempts(sim.schedule_at)
        for sm in system.sms:
            for site in ("_on_l2_response", "_release_store_credit"):
                setattr(sm, site, count_freeing(getattr(sm, site)))
        system.run()
        assert all(sm.done for sm in system.sms)
        assert 0 < counts["attempts"] <= counts["freeing"], counts
