"""Differential tests for the functional fidelity tier.

The contract (see ``src/repro/sim/functional.py``): on a serialized
memory stream — one SM, one warp, one lane, blocking stores — every
traffic, hit/miss, eviction/writeback and metadata counter the event
tier produces must match the functional tier **bit-for-bit**, for
every registered workload under every protection scheme.  Timing-only
statistics are explicitly enumerated and excluded.
"""

import pytest

from repro.core.config import ALL_SCHEMES, SystemConfig
from repro.core.config import test_config as parity_config
from repro.core.scenario import producer_consumer
from repro.core.system import GpuSystem, run_workload
from repro.sim.functional import is_timing_only_stat, parity_diff
from repro.workloads.base import WORKLOAD_REGISTRY, GenContext, make_workload

#: The serialized-stream parity machine: one SM, one warp, one lane,
#: stores blocking retire — at most one memory op in flight, so FIFO
#: micro-task order in the functional tier equals event order.
PARITY_GPU = dict(num_sms=1, warps_per_sm=1, lanes=1, blocking_stores=True)

PARITY_CTX = GenContext(num_sms=1, warps_per_sm=1, lanes=1, seed=42,
                        scale=0.2, line_bytes=128, sector_bytes=32)


def _run(workload_name: str, scheme: str, fidelity: str,
         ctx: GenContext = PARITY_CTX):
    config = parity_config(**PARITY_GPU).with_scheme(scheme) \
        .with_fidelity(fidelity)
    return run_workload(make_workload(workload_name), config, gen_ctx=ctx)


def assert_parity(workload_name: str, scheme: str,
                  ctx: GenContext = PARITY_CTX) -> None:
    event = _run(workload_name, scheme, "event", ctx)
    functional = _run(workload_name, scheme, "functional", ctx)
    problems = parity_diff(event.stats, functional.stats)
    assert not problems, (
        f"{workload_name}/{scheme}: {len(problems)} parity violations:\n"
        + "\n".join(problems[:20]))
    assert functional.traffic == event.traffic
    assert functional.cycles == 0
    assert functional.fidelity == "functional"
    assert event.fidelity == "event"


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("workload", sorted(WORKLOAD_REGISTRY))
def test_counter_parity_full_grid(workload, scheme):
    """Every registered workload x every scheme: exact counter parity."""
    assert_parity(workload, scheme)


class TestEdgeConfigs:
    def test_no_workload_loaded(self):
        """Zero warps: both tiers run to completion with equal (all
        idle) counters."""
        for scheme in ("none", "cachecraft"):
            results = {}
            for fidelity in ("event", "functional"):
                config = parity_config(**PARITY_GPU).with_scheme(scheme) \
                    .with_fidelity(fidelity)
                system = GpuSystem(config)
                cycles = system.run()
                results[fidelity] = system.result("idle", cycles)
            assert not parity_diff(results["event"].stats,
                                   results["functional"].stats)
            assert results["functional"].total_dram_bytes \
                == results["event"].total_dram_bytes == 0

    def test_tiny_scale_near_empty_traces(self):
        """A scale small enough that most warps round to no work."""
        ctx = GenContext(num_sms=1, warps_per_sm=1, lanes=1, seed=7,
                         scale=0.001)
        assert_parity("vecadd", "cachecraft", ctx)

    def test_scheme_none_is_pure_cache_model(self):
        assert_parity("spmv", "none")

    def test_different_seeds_still_match(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, lanes=1, seed=1234,
                         scale=0.2)
        assert_parity("uniform-random", "cachecraft", ctx)


class TestFunctionalGuards:
    def test_resilience_rejected(self):
        config = parity_config().with_fidelity("functional").with_resilience()
        with pytest.raises(ValueError, match="resilience"):
            GpuSystem(config)

    def test_enabled_observability_rejected(self):
        from repro.obs.hub import Observability
        from repro.obs.tracer import ChromeTracer

        config = parity_config().with_fidelity("functional")
        with pytest.raises(ValueError, match="timing"):
            GpuSystem(config, obs=Observability(tracer=ChromeTracer()))

    def test_disabled_observability_accepted(self):
        from repro.obs.hub import OBS_OFF

        config = parity_config().with_fidelity("functional")
        GpuSystem(config, obs=OBS_OFF)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            SystemConfig(fidelity="cycle-accurate")


class TestTimingOnlyClassifier:
    def test_timing_keys_excluded(self):
        for key in ("engine.events", "dram0.row_hits", "dram3.refreshes",
                    "dram1.read_latency.mean", "xbar.req_bytes",
                    "latency.total_cycles"):
            assert is_timing_only_stat(key), key

    def test_counter_keys_included(self):
        for key in ("dram0.reads", "dram0.bytes_data", "sm0.l1.hits",
                    "l2s0.cache.evictions", "l2s1.mshr.merges",
                    "mdcache.hits", "craft.granules_verified"):
            assert not is_timing_only_stat(key), key

    def test_parity_diff_reports_all_violation_kinds(self):
        event = {"a.hits": 1.0, "b.misses": 2.0, "engine.events": 99.0}
        functional = {"a.hits": 1.0, "b.misses": 3.0, "c.extra": 4.0}
        problems = parity_diff(event, functional)
        assert any("mismatch b.misses" in p for p in problems)
        assert any("functional-only stat: c.extra" in p for p in problems)
        event["d.only"] = 1.0
        assert any("event-only" in p
                   for p in parity_diff(event, functional))


class TestThroughput:
    def test_functional_executes_fewer_host_steps(self):
        """Not a wall-clock test (CI noise): the functional tier must
        do structurally less work — its micro-task count is well below
        the event tier's event count for the same cell."""
        event = _run("vecadd", "cachecraft", "event")
        functional = _run("vecadd", "cachecraft", "functional")
        assert functional.events_executed < event.events_executed / 2


class TestMultiKernel:
    """Two kernels back to back on one system: per-kernel parity holds
    only if the L1, L2, metadata and directory state carry over from
    the producer to the consumer identically on both tiers."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("workload", ["vecadd", "histogram"])
    def test_producer_consumer_parity_per_kernel(self, workload, scheme):
        outcomes = {}
        for fidelity in ("event", "functional"):
            config = parity_config(**PARITY_GPU).with_scheme(scheme) \
                .with_fidelity(fidelity)
            outcomes[fidelity] = producer_consumer(
                make_workload(workload), make_workload(workload),
                config=config).run(gen_ctx=PARITY_CTX)
        kernels = zip(outcomes["event"].kernels,
                      outcomes["functional"].kernels)
        for index, (event, functional) in enumerate(kernels):
            problems = parity_diff(event.stats, functional.stats)
            assert not problems, (
                f"kernel {index}: {len(problems)} parity violations:\n"
                + "\n".join(problems[:20]))
            assert functional.traffic == event.traffic
        # The consumer re-reads the producer's inputs from a warm L1.
        first, both = (k.stats["sm0.l1.hits"]
                       for k in outcomes["functional"].kernels)
        assert both - first > first
