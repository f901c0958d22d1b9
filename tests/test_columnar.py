"""The columnar warp-trace IR: compilation, serialization,
memoization and vectorized-replay equivalence.

The bit-for-bit oracle for the replay itself is
``tests/test_fidelity_parity.py`` (the full workload x scheme grid
runs the columnar path by default); this file covers the IR's own
contracts — lossless lowering, digest stability, the binary
container, the compiled-artifact memo — plus loaded-vs-hand-added
counter equality on *concurrent* (multi-SM, multi-warp) shapes the
parity grid's serialized machine does not exercise.
"""

import io

import numpy as np
import pytest

from repro.core.config import test_config as small_config
from repro.gpu.coalescer import coalesce
from repro.gpu.columnar import (
    ARRAY_SPECS,
    OP_ATOMIC,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    CompiledTrace,
    compile_trace,
    round_robin_order,
)
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.gpu.tracefile import dump_columnar, load_columnar
from repro.workloads.base import (
    GenContext,
    compiled_digest,
    make_workload,
    materialize,
    materialize_compiled,
    trace_cache_clear,
    trace_cache_stats,
)


def _toy_traces():
    """Two SMs, mixed op kinds, including an atomic and a gather."""
    return [
        [  # sm0
            [ComputeOp(5),
             MemoryOp((0, 4, 8, 12)),
             MemoryOp((128, 132), is_store=True)],
            [MemoryOp((256,), is_store=True, is_atomic=True),
             ComputeOp(2)],
        ],
        [  # sm1
            [MemoryOp((4096, 64, 8192))],
        ],
    ]


class TestCompile:
    def test_kinds_args_and_structure(self):
        c = compile_trace(_toy_traces())
        assert c.num_sms == 2
        assert c.num_warps == 3
        assert list(c.warp_sm) == [0, 0, 1]
        assert list(c.op_kind) == [OP_COMPUTE, OP_LOAD, OP_STORE,
                                   OP_ATOMIC, OP_COMPUTE, OP_LOAD]
        assert list(c.op_arg) == [5, 0, 0, 0, 2, 0]
        assert list(c.warp_ptr) == [0, 3, 5, 6]
        c.validate()

    def test_transactions_match_coalesce(self):
        traces = _toy_traces()
        c = compile_trace(traces, line_bytes=128, sector_bytes=32)
        for sm_ops, warp in ((traces[0][0], 0), (traces[1][0], 2)):
            ops = range(int(c.warp_ptr[warp]), int(c.warp_ptr[warp + 1]))
            for o in ops:
                if c.op_kind[o] == OP_COMPUTE:
                    assert c.op_txn_ptr[o] == c.op_txn_ptr[o + 1]
        # The gather op (sm1 warp) coalesces to three distinct lines.
        gather = coalesce((4096, 64, 8192), 128, 32)
        start, end = int(c.op_txn_ptr[5]), int(c.op_txn_ptr[6])
        assert [(int(l), int(m)) for l, m in
                zip(c.txn_line[start:end], c.txn_mask[start:end])] \
            == [(int(l), int(m)) for l, m in gather]

    def test_arrays_are_frozen(self):
        c = compile_trace(_toy_traces())
        for name, _dtype in ARRAY_SPECS:
            arr = getattr(c, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_digest_is_content_addressed(self):
        a = compile_trace(_toy_traces())
        b = compile_trace(_toy_traces())
        assert a.digest == b.digest
        # Geometry participates: same ops, different sectoring.
        c = compile_trace(_toy_traces(), sector_bytes=64)
        assert c.digest != a.digest

    def test_empty_machine(self):
        c = compile_trace([])
        assert (c.num_warps, c.num_ops, c.num_txns) == (0, 0, 0)
        c.validate()


class TestRoundRobinOrder:
    def test_rotation_matches_scalar_replay(self):
        # 2 warps on sm0 (3 and 1 ops), 1 on sm1 (2 ops): one op per
        # active warp per round visits w0,w1,w2 then w0,w2 then w0.
        traces = [
            [[ComputeOp(1)] * 3, [ComputeOp(1)]],
            [[ComputeOp(1)] * 2],
        ]
        c = compile_trace(traces)
        order = round_robin_order(c, machine_sms=2)
        # ops: w0 -> 0,1,2  w1 -> 3  w2 -> 4,5
        assert list(order) == [0, 3, 4, 1, 5, 2]

    def test_truncates_warps_beyond_machine(self):
        c = compile_trace(_toy_traces())
        order = round_robin_order(c, machine_sms=1)
        counts = np.diff(c.warp_ptr)
        op_warp = np.repeat(np.arange(c.num_warps), counts)
        assert all(c.warp_sm[op_warp[o]] == 0 for o in order)


class TestColumnarFile:
    def test_round_trip(self):
        c = compile_trace(_toy_traces())
        buf = io.BytesIO()
        written = dump_columnar(c, buf, workload="toy")
        assert written == len(buf.getvalue())
        buf.seek(0)
        loaded = load_columnar(buf)
        assert loaded.digest == c.digest
        assert loaded.num_sms == c.num_sms
        for name, _dtype in ARRAY_SPECS:
            assert np.array_equal(getattr(loaded, name), getattr(c, name))
            assert not getattr(loaded, name).flags.writeable

    def test_atomic_encoding_survives(self):
        """The JSONL v1 two-flag encoding and the columnar kind enum
        agree: a dumped-and-loaded artifact equals compiling the
        JSONL round trip of the same traces."""
        from repro.gpu.tracefile import (distribute_traces, dump_traces,
                                         flatten_machine_traces,
                                         load_traces)

        traces = _toy_traces()
        text = io.StringIO()
        dump_traces(flatten_machine_traces(traces), text, workload="toy")
        text.seek(0)
        rebuilt = distribute_traces(load_traces(text), num_sms=2,
                                    warps_per_sm=2)
        assert compile_trace(rebuilt).digest == compile_trace(traces).digest

    def test_truncation_detected(self):
        c = compile_trace(_toy_traces())
        buf = io.BytesIO()
        dump_columnar(c, buf)
        data = buf.getvalue()
        with pytest.raises(ValueError, match="truncated"):
            load_columnar(io.BytesIO(data[:-4]))

    def test_tampering_detected(self):
        c = compile_trace(_toy_traces())
        buf = io.BytesIO()
        dump_columnar(c, buf)
        data = bytearray(buf.getvalue())
        data[-1] ^= 0xFF  # flip a bit in the last array
        with pytest.raises(ValueError, match="digest"):
            load_columnar(io.BytesIO(bytes(data)))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            load_columnar(io.BytesIO(b'{"not-a-trace":1}\n'))


class TestCompiledMemo:
    def setup_method(self):
        trace_cache_clear()

    def test_hit_on_identical_request(self):
        ctx = GenContext(num_sms=1, warps_per_sm=2, scale=0.05)
        first = materialize_compiled(make_workload("vecadd"), ctx)
        second = materialize_compiled(make_workload("vecadd"), ctx)
        assert first is second
        stats = trace_cache_stats()
        assert (stats["compiled_hits"], stats["compiled_misses"]) == (1, 1)

    def test_geometry_gets_its_own_entry(self):
        ctx = GenContext(num_sms=1, warps_per_sm=2, scale=0.05)
        a = materialize_compiled(make_workload("vecadd"), ctx)
        b = materialize_compiled(make_workload("vecadd"), ctx,
                                 sector_bytes=64)
        assert a is not b
        assert a.digest != b.digest

    def test_unhashable_params_fall_back_uncached(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.02)
        wl = make_workload("vecadd")
        wl.params["tag"] = [1, 2]  # lists don't hash -> memo bypass
        a = materialize_compiled(wl, ctx)
        b = materialize_compiled(wl, ctx)
        assert a is not b  # compiled uncached each time
        assert a.digest == b.digest  # but identical content
        assert trace_cache_stats()["compiled_entries"] == 0

    def test_memoized_artifact_is_immutable(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.02)
        c = materialize_compiled(make_workload("vecadd"), ctx)
        with pytest.raises(ValueError):
            c.txn_line[0] = 7
        with pytest.raises(Exception):  # frozen dataclass
            c.digest = "x"

    def test_digest_helper_matches_artifact(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.02)
        wl = make_workload("vecadd")
        assert compiled_digest(wl, ctx) \
            == materialize_compiled(wl, ctx).digest


class TestReplayEquivalence:
    """The replay's two artifact sources agree on concurrent shapes.

    ``load_workload`` hands the replay the memoized artifact; warps
    added with ``sm.add_warp`` are compiled when the kernel runs.  The
    same traces must give the same counters either way.  The reference
    for the replay itself is ``tests/test_functional_golden.py``."""

    CTX = GenContext(num_sms=2, warps_per_sm=3, scale=0.05, seed=7)

    @staticmethod
    def _system(scheme, obs=None):
        from repro.core.system import GpuSystem

        config = small_config(num_sms=2, warps_per_sm=3) \
            .with_scheme(scheme).with_fidelity("functional")
        return GpuSystem(config, obs=obs)

    def _run(self, workload, scheme, hand_added):
        system = self._system(scheme)
        if hand_added:
            traces = materialize(make_workload(workload), self.CTX)
            for sm, warps in zip(system.sms, traces):
                for ops in warps:
                    sm.add_warp(ops)
        else:
            system.load_workload(make_workload(workload), self.CTX)
        system.run()
        return system.result(workload, 0)

    @pytest.mark.parametrize("workload,scheme", [
        ("vecadd", "none"),
        ("bfs", "cachecraft"),
        ("transpose", "inline-full"),
        ("histogram", "metadata-cache"),   # atomics
        ("stencil3d", "sideband"),
    ])
    def test_counters_and_traffic_match(self, workload, scheme):
        loaded = self._run(workload, scheme, hand_added=False)
        hand = self._run(workload, scheme, hand_added=True)
        assert hand.traffic == loaded.traffic
        assert hand.stats == loaded.stats

    def test_columnar_engages_by_default(self, monkeypatch):
        import repro.core.system as system_mod

        calls = []
        real = system_mod.replay_columnar
        monkeypatch.setattr(system_mod, "replay_columnar",
                            lambda *a, **k: (calls.append(1),
                                             real(*a, **k))[1])
        self._run("vecadd", "none", hand_added=False)
        assert calls

    def test_flame_profiling_roots_at_replay(self):
        from repro.obs.flame import FlameProfiler
        from repro.obs.hub import Observability

        flame = FlameProfiler(sample_every=4)
        system = self._system("none", obs=Observability(flame=flame))
        system.load_workload(make_workload("vecadd"), self.CTX)
        system.run()
        assert flame.sample_count > 0
        assert any(stack and stack[0] == "functional.replay"
                   for stack in flame.samples)

    def test_manual_add_warp_is_compiled(self):
        from repro.gpu.trace import MemoryOp as M

        system = self._system("none")
        system.load_workload(make_workload("vecadd"), self.CTX)
        system.sms[0].add_warp([M((0, 4))])  # not in the artifact
        system.run()  # must not lose the extra warp
        loaded = self._run("vecadd", "none", hand_added=False)
        stats = system.stats.flatten()
        assert stats["sm0.loads"] == loaded.stats["sm0.loads"] + 1
        assert stats["sm0.instructions"] \
            == loaded.stats["sm0.instructions"] + 1
        assert system.sms[0].done
