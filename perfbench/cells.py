"""Cell matrices: the ``event-matrix`` and ``functional-sweep`` workloads.

A *cell* is one (workload, scheme) simulation on the bench machine
(``bench_config()``: 4 SMs x 8 warps, 1 MiB L2, 4 slices/channels).
A *pass* runs every cell of a matrix once, each on a freshly built
``GpuSystem``.  Host time is split three ways per pass:

* ``gen_s``   -- trace generation, per workload;
* ``build_s`` -- ``GpuSystem`` construction and ``load_workload``, which
  on the functional tier includes the columnar compile (the event tier
  never compiles);
* ``run_s``   -- ``GpuSystem.run`` only (what ``txn_per_s`` divides by).

A *cold* pass starts from an empty in-process trace memo, so it pays
trace generation; a warm pass reuses the memo of the pass before.

Every cell is checked (:func:`check_cell`); a cell that raises or fails
a check is counted as failed, never dropped.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from layer_trace import LayerTracer
from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.system import GpuSystem
from repro.gpu.coalescer import transaction_count
from repro.gpu.trace import MemoryOp
from repro.workloads import make_workload
from repro.workloads.base import materialize, trace_cache_clear

SCHEMES = ("none", "metadata-cache", "inline-full", "cachecraft")


@dataclass(frozen=True)
class Matrix:
    """One cell matrix: a fidelity tier, a scale and its workloads."""

    tier: str
    scale: float
    workloads: Tuple[str, ...]
    schemes: Tuple[str, ...] = SCHEMES


#: The two matrix workloads.  Scales set the run length (one pass of
#: either takes 9-16 s on a 2-core host); the cell lists are fixed.
MATRICES: Dict[str, Matrix] = {
    # DRAM scheduler, engine dispatch, SM issue and crossbar dominate.
    # bfs keeps the FR-FCFS queues deep, pchase is the latency-bound
    # probe, vecadd the row-hit-heavy stream, histogram adds stores.
    "event-matrix": Matrix(
        "event", 0.02, ("vecadd", "bfs", "spmv", "pchase", "histogram")),
    # No DRAM scheduler and no crossbar: columnar replay, the L2 slice
    # and the scheme's miss path.  A scheduler change must not move it.
    "functional-sweep": Matrix(
        "functional", 0.25,
        ("vecadd", "bfs", "uniform-random", "spmv", "histogram")),
}


def cell_config(tier: str, scheme: str):
    cfg = bench_config().with_scheme(scheme)
    return cfg.with_fidelity(tier) if cfg.fidelity != tier else cfg


def trace_txns(traces, line_bytes: int) -> int:
    """Coalesced transactions in ``[sm][warp] -> ops`` traces: one per
    distinct line a memory op touches.  Counted from the raw ops, so it
    needs no columnar compile."""
    return sum(transaction_count(op.addresses, line_bytes)
               for warps in traces for ops in warps for op in ops
               if isinstance(op, MemoryOp))


def txn_count(stats: Dict[str, float]) -> int:
    """Coalesced memory transactions the SMs issued."""
    return int(sum(v for k, v in stats.items()
                   if k.startswith("sm") and k.endswith(
                       (".load_transactions", ".store_transactions"))))


def snapshot(system: GpuSystem, cycles: int) -> Dict[str, float]:
    """Every simulated counter of a finished system, flat."""
    snap = dict(system.stats.flatten())
    snap["engine.events"] = system.sim.events_executed
    snap["cycles"] = cycles
    for kind, nbytes in system.traffic().items():
        snap[f"traffic.{kind}"] = nbytes
    return snap


def digest(snap: Dict[str, float]) -> str:
    """A content hash of a snapshot (bit-identity check across runs)."""
    text = json.dumps(sorted(snap.items()), separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def check_cell(snap: Dict[str, float], expected_txns: Optional[int],
               sector_bytes: int) -> List[str]:
    """Output checks that hold for any seed; returns the violations.

    * per-kind channel bytes equal (sum of ``dramN.reads`` +
      ``dramN.writes``) x sector bytes;
    * the SMs issued exactly the coalesced transactions of the input
      trace -- so the count is identical across schemes and tiers.
    """
    problems = []
    kind_bytes = sum(v for k, v in snap.items() if k.startswith("traffic."))
    atoms = sum(v for k, v in snap.items()
                if k.startswith("dram") and k.endswith((".reads", ".writes")))
    if kind_bytes != atoms * sector_bytes:
        problems.append(f"channel bytes {kind_bytes} != "
                        f"{atoms} atoms x {sector_bytes} B")
    txns = txn_count(snap)
    if expected_txns is not None and txns != expected_txns:
        problems.append(f"{txns} transactions, trace has {expected_txns}")
    return problems


@dataclass
class CellOutcome:
    workload: str
    scheme: str
    problems: List[str] = field(default_factory=list)
    snap: Dict[str, float] = field(default_factory=dict)
    run_s: float = 0.0
    build_s: float = 0.0
    #: Coalesced transactions in the cell's input trace.
    txns: int = 0
    tracer: Optional[LayerTracer] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.scheme}"


@dataclass
class PassResult:
    cells: List[CellOutcome]
    gen_s: float = 0.0
    build_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0

    @property
    def txns(self) -> int:
        return sum(c.txns for c in self.cells)

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.build_s

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.cells)


def _gen(matrix: Matrix, name: str, seed: int):
    """Workload, GenContext and the generated traces."""
    cfg = cell_config(matrix.tier, matrix.schemes[0])
    workload = make_workload(name)
    ctx = bench_gen_ctx(cfg, scale=matrix.scale, seed=seed)
    return workload, ctx, materialize(workload, ctx)


def run_pass(matrix: Matrix, seed: int, cold: bool,
             traced: bool = False) -> PassResult:
    """Run every cell of ``matrix`` once on fresh systems.

    With ``traced`` each run goes through its own
    :class:`~layer_trace.LayerTracer` (kept on the cell); the pass's
    ``run_s`` is then traced wall time.
    """
    if cold:
        trace_cache_clear()
    result = PassResult(cells=[])
    started = time.perf_counter()
    for name in matrix.workloads:
        t0 = time.perf_counter()
        try:
            workload, ctx, traces = _gen(matrix, name, seed)
        except Exception as exc:  # a broken workload fails its cells
            result.cells.extend(
                CellOutcome(name, s, [f"trace generation: {exc!r}"])
                for s in matrix.schemes)
            continue
        result.gen_s += time.perf_counter() - t0
        expected = trace_txns(traces, ctx.line_bytes)
        for scheme in matrix.schemes:
            cell = CellOutcome(name, scheme, txns=expected)
            result.cells.append(cell)
            try:
                t0 = time.perf_counter()
                cfg = cell_config(matrix.tier, scheme)
                system = GpuSystem(cfg)
                system.load_workload(workload, ctx)
                t1 = time.perf_counter()
                if traced:
                    cell.tracer = LayerTracer()
                    cycles = cell.tracer.trace(system, GpuSystem.run)
                else:
                    cycles = system.run()
                t2 = time.perf_counter()
            except Exception as exc:  # counted as failed, not dropped
                cell.problems.append(f"raised {exc!r}")
                continue
            cell.build_s = t1 - t0
            cell.run_s = t2 - t1
            result.build_s += cell.build_s
            result.run_s += cell.run_s
            cell.snap = snapshot(system, cycles)
            cell.problems.extend(
                check_cell(cell.snap, expected, cfg.gpu.sector_bytes))
    result.wall_s = time.perf_counter() - started
    return result


def setup_round(matrix: Matrix, seed: int) -> float:
    """Set-up only, from an empty memo: generate every trace and
    build and load every cell's system.  Returns host seconds."""
    trace_cache_clear()
    started = time.perf_counter()
    for name in matrix.workloads:
        workload, ctx, _ = _gen(matrix, name, seed)
        for scheme in matrix.schemes:
            GpuSystem(cell_config(matrix.tier, scheme)).load_workload(
                workload, ctx)
    return time.perf_counter() - started


#: Model metrics the baseline check compares.  The rest of a baseline
#: cell's metrics come from trace analytics that need ``obs inspect``.
BASELINE_METRICS = ("cycles", "demand_bytes", "overhead_bytes",
                    "total_dram_bytes", "l1_hit_rate", "l2_hit_rate",
                    "row_hit_rate", "reconstruction_efficacy")
BASELINE_WORKLOAD = "vecadd"
BASELINE_SCALE = 0.05
BASELINE_SEED = 42


def baseline_cells(tier: str) -> List[CellOutcome]:
    """Run the baseline workload at its scale and seed under every
    scheme and hold each cell to the committed bands in ``benchmarks/results/BASELINE.json``
    (exact for traffic, banded for rates and cycles)."""
    from repro.obs.ledger import record_from_result
    from repro.obs.regress import check, default_baseline_path, load_baseline

    baseline = load_baseline(default_baseline_path())
    workload = BASELINE_WORKLOAD
    outcomes = []
    for scheme in SCHEMES:
        cell = CellOutcome(f"{workload}@{BASELINE_SCALE}", scheme)
        outcomes.append(cell)
        key = f"{workload}/{scheme}" + ("@functional"
                                        if tier == "functional" else "")
        spec = (baseline.get("cells") or {}).get(key)
        if spec is None:
            cell.problems.append(f"no baseline cell {key}")
            continue
        try:
            cfg = cell_config(tier, scheme)
            system = GpuSystem(cfg)
            system.load_workload(make_workload(workload), bench_gen_ctx(
                cfg, scale=BASELINE_SCALE, seed=BASELINE_SEED))
            cycles = system.run()
        except Exception as exc:
            cell.problems.append(f"raised {exc!r}")
            continue
        result = system.result(workload, cycles)
        spec = dict(spec, metrics={k: v for k, v in spec["metrics"].items()
                                   if k in BASELINE_METRICS})
        report = check(
            [record_from_result(result, scale=BASELINE_SCALE,
                                seed=BASELINE_SEED)],
            {"model_version": baseline.get("model_version"),
             "cells": {key: spec}})
        cell.problems.extend(
            f"baseline {row.metric}: {row.current} vs {row.baseline} "
            f"({row.status})" for row in report.breaches)
    return outcomes
