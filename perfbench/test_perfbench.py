"""Tiny-scale self-tests of the benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cells  # noqa: E402
import run  # noqa: E402
from cells import Matrix, baseline_cells, run_pass  # noqa: E402
from layer_trace import LAYERS, LayerTracer  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY = {
    "event-matrix": Matrix("event", 0.01, ("vecadd", "spmv"),
                           ("none", "cachecraft")),
    "functional-sweep": Matrix("functional", 0.05, ("vecadd", "spmv"),
                               ("none", "cachecraft")),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, matrix in TINY.items():
        monkeypatch.setitem(cells.MATRICES, name, matrix)
    # The reproduction pair takes about 30 s; its child is tested below.
    monkeypatch.setattr(run, "HARNESS_HOST", None)


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_main(args):
    """run.main in-process; returns (exit code, parsed last line)."""
    saved = dict(os.environ)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(args)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_benchmark_json_names_the_emitted_metrics():
    spec = bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(TINY)
    assert set(TINY) < set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    code, result = run_main(["--workload", workload, "--seed", "7",
                             "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        self_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert self_sum == pytest.approx(values["trace.wall_s"], abs=1e-6)
    else:
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("tier", ["event", "functional"])
def test_layer_self_times_add_up_and_counters_are_untouched(tier):
    matrix = Matrix(tier, 0.02, ("spmv",), ("cachecraft",))
    plain = run_pass(matrix, 3, cold=True)
    traced = run_pass(matrix, 3, cold=False, traced=True)
    (before,), (after,) = plain.cells, traced.cells
    assert before.ok and after.ok
    assert before.snap == after.snap
    tracer = after.tracer
    assert sum(tracer.self_ns.values()) == tracer.wall_ns
    busiest = max(tracer.self_ns, key=tracer.self_ns.get)
    assert busiest != "other"
    if tier == "functional":
        assert tracer.self_ns["sim.engine"] == 0
        assert tracer.counts["dram.channel.ticks"] == 0


def test_tracer_detach_restores_the_system():
    matrix = Matrix("event", 0.01, ("vecadd",), ("none",))
    from cells import cell_config
    from repro.core.system import GpuSystem
    from repro.workloads import make_workload
    from repro.analysis.harness import bench_gen_ctx

    cfg = cell_config(matrix.tier, "none")
    system = GpuSystem(cfg)
    system.load_workload(make_workload("vecadd"),
                         bench_gen_ctx(cfg, scale=0.01, seed=1))
    tracer = LayerTracer()
    tracer.attach(system)
    tracer.detach()
    assert "schedule" not in system.sim.__dict__
    assert "enqueue" not in system.channels[0].__dict__
    assert all(type(s).__module__ == "repro.sim.stats"
               for _, s in system.stats.walk())


def test_broken_cells_are_counted_as_failed_not_dropped():
    matrix = Matrix("event", 0.01, ("vecadd", "no-such-workload"),
                    ("none", "no-such-scheme"))
    result = run_pass(matrix, 1, cold=True)
    status = {c.name: c.ok for c in result.cells}
    assert status == {"vecadd/none": True,
                      "vecadd/no-such-scheme": False,
                      "no-such-workload/none": False,
                      "no-such-workload/no-such-scheme": False}
    assert result.failed == 3


def test_a_failed_output_check_fails_the_cell(monkeypatch):
    monkeypatch.setattr(cells, "check_cell",
                        lambda snap, expected, sector: ["forced"])
    result = run_pass(Matrix("functional", 0.01, ("vecadd",), ("none",)),
                      1, cold=True)
    assert result.failed == 1 and result.cells[0].problems == ["forced"]


def test_transaction_count_is_the_same_across_schemes_and_tiers():
    counts = set()
    for tier in ("event", "functional"):
        result = run_pass(Matrix(tier, 0.01, ("histogram",)), 5, cold=True)
        assert result.failed == 0
        counts |= {cells.txn_count(c.snap) for c in result.cells}
    assert len(counts) == 1


def test_event_tier_set_up_does_not_compile():
    from repro.workloads.base import trace_cache_stats

    run_pass(Matrix("event", 0.01, ("vecadd",), ("none",)), 1, cold=True)
    assert trace_cache_stats()["compiled_entries"] == 0


def test_vecadd_matches_the_committed_baseline():
    outcomes = baseline_cells("functional")
    assert [c.problems for c in outcomes] == [[]] * len(outcomes)


def test_repro_child_stops_at_the_first_cell(tmp_path):
    from repro_slice import run_child

    report = run_child(ROOT, tmp_path, tmp_path / "cache", 42,
                       setup_only=True)
    assert report["cells"] == [] and report["text"] is None
    assert 0 < report["setup_s"] < 60
    assert (tmp_path / "log.jsonl").exists()


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "event-matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
