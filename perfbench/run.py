"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload event-matrix --seed 42 \\
        --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes an untraced and a traced pass and reports the
per-layer host-time split (see ``perfbench/README.md``).  The last
stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes (result cache, ledger, logs) lives under ``.perfbench/`` in the checkout; the per-run
directory is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("event-matrix", "functional-sweep", "repro-slice")
#: The gated workload whose traced run also measures the experiment
#: harness and result cache (with a cold/warm reproduction pair).
HARNESS_HOST = "event-matrix"
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- cell matrices -------------------------------------------------------------


def matrix_run(name: str, seed: int, seconds: float
               ) -> Tuple[Dict[str, float], int, int]:
    """End-to-end metrics of a cell matrix.

    At the baseline seed the baseline cells run first.  Passes, each
    from an empty trace memo, then repeat while the run is expected to
    end within ``seconds`` after one more (at least two).  A set-up-only
    round follows each pass, and more at the end bring the set-up
    samples to :data:`SETUP_SAMPLES`; the stop rule counts all of these
    rounds and the baseline cells.  Each cell's run time is its
    fastest observation in the run: the host alternates between a fast
    and a slow speed regime for seconds at a time (a fixed loop measured
    0.16 s and 0.30 s), so a median of a few samples reports the regime
    mix and the minimum reports the program.
    """
    from cells import (BASELINE_SEED, MATRICES, baseline_cells, run_pass,
                       setup_round)
    from metrics import median

    matrix = MATRICES[name]
    started = time.perf_counter()
    cells = baseline_cells(matrix.tier) if seed == BASELINE_SEED else []
    passes = []
    setups = []
    while True:
        step_started = time.perf_counter()
        p = run_pass(matrix, seed, cold=True)
        passes.append(p)
        print(f"pass {len(passes)}: setup {p.setup_s:.3f}s "
              f"run {p.run_s:.3f}s wall {p.wall_s:.3f}s failed {p.failed}",
              flush=True)
        round_started = time.perf_counter()
        setups += [p.setup_s, setup_round(matrix, seed)]
        now = time.perf_counter()
        # Set-up rounds still owed at the end if one more pass runs.
        owed = max(0, SETUP_SAMPLES - len(setups) - 2)
        if (len(passes) >= 2 and now - started + (now - step_started)
                + owed * (now - round_started) > seconds):
            break
    fastest: Dict[str, Any] = {}
    for c in (c for p in passes for c in p.cells if c.ok):
        if c.name not in fastest or c.run_s < fastest[c.name].run_s:
            fastest[c.name] = c
    run_s = sum(c.run_s for c in fastest.values())
    cells += [c for p in passes for c in p.cells]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_round(matrix, seed))
    report_failures(cells)
    values = {
        "setup_s": median(setups),
        "txn_per_s": (sum(c.txns for c in fastest.values()) / run_s
                      if run_s else 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, len(cells), sum(not c.ok for c in cells)


def matrix_trace(name: str, seed: int, root: Path, run_dir: Path
                 ) -> Tuple[Dict[str, float], int, int]:
    """Per-layer metrics of a cell matrix: an untraced cold pass, then
    a traced warm pass whose counters must be bit-identical.  On
    :data:`HARNESS_HOST` a cold/warm reproduction pair follows, for the
    harness and result-cache metrics."""
    from cells import MATRICES, run_pass
    from metrics import TraceTotals, layer_metrics, split_table

    matrix = MATRICES[name]
    plain = run_pass(matrix, seed, cold=True)
    traced = run_pass(matrix, seed, cold=False, traced=True)
    totals = TraceTotals()
    for before, after in zip(plain.cells, traced.cells):
        if after.tracer is not None:
            totals.add(after.tracer)
        if before.ok and after.ok and before.snap != after.snap:
            diff = sorted(k for k in before.snap.keys() | after.snap.keys()
                          if before.snap.get(k) != after.snap.get(k))
            after.problems.append(f"traced counters differ: {diff[:5]}")
    rows = [(c.name, c.tracer) for c in traced.cells if c.tracer is not None]
    print(split_table(rows), flush=True)
    cells = plain.cells + traced.cells
    report_failures(cells)
    extra = {"workloads.gen_s": plain.gen_s, "workloads.txns": plain.txns}
    attempted, failed = len(cells), sum(not c.ok for c in cells)
    if name == HARNESS_HOST:
        check = PassCheck()
        extra.update(harness_metrics(
            *repro_pair(root, run_dir, seed, "0", check)))
        attempted += check.attempted
        failed += check.failed
    values = layer_metrics([c.snap for c in traced.cells if c.ok], totals,
                           plain.run_s, extra)
    return values, attempted, failed


def report_failures(cells) -> None:
    for cell in cells:
        if not cell.ok:
            print(f"FAILED {cell.name}: {'; '.join(cell.problems)}",
                  flush=True)


# -- reproduction slice ----------------------------------------------------------


class PassCheck:
    """Attempted/failed bookkeeping for experiment passes and cells."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def cells(self, report: Dict[str, Any]) -> None:
        for cell in report["cells"]:
            self.attempted += 1
            if cell["problems"]:
                self.failed += 1
                print(f"FAILED cell: {cell['problems']}", flush=True)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", flush=True)


def repro_pair(root: Path, run_dir: Path, seed: int, tag: str,
               check: PassCheck) -> Tuple[Dict, Dict]:
    """A cold pass from an empty cache directory, then a warm pass
    against it; the warm text must be byte-identical."""
    from repro_slice import run_child

    cache = run_dir / f"cache-{tag}"
    cold = run_child(root, run_dir, cache, seed)
    warm = run_child(root, run_dir, cache, seed)
    for report in (cold, warm):
        check.cells(report)
    check.expect(warm["text"] == cold["text"],
                 "warm experiment text differs from cold text")
    print(f"pair {tag}: cold {cold['wall_s']:.3f}s warm "
          f"{warm['wall_s']:.3f}s cells {len(cold['cells'])}/"
          f"{len(warm['cells'])}", flush=True)
    return cold, warm


def repro_run(root: Path, run_dir: Path, seed: int, seconds: float
              ) -> Tuple[Dict[str, float], int, int]:
    """End-to-end metrics of the reproduction slice: cold/warm pairs
    while the next pair is expected to fit in ``seconds`` (at least
    one), then set-up-only passes up to :data:`SETUP_SAMPLES`.

    As in the matrices, each simulated cell counts with its fastest
    observation in the run (cells are matched by counter digest), so
    a pass time is its measured wall time with every cell's run time
    replaced by that minimum.
    """
    from metrics import median
    from repro_slice import run_child

    check = PassCheck()
    started = time.perf_counter()
    pairs: List[Tuple[Dict, Dict]] = []
    while True:
        t0 = time.perf_counter()
        pairs.append(repro_pair(root, run_dir, seed, str(len(pairs)), check))
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
    reports = [r for pair in pairs for r in pair]
    best: Dict[str, float] = {}
    for cell in (c for r in reports for c in r["cells"]):
        best[cell["digest"]] = min(best.get(cell["digest"], cell["run_s"]),
                                   cell["run_s"])

    def pass_s(report: Dict[str, Any]) -> float:
        return report["wall_s"] + sum(best[c["digest"]] - c["run_s"]
                                      for c in report["cells"])

    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(root, run_dir, run_dir / "cache-setup",
                                seed, setup_only=True)["setup_s"])
    all_cells = [c for r in reports for c in r["cells"]]
    values = {
        "setup_s": median(setups),
        "txn_per_s": sum(c["txns"] for c in all_cells)
        / sum(best[c["digest"]] for c in all_cells),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "repro_cold_s": median(pass_s(cold) for cold, _ in pairs),
        "repro_warm_s": median(pass_s(warm) for _, warm in pairs),
    }
    return values, check.attempted, check.failed


def harness_metrics(cold: Dict[str, Any], warm: Dict[str, Any]
                    ) -> Dict[str, float]:
    """Harness and result-cache metrics of one cold/warm pair."""
    return {
        "analysis.harness.cells_simulated": len(cold["cells"]),
        "analysis.harness.cells_simulated_warm": len(warm["cells"]),
        "analysis.harness.cold_pass_s": cold["wall_s"],
        "analysis.harness.warm_pass_s": warm["wall_s"],
        "analysis.result_cache.hit_frac": (
            warm["hits"] / warm["lookups"] if warm["lookups"] else 0.0),
        "analysis.result_cache.entries": cold["entries"],
    }


def repro_trace(root: Path, run_dir: Path, seed: int
                ) -> Tuple[Dict[str, float], int, int]:
    from metrics import PER_LAYER
    from repro_slice import run_child

    check = PassCheck()
    cold, warm = repro_pair(root, run_dir, seed, "0", check)
    traced = run_child(root, run_dir, run_dir / "cache-traced", seed,
                       traced=True)
    check.cells(traced)
    check.expect([c["digest"] for c in traced["cells"]]
                 == [c["digest"] for c in cold["cells"]],
                 "traced counters differ from the untraced pass")
    check.expect(traced["text"] == cold["text"],
                 "traced experiment text differs from cold text")
    values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    values.update(traced["layers"])
    values.update({
        "trace.overhead_frac": (values["trace.wall_s"] - cold["run_s"])
        / cold["run_s"],
        "workloads.gen_s": cold["load_s"],
        "workloads.txns": sum(c["txns"] for c in cold["cells"]),
        **harness_metrics(cold, warm),
    })
    return values, check.attempted, check.failed


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repository checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from metrics import END_TO_END, PER_LAYER, REPRO_END_TO_END, emit
    from repro_slice import child_env

    run_dir = root / ".perfbench" / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    # Nothing this process or its children write may leave the run
    # directory (the ledger would otherwise default to the home dir).
    env = child_env(run_dir, run_dir / "cache", root / "src")
    os.environ.clear()
    os.environ.update(env)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}", flush=True)
    try:
        if args.workload == "repro-slice":
            if args.trace:
                values, attempted, failed = repro_trace(root, run_dir,
                                                        args.seed)
            else:
                values, attempted, failed = repro_run(
                    root, run_dir, args.seed, args.seconds)
        elif args.trace:
            values, attempted, failed = matrix_trace(
                args.workload, args.seed, root, run_dir)
        else:
            values, attempted, failed = matrix_run(
                args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = (PER_LAYER if args.trace
             else REPRO_END_TO_END if args.workload == "repro-slice"
             else END_TO_END)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": emit(values, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
