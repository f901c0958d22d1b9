"""The ``repro-slice`` workload: one reproduction experiment, cold then warm.

The slice is ``f6_metadata_capacity(scale=0.05)``, called the way the
reproduction calls it.  Each pass runs in a fresh interpreter (this
file run as a script); a *cold* pass starts from an empty
``REPRO_CACHE_DIR`` and the *warm* pass reruns against the directory
the cold pass left.  It is the only workload that exercises
``analysis.harness`` and ``analysis.result_cache``.

The child wraps ``GpuSystem.run`` and ``ResultCache.get`` from the
outside to time and check every simulated cell and to count cache
lookups; it prints one JSON object as its last stdout line.  The
workload seed reaches the experiment as the default seed of every
``ExperimentHarness`` it builds (42 is the reproduction's own seed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SCALE = 0.05
#: Wall-clock limit for one child pass (a pass takes about 12 s).
CHILD_TIMEOUT_S = 150


class _StopAtFirstCell(Exception):
    """Raised by a set-up-only child when the first cell would run."""


def child_env(run_dir: Path, cache_dir: Path, src: Path) -> Dict[str, str]:
    """The inherited environment with every ``REPRO_*`` variable
    replaced: cache, ledger, log and progress all live in ``run_dir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_CACHE_DIR=str(cache_dir),
               REPRO_LEDGER=str(run_dir / "ledger.jsonl"),
               REPRO_LOG=str(run_dir / "log.jsonl"),
               REPRO_PROGRESS_DIR=str(run_dir / "progress"),
               PYTHONPATH=str(src))
    return env


def run_child(root: Path, run_dir: Path, cache_dir: Path, seed: int,
              traced: bool = False, setup_only: bool = False
              ) -> Dict[str, Any]:
    """One experiment pass in a fresh interpreter; returns its report.

    ``setup_s`` is the time from spawning the interpreter to the start
    of the first simulated cell (both sides read the system-wide
    monotonic clock).  Raises ``RuntimeError`` if the child fails.
    """
    cmd = [sys.executable, str(HERE / "repro_slice.py"),
           "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env=child_env(run_dir, cache_dir, root / "src"),
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        raise RuntimeError(f"experiment pass exited {proc.returncode}: "
                           + " | ".join(tail))
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("first_cell_at") - spawned
    return report


# -- child side ---------------------------------------------------------------


def _child(seed: int, traced: bool, setup_only: bool) -> Dict[str, Any]:
    sys.path.insert(0, str(HERE))
    from cells import check_cell, digest, snapshot, txn_count
    from layer_trace import LayerTracer
    from metrics import TraceTotals, model_metrics
    from repro.analysis import experiments, harness
    from repro.analysis.result_cache import ResultCache
    from repro.core.system import GpuSystem

    state: Dict[str, Any] = {"first_cell_at": None, "run_s": 0.0,
                             "load_s": 0.0, "lookups": 0, "hits": 0}
    cells: List[Dict[str, Any]] = []
    snaps: List[Dict[str, float]] = []
    totals = TraceTotals()
    orig_run = GpuSystem.run
    orig_load = GpuSystem.load_workload
    orig_get = ResultCache.get
    orig_init = harness.ExperimentHarness.__init__

    def run(system, *args, **kwargs):
        if state["first_cell_at"] is None:
            state["first_cell_at"] = time.monotonic()
            if setup_only:
                raise _StopAtFirstCell
        t0 = time.perf_counter()
        if traced:
            tracer = LayerTracer()
            cycles = tracer.trace(system, orig_run, *args, **kwargs)
            totals.add(tracer)
        else:
            cycles = orig_run(system, *args, **kwargs)
        run_s = time.perf_counter() - t0
        state["run_s"] += run_s
        snap = snapshot(system, cycles)
        snaps.append(snap)
        cells.append({
            "digest": digest(snap), "txns": txn_count(snap), "run_s": run_s,
            "problems": check_cell(snap, None,
                                   system.config.gpu.sector_bytes)})
        return cycles

    def load_workload(system, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig_load(system, *args, **kwargs)
        finally:
            state["load_s"] += time.perf_counter() - t0

    def get(cache, key):
        found = orig_get(cache, key)
        state["lookups"] += 1
        state["hits"] += found is not None
        return found

    def init(h, *args, **kwargs):
        kwargs.setdefault("seed", seed)
        orig_init(h, *args, **kwargs)

    GpuSystem.run = run
    GpuSystem.load_workload = load_workload
    ResultCache.get = get
    harness.ExperimentHarness.__init__ = init
    t0 = time.perf_counter()
    text = None
    try:
        text = experiments.f6_metadata_capacity(scale=SCALE).text
    except _StopAtFirstCell:
        pass
    finally:
        GpuSystem.run = orig_run
        GpuSystem.load_workload = orig_load
        ResultCache.get = orig_get
        harness.ExperimentHarness.__init__ = orig_init
    wall_s = time.perf_counter() - t0
    report: Dict[str, Any] = {
        "first_cell_at": state["first_cell_at"], "wall_s": wall_s,
        "run_s": state["run_s"], "load_s": state["load_s"],
        "text": text, "cells": cells,
        "lookups": state["lookups"], "hits": state["hits"],
        "entries": ResultCache(os.environ["REPRO_CACHE_DIR"]).stats()[
            "entries"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        report["layers"] = {**model_metrics(snaps), **totals.metrics()}
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    report = _child(args.seed, bool(args.trace), args.setup_only)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
