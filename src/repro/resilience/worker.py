"""Subprocess entry point for one campaign cell.

Reads a JSON *cell spec* from stdin, runs the described simulation,
and writes a single JSON result object to stdout.  Run as::

    python -m repro.resilience.worker < cell.json

The process boundary is the isolation mechanism: a crash, hang or
interpreter fault in one cell cannot take down the campaign runner.
Exit status 0 means the result object has ``"status": "ok"``; any
failure exits non-zero after (best-effort) printing a
``"status": "error"`` object.

Cell spec fields (all optional except ``workload``/``scheme``)::

    {"cell": "spmv/cachecraft", "workload": "spmv", "scheme": "cachecraft",
     "scale": 0.1, "seed": 42, "workload_params": {}, "gpu": {...},
     "protection": {...},
     "resilience": {"recovery": {...RecoveryPolicy fields...},
                    "fault_processes": [{"kind": "transient", ...}],
                    "inject_seed": 1, "inject_interval": 500},
     "max_events": 20000000, "max_wall_seconds": 120,
     "sabotage": null, "fidelity": "event",
     "chaos_attempt": 1, "degraded": false}

``sabotage`` is a test hook for exercising the runner's fault
handling: ``"hang"`` sleeps forever (runner timeout must kill it),
``"crash"`` exits hard with a non-zero status, and ``"livelock"``
schedules a zero-delay self-rescheduling event so the engine watchdog
fires.

``chaos_attempt`` (campaign-global attempt number, stamped by the
runner only while a :mod:`repro.resilience.chaos` policy is active)
arms the host-fault seam at the top of :func:`run_cell_result`;
``fidelity``/``degraded`` mark a graceful-degradation rescue attempt
rerunning the cell on the functional tier.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from typing import Any, Dict

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.config import ResilienceConfig
from repro.core.results import RunResult
from repro.core.system import GpuSystem
from repro.obs.progress import HeartbeatThread
from repro.obs.structlog import resolve_log, run_context
from repro.resilience.chaos import active_chaos
from repro.resilience.faults import make_process
from repro.resilience.recovery import RecoveryPolicy
from repro.sim.engine import Watchdog
from repro.workloads import make_workload


def _cell_log(spec: Dict[str, Any], cell_id: str):
    """The structured log a cell spec (or the environment) points this
    worker at: pool specs carry a ``log`` path; campaign subprocesses
    inherit ``REPRO_LOG`` from the parent."""
    log = resolve_log(spec.get("log"))
    if log.enabled:
        log = log.bind(**run_context(cell=cell_id, role="worker"))
    return log


def _chaos_seam(spec: Dict[str, Any], cell_id: str, log) -> None:
    """Host-fault injection point for campaign subprocess attempts.

    Only specs carrying ``chaos_attempt`` (stamped by the campaign
    runner per spawn, numbered across retries and resumes) are
    attacked — pool workers share a ``ProcessPoolExecutor`` whose
    death would take down unrelated cells, and degraded rescue
    attempts are deliberately exempt.
    """
    chaos = active_chaos()
    attempt = int(spec.get("chaos_attempt") or 0)
    if chaos is None or attempt <= 0:
        return
    fault = chaos.worker_fault(cell_id, attempt)
    if fault == "kill":
        log.warn("chaos.worker.kill", attempt=attempt)
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "hang":
        log.warn("chaos.worker.hang", attempt=attempt)
        time.sleep(3600)
    elif fault == "slow":
        log.warn("chaos.worker.slow", attempt=attempt,
                 seconds=chaos.slow_seconds)
        time.sleep(chaos.slow_seconds)


def build_cell_config(spec: Dict[str, Any]):
    """Translate a JSON cell spec into a :class:`SystemConfig`."""
    config = bench_config(**spec.get("gpu", {}))
    config = config.with_scheme(spec["scheme"], **spec.get("protection", {}))
    if spec.get("fidelity"):
        config = config.with_fidelity(spec["fidelity"])
    res = spec.get("resilience")
    if res is not None:
        processes = tuple(
            make_process(**dict(p)) for p in res.get("fault_processes", ())
        )
        config = config.with_resilience(ResilienceConfig(
            recovery=RecoveryPolicy(**res.get("recovery", {})),
            fault_processes=processes,
            inject_seed=res.get("inject_seed", 1),
            inject_interval=res.get("inject_interval", 500),
        ))
    return config


def run_cell_result(spec: Dict[str, Any]) -> "RunResult":
    """Run one cell spec and return the full
    :class:`~repro.core.results.RunResult`.

    This is the simulation core both entry points share: the JSON
    subprocess boundary (:func:`run_cell`) wraps it in a summary
    object, while the in-process parallel harness
    (:meth:`repro.analysis.harness.ExperimentHarness.matrix` with
    ``workers``) calls it through :func:`run_pool_cell` in a
    ``ProcessPoolExecutor``.
    A spec travelling through pickle may carry the fully-built
    :class:`~repro.core.config.SystemConfig` under ``"config"``;
    otherwise the config is reconstructed from the JSON fields via
    :func:`build_cell_config`.
    """
    cell_id = spec.get("cell",
                       f"{spec.get('workload', '?')}/{spec.get('scheme', '?')}")
    log = _cell_log(spec, cell_id)
    sabotage = spec.get("sabotage")
    # Lifecycle + liveness: the start record marks the cell in flight,
    # the heartbeat thread keeps this pid fresh; a hang from here on
    # shows up as a stale worker in `obs top`.  A failure is not
    # logged here: it is the cell's verdict only in a pool (see
    # run_pool_cell); a campaign runner may retry it instead.
    log.info("cell.start", sabotage=sabotage)
    heartbeat = HeartbeatThread(log).start() if log.enabled else None
    try:
        # Chaos fires after the start and heartbeat records, so a
        # killed or hung worker is visible in `obs top` exactly like a
        # real host fault would be.
        _chaos_seam(spec, cell_id, log)
        if sabotage == "hang":
            time.sleep(3600)
        elif sabotage == "crash":
            os._exit(13)

        config = spec.get("config")
        if config is None:
            config = build_cell_config(spec)
        system = GpuSystem(config)
        workload = make_workload(spec["workload"],
                                 **spec.get("workload_params", {}))
        gen_ctx = bench_gen_ctx(config, scale=spec.get("scale", 0.3),
                                seed=spec.get("seed", 42))
        system.load_workload(workload, gen_ctx)

        if sabotage == "livelock":
            def spin() -> None:
                """Reschedule forever at the same cycle (watchdog bait)."""
                system.sim.schedule(0, spin)
            system.sim.schedule(0, spin)

        watchdog = Watchdog(max_wall_seconds=spec.get("max_wall_seconds"))
        started = time.perf_counter()
        cycles = system.run(max_events=spec.get("max_events"),
                            watchdog=watchdog)
        host_seconds = time.perf_counter() - started
        result = system.result(workload.name, cycles, host_seconds)
    except Exception as exc:
        if "watchdog" in str(exc):
            log.warn("worker.watchdog_fire",
                     error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    log.info("cell.done", cycles=result.cycles,
             events=int(result.events_executed),
             host_seconds=round(result.host_seconds, 3))
    return result


def run_pool_cell(spec: Dict[str, Any]) -> "RunResult":
    """:func:`run_cell_result` for the parallel harness's process pool,
    which never retries: a failed attempt is the cell's verdict, so the
    worker logs ``cell.failed`` before re-raising."""
    try:
        return run_cell_result(spec)
    except Exception as exc:
        _cell_log(spec, spec["cell"]).error(
            "cell.failed", error=f"{type(exc).__name__}: {exc}")
        raise


def run_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell spec and return its JSON-ready result object."""
    result = run_cell_result(spec)
    resilience_stats = {
        k: v for k, v in result.stats.items()
        if k.startswith(("resilience.", "injector."))
    }
    out = {
        "cell": spec.get("cell", f"{spec['workload']}/{spec['scheme']}"),
        "status": "ok",
        "workload": result.workload,
        "scheme": spec["scheme"],
        "fidelity": getattr(result, "fidelity", "event"),
        "cycles": result.cycles,
        "traffic": result.traffic,
        "resilience": resilience_stats,
        "host_seconds": round(result.host_seconds, 3),
    }
    if spec.get("degraded"):
        out["degraded"] = True
    return out


def main() -> int:
    """Read a cell spec from stdin, run it, print the result JSON."""
    spec = json.load(sys.stdin)
    try:
        out = run_cell(spec)
    except Exception as exc:  # noqa: BLE001 — the whole point is isolation
        json.dump({"cell": spec.get("cell", "?"), "status": "error",
                   "error": f"{type(exc).__name__}: {exc}"}, sys.stdout)
        sys.stdout.write("\n")
        return 1
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
