"""Metric names, units and their computation from measured runs.

The names here must match ``BENCHMARK.json``: with
``--trace 0`` a run reports every :data:`END_TO_END` metric, with
``--trace 1`` every :data:`PER_LAYER` metric, on every workload.  A
layer a workload never enters reports 0 (for example the crossbar on
the functional tier).
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence

from layer_trace import LAYERS

#: name -> unit, for the gated workloads (the cell matrices).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "txn_per_s": "txn/s",
    "peak_rss_mb": "MB",
}

#: ``repro-slice`` adds its cold and warm pass wall times.
REPRO_END_TO_END: Dict[str, str] = {
    **END_TO_END,
    "repro_cold_s": "s",
    "repro_warm_s": "s",
}

PER_LAYER: Dict[str, str] = {
    "sim.engine.self_s": "s",
    "sim.engine.events": "count",
    "sim.engine.events_per_txn": "events/txn",
    "sim.functional.self_s": "s",
    "gpu.sm.self_s": "s",
    "gpu.sm.calls": "count",
    "gpu.sm.stall_retries_per_txn": "retries/txn",
    "gpu.sm.l1_hit_rate": "ratio",
    "gpu.crossbar.self_s": "s",
    "gpu.crossbar.packets": "count",
    "gpu.crossbar.queue_cycles": "cyc",
    "gpu.l2slice.self_s": "s",
    "gpu.l2slice.calls": "count",
    "gpu.l2slice.hit_rate": "ratio",
    "gpu.l2slice.mshr_merges": "count",
    "protection.self_s": "s",
    "protection.calls": "count",
    "protection.granules_verified": "count",
    "protection.no_extra_fetch_rate": "ratio",
    "protection.verify_fill_bytes": "B",
    "protection.meta_hit_rate": "ratio",
    "dram.channel.self_s": "s",
    "dram.channel.ticks": "count",
    "dram.channel.requests": "count",
    "dram.channel.ticks_per_request": "ticks/req",
    "dram.channel.row_hit_rate": "ratio",
    "dram.channel.read_latency_mean_cyc": "cyc",
    "sim.stats.self_s": "s",
    "sim.stats.calls": "count",
    "other.self_s": "s",
    "workloads.gen_s": "s",
    "workloads.txns": "count",
    "analysis.harness.cells_simulated": "count",
    "analysis.harness.cells_simulated_warm": "count",
    "analysis.harness.cold_pass_s": "s",
    "analysis.harness.warm_pass_s": "s",
    "analysis.result_cache.hit_frac": "ratio",
    "analysis.result_cache.entries": "count",
    "model.cycles": "cyc",
    "model.dram_bytes": "B",
    "model.overhead_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(snaps: Sequence[Dict[str, float]], prefix: str,
         *suffixes: str) -> float:
    suffixes = suffixes or ("",)
    return sum(v for snap in snaps for k, v in snap.items()
               if k.startswith(prefix) and k.endswith(suffixes))


def model_metrics(snaps: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Simulated (host-independent) per-layer metrics over cells."""
    txns = _sum(snaps, "sm", ".load_transactions", ".store_transactions")
    events = sum(s["engine.events"] for s in snaps)
    l1_hits = _sum(snaps, "sm", ".l1.hits")
    l1_miss = _sum(snaps, "sm", ".l1.sector_misses", ".l1.line_misses")
    l2_hits = _sum(snaps, "l2s", ".cache.hits")
    l2_miss = _sum(snaps, "l2s", ".cache.sector_misses",
                   ".cache.line_misses")
    verified = _sum(snaps, "protection.", ".granules_verified")
    meta_hits = _sum(snaps, "protection.", ".mdc_hits", ".meta_l2_hits")
    meta_miss = _sum(snaps, "protection.", ".mdc_misses", ".meta_l2_misses")
    row_hits = _sum(snaps, "dram", ".row_hits")
    row_miss = _sum(snaps, "dram", ".row_misses")
    lat_n = _sum(snaps, "dram", ".read_latency.count")
    lat_sum = sum(v * s[k[:-len("mean")] + "count"] for s in snaps
                  for k, v in s.items()
                  if k.startswith("dram") and k.endswith(".read_latency.mean"))
    return {
        "sim.engine.events": events,
        "sim.engine.events_per_txn": _ratio(events, txns),
        "gpu.sm.stall_retries_per_txn": _ratio(
            _sum(snaps, "sm", ".stall_retries"), txns),
        "gpu.sm.l1_hit_rate": _ratio(l1_hits, l1_hits + l1_miss),
        "gpu.crossbar.queue_cycles": _sum(snaps, "xbar.", ".queue_cycles"),
        "gpu.l2slice.hit_rate": _ratio(l2_hits, l2_hits + l2_miss),
        "gpu.l2slice.mshr_merges": _sum(snaps, "l2s", ".mshr.merges"),
        "protection.granules_verified": verified,
        "protection.no_extra_fetch_rate": _ratio(
            _sum(snaps, "protection.", ".granules_no_extra_fetch"), verified),
        "protection.verify_fill_bytes": _sum(snaps, "traffic.verify_fill"),
        "protection.meta_hit_rate": _ratio(meta_hits, meta_hits + meta_miss),
        "dram.channel.row_hit_rate": _ratio(row_hits, row_hits + row_miss),
        "dram.channel.read_latency_mean_cyc": _ratio(lat_sum, lat_n),
        "model.cycles": sum(s["cycles"] for s in snaps),
        "model.dram_bytes": _sum(snaps, "traffic."),
        "model.overhead_bytes": _sum(
            snaps, "traffic.", ".metadata", ".verify_fill",
            ".metadata_write"),
    }


class TraceTotals:
    """Sums of several :class:`layer_trace.LayerTracer` results."""

    def __init__(self) -> None:
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts: Dict[str, int] = {}
        self.wall_ns = 0

    def add(self, tracer) -> None:
        for layer in LAYERS:
            self.self_ns[layer] += tracer.self_ns[layer]
            self.calls[layer] += tracer.calls[layer]
        for key, value in tracer.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.wall_ns += tracer.wall_ns

    def metrics(self) -> Dict[str, float]:
        out = {f"{layer}.self_s": self.self_ns[layer] / 1e9
               for layer in LAYERS}
        for layer in ("gpu.sm", "gpu.l2slice", "protection", "sim.stats"):
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counts)
        out["dram.channel.ticks_per_request"] = _ratio(
            self.counts.get("dram.channel.ticks", 0),
            self.counts.get("dram.channel.requests", 0))
        out["trace.wall_s"] = self.wall_ns / 1e9
        return out


def layer_metrics(snaps: Sequence[Dict[str, float]], totals: TraceTotals,
                  untraced_run_s: float, extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric (missing ones are 0)."""
    values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    values.update(model_metrics(snaps))
    values.update(totals.metrics())
    values["trace.overhead_frac"] = _ratio(
        totals.wall_ns / 1e9 - untraced_run_s, untraced_run_s)
    values.update(extra)
    return values


def emit(values: Dict[str, float], units: Dict[str, str]
         ) -> Dict[str, Dict[str, object]]:
    """The result's ``metrics`` object, in ``units`` order."""
    missing: List[str] = [name for name in units if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def split_table(rows: Sequence[tuple]) -> str:
    """Per-cell layer shares of traced wall time, as text."""
    head = f"{'cell':28s} {'wall_s':>7s} " + " ".join(
        f"{layer:>14s}" for layer in LAYERS)
    lines = [head]
    for name, tracer in rows:
        wall = tracer.wall_ns or 1
        lines.append(f"{name:28s} {tracer.wall_ns / 1e9:7.3f} " + " ".join(
            f"{tracer.self_ns[layer] / wall:14.1%}" for layer in LAYERS))
    return "\n".join(lines)
