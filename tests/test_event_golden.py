"""Golden counter digests for the event tier.

A host-side optimisation of the event tier (scheduler fast paths,
memoized retries, data-structure changes) must leave every simulated
counter bit-identical -- including the engine's event count.  This test
pins a content hash of each cell's full counter snapshot to the values
in ``tests/data/event_golden.json``.

The cells are the bench machine on the event tier: bfs / pchase /
histogram x four schemes, plus one blocking-stores cell and one cell
with memory-hierarchy introspection attached.  A change that moves any
counter on purpose is a model change: bump ``MODEL_VERSION`` and
regenerate the file with::

    PYTHONPATH=src python tests/test_event_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.system import GpuSystem
from repro.obs.hub import Observability
from repro.obs.inspect import MemoryInspector
from repro.workloads import make_workload

GOLDEN = Path(__file__).parent / "data" / "event_golden.json"
SCALE = 0.0005
SEED = 42
SCHEMES = ("none", "metadata-cache", "inline-full", "cachecraft")

#: cell id -> (workload, scheme, blocking_stores, inspect)
CELLS: Dict[str, Tuple[str, str, bool, bool]] = {
    f"{wl}/{scheme}": (wl, scheme, False, False)
    for wl in ("bfs", "pchase", "histogram") for scheme in SCHEMES
}
CELLS["bfs/cachecraft+blocking"] = ("bfs", "cachecraft", True, False)
CELLS["bfs/cachecraft+inspect"] = ("bfs", "cachecraft", False, True)


def run_cell(cell: str) -> Dict[str, float]:
    """Every simulated counter of one finished cell, flat."""
    workload, scheme, blocking, inspect = CELLS[cell]
    config = bench_config(blocking_stores=blocking).with_scheme(scheme)
    obs = Observability(inspect=MemoryInspector()) if inspect else None
    system = GpuSystem(config, obs=obs)
    system.load_workload(make_workload(workload),
                         bench_gen_ctx(config, scale=SCALE, seed=SEED))
    cycles = system.run()
    snap = dict(system.stats.flatten())
    snap["engine.events"] = system.sim.events_executed
    snap["cycles"] = cycles
    for kind, nbytes in system.traffic().items():
        snap[f"traffic.{kind}"] = nbytes
    if inspect:
        runtime = obs.inspect.runtime_section()
        snap["inspect.runtime"] = json.dumps(runtime, sort_keys=True)
    return snap


def digest(snap: Dict[str, float]) -> str:
    text = json.dumps(sorted(snap.items()), separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_event_tier_counters_match_golden(cell):
    snap = run_cell(cell)
    assert snap["engine.events"] > 0
    assert digest(snap) == _golden()[cell], (
        f"{cell}: counters moved (cycles={snap['cycles']}, "
        f"events={snap['engine.events']}); a declared model change must "
        f"bump MODEL_VERSION and regenerate {GOLDEN.name}")


def test_golden_covers_every_cell():
    assert sorted(_golden()) == sorted(CELLS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "scale": SCALE, "seed": SEED,
        "digests": {cell: digest(run_cell(cell)) for cell in sorted(CELLS)},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {GOLDEN}")
