"""Golden counter digests for the functional tier.

The functional tier has one replay, the vectorized
:func:`repro.sim.functional.replay_columnar`.  Its reference used to
be a second, scalar op-by-op replay loop; the digests in
``tests/data/functional_golden.json`` were taken from that scalar loop
and now stand in for it.  Every simulated counter of each cell,
including the queue's micro-task count, must hash to the pinned value.

The cells are concurrent shapes the serialized parity grid
(``tests/test_fidelity_parity.py``) does not cover:

* five workload/scheme pairs on 2 SMs x 3 warps (scale 0.05, seed 7);
* warps added by hand with ``sm.add_warp``, both on top of a loaded
  workload and on an otherwise empty machine;
* bfs/cachecraft and histogram/metadata-cache on the full bench
  machine (``bench_config()``: 4 SMs x 8 warps), scale 0.05.

A change that moves any counter on purpose is a model change: bump
``MODEL_VERSION`` and regenerate the file with::

    PYTHONPATH=src python tests/test_functional_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.config import test_config as small_config
from repro.core.system import GpuSystem
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.workloads import make_workload
from repro.workloads.base import GenContext

GOLDEN = Path(__file__).parent / "data" / "functional_golden.json"

SMALL_CTX = GenContext(num_sms=2, warps_per_sm=3, scale=0.05, seed=7)
BENCH_SCALE = 0.05
BENCH_SEED = 42

#: Warps added by hand: per SM, a list of warps (op lists).  Loads,
#: stores and an atomic over a few shared lines, so the hand warps
#: interact with each other and with the loaded workload's L1/L2 state.
HAND_WARPS = (
    [[MemoryOp((0, 4)), ComputeOp(3),
      MemoryOp((128, 160), is_store=True), MemoryOp((0, 36))],
     [MemoryOp((256,), is_store=True, is_atomic=True), MemoryOp((256, 288))]],
    [[MemoryOp((0, 4096, 8192)), MemoryOp((4096,), is_store=True)]],
)

#: cell id -> (machine, workload or None, scheme, hand warps added)
CELLS: Dict[str, Tuple[str, Optional[str], str, bool]] = {
    f"small/{wl}/{scheme}": ("small", wl, scheme, False)
    for wl, scheme in (("vecadd", "none"), ("bfs", "cachecraft"),
                       ("transpose", "inline-full"),
                       ("histogram", "metadata-cache"),
                       ("stencil3d", "sideband"))
}
CELLS["small/vecadd/none+hand"] = ("small", "vecadd", "none", True)
CELLS["small/hand-only/cachecraft"] = ("small", None, "cachecraft", True)
CELLS["bench/bfs/cachecraft"] = ("bench", "bfs", "cachecraft", False)
CELLS["bench/histogram/metadata-cache"] = (
    "bench", "histogram", "metadata-cache", False)


def build_cell(cell: str) -> GpuSystem:
    """A loaded, not yet run, functional-tier system for one cell."""
    machine, workload, scheme, hand = CELLS[cell]
    if machine == "small":
        config = small_config(num_sms=2, warps_per_sm=3)
        ctx = SMALL_CTX
    else:
        config = bench_config()
        ctx = bench_gen_ctx(config, scale=BENCH_SCALE, seed=BENCH_SEED)
    config = config.with_scheme(scheme).with_fidelity("functional")
    system = GpuSystem(config)
    if workload is not None:
        system.load_workload(make_workload(workload), ctx)
    if hand:
        for sm, warps in zip(system.sms, HAND_WARPS):
            for ops in warps:
                sm.add_warp(list(ops))
    return system


def snapshot(system: GpuSystem) -> Dict[str, float]:
    """Every simulated counter of a finished system, flat."""
    snap = dict(system.stats.flatten())
    snap["engine.events"] = system.sim.events_executed
    for kind, nbytes in system.traffic().items():
        snap[f"traffic.{kind}"] = nbytes
    return snap


def run_cell(cell: str) -> Dict[str, float]:
    system = build_cell(cell)
    assert system.run() == 0
    return snapshot(system)


def digest(snap: Dict[str, float]) -> str:
    text = json.dumps(sorted(snap.items()), separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_functional_tier_counters_match_golden(cell):
    snap = run_cell(cell)
    assert snap["engine.events"] > 0
    assert digest(snap) == _golden()[cell], (
        f"{cell}: counters moved (events={snap['engine.events']}); a "
        f"declared model change must bump MODEL_VERSION and regenerate "
        f"{GOLDEN.name}")


def test_golden_covers_every_cell():
    assert sorted(_golden()) == sorted(CELLS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "small_ctx": {"scale": SMALL_CTX.scale, "seed": SMALL_CTX.seed},
        "bench": {"scale": BENCH_SCALE, "seed": BENCH_SEED},
        "digests": {cell: digest(run_cell(cell)) for cell in sorted(CELLS)},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {GOLDEN}")
