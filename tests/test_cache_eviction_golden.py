"""Golden eviction streams for :class:`repro.cache.sectored.SectoredCache`.

One seeded sequence of allocations (data and metadata, normal and
low-priority), fills, lookups, writes, invalidations and flushes is
driven through a small cache for every replacement policy and for
``metadata_ways`` 0 and 2.  The stream records, step by step, where
each line lands, what it displaced, every introspection-hook call and
the flush work; the digest of that stream and the final counters are
pinned in ``tests/data/cache_eviction_golden.json``.  A change to how
the cache stores its lines or replacement state must leave every
victim choice, and so every digest, unchanged.

A change that moves a victim on purpose is a model change: bump
``MODEL_VERSION`` and regenerate the file with::

    PYTHONPATH=src python tests/test_cache_eviction_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.analysis.harness import bench_config
from repro.cache import sectored
from repro.cache.sectored import SectoredCache
from repro.core.system import GpuSystem

GOLDEN = Path(__file__).parent / "data" / "cache_eviction_golden.json"

POLICIES = ("lru", "plru", "srrip", "random")
METADATA_WAYS = (0, 2)
SEED = 2024
STEPS = 4000
#: 8 sets x 8 ways; 256 distinct lines keep every set oversubscribed.
SIZE_BYTES, WAYS, LINES = 8 * 8 * 128, 8, 256


class _Recorder:
    """Stands in for the introspection view and logs every hook call."""

    def __init__(self, out: List[list]):
        self._out = out

    def access(self, set_idx, missed):
        self._out.append(["access", set_idx, missed])

    def evicted(self, set_idx, conflict):
        self._out.append(["evicted", set_idx, conflict])

    def filled(self, set_idx, occupied):
        self._out.append(["filled", set_idx, occupied])

    def invalidated(self, set_idx):
        self._out.append(["invalidated", set_idx])


def _ev(ev) -> Optional[list]:
    if ev is None:
        return None
    return [ev.line_addr, ev.dirty_mask, ev.valid_mask, ev.is_metadata]


def eviction_stream(policy: str, metadata_ways: int):
    """Drive the fixed sequence; returns ``(stream, counters)``."""
    cache = SectoredCache("c", SIZE_BYTES, WAYS, line_bytes=128,
                          sector_bytes=32, policy=policy,
                          metadata_ways=metadata_ways)
    out: List[list] = []
    cache._insp = _Recorder(out)
    rng = random.Random(SEED)
    full = cache.full_sector_mask
    for _ in range(STEPS):
        op = rng.random()
        line_addr = rng.randrange(LINES)
        if op < 0.45:
            is_meta = rng.random() < 0.25
            low = rng.random() < 0.15
            line, ev = cache.allocate(line_addr, is_metadata=is_meta,
                                      low_priority=low)
            mask = rng.randrange(1, full + 1)
            cache.fill_sectors(line, mask, dirty=rng.random() < 0.3,
                               verified=rng.random() < 0.8)
            out.append(["alloc", line_addr, list(cache._directory[line_addr]),
                        _ev(ev)])
        elif op < 0.75:
            mask = rng.randrange(1, full + 1)
            hit, line = cache.lookup_mask(line_addr, mask,
                                          require_verified=rng.random() < 0.5)
            out.append(["lookup_mask", line_addr, hit, line is not None])
        elif op < 0.82:
            addr = line_addr * 128 + rng.randrange(4) * 32
            result, _ = cache.write_sector(addr)
            out.append(["write", addr, result.value])
        elif op < 0.88:
            cache.mark_verified(line_addr, rng.randrange(1, full + 1))
            out.append(["resident", line_addr,
                        cache.resident_sectors(line_addr)])
        elif op < 0.995:
            out.append(["invalidate", line_addr,
                        _ev(cache.invalidate(line_addr))])
        else:
            out.append(["flush", [_ev(ev) for ev in cache.flush()]])
    counters = dict(cache.stats.flatten())
    counters["occupancy"] = cache.occupancy()
    counters["metadata_occupancy"] = cache.metadata_occupancy()
    return out, counters


def digest(stream: List[list]) -> str:
    text = json.dumps(stream, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _case(policy: str, metadata_ways: int) -> str:
    return f"{policy}/meta{metadata_ways}"


def _golden() -> Dict[str, dict]:
    return json.loads(GOLDEN.read_text())["cases"]


@pytest.mark.parametrize("metadata_ways", METADATA_WAYS)
@pytest.mark.parametrize("policy", POLICIES)
def test_eviction_stream_matches_golden(policy, metadata_ways):
    stream, counters = eviction_stream(policy, metadata_ways)
    want = _golden()[_case(policy, metadata_ways)]
    assert counters == want["counters"]
    assert digest(stream) == want["digest"], (
        f"{_case(policy, metadata_ways)}: victim choice moved; a declared "
        f"model change must bump MODEL_VERSION and regenerate {GOLDEN.name}")


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(
        _case(p, m) for p in POLICIES for m in METADATA_WAYS)


def test_streams_exercise_evictions_and_writebacks():
    for policy in POLICIES:
        for metadata_ways in METADATA_WAYS:
            counters = _golden()[_case(policy, metadata_ways)]["counters"]
            assert counters["c.evictions"] > 100
            assert counters["c.writebacks"] > 10
            assert counters["c.metadata_fills"] > 0


@pytest.mark.parametrize("policy,ways", [("nope", 4), ("plru", 6)])
def test_bad_policy_raises_at_construction(policy, ways):
    with pytest.raises(ValueError):
        SectoredCache("c", ways * 128 * 4, ways, line_bytes=128,
                      sector_bytes=32, policy=policy)


def _materialized(cache: SectoredCache) -> int:
    lines = sum(line is not None for ways in cache._sets for line in ways)
    policies = sum(p is not None for p in cache._policies)
    return lines + policies


@pytest.mark.parametrize("scheme", ("cachecraft", "metadata-cache"))
@pytest.mark.parametrize("tier", ("event", "functional"))
def test_fresh_system_materializes_no_cache_state(monkeypatch, tier, scheme):
    """A freshly built machine holds no line or replacement-policy
    object: cache state is built on first use."""
    built: List[SectoredCache] = []
    init = SectoredCache.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(sectored.SectoredCache, "__init__", recording_init)
    config = bench_config().with_scheme(scheme)
    system = GpuSystem(config.with_fidelity(tier)
                       if config.fidelity != tier else config)
    slices = len(system.slices)
    l1s = len(system.sms) if tier == "event" else 0
    mdcaches = slices if scheme == "metadata-cache" else 0
    assert len(built) == slices + l1s + mdcaches
    assert [_materialized(cache) for cache in built] == [0] * len(built)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    cases = {}
    for policy in POLICIES:
        for metadata_ways in METADATA_WAYS:
            stream, counters = eviction_stream(policy, metadata_ways)
            cases[_case(policy, metadata_ways)] = {
                "digest": digest(stream), "steps": len(stream),
                "counters": counters}
    payload = {"seed": SEED, "steps": STEPS, "cases": cases}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} eviction streams to {GOLDEN}")
