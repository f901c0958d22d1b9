"""Miss-status holding registers.

An MSHR entry tracks one outstanding line-granular miss; sector misses
to the same line merge into the existing entry (secondary misses) up to
a merge limit.  When the file is full the requester must stall — the
GPU front end models that stall by re-trying on a later cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.stats import Counter, StatGroup


@dataclass
class MshrEntry:
    """One in-flight miss: target line plus merged waiters."""

    key: int
    #: Sector mask requested so far.
    sector_mask: int = 0
    #: Callbacks to fire on completion, each with its own context.
    waiters: List[Callable[[], None]] = field(default_factory=list)
    #: Arbitrary component-specific payload (e.g. protection state).
    payload: Any = None

    @property
    def merges(self) -> int:
        return max(0, len(self.waiters) - 1)


class MshrFile:
    """A bounded map of line address -> :class:`MshrEntry`."""

    def __init__(self, name: str, entries: int, max_merges: int = 16,
                 stats: Optional[StatGroup] = None):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.name = name
        self.capacity = entries
        self.max_merges = max_merges
        self._entries: Dict[int, MshrEntry] = {}
        group = stats.child(name) if stats is not None else StatGroup(name)
        self.stats = group
        self._allocs = group.counter("allocations")
        self._merges = group.counter("merges")
        self._full_stalls = group.counter("full_stalls")
        self._merge_stalls = group.counter("merge_stalls")
        self.peak = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def get(self, key: int) -> Optional[MshrEntry]:
        return self._entries.get(key)

    def allocate(self, key: int, sector_mask: int,
                 waiter: Optional[Callable[[], None]] = None) -> Optional[MshrEntry]:
        """Allocate or merge.  Returns the entry, or None on a stall.

        A returned entry with ``merges > 0`` (or an unchanged
        ``sector_mask``) tells the caller the miss was merged and no new
        memory request is needed for already-requested sectors.
        """
        entry = self._entries.get(key)
        if entry is not None:
            if len(entry.waiters) >= self.max_merges:
                self._merge_stalls.add(1)
                return None
            entry.sector_mask |= sector_mask
            if waiter is not None:
                entry.waiters.append(waiter)
            self._merges.add(1)
            return entry
        if self.full:
            self._full_stalls.add(1)
            return None
        entry = MshrEntry(key=key, sector_mask=sector_mask)
        if waiter is not None:
            entry.waiters.append(waiter)
        self._entries[key] = entry
        self._allocs.add(1)
        self.peak = max(self.peak, len(self._entries))
        return entry

    def stall_counter(self, key: int) -> Counter:
        """The counter a failed :meth:`allocate` of ``key`` bumped: a
        merge stall if ``key`` is in flight, else a full stall."""
        return self._merge_stalls if key in self._entries \
            else self._full_stalls

    def complete(self, key: int) -> List[Callable[[], None]]:
        """Remove the entry; returns the waiters for the caller to fire."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return []
        return entry.waiters
