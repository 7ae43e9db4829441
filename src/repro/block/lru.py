"""Bounded LRU cache of block contents, keyed by LBA.

:class:`BlockCache` is the ``A_old`` cache the primary engine puts in
front of its device: PRINS' Eq. 1 needs the *previous* contents of every
written block, and on a non-RAID primary that read-before-write is the
hidden half of the parity cost (the RAID small-write path gets ``P'`` for
free, Sec. 1).  Caching the last image of hot LBAs turns the read into a
dictionary hit — and because the engine refreshes the entry with the block
it just wrote, steady-state overwrite workloads never touch the device for
``A_old`` at all.

It is a plain passive container, not a device wrapper: the engine owns
and consults it explicitly, and its hit/miss/eviction counters surface
through the engine's telemetry snapshot.
"""

from __future__ import annotations

from collections import OrderedDict


class BlockCache:
    """Bounded LRU mapping of LBA → last known block contents.

    Purely passive: ``get``/``put``/``invalidate`` plus counters.  The
    owner decides what to insert and when; the cache only enforces the
    capacity bound (evicting least-recently-used entries) and counts
    hits, misses, and evictions.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[int, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of blocks retained."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lba: int) -> bool:
        return lba in self._entries

    def get(self, lba: int) -> bytes | None:
        """Return the cached contents of ``lba`` (refreshing recency), or None."""
        data = self._entries.get(lba)
        if data is None:
            self.misses += 1
            return None
        self._entries.move_to_end(lba)
        self.hits += 1
        return data

    def put(self, lba: int, data: bytes) -> None:
        """Remember ``data`` as the current contents of ``lba``.

        The caller passes the exact ``bytes`` it wrote (no copy is made);
        the least-recently-used entry is evicted once the capacity bound
        is exceeded.
        """
        entries = self._entries
        if lba in entries:
            entries[lba] = data
            entries.move_to_end(lba)
            return
        entries[lba] = data
        if len(entries) > self._capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, lba: int | None = None) -> None:
        """Drop one entry (or all entries when ``lba`` is None)."""
        if lba is None:
            self._entries.clear()
        else:
            self._entries.pop(lba, None)

    def snapshot(self) -> dict:
        """JSON-safe counters: capacity, size, hits, misses, evictions."""
        total = self.hits + self.misses
        return {
            "capacity": self._capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"BlockCache(capacity={self._capacity}, size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
