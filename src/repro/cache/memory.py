"""The in-memory cache tier: a bytes-bounded, thread-safe LRU.

Keys are fingerprint strings, values are opaque Python objects whose
*charged* size the caller supplies (the facade charges the encoded-entry
byte length, so the budget tracks what the disk tier would hold, not
Python object overhead).  Eviction is strict LRU over both hits and
inserts: a :meth:`MemoryCache.get` refreshes recency, and a
:meth:`MemoryCache.put` that pushes the total over ``max_bytes`` evicts
from the cold end until the budget holds again.

Every mutation is accounted — hits, misses, insertions, evictions,
oversize rejections and the live byte total — so the facade's counters
and the ``repro cache stats`` command read real numbers rather than
estimates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class MemoryStats:
    """Counter snapshot of one :class:`MemoryCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    oversize_rejections: int = 0
    entries: int = 0
    bytes_used: int = 0
    max_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (the ``cache stats`` wire form)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "oversize_rejections": self.oversize_rejections,
            "entries": self.entries,
            "bytes_used": self.bytes_used,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
        }


class MemoryCache:
    """Bytes-bounded LRU mapping fingerprint keys to cached values."""

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._oversize = 0

    def get(self, key: str) -> Optional[Any]:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: str, value: Any, nbytes: int) -> int:
        """Insert ``value`` charged at ``nbytes``; evict LRU as needed.

        An entry larger than the whole budget is rejected (and counted)
        rather than flushing the entire cache for one unstorable value.
        Re-putting an existing key replaces its value and charge and
        refreshes recency.  Returns the number of entries *this* call
        evicted (0 for a rejection), counted under the lock so callers
        on other threads never see each other's evictions.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        with self._lock:
            if nbytes > self.max_bytes:
                self._oversize += 1
                return 0
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            self._puts += 1
            evicted = 0
            while self._bytes > self.max_bytes:
                _evicted_key, (_value, charged) = self._entries.popitem(
                    last=False
                )
                self._bytes -= charged
                evicted += 1
            self._evictions += evicted
            return evicted

    def delete(self, key: str) -> bool:
        """Remove ``key`` if present; returns whether it existed."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            return True

    def clear(self) -> None:
        """Drop every entry (counters persist)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def keys(self) -> List[str]:
        """Keys in eviction order: coldest first, hottest last."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        """Number of live entries."""
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership check *without* touching recency or counters."""
        with self._lock:
            return key in self._entries

    @property
    def bytes_used(self) -> int:
        """Total charged bytes of the live entries."""
        with self._lock:
            return self._bytes

    def stats(self) -> MemoryStats:
        """Counter snapshot (consistent under the cache lock)."""
        with self._lock:
            return MemoryStats(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
                oversize_rejections=self._oversize,
                entries=len(self._entries),
                bytes_used=self._bytes,
                max_bytes=self.max_bytes,
            )
