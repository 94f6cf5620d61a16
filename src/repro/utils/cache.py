"""One thread-safe keyed LRU cache for every plan and table built once.

The five process-wide caches (FFT plans, twiddle arrays, SOI plans, the
six-step's twiddle tables and the server's NUFFT plans) are each an
:class:`LruCache` with a name and a constant bound.  One build rule: a
miss builds *outside* the lock and the first insert wins; a thread that
loses the race takes the winner's value and counts a hit.  So a slow
build never holds a lock, concurrent first calls share one object and
``misses`` counts distinct keys.  Every lookup reports to the one
module-level :data:`observer` (set by the happens-before audit,
:func:`repro.check.hb.install_cache_observers`) when it is not None.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["LruCache"]

#: ``(state, kind, guard)`` callable told of every cache access, or None.
observer: Callable[[str, str, str], None] | None = None


class LruCache:
    """A named map from keys to built values, bounded by *maxsize* (LRU)."""

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.maxsize = maxsize
        #: The lock's name, declared to the happens-before audit.
        self.guard = f"{name}.lock"
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._counts = {"hits": 0, "misses": 0, "evictions": 0}

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value cached under *key*; on a miss ``build()`` makes it
        (outside the lock; it must not return None)."""
        obs = observer
        if obs is not None:
            obs(self.name, "rw", self.guard)
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._counts["hits"] += 1
                return value
        built = build()
        with self._lock:
            value = self._entries.setdefault(key, built)
            if value is built:
                self._counts["misses"] += 1
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self._counts["evictions"] += 1
            else:  # another thread inserted first: share its value
                self._entries.move_to_end(key)
                self._counts["hits"] += 1
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def values(self) -> list[Any]:
        """The cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._counts = dict.fromkeys(self._counts, 0)

    def info(self) -> dict[str, int]:
        """Entries, hits, misses, evictions and the bound (``maxsize``)."""
        with self._lock:
            return {"entries": len(self._entries), **self._counts, "maxsize": self.maxsize}
