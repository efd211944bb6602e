"""The one bounded map behind every cache of derived values.

The czar's plans and shapes, a worker's prepared statements, a
``Database``'s templates, compiled kernels and the frontend's results
are each the most recently used ``capacity`` values of something that is
expensive to derive and that anyone holding the key could derive again.
Their owners decide *what* is keyed; :class:`Lru` is how long it stays.
Two rules hold for all of them (the table is DESIGN.md "Caches"):

- **key**: the key carries everything the value was derived from that
  can differ between two look-ups.  A key made of statement text is
  :func:`repro.sql.shapes.text_key` of it.
- **admission**: a value is put only if it is the whole answer to its
  key -- a result no chunk is missing from, say.  ``None`` is never a
  value: ``get`` returns it for a miss.

Nothing invalidates an entry: every input that is not in the key is
fixed for the life of the cache's owner.
"""

from __future__ import annotations

from collections import OrderedDict

from .analysis.races import track_shared
from .analysis.sanitizer import make_lock

__all__ = ["Lru"]


@track_shared("_entries")
class Lru:
    """A thread-safe least-recently-used map of at most ``capacity`` values.

    A ``capacity`` of 0 keeps nothing: every ``get`` misses.  ``hits``,
    ``misses`` and ``evicted`` are the owner's counters and ``size`` its
    gauge (:mod:`repro.obs.metrics`), resolved by the owner once; any
    of them may be None.
    """

    def __init__(self, capacity: int = 256, hits=None, misses=None, evicted=None, size=None):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._hits, self._misses, self._evicted, self._size = hits, misses, evicted, size
        self._lock = make_lock("Lru._lock")
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key):
        """The value put for ``key``, now the most recently used; None on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        counter = self._misses if value is None else self._hits
        if counter is not None:
            counter.add(1)
        return value

    def put(self, key, value) -> None:
        if self.capacity == 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            if self._size is not None:
                self._size.set(len(self._entries))
        if evicted and self._evicted is not None:
            self._evicted.add(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            if self._size is not None:
                self._size.set(0)
