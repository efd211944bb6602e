"""An LRU cache of merged query results, keyed on the query text.

Interactive astronomy traffic is repetitive -- the same cone searches
and object lookups arrive from notebooks, dashboards, and retried
sessions.  The catalog is read-only between data releases, so a merged
result is valid for as long as the process lives and a tiny LRU in the
frontend absorbs that repetition before it ever reaches admission
control or the czar.

The key is :func:`repro.sql.shapes.text_key` of the SQL text, the czar
plan cache's key, so two spellings of a query that differ only in the
white space between tokens share an entry and two that differ inside a
quoted string do not.
"""

from __future__ import annotations

from typing import Optional

from ...lru import Lru
from ...obs import metrics as obs_metrics
from ...sql.shapes import text_key

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded, thread-safe LRU of :class:`~repro.qserv.czar.QueryResult`.

    ``capacity`` counts entries, not bytes -- merged interactive results
    are small by construction (aggregates, cone searches), and an entry
    cap keeps eviction O(1).  A ``capacity`` of 0 disables the cache
    (every ``get`` misses, ``put`` is a no-op), which tests use to pin
    execution counts.
    """

    key = staticmethod(text_key)

    def __init__(self, capacity: int = 64):
        self.metrics = obs_metrics.Registry(parent=obs_metrics.REGISTRY)
        self._lru = Lru(
            capacity,
            hits=self.metrics.counter("frontend.cache.hits"),
            misses=self.metrics.counter("frontend.cache.misses"),
            evicted=self.metrics.counter("frontend.cache.evicted"),
            size=self.metrics.gauge("frontend.cache.size"),
        )

    def get(self, sql: str) -> Optional[object]:
        """The cached result for ``sql``, or None (counts hit/miss)."""
        return self._lru.get(self.key(sql))

    def put(self, sql: str, result) -> None:
        """Keep ``result`` as the answer to ``sql`` -- if it is all of it.

        The admission rule of :mod:`repro.lru`: a result some chunks
        are missing from (``allow_partial``) answers only the caller
        who allowed that.
        """
        if not result.stats.partial_result:
            self._lru.put(self.key(sql), result)

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self):
        return len(self._lru)

    def __repr__(self):
        return f"ResultCache(entries={len(self)}, capacity={self._lru.capacity})"
