"""Hash and sorted column indexes.

Section 4.3: Qserv "limits its use of indexing to particular use cases
where indexing can provide substantial benefit" -- chiefly objectId
look-ups.  Worker chunk tables are indexed on ``objectId`` so that
queries restricted to the secondary-index chunk set run as indexed
point look-ups rather than scans (section 5.5).

Two flavors:

- :class:`HashIndex` -- equality probes in O(1) expected time; built
  once from a column with ``np.argsort`` + ``np.searchsorted`` group
  boundaries (vectorized construction, no Python dict-of-lists loop).
- :class:`SortedIndex` -- range queries (BETWEEN) via binary search on
  a sorted permutation of the column.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HashIndex", "SortedIndex"]


class HashIndex:
    """Equality index: value -> row positions."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values)
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        # Group boundaries in the sorted order.
        uniques, starts = np.unique(sorted_vals, return_index=True)
        self._uniques = uniques
        self._starts = starts
        self._order = order
        self._n = len(values)

    def lookup(self, value) -> np.ndarray:
        """Row positions where the column equals ``value`` (sorted ascending)."""
        i = np.searchsorted(self._uniques, value)
        if i >= len(self._uniques) or self._uniques[i] != value:
            return np.empty(0, dtype=np.int64)
        lo = self._starts[i]
        hi = self._starts[i + 1] if i + 1 < len(self._starts) else self._n
        return np.sort(self._order[lo:hi])

    def lookup_many(self, values) -> np.ndarray:
        """Union of row positions for many probe values (sorted, unique)."""
        values = np.asarray(values)
        if values.size == 1:  # the point look-up: nothing to merge
            return self.lookup(values.flat[0])
        parts = [self.lookup(v) for v in np.unique(values)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def __len__(self):
        return self._n


class SortedIndex:
    """Order index supporting range (BETWEEN) probes."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values)
        self._order = np.argsort(values, kind="stable")
        self._sorted = values[self._order]

    def range(self, low, high, include_low=True, include_high=True) -> np.ndarray:
        """Row positions with low <(=) value <(=) high (sorted ascending)."""
        lo = np.searchsorted(self._sorted, low, side="left" if include_low else "right")
        hi = np.searchsorted(self._sorted, high, side="right" if include_high else "left")
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._order[lo:hi])

    def __len__(self):
        return len(self._sorted)
