"""The objectId secondary index (paper section 5.5).

"This is implemented by including a three-column table in the
frontend's metadata database that maps objectId to chunkId and
subChunkId."  We do exactly that: the index is a table named
``ObjectIndex(objectId, chunkId, subChunkId)`` inside a
:class:`~repro.sql.engine.Database`, hash-indexed on objectId, with a
convenience API on top.  When a query is predicated on objectId, the
czar consults this index to compute the containing chunk set instead of
dispatching full-sky.
"""

from __future__ import annotations

import numpy as np

from ..partition import Chunker
from ..sql import Database, Table

__all__ = ["SecondaryIndex"]

INDEX_TABLE = "ObjectIndex"


class SecondaryIndex:
    """objectId -> (chunkId, subChunkId), stored as a real SQL table."""

    def __init__(self, metadata_db: Database | None = None):
        self.db = metadata_db or Database("qservMeta")
        if INDEX_TABLE not in self.db.tables:
            self.db.create_table(
                Table(
                    INDEX_TABLE,
                    {
                        "objectId": np.empty(0, dtype=np.int64),
                        "chunkId": np.empty(0, dtype=np.int64),
                        "subChunkId": np.empty(0, dtype=np.int64),
                    },
                )
            )

    # -- construction ------------------------------------------------------------

    def add_entries(self, object_ids, chunk_ids, sub_chunk_ids) -> None:
        """Bulk-append index rows (used by the loader per chunk)."""
        table = self.db.get_table(INDEX_TABLE)
        table.append_rows(
            {
                "objectId": np.asarray(object_ids, dtype=np.int64),
                "chunkId": np.asarray(chunk_ids, dtype=np.int64),
                "subChunkId": np.asarray(sub_chunk_ids, dtype=np.int64),
            }
        )
        self.db._drop_indexes(INDEX_TABLE)

    @classmethod
    def build(cls, object_ids, ra, dec, chunker: Chunker) -> "SecondaryIndex":
        """Index a whole director table in one vectorized pass."""
        index = cls()
        index.add_entries(
            object_ids, chunker.chunk_id(ra, dec), chunker.sub_chunk_id(ra, dec)
        )
        index.finalize()
        return index

    def finalize(self) -> None:
        """Build the hash index after bulk loading."""
        self.db.create_index(INDEX_TABLE, "objectId")

    # -- queries --------------------------------------------------------------------

    def __len__(self) -> int:
        return self.db.get_table(INDEX_TABLE).num_rows

    def _rows(self, object_ids) -> np.ndarray:
        """Positions of the index rows for any of ``object_ids``, ascending.

        The czar's own access to its metadata table: a probe of the
        ``objectId`` hash index, or one pass over the column while the
        index is not built yet.
        """
        index = self.db.get_index(INDEX_TABLE, "objectId")
        if index is not None:
            return index.lookup_many(object_ids)
        column = self.db.get_table(INDEX_TABLE).column("objectId")
        return np.flatnonzero(np.isin(column, object_ids))

    def lookup(self, object_id: int) -> tuple[int, int] | None:
        """(chunkId, subChunkId) for one objectId, or None if unknown."""
        rows = self._rows([int(object_id)])
        if len(rows) == 0:
            return None
        table = self.db.get_table(INDEX_TABLE)
        return int(table.column("chunkId")[rows[0]]), int(table.column("subChunkId")[rows[0]])

    def chunks_for(self, object_ids) -> np.ndarray:
        """Sorted unique chunk ids containing any of ``object_ids``.

        Unknown ids contribute nothing -- the paper's LV tests randomize
        objectId over the full id space and simply return empty results
        for ids whose data was clipped.
        """
        ids = sorted({int(v) for v in np.atleast_1d(object_ids)})
        if not ids:
            return np.array([], dtype=np.int64)
        chunk_ids = self.db.get_table(INDEX_TABLE).column("chunkId")
        return np.unique(chunk_ids[self._rows(ids)]).astype(np.int64)
