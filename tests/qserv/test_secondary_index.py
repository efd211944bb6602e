"""Tests for the objectId secondary index (paper section 5.5)."""

import numpy as np
import pytest

from repro.partition import Chunker
from repro.qserv import SecondaryIndex
from repro.qserv.secondary_index import INDEX_TABLE


@pytest.fixture
def chunker():
    return Chunker(18, 6, 0.05)


@pytest.fixture
def index(chunker):
    rng = np.random.default_rng(11)
    ids = np.arange(500, dtype=np.int64)
    ra = rng.uniform(0, 360, 500)
    dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 500)))
    idx = SecondaryIndex.build(ids, ra, dec, chunker)
    return idx, ids, ra, dec


class TestBuild:
    def test_is_three_column_table(self, index):
        idx, *_ = index
        table = idx.db.get_table(INDEX_TABLE)
        assert table.column_names == ["objectId", "chunkId", "subChunkId"]
        assert table.num_rows == 500

    def test_len(self, index):
        idx, *_ = index
        assert len(idx) == 500

    def test_hash_index_built(self, index):
        idx, *_ = index
        assert idx.db.has_index(INDEX_TABLE, "objectId")


class TestLookup:
    def test_lookup_matches_chunker(self, index, chunker):
        idx, ids, ra, dec = index
        for i in (0, 123, 499):
            cid, scid = idx.lookup(int(ids[i]))
            assert cid == chunker.chunk_id(ra[i], dec[i])
            assert scid == chunker.sub_chunk_id(ra[i], dec[i])

    def test_lookup_unknown_returns_none(self, index):
        idx, *_ = index
        assert idx.lookup(999999) is None

    def test_chunks_for_single(self, index, chunker):
        idx, ids, ra, dec = index
        out = idx.chunks_for(ids[7])
        np.testing.assert_array_equal(out, [chunker.chunk_id(ra[7], dec[7])])

    def test_chunks_for_many_unique_sorted(self, index, chunker):
        idx, ids, ra, dec = index
        probe = ids[:50]
        out = idx.chunks_for(probe)
        expected = np.unique(chunker.chunk_id(ra[:50], dec[:50]))
        np.testing.assert_array_equal(out, expected)

    def test_chunks_for_unknown_is_empty(self, index):
        idx, *_ = index
        # The paper's LV tests randomize ids over the whole id space and
        # get empty results where data was clipped -- so must we.
        assert len(idx.chunks_for(10**9)) == 0

    def test_chunks_for_empty_input(self, index):
        idx, *_ = index
        assert len(idx.chunks_for(np.array([], dtype=np.int64))) == 0

    def test_chunks_for_mixed_known_unknown(self, index, chunker):
        idx, ids, ra, dec = index
        out = idx.chunks_for([int(ids[3]), 10**9])
        np.testing.assert_array_equal(out, [chunker.chunk_id(ra[3], dec[3])])


class TestIncrementalBuild:
    def test_add_entries_accumulates(self, chunker):
        idx = SecondaryIndex()
        idx.add_entries([1, 2], [10, 20], [0, 1])
        idx.add_entries([3], [30], [2])
        idx.finalize()
        assert len(idx) == 3
        assert idx.lookup(3) == (30, 2)

    def test_answers_before_and_after_finalize_agree(self, chunker):
        # Not yet finalized: one pass over the column; finalized: a probe
        # of the hash index.  Duplicate probes, ids indexed twice (one
        # object entered under two chunks), unknown ids and no ids.
        idx = SecondaryIndex()
        idx.add_entries([5, 6, 7, 6], [50, 60, 70, 61], [0, 1, 2, 3])
        probes = ([6, 6, 5], [6], [7, 10**9], [10**9], [], np.array([7, 5, 7]))
        cold = [idx.chunks_for(p) for p in probes]
        assert not idx.db.has_index(INDEX_TABLE, "objectId")
        assert [idx.lookup(k) for k in (5, 6, 8)] == [(50, 0), (60, 1), None]
        idx.finalize()
        for probe, before in zip(probes, cold):
            after = idx.chunks_for(probe)
            assert after.dtype == before.dtype == np.int64
            np.testing.assert_array_equal(after, before)
        assert [c.tolist() for c in cold] == [[50, 60, 61], [60, 61], [70], [], [], [50, 70]]
        assert [idx.lookup(k) for k in (5, 6, 8)] == [(50, 0), (60, 1), None]

    def test_entries_added_after_finalize_are_found(self):
        idx = SecondaryIndex.build([1, 2], [10.0, 20.0], [0.0, 0.0], Chunker(18, 6, 0.05))
        idx.add_entries([3], [30], [2])  # drops the hash index until the next finalize
        assert idx.lookup(3) == (30, 2)
        np.testing.assert_array_equal(idx.chunks_for([3, 3]), [30])
