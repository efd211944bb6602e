"""The loader's bytes, pinned: every ``ChunkChecksums`` digest of two testbeds.

One testbed has the paper's geometry (85 stripes, 12 sub-stripes, the
1-arcmin overlap), the other the HTM chunker at a comparable chunk
size.  A digest is the md5 of a chunk or ``FullOverlap`` table's wire
encoding, so any change to which rows a table holds, their order, or
their ``chunkId``/``subChunkId`` bookkeeping changes it.

The tables are drawn with uniform and integer draws and IEEE arithmetic
only: no transcendental function, whose last bit may differ between
CPUs, reaches a stored column.  The golden file was written by the
loader before it partitioned in one pass; to write it again after a
deliberate change to the loaded bytes, run
``PYTHONPATH=src python tests/data/test_golden_digests.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import build_testbed
from repro.partition import HtmChunker
from repro.sql import Table

GOLDEN = Path(__file__).with_name("golden_digests.json")
NUM_OBJECTS = 20_000
SEED = 2011
TESTBEDS = {
    "box": dict(num_stripes=85, num_sub_stripes=12, overlap=0.01667),
    "htm": dict(chunker=HtmChunker(chunk_level=5, sub_level=2, overlap=0.01667)),
}


def catalog():
    """Objects over the PT1.1 patch (RA 358..5 across RA 0, Dec -7..7), 3 sources each."""
    rng = np.random.default_rng(SEED)
    n, k = NUM_OBJECTS, 3 * NUM_OBJECTS
    ra = np.mod(358.0 + rng.uniform(0.0, 7.0, n), 360.0)
    dec = rng.uniform(-7.0, 7.0, n)
    unset = np.full(n, -1, dtype=np.int64)
    objects = Table("Object", {
        "objectId": np.arange(n, dtype=np.int64), "ra_PS": ra, "decl_PS": dec,
        "uFlux_SG": rng.uniform(0.0, 1e-29, n), "chunkId": unset, "subChunkId": unset,
    })
    owner = rng.integers(0, n, k)
    sources = Table("Source", {
        "sourceId": np.arange(k, dtype=np.int64), "objectId": owner,
        "ra": np.mod(ra[owner] + rng.uniform(-1e-3, 1e-3, k), 360.0),
        "decl": dec[owner] + rng.uniform(-1e-3, 1e-3, k),
        "chunkId": np.full(k, -1, dtype=np.int64), "subChunkId": np.full(k, -1, dtype=np.int64),
    })
    return objects, sources


def digests(kind: str) -> dict[str, str]:
    """``{table name: digest}`` of every table the loader installed."""
    objects, sources = catalog()
    tb = build_testbed(num_workers=2, objects=objects, sources=sources, **TESTBEDS[kind])
    try:
        names = {
            name
            for w in tb.workers.values()
            for name in w.db.tables
            if tb.checksums.expected(name) is not None
        }
        assert len(names) == len(tb.checksums)
        return {name: tb.checksums.expected(name) for name in sorted(names)}
    finally:
        tb.shutdown()


@pytest.mark.parametrize("kind", sorted(TESTBEDS))
def test_every_digest_equals_the_golden_one(kind):
    golden = json.loads(GOLDEN.read_text())[kind]
    got = digests(kind)
    assert sorted(got) == sorted(golden)
    assert {n for n in got if got[n] != golden[n]} == set()
    # Both kinds of table are pinned, overlap tables with rows among them.
    assert any("FullOverlap" in n for n in got) and any("FullOverlap" not in n for n in got)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({k: digests(k) for k in sorted(TESTBEDS)}, indent=1) + "\n")
