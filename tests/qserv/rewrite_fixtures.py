"""Queries whose generated chunk-query text is pinned byte for byte.

``golden_chunk_queries.json`` holds, per fixture, the number of chunk
queries and the SHA-256 of their texts as generated at commit d2be92f
(before sub-chunk statements were rendered from a template), over
``Chunker(18, 6, 0.05)`` and the chunks the region intersects (the
first three chunks when there is no region).
"""

_NEAR = "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS)"

FIXTURES = {
    "plain": "SELECT objectId, ra_PS FROM Object WHERE ra_PS > 3",
    "areaspec_aggregate": (
        "SELECT AVG(uFlux_SG) FROM Object "
        "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04"
    ),
    "shv2": (
        "SELECT o.objectId, s.sourceId FROM Object o, Source s "
        "WHERE qserv_areaspec_box(1,1,4,4) AND o.objectId = s.objectId "
        "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0001"
    ),
    "shv1": (
        "SELECT count(*) FROM Object o1, Object o2 "
        f"WHERE qserv_areaspec_box(0,-7,5,0) AND {_NEAR} < 0.1"
    ),
    "shv1_tiny_box": (
        "SELECT count(*) FROM Object o1, Object o2 "
        f"WHERE qserv_areaspec_box(0.0,-0.5,0.5,0.0) AND {_NEAR} < 0.01"
    ),
    "shv1_ra_wrap": (
        "SELECT count(*) FROM Object o1, Object o2 "
        f"WHERE qserv_areaspec_box(358.5,-1,361.5,1) AND {_NEAR} < 0.02"
    ),
    "shv1_circle": (
        "SELECT count(*) FROM Object o1, Object o2 "
        f"WHERE qserv_areaspec_circle(10, 20, 1.5) AND {_NEAR} < 0.02"
    ),
    "shv1_no_region": f"SELECT count(*) FROM Object o1, Object o2 WHERE {_NEAR} < 0.05",
    "shv1_pairs_ordered": (
        f"SELECT o1.objectId AS a, o2.objectId AS b, {_NEAR} AS d "
        "FROM Object o1, Object o2 "
        f"WHERE qserv_areaspec_box(2,2,3,3) AND {_NEAR} < 0.05 "
        "AND o1.objectId != o2.objectId ORDER BY d LIMIT 10"
    ),
    "shv1_grouped": (
        "SELECT o1.chunkId, COUNT(*) AS n, AVG(o2.uFlux_SG) FROM Object o1, Object o2 "
        f"WHERE qserv_areaspec_box(2,2,3,3) AND {_NEAR} < 0.05 GROUP BY o1.chunkId"
    ),
    "shv1_string_literal": (
        "SELECT 'LSST.Object_1 AS o1, x' AS tag, COUNT(*) FROM Object o1, Object o2 "
        f"WHERE qserv_areaspec_box(2,2,3,3) AND {_NEAR} < 0.05"
    ),
}
