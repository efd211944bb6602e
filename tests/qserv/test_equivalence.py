"""Metamorphic equivalence: distributed Qserv == one big local database.

The strongest end-to-end property the system has: for any supported
query, executing it through the full distributed stack (analysis,
rewriting, dispatch, per-chunk execution, dump transfer, merge, final
aggregation) must give exactly the rows a single local engine produces
on the un-partitioned table.  Hypothesis generates the queries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import build_testbed
from repro.sql import Database


def make_env():
    tb = build_testbed(num_workers=3, num_objects=900, seed=33)
    local = Database("LSST")
    local.create_table(tb.tables["Object"].copy())
    local.create_table(tb.tables["Source"].copy())
    # The local copies need the bookkeeping columns the loader filled.
    obj = local.get_table("Object")
    cols = obj.columns()
    cols["chunkId"][:] = tb.chunker.chunk_id(cols["ra_PS"], cols["decl_PS"])
    cols["subChunkId"][:] = tb.chunker.sub_chunk_id(cols["ra_PS"], cols["decl_PS"])
    src = local.get_table("Source")
    scols = src.columns()
    scols["chunkId"][:] = tb.chunker.chunk_id(scols["ra"], scols["decl"])
    scols["subChunkId"][:] = tb.chunker.sub_chunk_id(scols["ra"], scols["decl"])
    return tb, local


@pytest.fixture(scope="module")
def env():
    return make_env()


def assert_same_rows(distributed, local, order_insensitive=True):
    drows = distributed.rows()
    lrows = local.rows()
    if order_insensitive:
        drows = sorted(map(repr, drows))
        lrows = sorted(map(repr, lrows))
    assert drows == lrows


numeric_cols = st.sampled_from(["ra_PS", "decl_PS", "uFlux_SG", "uRadius_PS"])
thresholds = st.floats(min_value=-10, max_value=370, allow_nan=False)

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestFilters:
    @given(col=numeric_cols, lo=thresholds, hi=thresholds)
    @settings(**COMMON)
    def test_between_filters(self, env, col, lo, hi):
        tb, local = env
        lo, hi = min(lo, hi), max(lo, hi)
        sql = f"SELECT objectId FROM Object WHERE {col} BETWEEN {lo} AND {hi}"
        assert_same_rows(tb.czar.submit(sql).table, local.execute(sql))

    @given(
        ra0=st.floats(min_value=0, max_value=350, allow_nan=False),
        dec0=st.floats(min_value=-7, max_value=5, allow_nan=False),
        w=st.floats(min_value=0.1, max_value=30, allow_nan=False),
    )
    @settings(**COMMON)
    def test_areaspec_box(self, env, ra0, dec0, w):
        tb, local = env
        sql_dist = (
            "SELECT objectId, ra_PS, decl_PS FROM Object "
            f"WHERE qserv_areaspec_box({ra0}, {dec0}, {ra0 + w}, {dec0 + 2})"
        )
        sql_local = (
            "SELECT objectId, ra_PS, decl_PS FROM Object "
            f"WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, {ra0}, {dec0}, "
            f"{ra0 + w}, {dec0 + 2}) = 1"
        )
        assert_same_rows(tb.czar.submit(sql_dist).table, local.execute(sql_local))

    @given(
        ra0=st.floats(min_value=0, max_value=359, allow_nan=False),
        dec0=st.floats(min_value=-6, max_value=6, allow_nan=False),
        radius=st.floats(min_value=0.1, max_value=10, allow_nan=False),
    )
    @settings(**COMMON)
    def test_areaspec_circle(self, env, ra0, dec0, radius):
        tb, local = env
        sql_dist = (
            "SELECT COUNT(*) FROM Object "
            f"WHERE qserv_areaspec_circle({ra0}, {dec0}, {radius})"
        )
        sql_local = (
            "SELECT COUNT(*) FROM Object "
            f"WHERE qserv_ptInSphericalCircle(ra_PS, decl_PS, {ra0}, {dec0}, {radius}) = 1"
        )
        assert_same_rows(tb.czar.submit(sql_dist).table, local.execute(sql_local))


class TestAggregates:
    @given(col=numeric_cols, agg=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]))
    @settings(**COMMON)
    def test_global_aggregates(self, env, col, agg):
        tb, local = env
        sql = f"SELECT {agg}({col}) AS v FROM Object"
        d = tb.czar.submit(sql).table.column("v")[0]
        l = local.execute(sql).column("v")[0]
        assert d == pytest.approx(l, rel=1e-9)

    @given(col=numeric_cols, modulus=st.integers(min_value=2, max_value=9))
    @settings(**COMMON)
    def test_group_by_expression(self, env, col, modulus):
        tb, local = env
        sql = (
            f"SELECT objectId % {modulus} AS g, COUNT(*) AS n, AVG({col}) AS m "
            f"FROM Object GROUP BY objectId % {modulus} ORDER BY g"
        )
        d = tb.czar.submit(sql).table
        l = local.execute(sql)
        np.testing.assert_array_equal(d.column("g"), l.column("g"))
        np.testing.assert_array_equal(d.column("n"), l.column("n"))
        np.testing.assert_allclose(d.column("m"), l.column("m"), rtol=1e-9)

    @given(threshold=st.integers(min_value=0, max_value=200))
    @settings(**COMMON)
    def test_having(self, env, threshold):
        tb, local = env
        sql = (
            "SELECT chunkId, COUNT(*) AS n FROM Object "
            f"GROUP BY chunkId HAVING COUNT(*) > {threshold} ORDER BY chunkId"
        )
        assert_same_rows(
            tb.czar.submit(sql).table, local.execute(sql), order_insensitive=False
        )


    def test_hv3_density_per_chunk(self, env):
        """HV3: one aggregate chunk statement per chunk, merged by a second one."""
        tb, local = env
        sql = (
            "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId "
            "FROM Object GROUP BY chunkId ORDER BY chunkId"
        )
        d = tb.czar.submit(sql)
        l = local.execute(sql)
        assert d.stats.chunks_dispatched == l.num_rows > 1
        np.testing.assert_array_equal(d.table.column("chunkId"), l.column("chunkId"))
        np.testing.assert_array_equal(d.table.column("n"), l.column("n"))
        for avg in ("AVG(ra_PS)", "AVG(decl_PS)"):
            # One chunk is one group on both sides: the same sum, bit for bit.
            np.testing.assert_array_equal(d.table.column(avg), l.column(avg))

    @given(
        ra0=st.floats(min_value=0, max_value=3, allow_nan=False),
        dec0=st.floats(min_value=-6, max_value=5, allow_nan=False),
        cut=st.sampled_from([1e-30, 1e-7, 5e-7]),
    )
    @settings(**COMMON)
    def test_lv3_count_in_a_box(self, env, ra0, dec0, cut):
        tb, local = env
        box = f"{ra0}, {dec0}, {ra0 + 0.5}, {dec0 + 0.5}"
        d = tb.czar.submit(
            f"SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box({box}) AND uFlux_SG > {cut}"
        )
        l = local.execute(
            "SELECT COUNT(*) FROM Object WHERE "
            f"qserv_ptInSphericalBox(ra_PS, decl_PS, {box}) = 1 AND uFlux_SG > {cut}"
        )
        assert_same_rows(d.table, l)

    def test_null_group_key_spans_chunks(self, env):
        """NULL keys are one group: per chunk, and again when the czar merges."""
        tb, local = env
        key = "(objectId % 3) / (objectId % 3)"  # 0 / 0 is NULL, the rest 1
        sql = (
            f"SELECT {key} AS kf, COUNT(*) AS n, MIN(objectId) AS lo, AVG(ra_PS) AS m "
            f"FROM Object GROUP BY {key}"
        )
        d = tb.czar.submit(sql)
        l = local.execute(sql)
        assert d.stats.chunks_dispatched > 1
        ids = tb.tables["Object"].column("objectId")
        nulls = int(np.count_nonzero(ids % 3 == 0))
        for result in (d.table, l):
            assert result.num_rows == 2
            kf = result.column("kf")
            assert list(result.column("n")[np.isnan(kf)]) == [nulls]
            assert list(result.column("n")[kf == 1.0]) == [len(ids) - nulls]
        order_d, order_l = np.argsort(d.table.column("kf")), np.argsort(l.column("kf"))
        np.testing.assert_array_equal(d.table.column("lo")[order_d], l.column("lo")[order_l])
        np.testing.assert_allclose(
            d.table.column("m")[order_d], l.column("m")[order_l], rtol=1e-12
        )


class TestOrderLimit:
    @given(
        limit=st.integers(min_value=1, max_value=40),
        desc=st.booleans(),
        col=numeric_cols,
    )
    @settings(**COMMON)
    def test_order_limit(self, env, limit, desc, col):
        tb, local = env
        direction = "DESC" if desc else "ASC"
        sql = (
            f"SELECT objectId, {col} FROM Object "
            f"ORDER BY {col} {direction}, objectId LIMIT {limit}"
        )
        assert_same_rows(
            tb.czar.submit(sql).table, local.execute(sql), order_insensitive=False
        )

    @given(limit=st.integers(min_value=1, max_value=20), offset=st.integers(min_value=0, max_value=30))
    @settings(**COMMON)
    def test_limit_offset(self, env, limit, offset):
        tb, local = env
        sql = (
            "SELECT objectId FROM Object ORDER BY objectId "
            f"LIMIT {limit} OFFSET {offset}"
        )
        assert_same_rows(
            tb.czar.submit(sql).table, local.execute(sql), order_insensitive=False
        )


class TestJoins:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(**COMMON)
    def test_object_source_join(self, env, seed):
        tb, local = env
        rng = np.random.default_rng(seed)
        oid = int(rng.choice(tb.tables["Object"].column("objectId")))
        sql = (
            "SELECT o.objectId, s.sourceId FROM Object o, Source s "
            f"WHERE o.objectId = s.objectId AND o.objectId = {oid}"
        )
        assert_same_rows(tb.czar.submit(sql).table, local.execute(sql))

    @given(
        dec0=st.floats(min_value=-7, max_value=-2, allow_nan=False),
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_near_neighbor_within_overlap(self, env, dec0):
        tb, local = env
        dist = tb.chunker.overlap * 0.9
        sql_dist = (
            "SELECT count(*) FROM Object o1, Object o2 "
            f"WHERE qserv_areaspec_box(0, {dec0}, 4, {dec0 + 2}) "
            f"AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {dist}"
        )
        d = int(tb.czar.submit(sql_dist).table.column("count(*)")[0])
        # Local ground truth via brute force (the local engine would need
        # the same region restriction semantics; numpy is clearer).
        from repro.sphgeom import SphericalBox, angular_separation

        obj = tb.tables["Object"]
        ra, dec = obj.column("ra_PS"), obj.column("decl_PS")
        left = np.flatnonzero(SphericalBox(0, dec0, 4, dec0 + 2).contains(ra, dec))
        if len(left) == 0:
            assert d == 0
            return
        sep = angular_separation(
            ra[left][:, None], dec[left][:, None], ra[None, :], dec[None, :]
        )
        assert d == int(np.count_nonzero(sep < dist))


def _near_neighbour_answers(tb, box):
    """(distributed, single-node, brute-force) pairs within ``box`` + radius.

    ``box`` is ``(ra_min, dec_min, ra_max, dec_max)`` as the areaspec
    takes it.  Each answer is a sorted list of ``(objectId, objectId)``;
    the distributed side is also asked for the count alone (SHV1).
    """
    from repro.sphgeom import SphericalBox, angular_separation

    dist = tb.chunker.overlap * 0.9
    near = f"qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {dist}"
    area = "qserv_areaspec_box({}, {}, {}, {})".format(*box)
    pairs = tb.czar.submit(
        f"SELECT o1.objectId AS a, o2.objectId AS b FROM Object o1, Object o2 "
        f"WHERE {area} AND {near}"
    )
    count = tb.czar.submit(f"SELECT count(*) FROM Object o1, Object o2 WHERE {area} AND {near}")
    distributed = sorted(pairs.table.rows())
    assert int(count.table.column("count(*)")[0]) == len(distributed)
    assert count.stats.chunks_dispatched == pairs.stats.chunks_dispatched

    # The single-node engine on the unpartitioned table; its join runs
    # as a kernel whatever the suite's setting (12 000 x 12 000 rows
    # are beyond the interpreter's cross join).
    ra_min, dec_min, ra_max, dec_max = box
    if ra_max < ra_min:
        ra_max += 360.0
    local = Database("LSST", use_kernels=True)
    local.create_table(tb.tables["Object"])
    single = sorted(
        local.execute(
            "SELECT o1.objectId AS a, o2.objectId AS b FROM Object o1, Object o2 WHERE "
            f"qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, {ra_min}, {dec_min}, "
            f"{ra_max}, {dec_max}) = 1 AND {near}"
        ).rows()
    )

    obj = tb.tables["Object"]
    ids, ra, dec = obj.column("objectId"), obj.column("ra_PS"), obj.column("decl_PS")
    left = np.flatnonzero(SphericalBox(ra_min, dec_min, ra_max, dec_max).contains(ra, dec))
    sep = angular_separation(
        ra[left][:, None], dec[left][:, None], ra[None, :], dec[None, :]
    )
    li, ri = np.nonzero(sep < dist)
    brute = sorted(zip(ids[left][li], ids[ri]))
    return distributed, single, brute, count.stats.chunks_dispatched


def _partitionings():
    from repro.partition import HtmChunker

    return {"stripe": None, "htm": HtmChunker(4, 2, 0.05)}


def test_near_neighbor_across_chunk_border_and_ra_wrap():
    """SHV1 over a box on the RA 0 meridian and the dec 0 stripe border.

    Pairs there are only found through the overlap tables, and the
    box cut and the pair distance both have to survive the RA wrap;
    the pairs must be those of the single-node engine and of a
    brute-force NumPy count, on the stripe and on the HTM chunker
    (whose root triangles meet in this very point).
    """
    for name, chunker in _partitionings().items():
        tb = build_testbed(num_workers=3, num_objects=12000, seed=37, chunker=chunker)
        try:
            distributed, single, brute, chunks = _near_neighbour_answers(
                tb, (359.0, -1.0, 1.0, 1.0)
            )
        finally:
            tb.shutdown()
        assert distributed == single == brute, name
        assert chunks == 4, name

        obj = tb.tables["Object"]
        ra = dict(zip(obj.column("objectId"), obj.column("ra_PS")))
        dec = dict(zip(obj.column("objectId"), obj.column("decl_PS")))
        # The fixture does contain what the test is about: neighbours on
        # opposite sides of RA 0 and of the stripe border at dec 0.
        assert any(abs(ra[a] - ra[b]) > 300.0 for a, b in brute), name
        assert any((dec[a] < 0.0) != (dec[b] < 0.0) for a, b in brute), name


def test_near_neighbor_box_on_a_sub_chunk_corner():
    """Boxes that touch sub-chunks in a corner or along an edge only.

    The czar may name a sub-chunk the box merely touches or leave it
    out; either way the rows are those of the single-node engine.
    """
    for name, chunker in _partitionings().items():
        tb = build_testbed(num_workers=3, num_objects=12000, seed=41, chunker=chunker)
        try:
            if name == "stripe":
                cid = int(tb.chunker.chunk_id(2.0, 2.0))
                scid = int(tb.chunker.sub_chunk_id(2.0, 2.0))
                cell = tb.chunker.sub_chunk_box(cid, scid)
                corner = (cell.ra_max, cell.dec_max)
            else:
                corner = (0.0, 0.0)  # a vertex of every trixel level
            ra0, dec0 = corner
            boxes = [
                (ra0, dec0, ra0 + 0.7, dec0 + 0.7),  # its corner on the corner
                (ra0 - 0.4, dec0 - 0.4, ra0 + 0.4, dec0 + 0.4),  # centred on it
                (ra0 - 0.6, dec0, ra0, dec0 + 0.5),  # two edges along cell edges
            ]
            for box in boxes:
                box = (box[0] % 360.0, box[1], box[2] % 360.0, box[3])
                distributed, single, brute, _ = _near_neighbour_answers(tb, box)
                assert distributed == single == brute, (name, box)
                assert len(brute) > 20, (name, box)
        finally:
            tb.shutdown()


#: The benchmark's scan and box classes: (distributed SQL, single-node SQL).
SCAN_CLASSES = {
    "hv1": ("SELECT COUNT(*) FROM Object",) * 2,
    "hv2": (
        "SELECT objectId, ra_PS, decl_PS, uFlux_SG FROM Object WHERE uRadius_PS > 0.0975",
    ) * 2,
    "hv3": (
        "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId "
        "FROM Object GROUP BY chunkId",
    ) * 2,
    "lv3": (
        "SELECT COUNT(*) FROM Object "
        "WHERE qserv_areaspec_box(0.5, -2.0, 3.0, 2.0) AND uFlux_SG > 1e-30",
        "SELECT COUNT(*) FROM Object "
        "WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, 0.5, -2.0, 3.0, 2.0) = 1 "
        "AND uFlux_SG > 1e-30",
    ),
}


def test_prepared_scans_equal_cold_scans_and_count_the_same():
    """Each class cold, then from the workers' prepared statements.

    Both runs equal the single-node answer, and the kernel counters
    advance per statement executed as they always have: one execution
    per chunk query plus the czar's merge query, every one of them a
    cache hit once the first run has compiled.
    """
    from repro.obs import metrics as obs_metrics

    def counters():
        snap = obs_metrics.REGISTRY.snapshot()
        return [
            snap.get("kernel." + name, 0)
            for name in ("executions", "cache.hits", "cache.misses", "fallbacks")
        ]

    tb, local = make_env()
    try:
        kernels = next(iter(tb.workers.values())).db.use_kernels
        for name, (sql, local_sql) in SCAN_CLASSES.items():
            expected = local.execute(local_sql)
            for run in ("cold", "prepared"):
                before = counters()
                result = tb.czar.submit(sql)
                executions, hits, misses, fallbacks = (
                    b - a for a, b in zip(before, counters())
                )
                if name == "hv3":
                    assert_same_rows(result.table, expected)  # AVG merged exactly here
                else:
                    assert sorted(result.table.rows()) == sorted(expected.rows())
                statements = result.stats.chunks_dispatched + 1 if kernels else 0
                assert executions == statements, (name, run)
                assert hits + misses == statements and fallbacks == 0, (name, run)
                if run == "prepared":
                    assert misses == 0, name
        # One entry per class, however many chunks a worker hosts.
        assert max(len(w._prepared) for w in tb.workers.values()) == len(SCAN_CLASSES)
    finally:
        tb.shutdown()


def _box(ra, dec, width, height):
    return (round(ra, 4), round(dec, 4), round(ra + width, 4), round(dec + height, 4))


#: The benchmark's fresh-literal classes: (distributed SQL, single-node
#: SQL, literal sets).  Boxes sit at positive declinations so that every
#: set of a class has one sign pattern, i.e. one shape.
FRESH_LITERAL_CLASSES = {
    "lv1": (
        "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = {0}",
        None,
        [(5,), (311,), (899,), (10**9,), (42,)],
    ),
    "lv2": (
        "SELECT taiMidPoint, fluxToAbMag(psfFlux), ra, decl FROM Source WHERE objectId = {0}",
        None,
        [(7,), (450,), (10**9,), (888,)],
    ),
    "lv3": (
        "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box({0}, {1}, {2}, {3}) "
        "AND uFlux_SG > 1e-30",
        "SELECT COUNT(*) FROM Object WHERE "
        "qserv_ptInSphericalBox(ra_PS, decl_PS, {0}, {1}, {2}, {3}) = 1 AND uFlux_SG > 1e-30",
        [_box(1.0, 1.0, 0.5, 0.5), _box(359.7, 0.5, 0.5, 0.5), _box(3.0, 2.0, 2.5, 1.5),
         _box(200.0, 80.0, 0.5, 0.5)],
    ),
    "hv2": (
        "SELECT objectId, ra_PS, decl_PS, uFlux_SG FROM Object WHERE uRadius_PS > {0}",
        None,
        [(0.0975,), (0.0123,), (0.9,), (0.0,)],
    ),
    "shv1": (
        "SELECT COUNT(*) FROM Object o1, Object o2 "
        "WHERE qserv_areaspec_box({0}, {1}, {2}, {3}) AND "
        "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {4}",
        "SELECT COUNT(*) FROM Object o1, Object o2 "
        "WHERE qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, {0}, {1}, {2}, {3}) = 1 AND "
        "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {4}",
        [_box(1.0, 1.0, 1.5, 1.5) + (0.04,), _box(359.2, 0.2, 1.5, 1.5) + (0.045,),
         _box(2.0, 3.0, 2.0, 1.0) + (0.02,)],
    ),
    "shv2": (
        "SELECT o.objectId, s.sourceId FROM Object o, Source s "
        "WHERE qserv_areaspec_box({0}, {1}, {2}, {3}) AND o.objectId = s.objectId "
        "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > {4}",
        "SELECT o.objectId, s.sourceId FROM Object o, Source s "
        "WHERE qserv_ptInSphericalBox(o.ra_PS, o.decl_PS, {0}, {1}, {2}, {3}) = 1 "
        "AND o.objectId = s.objectId "
        "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > {4}",
        [_box(1.0, 1.0, 1.0, 1.0) + (0.0001,), _box(359.5, 2.0, 1.0, 1.0) + (0.00005,),
         _box(4.0, 0.5, 1.5, 1.0) + (0.0002,)],
    ),
}


def test_fresh_literals_of_one_shape_equal_the_single_node_answer():
    """Every class on its 1st (parsed) and 2nd..Nth (bound) literal set.

    The czar parses a class once and keeps one shape for it, every
    worker one prepared statement per chunk-statement shape; a new
    literal set is never an exact-text plan hit, the same text again is.
    Sources of an object scattered into a neighbouring chunk are
    invisible to chunk-local joins (ROADMAP item 6), so SHV2 is compared
    on the objects whose family is whole.
    """
    tb, local = make_env()
    try:
        src = tb.tables["Source"]
        obj = tb.tables["Object"]
        src_chunk = tb.chunker.chunk_id(src.column("ra"), src.column("decl"))
        obj_chunk = tb.chunker.chunk_id(obj.column("ra_PS"), obj.column("decl_PS"))
        split = set(
            src.column("objectId")[src_chunk != obj_chunk[src.column("objectId")]].tolist()
        )
        answered = dict.fromkeys(FRESH_LITERAL_CLASSES, 0)
        for name, (sql, local_sql, literal_sets) in FRESH_LITERAL_CLASSES.items():
            shapes = len(tb.czar._shapes)
            for values in literal_sets:
                text = sql.format(*values)
                result = tb.czar.submit(text)
                assert result.stats.plan_cache_hits == 0, (name, values)
                expected = local.execute((local_sql or sql).format(*values)).rows()
                got = result.table.rows()
                if name == "shv2":
                    expected = [r for r in expected if r[0] not in split]
                    got = [r for r in got if r[0] not in split]
                if name == "lv2" and values[0] in split:
                    continue
                assert sorted(map(repr, got)) == sorted(map(repr, expected)), (name, values)
                answered[name] += len(got) if name != "shv1" else got[0][0]
                again = tb.czar.submit(text)
                assert again.stats.plan_cache_hits == 1
                assert sorted(map(repr, again.table.rows())) == sorted(
                    map(repr, result.table.rows())
                )
            assert len(tb.czar._shapes) == shapes + 1, name
        # Nothing above compared empty answers only.
        assert all(answered.values()), answered
        # SHV1 has two statement shapes per chunk query (self and
        # overlap pair), the other classes one each.
        assert max(len(w._prepared) for w in tb.workers.values()) <= len(
            FRESH_LITERAL_CLASSES
        ) + 1
    finally:
        tb.shutdown()


def composite_queries():
    """Random full SELECTs mixing filters, aggregates, grouping, ordering."""
    predicates = st.lists(
        st.sampled_from(
            [
                "ra_PS > 180",
                "decl_PS BETWEEN -5 AND 5",
                "uRadius_PS > 0.03",
                "uFlux_SG < 0.0001",
                "objectId % 3 = 1",
                "fluxToAbMag(uFlux_PS) BETWEEN 18 AND 26",
            ]
        ),
        min_size=0,
        max_size=3,
        unique=True,
    )
    shapes = st.sampled_from(["plain", "agg", "group"])
    limits = st.one_of(st.none(), st.integers(min_value=1, max_value=25))
    return st.tuples(predicates, shapes, limits, st.booleans())


@given(composite_queries())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_composite_query_equivalence(env, combo):
    """Random composite queries: distributed == centralized, always."""
    tb, local = env
    predicates, shape, limit, desc = combo
    where = (" WHERE " + " AND ".join(predicates)) if predicates else ""
    direction = "DESC" if desc else "ASC"
    if shape == "plain":
        sql = (
            f"SELECT objectId, ra_PS FROM Object{where} "
            f"ORDER BY objectId {direction}"
        )
    elif shape == "agg":
        sql = (
            f"SELECT COUNT(*) AS n, AVG(ra_PS) AS m, MIN(decl_PS) AS lo, "
            f"MAX(decl_PS) AS hi FROM Object{where}"
        )
    else:
        sql = (
            f"SELECT chunkId, COUNT(*) AS n, SUM(uFlux_SG) AS s "
            f"FROM Object{where} GROUP BY chunkId ORDER BY chunkId {direction}"
        )
    if limit is not None:
        sql += f" LIMIT {limit}"
    d = tb.czar.submit(sql).table
    l = local.execute(sql)
    assert d.column_names == l.column_names
    assert d.num_rows == l.num_rows
    for col in d.column_names:
        dv, lv = d.column(col), l.column(col)
        if np.issubdtype(np.asarray(dv).dtype, np.floating):
            np.testing.assert_allclose(dv, lv, rtol=1e-9, equal_nan=True)
        else:
            np.testing.assert_array_equal(dv, lv)
