"""Differential equivalence: compiled kernels vs the interpreter.

Every supported query shape runs through both execution paths over the
same seeded data and must be *bit-identical*: same column names in the
same order, same dtypes, same values (NaN compared as equal, float
payloads otherwise exact).  A handful of hand-computed goldens anchor
both paths to MySQL semantics so the two cannot agree on a shared bug
for those shapes.

The suite also asserts the kernel path actually executed (via the
``kernel.executions`` metric delta) for shapes that must compile, and
that known-unsupported shapes fall back cleanly rather than erroring.
A final section repeats representative shapes under ``REPRO_SANITIZE=1``
so the instrumented-lock build stays equivalent too.

Two-table join kernels get the same treatment over a small sky patch
cut into sub-chunk, overlap and Source tables: the near-neighbour
self-pair and sub-chunk x overlap statements, the Object x Source
equi-join, and the places a declination band could go wrong (a pair
exactly on the radius, NaN coordinates, the RA wrap, the poles).
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.sql import ast
from repro.sql.engine import Database
from repro.sql.kernels import KernelCache
from repro.sql.table import Table

from .test_ast_fuzz import expressions


def seeded_table(n=4000, seed=1234) -> Table:
    rng = np.random.default_rng(seed)
    flux = rng.uniform(1e-9, 1e-6, n)
    flux[rng.random(n) < 0.05] = np.nan  # NULLs in a measured column
    gflux = rng.uniform(1e-9, 1e-6, n)
    gflux[rng.random(n) < 0.05] = np.nan
    return Table(
        "Object_713",
        {
            "objectId": rng.permutation(np.arange(n, dtype=np.int64)),
            "chunkId": np.full(n, 713, dtype=np.int64),
            "subChunkId": rng.integers(0, 8, n),
            "ra_PS": rng.uniform(0.0, 360.0, n),
            "decl_PS": rng.uniform(-90.0, 90.0, n),
            "uFlux_PS": flux,
            "gFlux_PS": gflux,
            "flags": rng.integers(0, 2, n).astype(bool),
            "filterName": np.array(
                [["u", "g", "r", "i", "z"][i % 5] for i in range(n)], dtype=object
            ),
        },
    )


@pytest.fixture(scope="module")
def data():
    return seeded_table()


def fresh_pair(*tables: Table):
    """(interpreter db, kernel db) over independent copies of ``tables``."""
    db_i = Database(use_kernels=False)
    db_k = Database(use_kernels=True)
    for db in (db_i, db_k):
        for table in tables:
            db.create_table(
                Table(table.name, {n: a.copy() for n, a in table.columns().items()})
            )
    return db_i, db_k


def metric(name: str) -> float:
    return obs_metrics.REGISTRY.snapshot().get(name, 0)


def assert_identical(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype == cb.dtype, f"{name}: {ca.dtype} != {cb.dtype}"
        if np.issubdtype(ca.dtype, np.floating):
            bits = f"u{ca.dtype.itemsize}"  # float16 comes out of SQRT(<bool>)
            np.testing.assert_array_equal(
                np.nan_to_num(ca, nan=0.0).view(bits),
                np.nan_to_num(cb, nan=0.0).view(bits),
                err_msg=name,
            )
            np.testing.assert_array_equal(np.isnan(ca), np.isnan(cb), err_msg=name)
        else:
            np.testing.assert_array_equal(ca, cb, err_msg=name)


def check(data, sql, expect_kernel=True):
    """``data`` is one table or a tuple of them."""
    db_i, db_k = fresh_pair(*(data if isinstance(data, tuple) else (data,)))
    r_i = db_i.execute(sql)
    before = metric("kernel.executions")
    fallbacks = metric("kernel.fallbacks")
    r_k = db_k.execute(sql)
    if expect_kernel:
        assert metric("kernel.executions") == before + 1, sql
    else:
        assert metric("kernel.executions") == before, sql
        assert metric("kernel.fallbacks") >= fallbacks, sql
    assert_identical(r_i, r_k)
    return r_k


SUPPORTED_SHAPES = [
    # projection and scalar expressions
    "SELECT objectId, ra_PS FROM Object_713",
    "SELECT ra_PS + 1.0 AS r1, decl_PS * 2 - 1 AS d2 FROM Object_713",
    "SELECT ra_PS / decl_PS AS q, objectId % 7 AS m FROM Object_713",
    "SELECT -decl_PS AS neg, NOT flags AS inv FROM Object_713",
    "SELECT 1 + 2 AS c, objectId FROM Object_713",
    "SELECT * FROM Object_713 WHERE decl_PS > 75",
    # conjunct predicates, every comparison operator
    "SELECT objectId FROM Object_713 WHERE ra_PS > 10 AND ra_PS < 350 "
    "AND decl_PS >= -45 AND decl_PS <= 45 AND subChunkId != 3 AND flags = 1",
    "SELECT objectId FROM Object_713 WHERE subChunkId <=> 2",
    "SELECT objectId FROM Object_713 WHERE ra_PS BETWEEN 30 AND 60",
    "SELECT objectId FROM Object_713 WHERE decl_PS NOT BETWEEN -80 AND 80",
    "SELECT objectId FROM Object_713 WHERE flags = 1 OR decl_PS < -85",
    # IN lists: ints, floats, strings, negated, non-literal items
    "SELECT objectId FROM Object_713 WHERE subChunkId IN (1, 3, 5)",
    "SELECT objectId FROM Object_713 WHERE subChunkId NOT IN (0, 7)",
    "SELECT objectId FROM Object_713 WHERE filterName IN ('u', 'z')",
    "SELECT objectId FROM Object_713 WHERE ra_PS IN (1.5, 2.5)",
    "SELECT objectId FROM Object_713 WHERE subChunkId IN (1, 1 + 2)",
    # NULL handling
    "SELECT objectId FROM Object_713 WHERE uFlux_PS IS NULL",
    "SELECT objectId FROM Object_713 WHERE uFlux_PS IS NOT NULL AND gFlux_PS IS NOT NULL",
    # UDFs in predicates and projections (the expensive-conjunct stages)
    "SELECT objectId, fluxToAbMag(uFlux_PS) AS mag FROM Object_713 "
    "WHERE fluxToAbMag(uFlux_PS) - fluxToAbMag(gFlux_PS) BETWEEN 0.2 AND 1.1",
    "SELECT objectId FROM Object_713 "
    "WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, 10, -10, 50, 10) = 1",
    "SELECT objectId FROM Object_713 "
    "WHERE qserv_angSep(ra_PS, decl_PS, 180.0, 0.0) < 30 AND flags = 1",
    # aggregates: global and grouped, all functions, DISTINCT, HAVING
    "SELECT COUNT(*) AS n FROM Object_713 WHERE decl_PS > 0",
    "SELECT COUNT(uFlux_PS) AS n, SUM(uFlux_PS) AS s, AVG(decl_PS) AS a, "
    "MIN(ra_PS) AS lo, MAX(ra_PS) AS hi FROM Object_713",
    "SELECT COUNT(*) AS n FROM Object_713 WHERE ra_PS > 9999",
    "SELECT SUM(uFlux_PS) AS s FROM Object_713 WHERE ra_PS > 9999",
    "SELECT COUNT(DISTINCT subChunkId) AS d FROM Object_713",
    "SELECT subChunkId, COUNT(*) AS n, AVG(ra_PS) AS a FROM Object_713 "
    "GROUP BY subChunkId ORDER BY subChunkId",
    "SELECT filterName, COUNT(uFlux_PS) AS n, MIN(decl_PS) AS lo FROM Object_713 "
    "WHERE flags = 1 GROUP BY filterName ORDER BY filterName",
    "SELECT subChunkId, COUNT(*) AS n FROM Object_713 "
    "GROUP BY subChunkId HAVING COUNT(*) > 480 ORDER BY n DESC, subChunkId",
    "SELECT subChunkId, SUM(uFlux_PS) AS s FROM Object_713 "
    "GROUP BY subChunkId HAVING SUM(uFlux_PS) > 0 ORDER BY subChunkId",
    # DISTINCT / ORDER BY / LIMIT
    "SELECT DISTINCT filterName FROM Object_713 ORDER BY filterName",
    "SELECT DISTINCT subChunkId % 2 AS p FROM Object_713 ORDER BY p",
    "SELECT objectId, ra_PS FROM Object_713 ORDER BY ra_PS DESC LIMIT 17",
    "SELECT objectId, decl_PS FROM Object_713 ORDER BY 2, 1 LIMIT 9",
    "SELECT objectId FROM Object_713 WHERE flags = 1 ORDER BY objectId LIMIT 5",
    # duplicate/aliased output names
    "SELECT objectId AS b, objectId FROM Object_713 LIMIT 4",
    "SELECT ra_PS, ra_PS FROM Object_713 LIMIT 4",
]


@pytest.mark.parametrize("sql", SUPPORTED_SHAPES)
def test_supported_shape_bit_identical(data, sql):
    check(data, sql, expect_kernel=True)


FALLBACK_SHAPES = [
    # ORDER BY key that is not an output column
    "SELECT objectId FROM Object_713 ORDER BY decl_PS LIMIT 10",
    # HAVING without any aggregation is interpreter-only
    "SELECT objectId FROM Object_713 HAVING objectId > 100 ORDER BY objectId LIMIT 5",
]


@pytest.mark.parametrize("sql", FALLBACK_SHAPES)
def test_fallback_shape_still_identical(data, sql):
    check(data, sql, expect_kernel=False)


# -- one kernel per shape, whatever the WHERE literals ---------------------------------

#: (statement with ``{}`` holes, three literal sets).  Kinds and signs
#: are the same across the sets of one statement: they belong to the shape.
LITERAL_SHAPES = [
    # comparisons, every operator, int and float holes
    ("SELECT objectId, ra_PS FROM Object_713 WHERE ra_PS > {} AND decl_PS <= {} AND subChunkId != {}",
     [(10, 45.5, 3), (350, 0.0, 0), (0, 89.99, 7)]),
    ("SELECT objectId FROM Object_713 WHERE subChunkId = {} OR objectId < {}",
     [(2, 100), (5, 0), (7, 4000)]),
    ("SELECT objectId FROM Object_713 WHERE subChunkId <=> {}", [(2,), (3,), (99,)]),
    # negative and tiny values: the minus sign is an operator of the shape
    ("SELECT objectId FROM Object_713 WHERE decl_PS > -{} AND uFlux_PS > {}",
     [(45.0, 1e-30), (0.5, 5e-7), (90.0, 2.5e-7)]),
    ("SELECT COUNT(*) AS n FROM Object_713 WHERE uFlux_PS > {}", [(1e-30,), (5e-7,), (1.0,)]),
    # BETWEEN and NOT BETWEEN
    ("SELECT objectId FROM Object_713 WHERE ra_PS BETWEEN {} AND {}",
     [(30, 60), (0, 360), (200, 100)]),
    ("SELECT objectId FROM Object_713 WHERE decl_PS NOT BETWEEN -{} AND {}",
     [(80.0, 80.0), (10.5, 0.25), (0.0, 0.0)]),
    # IN lists: candidate arrays are rebuilt from the bound values
    ("SELECT objectId FROM Object_713 WHERE subChunkId IN ({}, {}, {})",
     [(1, 3, 5), (0, 0, 7), (8, 9, 10)]),
    ("SELECT objectId FROM Object_713 WHERE subChunkId NOT IN ({}, {})", [(0, 7), (1, 1), (9, 8)]),
    ("SELECT objectId FROM Object_713 WHERE subChunkId IN ({}, {})", [(1.0, 2.5), (0.0, 1e300), (3.0, 3.0)]),
    ("SELECT objectId FROM Object_713 WHERE subChunkId IN ({}, {} + {})", [(1, 1, 2), (0, 3, 4), (6, 0, 0)]),
    ("SELECT objectId FROM Object_713 WHERE subChunkId IN ({}, -{})", [(1, 1), (2, 0), (3, 5)]),
    ("SELECT objectId FROM Object_713 WHERE filterName IN ('u', 'z') AND subChunkId > {}", [(1,), (6,), (9,)]),
    # arithmetic on a literal, on both sides
    ("SELECT objectId FROM Object_713 WHERE ra_PS * {} + {} > decl_PS / {}",
     [(2, 1.5, 3), (0, 0.0, 1), (1, 10.25, 0)]),
    ("SELECT objectId FROM Object_713 WHERE objectId % {} = {}", [(7, 3), (2, 0), (1000, 999)]),
    # UDF arguments: the staged (survivor) path reads P too
    ("SELECT objectId FROM Object_713 WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, {}, -{}, {}, {}) = {}",
     [(10.0, 10.0, 50.0, 10.0, 1), (350.5, 0.25, 365.0, 0.25, 1), (0.0, 90.0, 360.0, 90.0, 0)]),
    ("SELECT objectId FROM Object_713 WHERE qserv_angSep(ra_PS, decl_PS, {}, {}) < {} AND flags = {}",
     [(180.0, 0.0, 30, 1), (0.5, 89.0, 2, 0), (359.9, 0.0, 180, 1)]),
    ("SELECT objectId, fluxToAbMag(uFlux_PS) AS mag FROM Object_713 "
     "WHERE fluxToAbMag(uFlux_PS) - fluxToAbMag(gFlux_PS) BETWEEN {} AND {} AND decl_PS > {}",
     [(0.2, 1.1, 0), (0.0, 9.5, 45), (1.0, 0.5, 3)]),
    # grouped and global aggregates over a literal-driven cut
    ("SELECT subChunkId, COUNT(*) AS n, AVG(ra_PS) AS a FROM Object_713 WHERE decl_PS > {} "
     "GROUP BY subChunkId ORDER BY subChunkId", [(0,), (75,), (90,)]),
    ("SELECT SUM(uFlux_PS) AS s, MIN(ra_PS) AS lo FROM Object_713 WHERE ra_PS > {}",
     [(9999,), (180,), (0,)]),
    # literals outside WHERE stay put while those inside move
    ("SELECT objectId + 5 AS shifted, 7 AS seven FROM Object_713 WHERE subChunkId = {} "
     "ORDER BY 1 LIMIT 11", [(1,), (2,), (5,)]),
    ("SELECT subChunkId, COUNT(*) AS n FROM Object_713 WHERE decl_PS < {} "
     "GROUP BY subChunkId HAVING COUNT(*) > 100 ORDER BY 2 DESC, 1", [(0.0,), (60.5,), (90.0,)]),
]


def run_literal_sets(tables, template, literal_sets, expect_kernel=True):
    """Each literal set through one kernel database and a fresh interpreter."""
    kinds = {tuple(type(v) for v in values) for values in literal_sets}
    assert len(kinds) == 1, f"literal sets of different kinds: {template}"
    db_i, db_k = fresh_pair(*tables)
    compiled, runs = metric("kernel.compiled"), metric("kernel.executions")
    results = []
    for values in literal_sets:
        sql = template.format(*(repr(v) for v in values))
        r_k = db_k.execute(sql)
        assert_identical(db_i.execute(sql), r_k)
        results.append(r_k)
    if expect_kernel:
        assert metric("kernel.compiled") == compiled + 1, template
        assert metric("kernel.executions") == runs + len(literal_sets), template
        assert len(db_k.kernel_cache) == 1
    return results


@pytest.mark.parametrize("template, literal_sets", LITERAL_SHAPES)
def test_one_kernel_serves_every_literal_set(data, template, literal_sets):
    results = run_literal_sets((data,), template, literal_sets)
    # The sets were chosen to select different rows: a kernel that kept
    # the first set's values would have been caught above, and here.
    assert len({(r.num_rows, str(r.rows()[:3])) for r in results}) > 1, template


def test_kind_and_sign_of_a_literal_compile_separately(data):
    _, db_k = fresh_pair(data)
    compiled = metric("kernel.compiled")
    for cut in ("10", "10.0", "-10", "20", "20.5", "-30"):
        db_k.execute(f"SELECT COUNT(*) AS n FROM Object_713 WHERE decl_PS > {cut}")
    assert metric("kernel.compiled") == compiled + 3
    for items in ("1, 2", "3, 4", "1, 2, 3"):
        db_k.execute(f"SELECT COUNT(*) AS n FROM Object_713 WHERE subChunkId IN ({items})")
    assert metric("kernel.compiled") == compiled + 5


class TestMaskToIndexGather:
    """A mask with columns to cut becomes row indices once (same rows, same order)."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(4242)
        n = 5000
        return Table(
            "Object_713",
            {
                "objectId": np.arange(n, dtype=np.int64),
                "u": rng.uniform(0.0, 1.0, n),
                "v": rng.normal(size=n),
                "k": rng.integers(0, 5, n),
                "nothing": np.full(n, np.nan),
                "name": np.array([f"o{i % 11}" for i in range(n)], dtype=object),
            },
        )

    @pytest.mark.parametrize(
        "where, selected",
        [
            ("u > 1.5", 0),  # no row
            ("u > 0.84", None),  # ~16 %
            ("u > -1", 5000),  # every row
            ("nothing > 0.5", 0),  # NaN compares false: an all-False mask
            ("nothing IS NULL", 5000),
            ("nothing IS NOT NULL", 0),
        ],
    )
    def test_selectivities(self, table, where, selected):
        plain = check(table, f"SELECT objectId, u, v, name FROM Object_713 WHERE {where}")
        if selected is None:
            selected = int(np.count_nonzero(table.column("u") > 0.84))
            assert 0.14 < selected / table.num_rows < 0.18
        assert plain.num_rows == selected
        assert list(plain.column("objectId")) == sorted(plain.column("objectId"))
        star = check(table, f"SELECT * FROM Object_713 WHERE {where}")
        assert star.num_rows == selected
        grouped = check(
            table,
            f"SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(u) AS lo FROM Object_713 "
            f"WHERE {where} GROUP BY k ORDER BY k",
        )
        assert int(np.sum(grouped.column("n"))) == selected
        # Nothing to gather: the count comes straight off the mask.
        assert check(table, f"SELECT COUNT(*) AS n FROM Object_713 WHERE {where}").rows() == [
            (selected,)
        ]
        check(table, f"SELECT 1 AS one FROM Object_713 WHERE {where}")


class TestGoldenResults:
    """Hand-computed MySQL-semantics anchors, run through both paths."""

    @pytest.fixture()
    def tiny(self):
        return Table(
            "T",
            {
                "a": np.array([1, 2, 2, 3, 3], dtype=np.int64),
                "x": np.array([1.0, np.nan, 3.0, np.nan, 5.0]),
                "s": np.array(["u", "g", "u", "g", "u"], dtype=object),
            },
        )

    def run_both(self, tiny, sql):
        db_i, db_k = fresh_pair(tiny)
        r_i, r_k = db_i.execute(sql), db_k.execute(sql)
        assert_identical(r_i, r_k)
        return r_k

    def test_count_ignores_nulls(self, tiny):
        r = self.run_both(tiny, "SELECT COUNT(*) AS c, COUNT(x) AS cx FROM T")
        assert r.rows() == [(5, 3)]

    def test_sum_avg_skip_nulls(self, tiny):
        r = self.run_both(tiny, "SELECT SUM(x) AS s, AVG(x) AS a FROM T")
        assert r.rows() == [(9.0, 3.0)]

    def test_sum_all_null_is_null(self, tiny):
        r = self.run_both(tiny, "SELECT SUM(x) AS s FROM T WHERE a = 99")
        assert r.num_rows == 1 and np.isnan(r.column("s")[0])

    def test_count_zero_rows(self, tiny):
        r = self.run_both(tiny, "SELECT COUNT(*) AS c FROM T WHERE a = 99")
        assert r.rows() == [(0,)]

    def test_grouped_min_max(self, tiny):
        r = self.run_both(
            tiny,
            "SELECT s, MIN(x) AS lo, MAX(x) AS hi, COUNT(*) AS n FROM T "
            "GROUP BY s ORDER BY s",
        )
        # MySQL MIN/MAX skip NULLs; an all-NULL group yields NULL.
        assert list(r.column("s")) == ["g", "u"]
        assert np.isnan(r.column("lo")[0]) and r.column("lo")[1] == 1.0
        assert np.isnan(r.column("hi")[0]) and r.column("hi")[1] == 5.0
        np.testing.assert_array_equal(r.column("n"), [2, 3])

    def test_count_distinct_per_group(self, tiny):
        r = self.run_both(
            tiny,
            "SELECT a, COUNT(DISTINCT s) AS d FROM T GROUP BY a ORDER BY a",
        )
        assert r.rows() == [(1, 1), (2, 2), (3, 2)]

    def test_in_list_string(self, tiny):
        r = self.run_both(tiny, "SELECT a FROM T WHERE s IN ('u') ORDER BY a")
        assert r.rows() == [(1,), (2,), (3,)]

    def test_null_never_in_list(self, tiny):
        # NaN (NULL) must not match any IN-list item on either path.
        r = self.run_both(tiny, "SELECT a FROM T WHERE x IN (1.0, 3.0, 5.0) ORDER BY a")
        assert r.rows() == [(1,), (2,), (3,)]


def always_sorting_group_structure(keys, n):
    """``group_structure`` with no rung but the lexsort; NULL keys are one group."""
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort(keys[::-1])
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for k in keys:
        k = k[order]
        differ = k[1:] != k[:-1]
        if k.dtype.kind == "f":
            differ &= ~(np.isnan(k[1:]) & np.isnan(k[:-1]))
        changed[1:] |= differ
    return order, np.flatnonzero(changed)


def grouping_table(layout: str, n=3000, seed=77) -> Table:
    """Group keys ``g`` (and ``h``) laid out as ``layout`` says; payload as ever."""
    rng = np.random.default_rng(seed)
    if layout == "empty":
        n = 0
    g = np.sort(rng.integers(0, 6, n))
    h = rng.integers(0, 4, n)
    if layout == "reverse-sorted":
        g = g[::-1].copy()
    elif layout == "one group":
        g = np.full(n, 713, dtype=np.int64)
    elif layout == "nan key":
        g = g.astype(np.float64)
        g[g == 5] = np.nan  # the sorted tail: ordered but for the NaNs
    elif layout == "both keys sorted":
        h = h[np.lexsort((h, g))]
    v = rng.uniform(1e-9, 1e-6, n)
    v[rng.random(n) < 0.1] = np.nan
    return Table("T", {"g": g, "h": h, "v": v, "w": rng.integers(0, 9, n)})


GROUPED_AGGREGATES = (
    "COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, "
    "MAX(v) AS hi, SUM(w) AS sw, COUNT(DISTINCT w) AS d"
)


class TestOrderedGroupKeysSkipTheSort:
    """Keys already in order take no lexsort and no gathers; same bits out."""

    @pytest.mark.parametrize(
        "layout",
        ["sorted", "reverse-sorted", "one group", "nan key", "first key sorted",
         "both keys sorted", "empty"],
    )
    @pytest.mark.parametrize("group_by", ["g", "g, h", "h, g"])
    def test_same_bits_as_always_sorting(self, layout, group_by, monkeypatch):
        from repro.sql import kernels

        table = grouping_table(layout)
        sql = f"SELECT {group_by}, {GROUPED_AGGREGATES} FROM T GROUP BY {group_by}"
        result = check(table, sql)
        monkeypatch.setattr(kernels, "group_structure", always_sorting_group_structure)
        reference = fresh_pair(table)[0].execute(sql)
        assert_identical(result, reference)
        assert (result.num_rows > 0) == (layout != "empty")

    @pytest.mark.parametrize(
        "layout, group_by, skipped",
        [
            ("sorted", ["g"], True),
            ("one group", ["g"], True),
            ("one group", ["g", "h"], False),
            ("both keys sorted", ["g", "h"], True),
            ("first key sorted", ["g", "h"], False),
            ("reverse-sorted", ["g"], False),
            ("nan key", ["g"], False),
        ],
    )
    def test_which_layouts_skip(self, layout, group_by, skipped):
        from repro.sql.kernels import group_structure

        table = grouping_table(layout)
        keys = [table.column(name) for name in group_by]
        order, starts = group_structure(keys, table.num_rows)
        assert (order is None) == skipped
        ref_order, ref_starts = always_sorting_group_structure(keys, table.num_rows)
        np.testing.assert_array_equal(starts, ref_starts)
        if order is None:
            np.testing.assert_array_equal(ref_order, np.arange(table.num_rows))
        else:
            np.testing.assert_array_equal(order, ref_order)


# -- the generated aggregate stage ----------------------------------------------------

# Grouped SELECTs over the columns of ``aggregate_table``, their
# expressions the AST fuzzer's trees with numbers for literals.
_fuzz_columns = st.sampled_from(["g", "h", "v", "w", "u", "b"]).map(ast.ColumnRef)
_fuzz_literals = st.one_of(
    st.integers(min_value=0, max_value=9).map(ast.Literal),
    st.sampled_from([0.0, 0.5, 2.5e-7, 1e300]).map(ast.Literal),
)
_fuzz_trees = expressions(2, _fuzz_columns, _fuzz_literals)
_fuzz_aggregates = st.one_of(
    st.just(ast.FuncCall("COUNT", (ast.Star(),))),
    st.builds(
        ast.FuncCall,
        name=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
        args=st.tuples(_fuzz_trees),
    ),
)
# An aggregate, or a tree with aggregates among its leaves.
_fuzz_per_group = st.one_of(
    _fuzz_aggregates, expressions(1, _fuzz_aggregates, _fuzz_literals)
)


@st.composite
def _grouped_selects(draw):
    keys = draw(st.lists(st.one_of(_fuzz_columns, _fuzz_trees), max_size=2))
    outputs = keys + draw(st.lists(_fuzz_per_group, min_size=1, max_size=3))
    return ast.Select(
        items=tuple(ast.SelectItem(e, f"c{i}") for i, e in enumerate(outputs)),
        tables=(ast.TableRef("T"),),
        where=draw(st.one_of(st.none(), _fuzz_trees)),
        group_by=tuple(keys),
        having=draw(st.one_of(st.none(), _fuzz_per_group)),
    )


grouped_selects = _grouped_selects()

# The same over pairs of ``T a, T b``: every column qualified by a side.
_join_columns = st.builds(
    ast.ColumnRef,
    column=st.sampled_from(["g", "h", "v", "w", "u", "b"]),
    table=st.sampled_from(["a", "b"]),
)
_join_trees = expressions(2, _join_columns, _fuzz_literals)
_join_aggregates = st.one_of(
    st.just(ast.FuncCall("COUNT", (ast.Star(),))),
    st.builds(
        ast.FuncCall,
        name=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
        args=st.tuples(_join_trees),
    ),
)
_join_per_group = st.one_of(
    _join_aggregates, expressions(1, _join_aggregates, _fuzz_literals)
)


@st.composite
def _join_selects(draw):
    """``FROM T a, T b WHERE a.g = b.g AND <tree>``, plain or grouped."""
    same_g = ast.BinaryOp("=", ast.ColumnRef("g", "a"), ast.ColumnRef("g", "b"))
    tree = draw(st.one_of(st.none(), _join_trees))
    keys, having = [], None
    if draw(st.booleans()):
        keys = draw(st.lists(st.one_of(_join_columns, _join_trees), max_size=2))
        outputs = keys + draw(st.lists(_join_per_group, min_size=1, max_size=3))
        having = draw(st.one_of(st.none(), _join_per_group))
    else:
        outputs = draw(st.lists(_join_trees, min_size=1, max_size=3))
    return ast.Select(
        items=tuple(ast.SelectItem(e, f"c{i}") for i, e in enumerate(outputs)),
        tables=(ast.TableRef("T", alias="a"), ast.TableRef("T", alias="b")),
        where=same_g if tree is None else ast.BinaryOp("AND", same_g, tree),
        group_by=tuple(keys),
        having=having,
    )


join_selects = _join_selects()

#: How the group keys ``g`` (and ``h``) of :func:`aggregate_table` lie.
KEY_LAYOUTS = [
    "no GROUP BY", "one group", "ordered", "reverse", "unordered ints", "negative ints",
    "huge ints", "float key", "two keys", "NULL key", "NULL key and a second",
]


def aggregate_table(layout: str, nulls: str, n=1500, seed=5) -> Table:
    """``g``/``h`` laid out as ``layout`` says; ``v`` with NULLs as ``nulls`` says."""
    rng = np.random.default_rng(seed)

    def spanning(span, low=0):
        k = rng.integers(low, low + span, n)
        k[:2] = low, low + span - 1  # the range is exactly ``span`` values
        return k

    h = rng.integers(0, 4, n)
    if layout in ("no GROUP BY", "ordered"):
        g = np.sort(rng.integers(0, 6, n))
    elif layout == "one group":
        g = np.full(n, 713, dtype=np.int64)
    elif layout == "reverse":
        g = np.sort(rng.integers(0, 6, n))[::-1].copy()
    elif layout == "unordered ints":
        g = spanning(256)
    elif layout == "negative ints":
        g = spanning(40, low=-20)
    elif layout == "huge ints":
        g = rng.choice(np.array([-(2**63), -(2**62), -1, 0, 2**62, 2**63 - 1]), n)
    elif layout == "float key":
        g = rng.choice(np.array([-0.5, 0.25, 1e300, 3.0]), n)
    elif layout == "two keys":
        g = spanning(6)
    elif layout in ("NULL key", "NULL key and a second"):
        g = rng.choice(np.array([np.nan, 1.0, np.nan, 2.0, 0.5]), n)
    else:
        raise ValueError(layout)
    v = rng.uniform(1e-9, 1e-6, n)
    if nulls == "some NULLs":
        v[rng.random(n) < 0.1] = np.nan
    elif nulls == "an all-NULL group":
        v[rng.random(n) < 0.1] = np.nan
        v[g == g[n // 2]] = np.nan
    return Table(
        "T",
        {
            "g": g,
            "h": h,
            "v": v,
            "w": rng.integers(-9, 9, n),
            "u": rng.uniform(0.0, 1.0, n),
            "b": rng.integers(0, 2, n).astype(bool),
        },
    )


def group_by_of(layout: str) -> str:
    if layout == "no GROUP BY":
        return ""
    return "g, h" if layout == "two keys" or layout.endswith("a second") else "g"


#: Every aggregate the emitter accepts, over every kind of argument.
COMPILED_AGGREGATES = (
    "COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi, "
    "COUNT(w) AS cw, SUM(w) AS sw, AVG(w) AS aw, MIN(w) AS low, MAX(w) AS hiw, "
    "SUM(b) AS sb, MAX(b) AS hib, "
    "SUM(v * 2 + w) AS se, MIN(w % 4) AS me, MAX(fluxToAbMag(v)) AS mu, AVG(ABS(w)) AS au, "
    "SUM(1) AS ones, AVG(2.5) AS same, COUNT(7) AS sevens, MIN(NULL) AS nothing, "
    "SUM(v) / COUNT(v) AS ratio, MAX(v) - MIN(v) AS spread, COUNT(*) * 2 + 1 AS odd"
)
COMPILED_WHERES = {
    "every row": "",
    "no row": "WHERE u > 1.5",
    "16 %": "WHERE u > 0.84",
    "100 %": "WHERE u > -1",
    "a UDF stage": "WHERE u > 0.2 AND fluxToAbMag(v) > 24.5",
}


def compiled_aggregate_sql(layout, where="every row", having=""):
    keys = group_by_of(layout)
    items = f"{keys}, {COMPILED_AGGREGATES}" if keys else COMPILED_AGGREGATES
    group_by = f"GROUP BY {keys}" if keys else ""
    return f"SELECT {items} FROM T {COMPILED_WHERES[where]} {group_by} {having}"


def aggregate_stage_compiled(db_k) -> bool:
    """Whether the one kernel of ``db_k`` has a generated ``_aggregate``."""
    (kernel,) = db_k.kernel_cache._entries.values()
    return kernel.project_fn is not None and kernel.project_fn.__name__ == "_aggregate"


class TestCompiledAggregates:
    """The generated aggregate stage is the interpreter's, bit for bit."""

    @pytest.mark.parametrize("nulls", ["no NULL", "some NULLs", "an all-NULL group"])
    @pytest.mark.parametrize("where", list(COMPILED_WHERES))
    @pytest.mark.parametrize("layout", KEY_LAYOUTS)
    def test_bit_identical(self, layout, where, nulls):
        table = aggregate_table(layout, nulls)
        result = check(table, compiled_aggregate_sql(layout, where))
        if where == "no row":
            assert result.num_rows == (1 if layout == "no GROUP BY" else 0)
        elif where != "a UDF stage":  # which may leave no row of an all-NULL group
            assert result.num_rows > 0
        having = "HAVING COUNT(*) > 3 AND SUM(v) / COUNT(v) > 4e-7 OR MIN(w) = -9"
        check(table, compiled_aggregate_sql(layout, where, having))

    @pytest.mark.parametrize(
        "layout", ["no GROUP BY", "one group", "float key", "NULL key and a second"]
    )
    def test_empty_input(self, layout):
        table = aggregate_table(layout, "no NULL", n=0)
        result = check(table, compiled_aggregate_sql(layout))
        assert result.num_rows == (1 if layout == "no GROUP BY" else 0)
        if layout == "no GROUP BY":
            assert result.column("n")[0] == 0 and np.isnan(result.column("sw")[0])

    def test_integer_sums_stay_integer(self):
        result = check(
            aggregate_table("ordered", "no NULL"),
            "SELECT g, SUM(w) AS sw, SUM(w * 2) AS se, COUNT(*) AS n, SUM(b) AS sb, "
            "AVG(w) AS aw FROM T GROUP BY g",
        )
        assert [result.column(c).dtype.kind for c in ("sw", "se", "n", "sb", "aw")] == list(
            "iiiff"
        )

    @pytest.mark.parametrize("layout", KEY_LAYOUTS)
    def test_against_a_group_by_group_oracle(self, layout):
        """Per-group NumPy over the rows of each key: neither path's code."""
        table = aggregate_table(layout, "an all-NULL group")
        keys = group_by_of(layout).split(", ") if group_by_of(layout) else []
        result = check(table, compiled_aggregate_sql(layout))
        key_cols = [table.column(k) for k in keys]
        v, w = table.column("v"), table.column("w")
        seen = 0
        for row in range(result.num_rows):
            member = np.ones(table.num_rows, dtype=bool)
            for name, col in zip(keys, key_cols):
                key = result.column(name)[row]
                member &= np.isnan(col) if key != key else col == key
            seen += int(member.sum())
            assert result.column("n")[row] == member.sum()
            assert result.column("c")[row] == np.count_nonzero(~np.isnan(v[member]))
            assert result.column("sw")[row] == w[member].sum()
            assert result.column("low")[row] == w[member].min()
            if np.isnan(v[member]).all():
                for name in ("s", "a", "lo", "hi", "ratio"):
                    assert np.isnan(result.column(name)[row]), name
            else:
                assert result.column("lo")[row] == np.nanmin(v[member])
                assert result.column("hi")[row] == np.nanmax(v[member])
                assert result.column("s")[row] == pytest.approx(np.nansum(v[member]), rel=1e-12)
                assert result.column("a")[row] == pytest.approx(np.nanmean(v[member]), rel=1e-12)
        # Every row lies in exactly one group: NULL keys included, once.
        assert seen == table.num_rows
        if keys:
            assert result.num_rows == len(
                {tuple("NULL" if k != k else k for k in key) for key in zip(*key_cols)}
            )

    # -- NULLs compare equal when grouping (MySQL), on both paths ------------------

    @pytest.fixture()
    def nullable(self):
        return Table(
            "T",
            {
                "kf": np.array([np.nan, 1.0, np.nan, 1.0, np.nan, 2.0]),
                "x": np.array([1.0, np.nan, np.nan, 2.0, 2.0, np.nan]),
                "i": np.arange(6, dtype=np.int64),
            },
        )

    @staticmethod
    def rows_of(result):
        """The rows as sorted text, NULL spelled out (NaN != NaN would never match)."""
        return sorted(
            repr(tuple("NULL" if v != v else v.item() for v in row))
            for row in result.rows()
        )

    def test_null_keys_are_one_group(self, nullable):
        result = check(nullable, "SELECT kf, COUNT(*) AS n, SUM(i) AS s FROM T GROUP BY kf")
        assert self.rows_of(result) == sorted(map(repr, [(1.0, 2, 4), (2.0, 1, 5), ("NULL", 3, 6)]))

    def test_null_keys_are_one_group_beside_a_second_key(self, nullable):
        result = check(
            nullable, "SELECT kf, i % 2 AS p, COUNT(*) AS n FROM T GROUP BY kf, i % 2"
        )
        assert self.rows_of(result) == sorted(map(repr, [(1.0, 1, 2), (2.0, 1, 1), ("NULL", 0, 3)]))

    def test_distinct_keeps_one_null(self, nullable):
        result = check(nullable, "SELECT DISTINCT x FROM T")
        assert self.rows_of(result) == sorted(map(repr, [(1.0,), (2.0,), ("NULL",)]))
        # (NULL, 0) twice and (NULL, NULL) once are two rows, not three.
        result = check(nullable, "SELECT DISTINCT kf, x * 0 AS z FROM T")
        assert self.rows_of(result) == sorted(
            map(repr, [(1.0, 0.0), (1.0, "NULL"), (2.0, "NULL"), ("NULL", 0.0), ("NULL", "NULL")])
        )

    def test_count_distinct_counts_no_null(self, nullable):
        # Declined by the emitter: the interpreter's stage behind the kernel's mask.
        assert check(nullable, "SELECT COUNT(DISTINCT x) AS d FROM T").rows() == [(2,)]
        result = check(nullable, "SELECT kf, COUNT(DISTINCT x) AS d FROM T GROUP BY kf")
        # kf NULL holds x = {1.0, NULL, 2.0}; kf 1 holds {NULL, 2.0}; kf 2 holds {NULL}.
        assert self.rows_of(result) == sorted(map(repr, [(1.0, 1), (2.0, 0), ("NULL", 2)]))
        group = Table("T", {"x": np.array([1.0, np.nan, np.nan])})
        assert check(group, "SELECT COUNT(DISTINCT x) AS d FROM T").rows() == [(1,)]

    def test_the_nan_key_layout_has_one_null_group(self):
        table = grouping_table("nan key")
        result = check(table, "SELECT g, COUNT(*) AS n FROM T GROUP BY g")
        assert result.num_rows == 6
        assert np.isnan(result.column("g")[-1])
        assert result.column("n")[-1] == np.count_nonzero(np.isnan(table.column("g")))

    # -- what runs generated, and what it calls ------------------------------------

    @pytest.mark.parametrize("layout", ["no GROUP BY", "one group", "unordered ints", "NULL key"])
    @pytest.mark.parametrize("where", list(COMPILED_WHERES))
    def test_an_accepted_shape_never_calls_evaluate(self, layout, where, monkeypatch):
        from repro.sql import engine, kernels

        table = aggregate_table(layout, "some NULLs")
        sql = compiled_aggregate_sql(layout, where, "HAVING COUNT(*) > 0 ORDER BY n")
        expected = fresh_pair(table)[0].execute(sql)
        _, db_k = fresh_pair(table)
        fallbacks = metric("kernel.fallbacks")

        def no_evaluate(*args, **kwargs):
            raise AssertionError("evaluate() called for a compiled aggregate")

        for module in (kernels, engine):
            monkeypatch.setattr(module, "evaluate", no_evaluate)
        for _ in range(2):  # compiling, then from the cache
            assert_identical(db_k.execute(sql), expected)
        assert aggregate_stage_compiled(db_k)
        assert metric("kernel.fallbacks") == fallbacks

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, COUNT(DISTINCT w) AS d FROM T GROUP BY g",
            "SELECT g, MIN(name) AS first FROM T GROUP BY g",
            "SELECT COUNT(name) AS names FROM T",
            "SELECT g, SUM(DISTINCT w) AS s FROM T GROUP BY g",
        ],
    )
    def test_a_declined_stage_is_the_interpreters_behind_the_mask(self, sql):
        table = aggregate_table("ordered", "some NULLs")
        table = Table(
            "T",
            {**table.columns(), "name": np.array([f"o{i % 7}" for i in range(table.num_rows)], dtype=object)},
        )
        db_i, db_k = fresh_pair(table)
        runs, fallbacks = metric("kernel.executions"), metric("kernel.fallbacks")
        assert_identical(db_i.execute(sql), db_k.execute(sql))
        # Still a kernel execution, not a statement fallback.
        assert metric("kernel.executions") == runs + 1
        assert metric("kernel.fallbacks") == fallbacks
        assert not aggregate_stage_compiled(db_k)

    def test_errors_are_the_interpreters(self):
        for sql, rows in (
            ("SELECT g, COUNT(*) AS n FROM T", 0),  # a bare column over no rows
            ("SELECT SUM(COUNT(w)) AS nested FROM T", 50),
            ("SELECT g, nosuchfunction(SUM(w)) AS f FROM T GROUP BY g", 50),
            ("SELECT g, SUM(*) AS s FROM T GROUP BY g", 50),
        ):
            db_i, db_k = fresh_pair(aggregate_table("ordered", "no NULL", n=rows))
            with pytest.raises(Exception) as interpreted:
                db_i.execute(sql)
            with pytest.raises(type(interpreted.value)) as compiled:
                db_k.execute(sql)
            assert str(compiled.value) == str(interpreted.value), sql

    @staticmethod
    def assert_same_outcome(table, select):
        """Kernels on and off answer ``select`` alike, or fail with one error type."""
        sql = select.to_sql()
        outcomes = []
        for db in fresh_pair(table):
            try:
                with np.errstate(all="ignore"):
                    outcomes.append(db.execute(sql))
            except Exception as e:  # noqa: BLE001 - the two paths must fail alike
                outcomes.append(type(e))
        interpreted, compiled = outcomes
        if isinstance(interpreted, type) or isinstance(compiled, type):
            assert interpreted is compiled, sql
        else:
            assert_identical(interpreted, compiled)

    @given(select=grouped_selects)
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_grouped_selects(self, select):
        """Kernels on == off for grouped SELECTs built from the AST fuzzer's trees."""
        table = aggregate_table("NULL key and a second", "some NULLs", n=200)
        self.assert_same_outcome(table, select)

    @given(select=join_selects)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_join_selects(self, select):
        """Kernels on == off for comma joins whose pair stages are the fuzzer's trees."""
        table = aggregate_table("NULL key and a second", "some NULLs", n=90)
        self.assert_same_outcome(table, select)


class TestKernelMachinery:
    def test_cache_hit_on_repeat(self, data):
        _, db_k = fresh_pair(data)
        sql = "SELECT COUNT(*) AS n FROM Object_713 WHERE decl_PS > 0"
        db_k.execute(sql)
        hits = metric("kernel.cache.hits")
        db_k.execute(sql)
        assert metric("kernel.cache.hits") == hits + 1

    def test_cache_hit_builds_no_schema(self, data, patch, monkeypatch):
        # The key's schema half comes from the tables' memoised
        # signatures -- for both sides of a join -- so a hit allocates
        # no Column objects.
        _, db_k = fresh_pair(data, *patch)
        queries = [
            "SELECT COUNT(*) AS n FROM Object_713 WHERE decl_PS > 0",
            f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} < 0.015",
        ]
        first = [db_k.execute(q).rows() for q in queries]

        def no_schema(self):
            raise AssertionError("schema() rebuilt on a kernel-cache hit")

        monkeypatch.setattr(Table, "schema", no_schema)
        runs = metric("kernel.executions")
        assert [db_k.execute(q).rows() for q in queries] == first
        assert metric("kernel.executions") == runs + 2

    def test_alias_shapes_share_one_kernel(self, data):
        # The czar emits `LSST.Object_<chunk> AS Object`; every chunk
        # must reuse one compiled kernel keyed on the anonymized shape.
        db = Database(use_kernels=True)
        for cid in (7, 8):
            cols = {n: a.copy() for n, a in data.columns().items()}
            db.create_table(Table(f"Object_{cid}", cols))
        compiled = metric("kernel.compiled")
        r7 = db.execute(
            "SELECT COUNT(*) AS n FROM LSST.Object_7 AS Object "
            "WHERE Object.decl_PS > 0"
        )
        r8 = db.execute(
            "SELECT COUNT(*) AS n FROM LSST.Object_8 AS Object "
            "WHERE Object.decl_PS > 0"
        )
        assert metric("kernel.compiled") == compiled + 1
        assert_identical(r7, r8)

    def test_env_toggle_disables_kernels(self, data, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        db = Database()
        assert not db.use_kernels
        db.create_table(Table(data.name, dict(data.columns())))
        before = metric("kernel.executions")
        r = db.execute("SELECT COUNT(*) AS n FROM Object_713")
        assert metric("kernel.executions") == before
        assert r.rows() == [(data.num_rows,)]

    def test_indexed_table_bypasses_kernels(self, data):
        db_i, db_k = fresh_pair(data)
        db_k.create_index("Object_713", "objectId")
        db_i.create_index("Object_713", "objectId")
        oid = int(data.column("objectId")[17])
        before = metric("kernel.executions")
        sql = f"SELECT objectId, ra_PS FROM Object_713 WHERE objectId = {oid}"
        assert_identical(db_i.execute(sql), db_k.execute(sql))
        assert metric("kernel.executions") == before  # point lookup kept

    def test_shared_cache_across_databases(self, data):
        cache = KernelCache()
        dbs = []
        for i in range(2):
            db = Database(use_kernels=True, kernel_cache=cache)
            db.create_table(Table(data.name, {n: a.copy() for n, a in data.columns().items()}))
            dbs.append(db)
        compiled = metric("kernel.compiled")
        for db in dbs:
            db.execute("SELECT AVG(ra_PS) AS a FROM Object_713 WHERE flags = 1")
        assert metric("kernel.compiled") == compiled + 1


# -- two-table join kernels ---------------------------------------------------------


def sky_patch(name, n, seed, ra0=0.0, dec0=0.0, size=0.3, first_id=0) -> Table:
    """``n`` objects scattered over a ``size`` degree square at (ra0, dec0)."""
    rng = np.random.default_rng(seed)
    flux = rng.uniform(1e-9, 1e-6, n)
    flux[rng.random(n) < 0.1] = np.nan
    return Table(
        name,
        {
            "objectId": first_id + rng.permutation(np.arange(n, dtype=np.int64)),
            "ra_PS": (ra0 + rng.uniform(0.0, size, n)) % 360.0,
            "decl_PS": np.clip(dec0 + rng.uniform(0.0, size, n), -90.0, 90.0),
            "subChunkId": rng.integers(0, 4, n),
            "uFlux_PS": flux,
        },
    )


def sources_of(objects: Table, name, per_object=3, seed=99) -> Table:
    """Detections scattered ~1e-4 deg around each object (a few unmatched)."""
    rng = np.random.default_rng(seed)
    owner = np.repeat(objects.column("objectId"), per_object)
    n = len(owner)
    owner = owner.copy()
    owner[rng.random(n) < 0.05] = 10**9  # orphans: no such object
    return Table(
        name,
        {
            "sourceId": rng.permutation(np.arange(n, dtype=np.int64)),
            "objectId": owner,
            "ra": np.repeat(objects.column("ra_PS"), per_object)
            + rng.normal(0.0, 1e-4, n),
            "decl": np.repeat(objects.column("decl_PS"), per_object)
            + rng.normal(0.0, 1e-4, n),
            "psfFlux": rng.uniform(1e-9, 1e-6, n),
            "filterName": np.array(["ugriz"[i % 5] for i in range(n)], dtype=object),
        },
    )


@pytest.fixture(scope="module")
def patch():
    """A sub-chunk, its overlap companion and the chunk's Source table."""
    sub = sky_patch("Object_713_45", 150, seed=1)
    overlap = sky_patch("ObjectFullOverlap_713_45", 60, seed=2, first_id=1000)
    return sub, overlap, sources_of(sub, "Source_713")


NEAR = "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS)"
BOX = "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 0.05, 0.05, 0.25, 0.2) = 1"
SELF = "LSST.Object_713_45 AS o1, LSST.Object_713_45 AS o2"
OVERLAP = "LSST.Object_713_45 AS o1, LSST.ObjectFullOverlap_713_45 AS o2"
OBJ_SRC = "LSST.Object_713_45 AS o, LSST.Source_713 AS s"

JOIN_SHAPES = [
    # SHV1: the self pair and the sub-chunk x overlap pair, with and
    # without the one-sided box cut the czar appends
    f"SELECT COUNT(*) AS n FROM {SELF} WHERE {NEAR} < 0.015",
    f"SELECT COUNT(*) AS n FROM {SELF} WHERE ({NEAR} < 0.015 AND {BOX})",
    f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} < 0.015",
    f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE ({NEAR} < 0.015 AND {BOX})",
    f"SELECT COUNT(*) AS n FROM {SELF} WHERE {NEAR} <= 0.015 "
    "AND o1.objectId != o2.objectId",
    # argument pairs swapped; a filter on the right side; a constant conjunct
    f"SELECT COUNT(*) AS n FROM {SELF} WHERE "
    "scisql_angSep(o2.ra_PS, o2.decl_PS, o1.ra_PS, o1.decl_PS) < 0.02 "
    "AND o2.uFlux_PS IS NOT NULL AND 1 = 1",
    # rows come out left-major, like the interpreter's cross join
    f"SELECT o1.objectId AS a, o2.objectId AS b FROM {SELF} WHERE {NEAR} < 0.01",
    f"SELECT o1.objectId AS a, o2.objectId AS b, {NEAR} AS d FROM {OVERLAP} "
    f"WHERE {NEAR} < 0.03 AND {BOX}",
    f"SELECT o1.objectId, o2.objectId FROM {SELF} WHERE {NEAR} < 0.01 "
    "AND o1.objectId < o2.objectId",
    # projections, ORDER BY and LIMIT over join output
    f"SELECT o1.objectId AS a, o2.objectId AS b, {NEAR} AS d FROM {SELF} "
    f"WHERE {NEAR} < 0.02 ORDER BY d DESC, a, b LIMIT 7",
    f"SELECT o1.ra_PS - o2.ra_PS AS dra, o1.uFlux_PS / o2.uFlux_PS AS ratio "
    f"FROM {SELF} WHERE {NEAR} < 0.01 ORDER BY 1 LIMIT 20",
    f"SELECT DISTINCT o1.subChunkId AS s1, o2.subChunkId AS s2 FROM {SELF} "
    f"WHERE {NEAR} < 0.01 ORDER BY s1, s2",
    # aggregates and GROUP BY over pairs
    f"SELECT o1.objectId AS a, COUNT(*) AS n, MIN({NEAR}) AS nearest "
    f"FROM {OVERLAP} WHERE {NEAR} < 0.05 GROUP BY o1.objectId "
    "HAVING COUNT(*) > 1 ORDER BY a",
    f"SELECT COUNT(o2.uFlux_PS) AS c, SUM(o2.uFlux_PS) AS s, AVG(o1.decl_PS) AS a "
    f"FROM {SELF} WHERE {NEAR} < 0.02",
    # aggregates the emitter declines: DISTINCT, and MIN/MAX of a text column
    f"SELECT COUNT(DISTINCT o2.subChunkId) AS d FROM {SELF} WHERE {NEAR} < 0.02",
    f"SELECT o1.subChunkId AS s, COUNT(DISTINCT o2.subChunkId) AS d FROM {SELF} "
    f"WHERE {NEAR} < 0.02 GROUP BY o1.subChunkId ORDER BY s",
    f"SELECT MIN(s.filterName) AS lo, MAX(s.filterName) AS hi, COUNT(*) AS n "
    f"FROM {OBJ_SRC} WHERE o.objectId = s.objectId AND s.psfFlux > 5e-7",
    f"SELECT o.subChunkId AS sc, MIN(s.filterName) AS lo, MAX(s.filterName) AS hi "
    f"FROM {OBJ_SRC} WHERE o.objectId = s.objectId GROUP BY o.subChunkId ORDER BY sc",
    # SHV2: equi-join with an angSep residual, plus one-sided cuts
    f"SELECT o.objectId, s.sourceId FROM {OBJ_SRC} WHERE o.objectId = s.objectId "
    "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0001",
    f"SELECT o.objectId, s.sourceId FROM {OBJ_SRC} WHERE "
    "(qserv_ptInSphericalBox(o.ra_PS, o.decl_PS, 0.05, 0.05, 0.25, 0.2) = 1 "
    "AND s.objectId = o.objectId AND "
    "qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0001)",
    f"SELECT COUNT(*) AS n, AVG(s.psfFlux) AS f FROM {OBJ_SRC} "
    "WHERE o.objectId = s.objectId AND s.psfFlux > 5e-7",
    # an explicit JOIN is the comma join the parser makes of it
    "SELECT COUNT(*) AS n FROM Object_713_45 o JOIN Source_713 s "
    "ON o.objectId = s.objectId",
    # the long side on the left, cut down by the few rows the right kept
    "SELECT s.sourceId, o.objectId FROM LSST.Source_713 AS s, LSST.Object_713_45 AS o "
    "WHERE s.objectId = o.objectId AND o.decl_PS < 0.05",
    # unqualified columns that only one side has
    f"SELECT sourceId, ra_PS FROM {OBJ_SRC} WHERE o.objectId = s.objectId "
    "AND psfFlux > 5e-7 ORDER BY sourceId LIMIT 11",
    # unaliased tables used as qualifiers
    "SELECT COUNT(*) AS n FROM Object_713_45, ObjectFullOverlap_713_45 WHERE "
    "qserv_angSep(Object_713_45.ra_PS, Object_713_45.decl_PS, "
    "ObjectFullOverlap_713_45.ra_PS, ObjectFullOverlap_713_45.decl_PS) < 0.02",
    # a radius no pair can meet
    f"SELECT o1.objectId FROM {SELF} WHERE {NEAR} < 0",
]


@pytest.mark.parametrize("sql", JOIN_SHAPES)
def test_join_shape_bit_identical(patch, sql):
    check(patch, sql, expect_kernel=True)


#: Join statements and three literal sets each, for one JoinKernel apiece.
JOIN_LITERAL_SHAPES = [
    # the declination band's width is the bound radius, not the compiled one
    (f"SELECT COUNT(*) AS n FROM {SELF} WHERE {NEAR} < {{}}", [(0.015,), (0.002,), (0.06,)]),
    (f"SELECT o1.objectId AS a, o2.objectId AS b FROM {OVERLAP} WHERE {NEAR} <= {{}} "
     "AND qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, {}, {}, {}, {}) = {}",
     [(0.03, 0.05, 0.05, 0.25, 0.2, 1), (0.01, 0.0, 0.0, 0.3, 0.3, 1), (0.05, 0.1, 0.1, 0.2, 0.15, 0)]),
    (f"SELECT COUNT(*) AS n FROM {SELF} WHERE {NEAR} < {{}} AND o1.objectId != o2.objectId "
     "AND o2.decl_PS > {}", [(0.02, 0.1), (0.005, 0.0), (0.04, 0.29)]),
    # an integer radius, and one no pair can meet
    (f"SELECT COUNT(*) AS n FROM {SELF} WHERE {NEAR} < {{}}", [(1,), (0,), (2,)]),
    # SHV2: equi-join paired, the literals in residual and one-sided conjuncts
    (f"SELECT o.objectId, s.sourceId FROM {OBJ_SRC} WHERE o.objectId = s.objectId "
     "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > {} AND s.psfFlux > {}",
     [(0.0001, 5e-7), (0.0002, 1e-30), (0.00005, 9e-7)]),
    (f"SELECT o1.objectId AS a, COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} < {{}} "
     "GROUP BY o1.objectId HAVING COUNT(*) > 1 ORDER BY a", [(0.05,), (0.1,), (0.02,)]),
]


@pytest.mark.parametrize("template, literal_sets", JOIN_LITERAL_SHAPES)
def test_one_join_kernel_serves_every_literal_set(patch, template, literal_sets):
    results = run_literal_sets(patch, template, literal_sets)
    assert len({(r.num_rows, str(r.rows()[:3])) for r in results}) > 1, template


JOIN_FALLBACK_SHAPES = [
    # nothing to pair the tables by
    "SELECT COUNT(*) AS n FROM LSST.ObjectFullOverlap_713_45 AS o1, "
    "LSST.ObjectFullOverlap_713_45 AS o2",
    f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} > 0.2",
    f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} < o1.decl_PS",
    f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} < -1",
    # '*' over a join, three tables
    f"SELECT * FROM {OBJ_SRC} WHERE o.objectId = s.objectId AND s.sourceId < 5",
    f"SELECT COUNT(*) AS n FROM {OBJ_SRC}, LSST.ObjectFullOverlap_713_45 AS v "
    "WHERE o.objectId = s.objectId AND v.objectId = 1000",
]


@pytest.mark.parametrize("sql", JOIN_FALLBACK_SHAPES)
def test_join_fallback_shape_still_identical(patch, sql):
    check(patch, sql, expect_kernel=False)


class TestJoinKernelEdges:
    """Where pruning pairs by declination could lose or invent one."""

    def test_pair_exactly_on_the_radius(self):
        from repro.sphgeom import angular_separation

        # Same RA, so the separation *is* the declination difference and
        # the pair sits on the edge of the band as well as of the cut.
        t = Table(
            "T_1_1",
            {
                "id": np.arange(3, dtype=np.int64),
                "ra": np.array([10.0, 10.0, 10.0]),
                "dec": np.array([0.1, 0.6, 2.0]),
            },
        )
        radius = angular_separation(10.0, 0.1, 10.0, 0.6)
        near = "qserv_angSep(a.ra, a.dec, b.ra, b.dec)"
        strict = check(
            t, f"SELECT a.id, b.id FROM T_1_1 a, T_1_1 b WHERE {near} < {radius!r}"
        )
        closed = check(
            t, f"SELECT a.id, b.id FROM T_1_1 a, T_1_1 b WHERE {near} <= {radius!r}"
        )
        assert strict.num_rows == 3  # each row with itself
        assert closed.num_rows == 5  # plus (0, 1) and (1, 0)
        # The same through one kernel that was compiled for another
        # radius: below it, exactly on it, above it.
        for op, rows in (("<", [3, 3, 5]), ("<=", [3, 5, 5])):
            results = run_literal_sets(
                (t,),
                f"SELECT a.id, b.id FROM T_1_1 a, T_1_1 b WHERE {near} {op} {{}}",
                [(radius / 2,), (radius,), (radius * 1.5,)],
            )
            assert [r.num_rows for r in results] == rows

    def test_empty_sides(self, patch):
        sub, overlap, _ = patch
        empty = Table("Empty_1_1", {n: a[:0] for n, a in sub.columns().items()})
        for tables in ("Empty_1_1 o1, Object_713_45 o2", "Object_713_45 o1, Empty_1_1 o2",
                       "Empty_1_1 o1, Empty_1_1 o2"):
            r = check(
                (sub, empty), f"SELECT COUNT(*) AS n FROM {tables} WHERE {NEAR} < 0.02"
            )
            assert r.rows() == [(0,)]
            r = check(
                (sub, empty),
                f"SELECT o1.objectId, o2.objectId FROM {tables} WHERE {NEAR} < 0.02",
            )
            assert r.num_rows == 0
        # a one-sided cut that empties its side
        check(
            (sub, overlap),
            f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} < 0.02 AND o1.decl_PS > 80",
        )

    def test_nan_coordinates(self):
        t = sky_patch("N_1_1", 80, seed=5)
        t.column("ra_PS")[::7] = np.nan
        t.column("decl_PS")[::11] = np.nan
        r = check(t, "SELECT COUNT(*) AS n FROM N_1_1 o1, N_1_1 o2 " f"WHERE {NEAR} < 0.05")
        # NULL coordinates match nothing, not even themselves.
        whole = int(np.count_nonzero(~np.isnan(t.column("ra_PS") + t.column("decl_PS"))))
        assert r.column("n")[0] >= whole
        check(
            t,
            "SELECT o1.objectId, o2.objectId FROM N_1_1 o1, N_1_1 o2 "
            f"WHERE {NEAR} < 0.05",
        )
        # NaN join keys: the sort-merge pairs them, the exact '=' drops them.
        s = sources_of(t, "NS_1", per_object=2)
        check(
            (t, s),
            "SELECT o.objectId, s.sourceId FROM N_1_1 o, NS_1 s "
            "WHERE o.ra_PS = s.ra OR o.objectId = s.objectId",
            expect_kernel=False,
        )
        check(
            (t, t.rename("N_1_2")),
            "SELECT COUNT(*) AS n FROM N_1_1 a, N_1_2 b WHERE a.ra_PS = b.ra_PS",
        )

    def test_ra_wrap(self):
        # The PT1.1 footprint spans 358..5 degrees through RA 0.
        t = sky_patch("W_1_1", 120, seed=6, ra0=359.9, dec0=-0.1, size=0.2)
        assert t.column("ra_PS").min() < 0.1 and t.column("ra_PS").max() > 359.9
        box = "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 359.95, -0.05, 360.05, 0.05) = 1"
        r = check(
            t,
            "SELECT o1.objectId, o2.objectId FROM W_1_1 o1, W_1_1 o2 "
            f"WHERE {NEAR} < 0.02 AND {box} AND o1.objectId != o2.objectId",
        )
        ra = t.column("ra_PS")
        by_id = dict(zip(t.column("objectId"), ra))
        straddling = [
            (a, b) for a, b in r.rows() if abs(by_id[a] - by_id[b]) > 300.0
        ]
        assert straddling, "no neighbour pair across RA 0 in the fixture"

    @pytest.mark.parametrize("dec0", [89.7, -90.0])
    def test_near_the_poles(self, dec0):
        # Every RA is a neighbour this close to a pole.
        rng = np.random.default_rng(8)
        n = 90
        t = Table(
            "P_1_1",
            {
                "objectId": np.arange(n, dtype=np.int64),
                "ra_PS": rng.uniform(0.0, 360.0, n),
                "decl_PS": dec0 + rng.uniform(0.0, 0.3, n),
            },
        )
        r = check(t, f"SELECT COUNT(*) AS n FROM P_1_1 o1, P_1_1 o2 WHERE {NEAR} < 0.2")
        assert r.column("n")[0] > n


@pytest.mark.parametrize("seed", range(6))
def test_seeded_near_neighbour_sweep(seed):
    """Random patches, sizes and radii, duplicates and NULLs included."""
    rng = np.random.default_rng([2011, seed])
    left = sky_patch("L_9_1", int(rng.integers(1, 120)), seed=100 + seed, size=0.2)
    right = sky_patch("R_9_1", int(rng.integers(1, 120)), seed=200 + seed, size=0.2)
    # Coincident points (separation exactly 0) and a few NULL positions.
    k = min(left.num_rows, right.num_rows, 5)
    right.column("ra_PS")[:k] = left.column("ra_PS")[:k]
    right.column("decl_PS")[:k] = left.column("decl_PS")[:k]
    left.column("decl_PS")[-1] = np.nan
    radius = float(rng.choice([0.0, 0.003, 0.02, 0.5]))
    op = "<=" if seed % 2 else "<"
    tables = "L_9_1 AS o1, R_9_1 AS o2"
    check(
        (left, right),
        f"SELECT o1.objectId AS a, o2.objectId AS b, {NEAR} AS d FROM {tables} "
        f"WHERE {NEAR} {op} {radius!r} AND o2.uFlux_PS IS NOT NULL",
    )
    check(
        (left, right),
        f"SELECT o1.subChunkId AS s, COUNT(*) AS n FROM {tables} "
        f"WHERE {NEAR} {op} {radius!r} GROUP BY o1.subChunkId ORDER BY s",
    )


class TestJoinKernelMachinery:
    def test_sub_chunk_pairs_share_one_kernel(self, patch):
        sub, overlap, _ = patch
        db = Database(use_kernels=True)
        for scid in (45, 46, 47):
            db.create_table(sub.rename(f"Object_713_{scid}"))
            db.create_table(overlap.rename(f"ObjectFullOverlap_713_{scid}"))
        compiled, runs = metric("kernel.compiled"), metric("kernel.executions")
        results = []
        for scid in (45, 46, 47):
            for outer in ("Object", "ObjectFullOverlap"):
                results.append(
                    db.execute(
                        f"SELECT COUNT(*) AS n FROM LSST.Object_713_{scid} AS o1, "
                        f"LSST.{outer}_713_{scid} AS o2 WHERE ({NEAR} < 0.015 AND {BOX})"
                    )
                )
        assert metric("kernel.compiled") == compiled + 1
        assert metric("kernel.executions") == runs + 6
        assert len({r.rows()[0] for r in results[0::2]}) == 1

    def test_declined_join_is_cached_as_a_fallback(self, patch):
        _, db_k = fresh_pair(*patch)
        sql = f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} > 0.2"
        fallbacks, runs = metric("kernel.fallbacks"), metric("kernel.executions")
        db_k.execute(sql)
        assert metric("kernel.fallbacks") == fallbacks + 1
        hits = metric("kernel.cache.hits")
        db_k.execute(sql)
        assert metric("kernel.cache.hits") == hits + 1
        assert metric("kernel.fallbacks") == fallbacks + 1
        assert metric("kernel.executions") == runs

    def test_join_statements_annotate_the_span(self, patch):
        from repro.obs import trace as obs_trace

        sub, overlap, _ = patch
        _, db_k = fresh_pair(*patch)
        tr = obs_trace.start_trace(force=True)
        with obs_trace.span("worker.execute", trace=tr) as sp:
            db_k.execute(f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} < 0.015")
            assert sp.attrs["kernel"] is True
            assert sp.attrs["rows_scanned"] == sub.num_rows + overlap.num_rows
            assert sp.attrs["scan_bytes"] > 0
            db_k.execute(f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE {NEAR} > 0.2")
            assert sp.attrs["kernel"] is False

    def test_indexed_tables_still_join_through_a_kernel(self, patch):
        # An index only buys a single-table point lookup; a join over
        # the same table has no probe to lose.
        db_i, db_k = fresh_pair(*patch)
        for db in (db_i, db_k):
            db.create_index("Object_713_45", "objectId")
        sql = (
            f"SELECT o.objectId, s.sourceId FROM {OBJ_SRC} "
            "WHERE o.objectId = s.objectId AND s.psfFlux > 5e-7"
        )
        runs = metric("kernel.executions")
        assert_identical(db_i.execute(sql), db_k.execute(sql))
        assert metric("kernel.executions") == runs + 1

    def test_band_refuses_a_runaway_candidate_set(self, monkeypatch):
        from repro.sql import SqlError, kernels

        t = Table("B_1_1", {"ra": np.zeros(400), "dec": np.zeros(400)})
        db = Database(use_kernels=True)
        db.create_table(t)
        sql = (
            "SELECT COUNT(*) AS n FROM B_1_1 a, B_1_1 b "
            "WHERE qserv_angSep(a.ra, a.dec, b.ra, b.dec) < 1"
        )
        assert db.execute(sql).rows() == [(160_000,)]
        monkeypatch.setattr(kernels, "MAX_CROSS_PAIRS", 1000)
        with pytest.raises(SqlError, match="candidate pairs"):
            db.execute(sql)


class TestMembershipHelper:
    """``kernels.isin`` is ``np.isin``, whichever way it takes."""

    I64 = np.iinfo(np.int64)

    @pytest.mark.parametrize(
        "values, candidates",
        [
            # a chunk's subChunkId column against the wanted sub-chunks
            (np.random.default_rng(0).integers(0, 144, 5000), np.array([13, 14, 25, 26, 140])),
            # Source.objectId against the few objects a cut kept
            (np.random.default_rng(1).integers(0, 400_000, 20_000),
             np.random.default_rng(2).choice(400_000, 700, replace=False)),
            # values below, above and far outside the candidates' range
            (np.array([-5, 0, 9, 10, 11, 20, 21, 10**12, -(10**12)]), np.array([10, 20, 10])),
            # offsets that wrap around int64
            (np.array([I64.min, I64.min + 1, -1, 0, 7, I64.max - 1, I64.max]),
             np.array([5, 7, 9])),
            (np.array([I64.min, -3, I64.max]), np.array([I64.min, I64.min + 2])),
            (np.array([I64.min, 3, I64.max]), np.array([I64.max, I64.max - 2])),
            (np.array([1, 2, 3]), np.array([-4, -2, 2])),
            # one candidate; no candidate; no value
            (np.arange(10), np.array([4])),
            (np.arange(10), np.array([], dtype=np.int64)),
            (np.array([], dtype=np.int64), np.array([1, 2])),
            # a range too wide for a table, other widths, other kinds: NumPy's own
            (np.array([3, 2**40, 5]), np.array([2**40, 3, -(2**41)])),
            (np.arange(10, dtype=np.int32), np.array([2, 3])),
            (np.arange(10), np.array([2, 3], dtype=np.uint8)),
            (np.array([0.5, np.nan, 2.0]), np.array([2.0, np.nan])),
            (np.array(["a", "b", "c"], dtype=object), np.array(["b", "z"], dtype=object)),
            (np.array([True, False]), np.array([True])),
        ],
    )
    def test_same_mask_as_numpy(self, values, candidates):
        from repro.sql.kernels import isin

        before = values.copy()
        mask = isin(values, candidates)
        assert mask.dtype == bool and mask.shape == values.shape
        np.testing.assert_array_equal(mask, np.isin(values, candidates))
        np.testing.assert_array_equal(values, before)  # a read-only use of its input

    def test_a_strided_or_read_only_column_is_fine(self):
        from repro.sql.kernels import isin

        values = np.arange(40)[::3]
        values.setflags(write=False)
        np.testing.assert_array_equal(
            isin(values, np.array([3, 9, 10])), np.isin(values, [3, 9, 10])
        )


# -- statement families: one pass over several pairs of tables -----------------------

#: Join statements over ``{left}`` and ``{right}``; each member of a
#: family names its own pair of tables there.
FAMILY_BOX = "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 0.03, 0.03, 0.27, 0.22) = 1"
FAMILY_FROM = "LSST.{left} AS o1, LSST.{right} AS o2"
FAMILY_SHAPES = [
    # declination band, strict and closed, with the czar's box cut and without
    f"SELECT COUNT(*) AS n FROM {FAMILY_FROM} WHERE {NEAR} < 0.015",
    f"SELECT COUNT(*) AS n FROM {FAMILY_FROM} WHERE ({NEAR} <= 0.02 AND {FAMILY_BOX})",
    # one-sided cuts on the right, and on both sides
    f"SELECT COUNT(*) AS n FROM {FAMILY_FROM} WHERE {NEAR} < 0.03 "
    "AND o2.uFlux_PS IS NOT NULL",
    f"SELECT o1.objectId AS a, o2.objectId AS b FROM {FAMILY_FROM} WHERE {NEAR} < 0.02 "
    f"AND {FAMILY_BOX} AND o2.decl_PS > 0.1",
    # plain projections over pair columns
    f"SELECT o1.objectId AS a, o2.objectId AS b, {NEAR} AS d, 7 AS k FROM {FAMILY_FROM} "
    f"WHERE {NEAR} < 0.02 AND o1.objectId != o2.objectId",
    f"SELECT o1.ra_PS - o2.ra_PS AS dra, o1.uFlux_PS / o2.uFlux_PS AS ratio "
    f"FROM {FAMILY_FROM} WHERE {NEAR} <= 0.01",
    # aggregates over pair columns: one row per member, NULL when it has no pair
    f"SELECT COUNT(*) AS n, SUM(o2.uFlux_PS) AS s, AVG(o1.decl_PS) AS a, "
    f"MIN(o2.objectId) AS lo, MAX({NEAR}) AS far, COUNT(o2.uFlux_PS) AS c "
    f"FROM {FAMILY_FROM} WHERE {NEAR} < 0.02",
    # GROUP BY and HAVING
    f"SELECT o1.subChunkId AS s, COUNT(*) AS n, AVG(o2.ra_PS) AS a FROM {FAMILY_FROM} "
    f"WHERE {NEAR} < 0.03 GROUP BY o1.subChunkId",
    f"SELECT o1.objectId AS a, COUNT(*) AS n, MIN({NEAR}) AS nearest FROM {FAMILY_FROM} "
    f"WHERE {NEAR} < 0.05 GROUP BY o1.objectId HAVING COUNT(*) > 2 ORDER BY n DESC, a",
    f"SELECT COUNT(*) AS n FROM {FAMILY_FROM} WHERE {NEAR} < 0.02 HAVING COUNT(*) > 40",
    # DISTINCT aggregates: the interpreter's grouping, the member its leading key
    f"SELECT COUNT(DISTINCT o2.subChunkId) AS d FROM {FAMILY_FROM} WHERE {NEAR} < 0.03",
    f"SELECT o1.subChunkId AS s, COUNT(DISTINCT o2.subChunkId) AS d FROM {FAMILY_FROM} "
    f"WHERE {NEAR} < 0.03 GROUP BY o1.subChunkId",
    # DISTINCT, ORDER BY and LIMIT apply to each member's rows
    f"SELECT DISTINCT o1.subChunkId AS s1, o2.subChunkId AS s2 FROM {FAMILY_FROM} "
    f"WHERE {NEAR} < 0.02",
    f"SELECT o1.objectId AS a, o2.objectId AS b, {NEAR} AS d FROM {FAMILY_FROM} "
    f"WHERE {NEAR} < 0.03 ORDER BY d DESC, a, b LIMIT 5",
    # equi-join, with and without a separation residual and a one-sided cut
    f"SELECT o1.objectId AS a, o2.ra_PS AS r FROM {FAMILY_FROM} "
    "WHERE o1.objectId = o2.objectId",
    f"SELECT COUNT(*) AS n, AVG(o2.uFlux_PS) AS f FROM {FAMILY_FROM} "
    f"WHERE o2.objectId = o1.objectId AND {NEAR} > 0.00001 AND o1.decl_PS < 0.2",
    f"SELECT o1.subChunkId AS s, COUNT(*) AS n FROM {FAMILY_FROM} "
    "WHERE o1.subChunkId = o2.subChunkId AND o1.objectId < o2.objectId "
    "GROUP BY o1.subChunkId",
]


def family_tables():
    """18 ``(left, right)`` table pairs, ordinary and awkward ones mixed.

    The rights of the even members are jittered copies of their lefts
    (so the equi shapes have matches and the residual something to
    drop), those of the odd members are the left itself (the sub-chunk
    self pair) or an unrelated patch (its overlap companion).
    """
    rng = np.random.default_rng(18)
    members = []
    for m in range(18):
        n = int(rng.choice([3, 40, 90, 160]))
        left = sky_patch(f"Object_713_{m}", n, seed=300 + m)
        if m % 2 == 0:
            right = sky_patch(f"ObjectFullOverlap_713_{m}", n, seed=300 + m)
            right.column("ra_PS")[:] += rng.normal(0.0, 1e-4, n)
            right.column("uFlux_PS")[:] = rng.uniform(1e-9, 1e-6, n)
            right.column("uFlux_PS")[::5] = np.nan
        elif m % 4 == 1:
            right = left
        else:
            right = sky_patch(
                f"ObjectFullOverlap_713_{m}", int(rng.integers(1, 70)), seed=500 + m,
                first_id=1000,
            )
        members.append([left, right])

    def emptied(table):
        return Table(table.name, {n: a[:0] for n, a in table.columns().items()})

    members[3][0] = emptied(members[3][0])  # no left rows
    members[4][1] = emptied(members[4][1])  # no right (overlap) rows
    # A member the box cut empties: everything north of it.
    members[6][0].column("decl_PS")[:] += 0.25
    # NULL coordinates on either side.
    members[7][0].column("ra_PS")[::6] = np.nan
    members[8][1].column("decl_PS")[::4] = np.nan
    # The same left table in two members (as the self and overlap pairs have).
    members[10][0] = members[9][0]
    # A near pair split over two members: left row here, right row there.
    members[11][0].column("ra_PS")[0] = members[12][1].column("ra_PS")[0] = 0.123456
    members[11][0].column("decl_PS")[0] = members[12][1].column("decl_PS")[0] = 0.111111
    # A pair exactly on the radius 0.015 (same RA: the band's edge too).
    for col, on_left, on_right in (("ra_PS", 0.2, 0.2), ("decl_PS", 0.1, 0.115)):
        members[14][0].column(col)[1] = on_left
        members[14][1].column(col)[1] = on_right
    return [tuple(member) for member in members]


@pytest.fixture(scope="module")
def family():
    return family_tables()


def family_databases(members):
    tables = {t.name: t for member in members for t in member}
    return fresh_pair(*tables.values())


def run_family(db, template, members):
    """``execute_family`` for the statement as the first member words it."""
    from repro.sql.parser import parse

    (sel,) = parse(template.format(left=members[0][0].name, right=members[0][1].name))
    names = [(left.name, right.name) for left, right in members]
    return db.execute_family(sel, db.kernel_key(sel), names)


class TestStatementFamilies:
    """A family's output, cut at the member boundaries, is each member's own."""

    @pytest.mark.parametrize("k", [1, 2, 9, 18])
    @pytest.mark.parametrize("template", FAMILY_SHAPES)
    def test_member_by_member_bit_identical(self, family, template, k):
        members = family[:k]
        db_i, db_k = family_databases(members)
        runs = metric("kernel.executions")
        together = run_family(db_k, template, members)
        assert together is not None and len(together) == k
        assert metric("kernel.executions") == runs + k
        for (left, right), out in zip(members, together):
            sql = template.format(left=left.name, right=right.name)
            assert_identical(db_k.execute(sql), out)
            assert_identical(db_i.execute(sql), out)
        if k == 18 and "DISTINCT" not in template and "HAVING" not in template:
            # Not vacuous: some members answer with rows, some with none.
            sizes = {out.num_rows for out in together}
            assert len(sizes) > 1 or sizes == {1}, template

    def test_candidates_never_cross_members(self, family):
        # Members 11 and 12 hold the two halves of a coincident pair.
        members = family[11:13]
        _, db_k = family_databases(members)
        template = (
            f"SELECT o1.ra_PS AS r1, o2.ra_PS AS r2 FROM {FAMILY_FROM} WHERE {NEAR} < 0.0001"
        )
        for out in run_family(db_k, template, members):
            assert not np.any((out.column("r1") == 0.123456) & (out.column("r2") == 0.123456))
        # ... which one pair of tables holding both halves does report.
        left, right = members[0][0], members[1][1].rename("ObjectFullOverlap_713_11")
        (out,) = run_family(fresh_pair(left, right)[1], template, [(left, right)])
        assert np.any((out.column("r1") == 0.123456) & (out.column("r2") == 0.123456))

    def test_a_pair_exactly_on_the_radius(self, family):
        from repro.sphgeom import angular_separation

        members = family[13:16]
        _, db_k = family_databases(members)
        radius = float(angular_separation(0.2, 0.1, 0.2, 0.115))
        counts = {}
        for op in ("<", "<="):
            template = (
                f"SELECT o1.decl_PS AS d1, o2.decl_PS AS d2 FROM {FAMILY_FROM} "
                f"WHERE {NEAR} {op} {radius!r}"
            )
            out = run_family(db_k, template, members)[1]
            counts[op] = int(
                np.count_nonzero((out.column("d1") == 0.1) & (out.column("d2") == 0.115))
            )
        assert counts == {"<": 0, "<=": 1}

    def test_the_pair_guard_is_each_members_own(self, family, monkeypatch):
        from repro.sql import SqlError, kernels

        members = family
        db_i, db_k = family_databases(members)
        template = f"SELECT COUNT(*) AS n FROM {FAMILY_FROM} WHERE {NEAR} < 0.05"
        alone = [
            db_k.execute(template.format(left=l.name, right=r.name)) for l, r in members
        ]
        # Below every member's candidate count but the largest: that
        # member trips, with the text it trips with on its own.
        monkeypatch.setattr(kernels, "MAX_CROSS_PAIRS", 5000)
        errors = {}
        for m, (left, right) in enumerate(members):
            try:
                db_k.execute(template.format(left=left.name, right=right.name))
            except SqlError as e:
                errors[m] = str(e)
        assert len(errors) >= 1 and "candidate pairs" in next(iter(errors.values()))
        with pytest.raises(SqlError) as raised:
            run_family(db_k, template, members)
        assert str(raised.value) == errors[min(errors)]
        # A family with more candidates than one pass may hold, though
        # no member has as many, is halved until its passes fit.
        fitting = [m for m in range(len(members)) if m not in errors]
        passes = []
        real = kernels.CompiledKernel.run
        monkeypatch.setattr(
            kernels.CompiledKernel,
            "run",
            lambda self, sel, tables: passes.append(len(tables)) or real(self, sel, tables),
        )
        scans = metric("engine.scan.bytes")
        together = run_family(db_k, template, [members[m] for m in fitting])
        halved = metric("engine.scan.bytes") - scans
        assert passes[0] == len(fitting) and len(passes) >= 3
        for out, m in zip(together, fitting):
            assert_identical(alone[m], out)
        monkeypatch.setattr(kernels, "MAX_CROSS_PAIRS", 30_000_000)
        scans = metric("engine.scan.bytes")
        run_family(db_k, template, [members[m] for m in fitting])
        assert metric("engine.scan.bytes") - scans == halved  # charged once per member

    def test_what_is_not_one_pass_is_declined(self, family):
        from repro.sql.parser import parse

        members = family[:3]
        db_i, db_k = family_databases(members)
        template = FAMILY_SHAPES[0]
        assert run_family(db_i, template, members) is None  # kernels off
        names = [(left.name, right.name) for left, right in members]
        (sel,) = parse(template.format(left=names[0][0], right=names[0][1]))
        key = db_k.kernel_key(sel)
        assert db_k.execute_family(sel, key, names) is not None
        # a missing table, here and in another database
        assert db_k.execute_family(sel, key, names + [("Object_713_0", "Nope_1_2")]) is None
        (elsewhere,) = parse(template.format(left=names[0][0], right=names[0][1]).replace(
            "LSST.Object", "Other.Object"))
        assert db_k.execute_family(elsewhere, db_k.kernel_key(elsewhere), names) is None
        # a member typed unlike the first: another schema, or another width
        left = members[1][0]
        db_k.create_table(left.select_columns(left.column_names[:-1]).rename("Narrow_713_1"))
        assert db_k.execute_family(sel, key, names + [("Narrow_713_1", names[1][1])]) is None
        cols = dict(left.columns())
        cols["decl_PS"] = cols["decl_PS"].astype(np.float32)
        db_k.create_table(Table("Single_713_1", cols))
        assert db_k.execute_family(sel, key, names + [("Single_713_1", names[1][1])]) is None
        # one table: each member as the statement about it alone
        one_table = "SELECT COUNT(*) AS n FROM LSST.{left} AS o1"
        (sel,) = parse(one_table.format(left=names[0][0]))
        together = db_k.execute_family(sel, db_k.kernel_key(sel), [n[:1] for n in names])
        assert len(together) == len(names)
        for out, (left, _) in zip(together, names):
            for db in (db_k, db_i):
                assert_identical(db.execute(one_table.format(left=left)), out)
        # shapes no kernel takes in one pass: a join with nothing to
        # pair by, three tables
        for sql in (
            f"SELECT COUNT(*) AS n FROM {FAMILY_FROM} WHERE {NEAR} > 0.2",
            f"SELECT COUNT(*) AS n FROM {FAMILY_FROM}, LSST.{{left}} AS o3 "
            f"WHERE {NEAR} < 0.01",
        ):
            (sel,) = parse(sql.format(left=names[0][0], right=names[0][1]))
            tables = [member[: len(sel.tables)] + member[:1] * (len(sel.tables) - 2) for member in names]
            assert db_k.execute_family(sel, db_k.kernel_key(sel), tables) is None
        with pytest.raises(ValueError, match="one table per FROM entry"):
            db_k.execute_family(sel, db_k.kernel_key(sel), names)


class TestUnderSanitizer:
    """The instrumented-lock build must stay bit-identical too."""

    @pytest.fixture()
    def sanitized(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        yield

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT subChunkId, COUNT(*) AS n, AVG(ra_PS) AS a FROM Object_713 "
            "GROUP BY subChunkId ORDER BY subChunkId",
            "SELECT objectId FROM Object_713 WHERE subChunkId IN (1, 3, 5) "
            "AND uFlux_PS IS NOT NULL ORDER BY objectId LIMIT 20",
            "SELECT objectId, fluxToAbMag(uFlux_PS) AS mag FROM Object_713 "
            "WHERE fluxToAbMag(uFlux_PS) - fluxToAbMag(gFlux_PS) BETWEEN 0.2 AND 1.1",
        ],
    )
    def test_sanitized_equivalence(self, sanitized, data, sql):
        # Fresh objects so every lock is created under REPRO_SANITIZE=1.
        check(data, sql, expect_kernel=True)

    @pytest.mark.parametrize(
        "sql",
        [
            f"SELECT COUNT(*) AS n FROM {OVERLAP} WHERE ({NEAR} < 0.015 AND {BOX})",
            f"SELECT o1.objectId AS a, o2.objectId AS b FROM {SELF} WHERE {NEAR} < 0.01",
            f"SELECT o.objectId, s.sourceId FROM {OBJ_SRC} WHERE o.objectId = s.objectId "
            "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0001",
        ],
    )
    def test_sanitized_join_equivalence(self, sanitized, patch, sql):
        check(patch, sql, expect_kernel=True)
