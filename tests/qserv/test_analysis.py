"""Tests for query analysis (spatial restriction, index, joins)."""

import pytest

from repro.qserv import CatalogMetadata, QservAnalysisError, analyze
from repro.sphgeom import SphericalBox, SphericalCircle


@pytest.fixture(scope="module")
def md():
    return CatalogMetadata.lsst_default()


class TestTableDetection:
    def test_partitioned_table(self, md):
        a = analyze("SELECT * FROM Object", md)
        assert [r.table for r in a.partitioned_refs] == ["Object"]
        assert not a.unpartitioned_refs

    def test_unpartitioned_table(self, md):
        a = analyze("SELECT * FROM Object, Filters", md)
        assert [r.table for r in a.unpartitioned_refs] == ["Filters"]

    def test_database_qualifier_accepted(self, md):
        a = analyze("SELECT * FROM LSST.Object", md)
        assert a.partitioned_refs[0].table == "Object"

    def test_wrong_database_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze("SELECT * FROM Other.Object", md)

    def test_no_from_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze("SELECT 1", md)

    def test_non_select_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze("DROP TABLE Object", md)

    def test_join_tables_classified(self, md):
        a = analyze(
            "SELECT * FROM Object o JOIN Source s ON o.objectId = s.objectId", md
        )
        assert len(a.partitioned_refs) == 2

    def test_left_join_rejected(self, md):
        # The workers answer inner joins only; an outer one is refused,
        # not answered as inner.
        with pytest.raises(QservAnalysisError, match="LEFT JOIN"):
            analyze("SELECT * FROM Object o LEFT JOIN Source s ON o.objectId = s.objectId", md)


class TestSpatialRestriction:
    def test_box_extracted(self, md):
        a = analyze(
            "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(0, 0, 10, 10)", md
        )
        assert isinstance(a.region, SphericalBox)
        assert a.region.contains(5, 5)
        assert a.residual_where is None

    def test_circle_extracted(self, md):
        a = analyze(
            "SELECT * FROM Object WHERE qserv_areaspec_circle(10, 20, 1.5)", md
        )
        assert isinstance(a.region, SphericalCircle)
        assert a.region.radius == 1.5

    def test_residual_where_kept(self, md):
        a = analyze(
            "SELECT AVG(uFlux_SG) FROM Object "
            "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04",
            md,
        )
        assert a.region is not None
        assert a.residual_where is not None
        assert "uRadius_PS" in a.residual_where.to_sql()
        assert "areaspec" not in a.residual_where.to_sql()

    def test_negative_coordinates(self, md):
        a = analyze(
            "SELECT count(*) FROM Object o1, Object o2 "
            "WHERE qserv_areaspec_box(-5,-5,5,-5) "
            "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
            md,
        )
        # The paper's SHV1 box; swapped dec bounds are tolerated.
        assert a.region is not None
        assert a.region.contains(0, -5)

    def test_areaspec_under_or_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze(
                "SELECT * FROM Object WHERE qserv_areaspec_box(0,0,1,1) OR ra_PS > 5",
                md,
            )

    def test_areaspec_under_not_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze("SELECT * FROM Object WHERE NOT qserv_areaspec_box(0,0,1,1)", md)

    @pytest.mark.parametrize(
        "sql, clause",
        [
            (
                "SELECT chunkId FROM Object GROUP BY chunkId "
                "HAVING qserv_areaspec_box(0,0,1,1)",
                "HAVING",
            ),
            ("SELECT qserv_areaspec_box(0,0,1,1) FROM Object", "SELECT"),
            ("SELECT COUNT(*) FROM Object GROUP BY qserv_areaspec_box(0,0,1,1)", "GROUP BY"),
            ("SELECT ra_PS FROM Object ORDER BY qserv_areaspec_box(0,0,1,1)", "ORDER BY"),
        ],
        ids=["having", "select-list", "group-by", "order-by"],
    )
    def test_areaspec_outside_where_rejected(self, md, sql, clause):
        with pytest.raises(QservAnalysisError, match=f"in {clause}$"):
            analyze(sql, md)

    def test_areaspec_in_on_is_a_where_conjunct(self, md):
        # The parser AND-s ON onto WHERE, so the restriction is top-level.
        on = analyze(
            "SELECT COUNT(*) FROM Object o1 JOIN Object o2 "
            "ON qserv_areaspec_box(0,0,1,1) AND o1.objectId = o2.objectId",
            md,
        )
        where = analyze(
            "SELECT COUNT(*) FROM Object o1, Object o2 "
            "WHERE qserv_areaspec_box(0,0,1,1) AND o1.objectId = o2.objectId",
            md,
        )
        assert on.region == where.region and on.region is not None
        assert on.residual_where == where.residual_where

    def test_multiple_areaspec_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze(
                "SELECT * FROM Object WHERE qserv_areaspec_box(0,0,1,1) "
                "AND qserv_areaspec_box(2,2,3,3)",
                md,
            )

    def test_non_literal_args_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze("SELECT * FROM Object WHERE qserv_areaspec_box(ra_PS,0,1,1)", md)

    def test_wrong_arity_rejected(self, md):
        with pytest.raises(QservAnalysisError):
            analyze("SELECT * FROM Object WHERE qserv_areaspec_box(0,0,1)", md)

    def test_no_region_no_index_is_full_sky(self, md):
        a = analyze("SELECT COUNT(*) FROM Object", md)
        assert a.is_full_sky


class TestIndexOpportunity:
    def test_equality(self, md):
        a = analyze("SELECT * FROM Object WHERE objectId = 433", md)
        assert a.index_values == [433]
        assert a.has_index_restriction
        assert not a.is_full_sky

    def test_in_list(self, md):
        a = analyze("SELECT * FROM Object WHERE objectId IN (1, 2, 3)", md)
        assert a.index_values == [1, 2, 3]

    def test_source_table_objectid(self, md):
        # LV2: the Source table is also objectId-indexed.
        a = analyze("SELECT taiMidPoint FROM Source WHERE objectId = 42", md)
        assert a.index_values == [42]

    def test_qualified_reference(self, md):
        a = analyze("SELECT * FROM Object o WHERE o.objectId = 7", md)
        assert a.index_values == [7]

    def test_wrong_qualifier_not_index(self, md):
        a = analyze(
            "SELECT * FROM Object o, Filters f WHERE f.objectId = 7", md
        )
        assert a.index_values == []

    def test_range_is_not_index_opportunity(self, md):
        a = analyze("SELECT * FROM Object WHERE objectId > 100", md)
        assert a.index_values == []

    def test_join_equality_not_index(self, md):
        a = analyze(
            "SELECT * FROM Object o, Source s WHERE o.objectId = s.objectId", md
        )
        assert a.index_values == []

    def test_region_disables_index(self, md):
        a = analyze(
            "SELECT * FROM Object WHERE qserv_areaspec_box(0,0,1,1) AND objectId = 5",
            md,
        )
        assert a.region is not None
        assert a.index_values == []

    def test_not_in_ignored(self, md):
        a = analyze("SELECT * FROM Object WHERE objectId NOT IN (1, 2)", md)
        assert a.index_values == []


class TestJoinShape:
    def test_self_join_needs_subchunks(self, md):
        a = analyze(
            "SELECT count(*) FROM Object o1, Object o2 "
            "WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
            md,
        )
        assert a.needs_subchunks

    def test_object_source_join_no_subchunks(self, md):
        a = analyze(
            "SELECT * FROM Object o, Source s WHERE o.objectId = s.objectId", md
        )
        assert not a.needs_subchunks

    def test_single_table_no_subchunks(self, md):
        assert not analyze("SELECT * FROM Object", md).needs_subchunks


class TestAggregateDetection:
    def test_plain_query(self, md):
        assert not analyze("SELECT ra_PS FROM Object", md).has_aggregates

    def test_count(self, md):
        assert analyze("SELECT COUNT(*) FROM Object", md).has_aggregates

    def test_group_by(self, md):
        assert analyze("SELECT chunkId FROM Object GROUP BY chunkId", md).has_aggregates

    def test_avg_in_expression(self, md):
        assert analyze("SELECT 2 * AVG(ra_PS) FROM Object", md).has_aggregates
