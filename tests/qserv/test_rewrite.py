"""Tests for chunk-query and merge-query generation."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.partition import Chunker
from repro.qserv import (
    CatalogMetadata,
    analyze,
    build_aggregation_plan,
    generate_chunk_queries,
    generate_merge_query,
)
from repro.qserv.rewrite import (
    SUBCHUNK_HEADER_PREFIX,
    chunk_table_name,
    overlap_table_name,
    sub_chunk_table_name,
)
from repro.sql.parser import parse
from repro.xrd.protocol import ChunkRequest, render_member

from .rewrite_fixtures import _NEAR, FIXTURES


@pytest.fixture(scope="module")
def md():
    return CatalogMetadata.lsst_default()


@pytest.fixture(scope="module")
def chunker():
    return Chunker(18, 6, 0.05)


def gen(sql, md, chunker, chunk_ids):
    a = analyze(sql, md)
    p = build_aggregation_plan(a.select)
    return a, p, generate_chunk_queries(a, p, md, chunker, chunk_ids)


class TestNames:
    def test_chunk_table_name(self):
        assert chunk_table_name("Object", 713) == "Object_713"

    def test_sub_chunk_table_name(self):
        assert sub_chunk_table_name("Object", 713, 45) == "Object_713_45"

    def test_overlap_names(self):
        assert overlap_table_name("Object", 713) == "ObjectFullOverlap_713"
        assert overlap_table_name("Object", 713, 45) == "ObjectFullOverlap_713_45"


class TestSimpleRewrite:
    def test_table_renamed_with_database(self, md, chunker):
        _, _, specs = gen("SELECT ra_PS FROM Object", md, chunker, [100])
        assert "LSST.Object_100" in specs[0].text

    def test_alias_binding_preserved(self, md, chunker):
        # Unaliased tables get their original name as alias, so column
        # qualifications keep resolving (the paper adds "LSST." the same way).
        _, _, specs = gen("SELECT Object.ra_PS FROM Object", md, chunker, [100])
        assert "LSST.Object_100 AS Object" in specs[0].text

    def test_one_spec_per_chunk(self, md, chunker):
        _, _, specs = gen("SELECT ra_PS FROM Object", md, chunker, [1, 2, 3])
        assert [s.chunk_id for s in specs] == [1, 2, 3]

    def test_unpartitioned_table_untouched(self, md, chunker):
        _, _, specs = gen(
            "SELECT * FROM Object, Filters WHERE Object.chunkId = Filters.x",
            md,
            chunker,
            [100],
        )
        assert "Filters" in specs[0].text
        assert "Filters_100" not in specs[0].text

    def test_chunk_query_parses(self, md, chunker):
        _, _, specs = gen(
            "SELECT objectId, ra_PS FROM Object WHERE ra_PS > 3", md, chunker, [100]
        )
        stmts = parse(specs[0].text)
        assert len(stmts) == 1

    def test_where_preserved(self, md, chunker):
        _, _, specs = gen(
            "SELECT * FROM Object WHERE uRadius_PS > 0.04", md, chunker, [100]
        )
        assert "uRadius_PS > 0.04" in specs[0].text


class TestAreaspecRewrite:
    def test_paper_example(self, md, chunker):
        """Section 5.3: areaspec becomes qserv_ptInSphericalBox(...) = 1."""
        _, _, specs = gen(
            "SELECT AVG(uFlux_SG) FROM Object "
            "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04",
            md,
            chunker,
            [100],
        )
        text = specs[0].text
        assert "qserv_ptInSphericalBox(Object.ra_PS, Object.decl_PS" in text
        assert "= 1" in text
        assert "areaspec" not in text

    def test_partition_columns_from_metadata(self, md, chunker):
        # Source partitions on (ra, decl), not (ra_PS, decl_PS).
        _, _, specs = gen(
            "SELECT * FROM Source WHERE qserv_areaspec_box(0,0,1,1)",
            md,
            chunker,
            [100],
        )
        assert "qserv_ptInSphericalBox(Source.ra, Source.decl" in specs[0].text

    def test_circle_rewrite(self, md, chunker):
        _, _, specs = gen(
            "SELECT * FROM Object WHERE qserv_areaspec_circle(10, 20, 1.5)",
            md,
            chunker,
            [100],
        )
        assert "qserv_ptInSphericalCircle" in specs[0].text


class TestAggregateRewrite:
    def test_avg_split(self, md, chunker):
        _, _, specs = gen("SELECT AVG(uFlux_SG) FROM Object", md, chunker, [100])
        text = specs[0].text
        assert "SUM(uFlux_SG)" in text
        assert "COUNT(uFlux_SG)" in text
        assert "AVG(" not in text

    def test_group_by_carried(self, md, chunker):
        _, _, specs = gen(
            "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
            md,
            chunker,
            [100],
        )
        assert "GROUP BY chunkId" in specs[0].text

    def test_order_by_not_pushed_for_aggregates(self, md, chunker):
        _, _, specs = gen(
            "SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId ORDER BY n",
            md,
            chunker,
            [100],
        )
        assert "ORDER BY" not in specs[0].text

    def test_limit_pushed_for_passthrough(self, md, chunker):
        _, _, specs = gen(
            "SELECT objectId FROM Object ORDER BY objectId LIMIT 5", md, chunker, [100]
        )
        assert "ORDER BY objectId" in specs[0].text
        assert "LIMIT 5" in specs[0].text

    def test_limit_with_offset_pushes_sum(self, md, chunker):
        _, _, specs = gen(
            "SELECT objectId FROM Object LIMIT 5 OFFSET 10", md, chunker, [100]
        )
        assert "LIMIT 15" in specs[0].text


class TestSubchunkRewrite:
    SHV1 = (
        "SELECT count(*) FROM Object o1, Object o2 "
        "WHERE qserv_areaspec_box(0,-7,5,0) "
        "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1"
    )

    def test_header_present(self, md, chunker):
        a = analyze(self.SHV1, md)
        cid = int(chunker.chunks_intersecting(a.region)[0])
        _, _, specs = gen(self.SHV1, md, chunker, [cid])
        assert specs[0].text.startswith(SUBCHUNK_HEADER_PREFIX)
        assert len(specs[0].sub_chunk_ids) > 0

    def test_header_matches_statements(self, md, chunker):
        a = analyze(self.SHV1, md)
        cid = int(chunker.chunks_intersecting(a.region)[0])
        _, _, specs = gen(self.SHV1, md, chunker, [cid])
        lines = specs[0].text.splitlines()
        header_ids = [int(s) for s in lines[0][len(SUBCHUNK_HEADER_PREFIX):].split(",")]
        assert tuple(header_ids) == specs[0].sub_chunk_ids
        # Two statements (self + overlap pairing) per sub-chunk.
        n_statements = sum(1 for ln in lines[1:] if ln.strip())
        assert n_statements == 2 * len(header_ids)

    def test_overlap_table_paired(self, md, chunker):
        a = analyze(self.SHV1, md)
        cid = int(chunker.chunks_intersecting(a.region)[0])
        _, _, specs = gen(self.SHV1, md, chunker, [cid])
        scid = specs[0].sub_chunk_ids[0]
        text = specs[0].text
        assert f"Object_{cid}_{scid} AS o1" in text
        assert f"Object_{cid}_{scid} AS o2" in text
        assert f"ObjectFullOverlap_{cid}_{scid} AS o2" in text

    def test_region_limits_subchunks(self, md, chunker):
        """A tiny region should touch far fewer sub-chunks than the chunk has."""
        tiny = (
            "SELECT count(*) FROM Object o1, Object o2 "
            "WHERE qserv_areaspec_box(0.0,-0.5,0.5,0.0) "
            "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.01"
        )
        a = analyze(tiny, md)
        cid = int(chunker.chunks_intersecting(a.region)[0])
        _, _, specs = gen(tiny, md, chunker, [cid])
        assert len(specs[0].sub_chunk_ids) < len(chunker.sub_chunks_of(cid))

    def test_statements_parse(self, md, chunker):
        a = analyze(self.SHV1, md)
        cid = int(chunker.chunks_intersecting(a.region)[0])
        _, _, specs = gen(self.SHV1, md, chunker, [cid])
        body = "\n".join(specs[0].text.splitlines()[1:])
        stmts = parse(body)
        assert len(stmts) == 2 * len(specs[0].sub_chunk_ids)


class TestChunkQueryTextIsPinned:
    """Sub-chunk statements come from a template; the text must not move."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "golden_chunk_queries.json").read_text()
    )

    def specs_of(self, sql, md, chunker):
        a = analyze(sql, md)
        if a.region is not None:
            chunk_ids = chunker.chunks_intersecting(a.region)
        else:
            chunk_ids = chunker.all_chunks()[:3]
        return gen(sql, md, chunker, chunk_ids)[2]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_byte_identical_to_parent_commit(self, md, chunker, name):
        specs = self.specs_of(FIXTURES[name], md, chunker)
        text = "\n---\n".join(
            f"{s.chunk_id} {s.sub_chunk_ids}\n{s.text}" for s in specs
        )
        assert len(specs) == self.GOLDEN[name]["specs"]
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[name]["sha256"]

    @pytest.mark.parametrize("name", [n for n in sorted(FIXTURES) if n.startswith("shv1")])
    def test_every_statement_is_its_own_rendering(self, md, chunker, name):
        # What Select.to_sql() would print for exactly these tables.
        for spec in self.specs_of(FIXTURES[name], md, chunker):
            lines = spec.text.splitlines()[1:]
            assert len(lines) == 2 * len(spec.sub_chunk_ids)
            for scid, (self_pair, overlap_pair) in zip(
                spec.sub_chunk_ids, zip(lines[0::2], lines[1::2])
            ):
                for line, outer in ((self_pair, "Object"), (overlap_pair, "ObjectFullOverlap")):
                    (stmt,) = parse(line)
                    assert stmt.to_sql() + ";" == line
                    assert [t.table for t in stmt.tables[:2]] == [
                        f"Object_{spec.chunk_id}_{scid}",
                        f"{outer}_{spec.chunk_id}_{scid}",
                    ]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_a_batch_renders_every_members_text(self, md, chunker, name):
        """What a worker renders of a batch is each member's pinned text."""
        specs = self.specs_of(FIXTURES[name], md, chunker)
        assert all(s.template is not None and s.template == specs[0].template for s in specs)
        members = tuple((s.chunk_id, s.sub_chunk_ids) for s in specs)
        request = ChunkRequest(specs[0].template, "binary", members=members)
        back = ChunkRequest.decode(request.encode().decode())
        rendered = [render_member(back.body, *member) for member in back.members]
        assert rendered == [s.text for s in specs]
        text = "\n---\n".join(f"{c} {subs}\n{t}" for (c, subs), t in zip(back.members, rendered))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[name]["sha256"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 3590), st.integers(-800, 750), st.integers(1, 30), st.integers(1, 30),
        st.sampled_from(["count(*)", "o1.objectId AS a, o2.objectId AS b", "AVG(o2.ra_PS)"]),
    )
    def test_generated_sub_chunk_members_render_their_own_statements(
        self, md, chunker, ra, dec, width, height, select
    ):
        """Every member rendered from a generated sub-chunk batch is ``spec.text``,
        and each statement of it is what ``Select.to_sql()`` prints for its tables."""
        box = (ra / 10, dec / 10, (ra + width) / 10, (dec + height) / 10)
        sql = (
            f"SELECT {select} FROM Object o1, Object o2 "
            f"WHERE qserv_areaspec_box({', '.join(map(str, box))}) AND {_NEAR} < 0.02"
        )
        specs = self.specs_of(sql, md, chunker)[:3]
        if not specs:
            return
        members = tuple((s.chunk_id, s.sub_chunk_ids) for s in specs)
        back = ChunkRequest.decode(
            ChunkRequest(specs[0].template, "binary", members=members).encode().decode()
        )
        for spec, member in zip(specs, back.members):
            assert render_member(back.body, *member) == spec.text
            lines = spec.text.splitlines()
            assert lines[0] == f"-- SUBCHUNKS: {', '.join(map(str, spec.sub_chunk_ids))}"
            for scid, pair in zip(spec.sub_chunk_ids, zip(lines[1::2], lines[2::2])):
                for line, outer in zip(pair, ("Object", "ObjectFullOverlap")):
                    (stmt,) = parse(line)
                    assert stmt.to_sql() + ";" == line
                    assert [t.table for t in stmt.tables[:2]] == [
                        f"Object_{spec.chunk_id}_{scid}",
                        f"{outer}_{spec.chunk_id}_{scid}",
                    ]

    def test_from_list_text_inside_a_literal(self, md, chunker):
        # A select item that spells out the first sub-chunk's FROM list
        # leaves no unique place to swap it; every statement is then
        # rendered in full and the literal stays as written.
        plain = TestSubchunkRewrite.SHV1
        first = self.specs_of(plain, md, chunker)[0].text.splitlines()[1]
        from_list = first[first.index("FROM ") + 5 : first.index(" WHERE")]
        sql = plain.replace("count(*)", f"'{from_list}' AS tag, count(*)")
        for spec in self.specs_of(sql, md, chunker)[:1]:
            for line in spec.text.splitlines()[1:]:
                (stmt,) = parse(line)
                assert stmt.to_sql() + ";" == line
                assert stmt.items[0].expr.value == from_list


    def test_stand_in_sub_chunk_id_inside_a_literal(self, md, chunker):
        # Each kind of statement is rendered once for a sub-chunk id
        # nobody uses and the real ids are substituted; a query that
        # spells that stand-in out is rendered statement by statement.
        from repro.qserv import rewrite

        tag = f"x_{rewrite._ANY_SUB_CHUNK}"
        plain = TestSubchunkRewrite.SHV1
        sql = plain.replace("count(*)", f"'{tag}' AS tag, count(*)")
        specs, plain_specs = self.specs_of(sql, md, chunker), self.specs_of(plain, md, chunker)
        assert [s.sub_chunk_ids for s in specs] == [s.sub_chunk_ids for s in plain_specs]
        for spec in specs:
            for line in spec.text.splitlines()[1:]:
                (stmt,) = parse(line)
                assert stmt.to_sql() + ";" == line
                assert stmt.items[0].expr.value == tag
            assert spec.text.count(tag) == 2 * len(spec.sub_chunk_ids)


class TestJoinOnPlansAsItsCommaForm:
    """A ``JOIN ... ON p ... WHERE w`` plans to its ``WHERE (p) AND (w)`` chunk queries."""

    CASES = {
        "near neighbours": (
            "SELECT o1.objectId AS a, o2.objectId AS b FROM Object o1 JOIN Object o2 "
            f"ON {_NEAR} < 0.02 AND o1.objectId != o2.objectId "
            "WHERE qserv_areaspec_box(0, -3, 2, 3)",
            "SELECT o1.objectId AS a, o2.objectId AS b FROM Object o1, Object o2 "
            f"WHERE ({_NEAR} < 0.02 AND o1.objectId != o2.objectId) "
            "AND (qserv_areaspec_box(0, -3, 2, 3))",
        ),
        "same object": (
            "SELECT COUNT(*) FROM Object o1 JOIN Object o2 ON o1.objectId = o2.objectId",
            "SELECT COUNT(*) FROM Object o1, Object o2 WHERE (o1.objectId = o2.objectId)",
        ),
        "object x source": (
            "SELECT o.objectId, s.sourceId FROM Object o INNER JOIN Source s "
            "ON o.objectId = s.objectId "
            "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045 "
            "WHERE qserv_areaspec_box(224.1, -7.5, 237.1, 5.5)",
            "SELECT o.objectId, s.sourceId FROM Object o, Source s "
            "WHERE (o.objectId = s.objectId "
            "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045) "
            "AND (qserv_areaspec_box(224.1, -7.5, 237.1, 5.5))",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("partitioning", ["stripe", "htm"])
    def test_identical_chunk_queries(self, md, chunker, case, partitioning):
        from repro.partition import HtmChunker

        if partitioning == "htm":
            chunker = HtmChunker(4, 2, 0.05)
        join, comma = self.CASES[case]
        a = analyze(join, md)
        if a.region is not None:
            chunk_ids = chunker.chunks_intersecting(a.region)[:4]
        else:
            chunk_ids = chunker.all_chunks()[:4]
        specs = gen(join, md, chunker, chunk_ids)[2]
        assert specs and specs == gen(comma, md, chunker, chunk_ids)[2]
        assert all(s.template is not None for s in specs)
        assert not any("JOIN" in s.text or "JOIN" in s.template for s in specs)


class TestMergeQuery:
    def test_passthrough_merge(self, md, chunker):
        a = analyze("SELECT objectId, ra_PS FROM Object", md)
        p = build_aggregation_plan(a.select)
        sql = generate_merge_query(p, a.select, "merge_0")
        assert sql == "SELECT objectId, ra_PS FROM merge_0"

    def test_aggregate_merge(self, md, chunker):
        a = analyze("SELECT AVG(uFlux_SG) FROM Object", md)
        p = build_aggregation_plan(a.select)
        sql = generate_merge_query(p, a.select, "merge_0")
        assert "SUM(`SUM(uFlux_SG)`) / SUM(`COUNT(uFlux_SG)`)" in sql

    def test_order_limit_applied_at_merge(self, md, chunker):
        a = analyze("SELECT objectId FROM Object ORDER BY objectId DESC LIMIT 3", md)
        p = build_aggregation_plan(a.select)
        sql = generate_merge_query(p, a.select, "m")
        assert "ORDER BY objectId DESC" in sql
        assert "LIMIT 3" in sql

    def test_qualified_order_column_stripped(self, md, chunker):
        a = analyze("SELECT o.objectId FROM Object o ORDER BY o.objectId", md)
        p = build_aggregation_plan(a.select)
        sql = generate_merge_query(p, a.select, "m")
        assert "ORDER BY objectId" in sql
        assert "o.objectId" not in sql.split("ORDER BY")[1]
