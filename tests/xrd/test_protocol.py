"""The chunk-query envelope: one codec, one identity rule.

``ChunkRequest.encode`` writes what the czar's ``build_text`` wrote
(golden bytes below), ``ChunkRequest.decode`` reads what
``parse_headers`` read (any order, first wins, unknown names skipped,
malformed is absent), and the result identity is stated once: every
line of the text except the ``DEADLINE`` / ``ATTEMPT`` / ``TRACE``
headers.

``golden_envelopes.json`` was generated at commit 255bae5 (the parent of
the codec): for two chunk queries of ``tests/qserv/rewrite_fixtures.py``
(``plain``, and ``shv1_tiny_box`` with its ``-- SUBCHUNKS:`` line) and
the 16 present/absent combinations of the four header fields, the text
that commit's ``Czar._dispatch_and_collect.build_text`` produced from
``result_format_header`` / ``deadline_header`` / ``attempt_header`` /
``trace_header``, and that commit's ``query_hash`` of it.  Its
``templates`` are the same two chunk queries as the czar renders them
for a batch, and its ``batches`` pin the batch form next to them: a
2-member batch of the sub-chunk template and a 7-member batch of the
plain one under the 8 combinations of deadline, nonce and trace, plus
one ``sqldump`` batch.
"""

import hashlib
import itertools
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sql import Table
from repro.sql.wire import decode_table, encode_table, encode_table_parts
from repro.xrd.protocol import (
    FRAME_STATUSES,
    ChunkRequest,
    MemberAnswer,
    cancel_path,
    decode_answer,
    encode_answer,
    query_hash,
    render_member,
    result_format_header,
    result_path,
)

GOLDEN = json.loads(Path(__file__).with_name("golden_envelopes.json").read_text())

# Words that start no header line and end no line early.
_words = st.text(alphabet="abcXYZ019_ ()*,.<=;'", min_size=0, max_size=30)
bodies = st.lists(_words, min_size=1, max_size=4).map("\n".join)
formats = st.sampled_from(["binary", "sqldump"])
deadlines = st.none() | st.integers(0, 10**7).map(lambda ms: ms / 1000.0)
nonces = st.just("") | st.text(alphabet="0123456789abcdef", min_size=1, max_size=32)
ids = st.text(alphabet="0123456789abcdefst-", min_size=1, max_size=12)
traces = st.none() | st.tuples(ids, ids)
# built from fields: no source text (that is decode's to fill in)
requests = st.builds(ChunkRequest, bodies, formats, deadlines, nonces, traces, st.none())


def fields(r):
    return r.result_format, r.deadline, r.attempt, r.trace


class TestRoundTrip:
    @given(requests)
    def test_decode_of_encode_is_the_request(self, r):
        back = ChunkRequest.decode(r.encode().decode())
        assert fields(back)[0] == r.result_format
        assert back.deadline == (None if r.deadline is None else pytest.approx(r.deadline))
        assert back.attempt == r.attempt and back.trace == r.trace
        # decode has always stripped the text before reading it
        assert back.body.strip() == r.body.strip()

    @given(requests)
    def test_one_result_hash(self, r):
        text = r.encode().decode()
        assert query_hash(text) == r.result_hash
        assert ChunkRequest.decode(text).result_hash == r.result_hash

    @given(requests)
    def test_only_format_and_body_are_identity(self, r):
        assert r.result_hash == ChunkRequest(r.body, r.result_format).result_hash
        other = "sqldump" if r.result_format == "binary" else "binary"
        assert r.result_hash != ChunkRequest(r.body, other).result_hash
        assert r.result_hash != ChunkRequest(r.body + " x", r.result_format).result_hash

    @given(st.text(max_size=200))
    def test_decode_agrees_with_query_hash_on_every_text(self, text):
        assert ChunkRequest.decode(text).result_hash == query_hash(text)

    @given(st.text(alphabet="ab -:\nDEALINTRCMP", max_size=60))
    def test_a_text_without_a_dispatch_header_hashes_as_it_is(self, text):
        if not any(n in text for n in ("-- DEADLINE:", "-- ATTEMPT:", "-- TRACE:")):
            assert query_hash(text) == hashlib.md5(text.encode()).hexdigest()

    def test_budget_format(self):
        text = ChunkRequest("SELECT 1", deadline=1.23456).encode()
        assert text == b"-- DEADLINE: 1.235\nSELECT 1"
        assert ChunkRequest("SELECT 1", deadline=0).encode() == b"-- DEADLINE: 0.000\nSELECT 1"

    def test_only_binary_is_requested(self):
        assert ChunkRequest("SELECT 1", "sqldump").encode() == b"SELECT 1"
        binary = ChunkRequest("SELECT 1", "binary").encode().decode()
        assert binary == result_format_header("binary") + "\nSELECT 1"


class TestTolerantDecode:
    """The inputs ``parse_headers`` was pinned on, and a few more."""

    @pytest.mark.parametrize(
        "text, deadline",
        [
            ("-- DEADLINE: 1.500\nSELECT 1;", 1.5),
            ("-- RESULT_FORMAT: binary\n-- DEADLINE: 3\nSELECT 1;", 3.0),
            ("-- DEADLINE: -2\nSELECT 1;", 0.0),  # clamped
            ("-- DEADLINE: junk\nSELECT 1;", None),  # malformed: absent
            ("SELECT 1; -- DEADLINE: 9", None),  # headers lead
            ("SELECT 1;\n-- DEADLINE: 9", None),
            ("-- DEADLINE: 2\n-- DEADLINE: 7\nSELECT 1;", 2.0),  # first wins
            ("  \n-- DEADLINE: 4\nSELECT 1;", 4.0),  # stripped first
        ],
    )
    def test_deadline(self, text, deadline):
        assert ChunkRequest.decode(text).deadline == deadline

    @pytest.mark.parametrize(
        "text, trace",
        [
            ("-- TRACE: t000042/s7\nSELECT 1", ("t000042", "s7")),
            ("SELECT 1", None),
            ("SELECT 1\n-- TRACE: t1/s1", None),  # after the first statement
            ("-- TRACE: nohash\nSELECT 1", None),
            ("-- TRACE: /s1\nSELECT 1", None),
            ("-- TRACE: t1/\nSELECT 1", None),
            ("-- TRACE: a/b\n-- TRACE: c/d\nSELECT 1", ("a", "b")),
        ],
    )
    def test_trace(self, text, trace):
        assert ChunkRequest.decode(text).trace == trace

    def test_any_order(self):
        lines = [
            "-- RESULT_FORMAT: binary",
            "-- DEADLINE: 2.5",
            "-- ATTEMPT: n1",
            "-- TRACE: t/s",
        ]
        for order in itertools.permutations(lines):
            r = ChunkRequest.decode("\n".join(order) + "\nSELECT 1;")
            assert fields(r) == ("binary", 2.5, "n1", ("t", "s"))
            assert r.body == "SELECT 1;"

    def test_unknown_names_are_skipped_and_are_identity(self):
        plain = "SELECT 1 FROM Object_1_2;"
        text = "-- SUBCHUNKS: 1, 2\n-- FUTURE: x\n" + plain
        r = ChunkRequest.decode("-- ATTEMPT: n\n" + text)
        assert fields(r) == ("sqldump", None, "n", None)
        assert r.body == plain
        assert r.result_hash == query_hash(text) != query_hash(plain)

    def test_a_comment_that_is_no_header(self):
        r = ChunkRequest.decode("-- just a remark\n--\nSELECT 1")
        assert fields(r) == ("sqldump", None, "", None) and r.body == "SELECT 1"

    def test_other_formats_read_as_sqldump(self):
        assert ChunkRequest.decode("-- RESULT_FORMAT: arrow\nSELECT 1").result_format == "sqldump"
        assert ChunkRequest.decode("-- RESULT_FORMAT: binary\nSELECT 1").result_format == "binary"

    def test_no_headers_at_all(self):
        r = ChunkRequest.decode("SELECT 1;")
        assert fields(r) == ("sqldump", None, "", None) and r.body == "SELECT 1;"
        assert r.result_hash == hashlib.md5(b"SELECT 1;").hexdigest()


class TestGoldenBytes:
    CASES = GOLDEN["cases"]

    def request(self, case):
        return ChunkRequest(
            GOLDEN["bodies"][case["fixture"]],
            case["result_format"],
            case["deadline"],
            case["attempt"],
            tuple(case["trace"]) if case["trace"] else None,
        )

    def test_every_combination_is_pinned(self):
        assert len(self.CASES) == 32
        assert "-- SUBCHUNKS:" in GOLDEN["bodies"]["shv1_tiny_box"]
        combos = {
            (c["fixture"], c["result_format"], c["deadline"] is None,
             c["attempt"] == "", c["trace"] is None)
            for c in self.CASES
        }
        assert len(combos) == 32

    @pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(
        [c["fixture"], c["result_format"]]
        + [n for n in ("deadline", "attempt", "trace") if c[n]]
    ))
    def test_encode_is_the_parents_text(self, case):
        r = self.request(case)
        assert r.encode() == case["text"].encode()
        back = ChunkRequest.decode(case["text"])
        assert fields(back) == (
            case["result_format"],
            None if case["deadline"] is None else round(case["deadline"], 3),
            case["attempt"],
            tuple(case["trace"]) if case["trace"] else None,
        )
        if case["deadline"] is None:
            assert r.result_hash == case["query_hash"]
        else:
            # The fix: a budget is not identity, the parent hashed it.
            assert r.result_hash != case["query_hash"]
        assert r.result_hash == query_hash(case["text"])
        assert r.result_hash == ChunkRequest(r.body, r.result_format).result_hash


# -- the batch form -----------------------------------------------------------

TEMPLATES = GOLDEN["templates"]
SUB_CHUNKED = "shv1_tiny_box"


@st.composite
def batches(draw):
    """``(template, members)``: a template the czar renders, and 2-9
    members' ids, with sub-chunk ids exactly for the sub-chunk template."""
    name = draw(st.sampled_from(sorted(TEMPLATES)))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=9, unique=True))
    subs = st.lists(st.integers(0, 10**4), min_size=1, max_size=4, unique=True).map(tuple)
    return TEMPLATES[name], tuple(
        (chunk_id, draw(subs) if name == SUB_CHUNKED else ()) for chunk_id in ids
    )


headers = st.tuples(formats, deadlines, nonces, traces)


def batch(template, members, *header):
    return ChunkRequest(template, *header, members=members)


class TestBatchRoundTrip:
    @given(batches(), headers)
    def test_members_come_back_under_the_shared_headers(self, b, header):
        template, members = b
        r = batch(template, members, *header)
        back = ChunkRequest.decode(r.encode().decode())
        assert back.result_hash == r.result_hash == query_hash(r.encode().decode())
        assert back.members == members and back.body == template
        assert fields(back)[0] == r.result_format
        assert back.attempt == r.attempt and back.trace == r.trace
        assert back.deadline == (
            None if r.deadline is None else pytest.approx(r.deadline, abs=1e-3)
        )

    @given(batches(), headers)
    def test_only_format_and_members_are_identity(self, b, header):
        template, members = b
        fmt, *dispatch = header
        assert batch(template, members, fmt, *dispatch).result_hash == batch(
            template, members, fmt
        ).result_hash
        alone = ChunkRequest(render_member(template, *members[0]), fmt)
        fewer = batch(template, members[:-1], fmt) if len(members) > 2 else alone
        assert batch(template, members, fmt).result_hash != fewer.result_hash
        moved = ((members[0][0] + 10**7, members[0][1]),) + members[1:]
        assert batch(template, members, fmt).result_hash != batch(template, moved, fmt).result_hash
        other = TEMPLATES["plain" if template == TEMPLATES[SUB_CHUNKED] else SUB_CHUNKED]
        assert batch(template, members, fmt).result_hash != batch(other, members, fmt).result_hash

    def test_a_batch_of_one_is_the_bare_request(self):
        """A member rendered from its template, sent alone, is the parent's text."""
        for case in GOLDEN["cases"]:
            fixture = case["fixture"]
            chunk_id, sub_chunk_ids = (288, (30,)) if fixture == SUB_CHUNKED else (0, ())
            text = render_member(TEMPLATES[fixture], chunk_id, sub_chunk_ids)
            assert text == GOLDEN["bodies"][fixture]
            header = (
                case["result_format"], case["deadline"], case["attempt"],
                tuple(case["trace"]) if case["trace"] else None,
            )
            assert ChunkRequest(text, *header).encode() == case["text"].encode()
            assert ChunkRequest.decode(case["text"]).members == ()

    def test_unknown_headers_before_the_first_member_are_skipped_and_are_identity(self):
        members = ((3, ()), (4, ()))
        text = batch(TEMPLATES["plain"], members, "binary").encode().decode()
        newer = "-- FUTURE: x\n-- ATTEMPT: n\n" + text
        r = ChunkRequest.decode(newer)
        assert fields(r) == ("binary", None, "n", None)
        assert r.members == members and r.body == TEMPLATES["plain"]
        assert r.result_hash == query_hash("-- FUTURE: x\n" + text) != query_hash(text)

    @pytest.mark.parametrize(
        "body",
        [
            "-- BATCH:\nSELECT 1;",  # no member at all
            "-- BATCH: 3 x\nSELECT 1;",
            "-- BATCH: 3 3\nSELECT 1;",  # a member twice
            "-- BATCH: 3:1 3:2\nSELECT 1;",
            "-- BATCH: 3:\nSELECT 1;",  # no sub-chunk id after the colon
            "-- BATCH: 3:1,x\nSELECT 1;",
            "-- BATCH: 3,4\nSELECT 1;",
        ],
    )
    def test_a_malformed_member_line_is_an_error_not_a_member(self, body):
        with pytest.raises(ValueError):
            ChunkRequest.decode(body)


class TestBatchGoldenBytes:
    CASES = GOLDEN["batches"]

    def test_what_is_pinned(self):
        assert sorted({len(c["members"]) for c in self.CASES}) == [2, 7]
        assert len(self.CASES) == 17
        for c in self.CASES:
            assert (c["fixture"] == SUB_CHUNKED) == (len(c["members"]) == 2)
            assert all(bool(subs) == (len(c["members"]) == 2) for _, subs in c["members"])

    @pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(
        [str(len(c["members"])), c["result_format"]]
        + [n for n in ("deadline", "attempt", "trace") if c[n]]
    ))
    def test_encode_and_hash(self, case):
        members = tuple((chunk_id, tuple(subs)) for chunk_id, subs in case["members"])
        template = TEMPLATES[case["fixture"]]
        header = (
            case["result_format"], case["deadline"], case["attempt"],
            tuple(case["trace"]) if case["trace"] else None,
        )
        r = batch(template, members, *header)
        assert r.encode() == case["text"].encode()
        assert r.result_hash == case["query_hash"] == query_hash(case["text"])
        assert r.result_hash == batch(template, members, case["result_format"]).result_hash
        back = ChunkRequest.decode(case["text"])
        assert back.members == members and back.body == template
        assert fields(back)[2:] == header[2:]
        rendered = render_member(template, *members[1])
        assert rendered.startswith("-- SUBCHUNKS:") == (case["fixture"] == SUB_CHUNKED)
        assert f"_{members[1][0]}" in rendered and "1000000000000000" not in rendered


def answer_of(sent) -> bytes:
    """``sent`` encoded with a table of as many rows as its ``ok`` entries have."""
    rows = sum(a.rows for a in sent if a.status == "ok")
    table = Table("chunk_result", {"n": np.arange(rows, dtype=np.int64)})
    ok = any(a.status == "ok" for a in sent)
    return encode_answer(sent, encode_table_parts(table) if ok else ())


def one(chunk_id, status, seconds, rows, error):
    return MemberAnswer(chunk_id, status, seconds, rows, "") if status == "ok" else MemberAnswer(
        chunk_id, status, seconds, 0, error
    )


answers = st.lists(
    st.builds(
        one,
        st.integers(0, 10**6),
        st.sampled_from(FRAME_STATUSES),
        st.integers(0, 10**7).map(lambda us: us / 1e6),
        st.integers(0, 40),
        st.text(max_size=20),
    ),
    min_size=1,
    max_size=9,
    unique_by=lambda a: a.chunk_id,
)


def ids_of(sent):
    return [a.chunk_id for a in sent]


# The layout's offsets: the head, and each index entry after it.
_HEAD, _ENTRY = 8, 13


def patched(data: bytes, offset: int, value: bytes) -> bytes:
    return data[:offset] + value + data[offset + len(value):]


_GOOD = [MemberAnswer(3, "ok", 0.1, 2), MemberAnswer(4, "retryable", 0.1, 0, "gone")]


class TestFrames:
    """A batch's answer: the index, the error texts, one table."""

    @given(answers)
    def test_round_trip(self, sent):
        data = answer_of(sent)
        back, table = decode_answer(data, ids_of(sent))
        assert back == [a._replace(seconds=pytest.approx(a.seconds, rel=1e-6)) for a in sent]
        if any(a.status == "ok" for a in sent):
            assert decode_table(table).num_rows == sum(a.rows for a in sent)
        else:
            assert len(table) == 0

    def test_payloads_are_views_of_what_was_read(self):
        data = answer_of(_GOOD)
        assert data[:_HEAD + _ENTRY] == (
            b"\x93QWB\x02\x00\x00\x00" + (3).to_bytes(4, "little") + b"\x00"
            + struct.pack("<f", 0.1) + (2).to_bytes(4, "little")
        )
        entries, table = decode_answer(data, [4, 3])
        assert entries == [a._replace(seconds=pytest.approx(0.1)) for a in _GOOD]
        assert isinstance(table, memoryview) and table.obj is data
        assert decode_table(table).column("n").tolist() == [0, 1]

    @given(answers, st.data())
    def test_a_truncated_result_is_an_error(self, sent, data):
        whole = answer_of(sent)
        cut = data.draw(st.integers(1, len(whole) - 1))
        with pytest.raises(ValueError):
            _, table = decode_answer(whole[:cut], ids_of(sent))
            decode_table(table)  # a cut inside the table: the table's to find

    # Each id names the damaged text frame this case stood for before the
    # batch answer was one binary index and one table.
    @pytest.mark.parametrize(
        "data",
        [
            patched(answer_of(_GOOD), _HEAD + _ENTRY + 9, (10**6).to_bytes(4, "little")),
            answer_of([MemberAnswer(3, "sql-error", 0.1, 0, "x"), _GOOD[1]]) + b"long",
            answer_of([_GOOD[0]._replace(status="sql-error", error="no table"), _GOOD[1]])
            + answer_of(_GOOD)[-60:],
            patched(answer_of(_GOOD), _HEAD + 4, b"\x03"),
            patched(answer_of(_GOOD), _HEAD + 4, b"\xff"),
            patched(answer_of(_GOOD), _HEAD, (5).to_bytes(4, "little")),
            patched(answer_of(_GOOD), _HEAD + _ENTRY, (3).to_bytes(4, "little")),
            patched(answer_of(_GOOD), 4, b"\x01"),
            patched(answer_of(_GOOD), 0, b"-- F"),
            encode_table(Table("chunk_result", {"n": np.arange(2)})),
            answer_of(_GOOD)[:_HEAD + 10],
        ],
        ids=[
            "-- FRAME: 3 ok 0.1 9\nshort",  # an error text overruns the answer
            "-- FRAME: 3 ok 0.1 2\nlong",  # bytes after an answer with no ok member
            "-- FRAME: 3 ok 0.1 -1\n",  # a table, and no ok member for it
            "-- FRAME: 3 fine 0.1 2\nok",  # an unknown status
            "-- FRAME: 3 \xff 0.1 2\nok",
            "-- FRAME: x ok 0.1 2\nok",  # a member that is not the batch's
            "-- FRAME: 3 ok soon 2\nok",  # a member twice, one missing
            "-- FRAME: 3 ok 0.1\nok",  # fewer members than the batch
            "-- FRAMES: 3 ok 0.1 2\nok",  # no answer's magic
            "\x93QWF a bare payload",
            "-- FRAME: 3 ok 0.1 2",  # cut inside the index
        ],
    )
    def test_bad_frames_are_errors(self, data):
        with pytest.raises(ValueError):
            decode_answer(data, [3, 4])


class TestPaths:
    def test_text_or_hash(self):
        text = "SELECT 1"
        h = query_hash(text)
        assert result_path(text) == result_path(h) == "/result/" + h
        assert cancel_path(text) == cancel_path(h) == "/cancel/" + h
        # 32 characters that are not a hash are a text
        assert result_path("g" * 32) == "/result/" + query_hash("g" * 32)
        assert result_path(h + "\n") == "/result/" + query_hash(h + "\n")
