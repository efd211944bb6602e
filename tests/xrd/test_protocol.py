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
``trace_header``, and that commit's ``query_hash`` of it.  Its ``batches`` (PR 23) pin the
batch form next to them: 2 and 7 members -- the second a sub-chunk body
with its ``-- SUBCHUNKS:`` line -- under the 8 combinations of deadline,
nonce and trace, plus one ``sqldump`` batch.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.xrd.protocol import (
    FRAME_STATUSES,
    ChunkRequest,
    Frame,
    batch_body,
    cancel_path,
    decode_frames,
    encode_frames,
    query_hash,
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

# Member texts as the czar writes them: may lead with a comment line, may
# end in a line break, never start a line with ``-- MEMBER:``.
member_texts = st.lists(
    st.text(alphabet="abcXYZ019_ ()*,.<=;'\n", min_size=1, max_size=40), min_size=1, max_size=2
).map(lambda parts: "-- SUBCHUNKS: 1, 2\n".join(parts))
member_lists = st.lists(
    st.tuples(st.integers(0, 10**6), member_texts), min_size=2, max_size=9
)
headers = st.tuples(formats, deadlines, nonces, traces)


def batch(members, *header):
    return ChunkRequest(batch_body(members), *header)


class TestBatchRoundTrip:
    @given(member_lists, headers)
    def test_members_come_back_under_the_shared_headers(self, members, header):
        r = batch(members, *header)
        back = ChunkRequest.decode(r.encode().decode())
        assert back.result_hash == r.result_hash == query_hash(r.encode().decode())
        decoded = back.members(members[0][0])
        assert [chunk_id for chunk_id, _ in decoded] == [chunk_id for chunk_id, _ in members]
        for (_, text), (_, member) in zip(members, decoded):
            assert member.body == ChunkRequest.decode(text).body  # its own comment lines cut
            assert fields(member)[0] == r.result_format
            assert member.attempt == r.attempt and member.trace == r.trace
            assert member.deadline == (
                None if r.deadline is None else pytest.approx(r.deadline, abs=1e-3)
            )

    @given(member_lists, headers)
    def test_only_format_and_members_are_identity(self, members, header):
        fmt, *dispatch = header
        assert batch(members, fmt, *dispatch).result_hash == batch(members, fmt).result_hash
        fewer = batch(members[:-1], fmt) if len(members) > 2 else ChunkRequest("x", fmt)
        assert batch(members, fmt).result_hash != fewer.result_hash
        moved = [(members[0][0] + 1, members[0][1])] + members[1:]
        assert batch(members, fmt).result_hash != batch(moved, fmt).result_hash

    @given(st.integers(0, 10**6), member_texts, headers)
    def test_a_batch_of_one_is_the_bare_request(self, chunk_id, text, header):
        assert batch_body([(chunk_id, text)]) == text
        r = ChunkRequest(text, *header)
        assert batch([(chunk_id, text)], *header).encode() == r.encode()
        back = ChunkRequest.decode(r.encode().decode())
        assert back.members(chunk_id) == [(chunk_id, back)]

    def test_unknown_headers_before_the_first_member_are_skipped_and_are_identity(self):
        members = [(3, "SELECT 1;"), (4, "-- SUBCHUNKS: 9\nSELECT 2;")]
        text = batch(members, "binary").encode().decode()
        newer = "-- FUTURE: x\n-- ATTEMPT: n\n" + text
        r = ChunkRequest.decode(newer)
        assert fields(r) == ("binary", None, "n", None)
        assert [(c, m.body) for c, m in r.members(3)] == [(3, "SELECT 1;"), (4, "SELECT 2;")]
        assert r.result_hash == query_hash("-- FUTURE: x\n" + text) != query_hash(text)

    @pytest.mark.parametrize(
        "body",
        [
            "-- MEMBER: 3 9",  # no text at all
            "-- MEMBER: 3 99\nSELECT 1;",  # length overruns
            "-- MEMBER: 3 -1\nSELECT 1;",
            "-- MEMBER: 3 nine\nSELECT 1;",
            "-- MEMBER: x 9\nSELECT 1;",
            "-- MEMBER: 9\nSELECT 1;",
            "-- MEMBER: 3 8\nSELECT 1;\n-- MEMBER: 4 9\nSELECT 2;",  # short: next line is no member line
        ],
    )
    def test_a_malformed_member_line_is_an_error_not_a_member(self, body):
        with pytest.raises(ValueError):
            ChunkRequest.decode(body).members(3)


class TestBatchGoldenBytes:
    CASES = GOLDEN["batches"]

    def test_what_is_pinned(self):
        assert sorted({len(c["members"]) for c in self.CASES}) == [2, 7]
        assert len(self.CASES) == 17
        assert all("-- SUBCHUNKS:" in c["members"][1][1] for c in self.CASES)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(
        [str(len(c["members"])), c["result_format"]]
        + [n for n in ("deadline", "attempt", "trace") if c[n]]
    ))
    def test_encode_and_hash(self, case):
        members = [tuple(m) for m in case["members"]]
        header = (
            case["result_format"], case["deadline"], case["attempt"],
            tuple(case["trace"]) if case["trace"] else None,
        )
        r = batch(members, *header)
        assert r.encode() == case["text"].encode()
        assert r.result_hash == case["query_hash"] == query_hash(case["text"])
        assert r.result_hash == batch(members, case["result_format"]).result_hash
        back = ChunkRequest.decode(case["text"]).members(members[0][0])
        assert [c for c, _ in back] == [c for c, _ in members]
        assert "SUBCHUNKS" not in back[1][1].body and back[1][1].body.startswith("SELECT COUNT(*)")
        assert all(fields(m)[2:] == header[2:] for _, m in back)


frames = st.lists(
    st.builds(
        Frame,
        st.integers(0, 10**6),
        st.sampled_from(FRAME_STATUSES),
        st.integers(0, 10**7).map(lambda us: us / 1e6),
        st.binary(max_size=64),
    ),
    min_size=1,
    max_size=9,
)


class TestFrames:
    @given(frames)
    def test_round_trip(self, sent):
        back = decode_frames(encode_frames(sent))
        assert [(f.chunk_id, f.status, f.seconds, bytes(f.payload)) for f in back] == [
            tuple(f) for f in sent
        ]

    def test_payloads_are_views_of_what_was_read(self):
        data = encode_frames([Frame(3, "ok", 0.5, b"\x93QWFabc"), Frame(4, "retryable", 0.0, b"gone")])
        assert data == b"-- FRAME: 3 ok 0.500000 7\n\x93QWFabc-- FRAME: 4 retryable 0.000000 4\ngone"
        assert all(isinstance(f.payload, memoryview) for f in decode_frames(data))

    @given(frames, st.data())
    def test_a_truncated_result_is_an_error(self, sent, data):
        whole = encode_frames(sent)
        cut = data.draw(st.integers(1, len(whole) - 1))
        try:
            back = decode_frames(whole[:cut])
        except ValueError:
            return
        # A cut that is itself frame after whole frame can only be a prefix.
        assert [tuple(f)[:3] for f in back] == [tuple(f)[:3] for f in sent[: len(back)]]
        assert len(back) < len(sent)

    @pytest.mark.parametrize(
        "data",
        [
            b"-- FRAME: 3 ok 0.1 9\nshort",  # bad length: overruns
            b"-- FRAME: 3 ok 0.1 2\nlong",  # bad length: what follows is no frame line
            b"-- FRAME: 3 ok 0.1 -1\n",
            b"-- FRAME: 3 fine 0.1 2\nok",  # bad status
            b"-- FRAME: 3 \xff 0.1 2\nok",
            b"-- FRAME: x ok 0.1 2\nok",
            b"-- FRAME: 3 ok soon 2\nok",
            b"-- FRAME: 3 ok 0.1\nok",
            b"-- FRAMES: 3 ok 0.1 2\nok",
            b"\x93QWF a bare payload",
            b"-- FRAME: 3 ok 0.1 2",  # no line break
        ],
    )
    def test_bad_frames_are_errors(self, data):
        with pytest.raises(ValueError):
            decode_frames(data)


class TestPaths:
    def test_text_or_hash(self):
        text = "SELECT 1"
        h = query_hash(text)
        assert result_path(text) == result_path(h) == "/result/" + h
        assert cancel_path(text) == cancel_path(h) == "/cancel/" + h
        # 32 characters that are not a hash are a text
        assert result_path("g" * 32) == "/result/" + query_hash("g" * 32)
        assert result_path(h + "\n") == "/result/" + query_hash(h + "\n")
