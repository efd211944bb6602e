"""The Qserv-over-Xrootd path scheme (paper section 5.4).

Dispatch is two file-level transactions:

1. the master opens ``xrootd://<manager>/query2/CC`` for writing, where
   ``CC`` is the chunk id, writes the chunk query text, and closes;
2. the master opens ``xrootd://<worker>/result/H`` for reading, where
   ``H`` is the MD5 hash of the chunk query it wrote (32 lowercase hex
   digits), reads to EOF, and closes.

Result-format negotiation (the section 7.1 transfer optimization) rides
on the same transactions: the master may prepend a
``-- RESULT_FORMAT: binary`` comment line to the chunk query text,
asking the worker to publish its result in the binary columnar wire
format (:mod:`repro.sql.wire`) instead of mysqldump SQL text.  The
result bytes themselves are carried opaquely either way -- Xrootd never
inspects them -- and the master distinguishes the two by the wire
magic, so a worker that ignores the header (an old version, or a
paper-faithful configuration) degrades safely to the SQL dump.

The chunk queries of one user query bound for one worker travel as one
such pair, a *batch*.  A batch of one is the bare chunk query and the
bare payload -- the paper's protocol, byte for byte.  A larger batch
asks one statement of several chunks, so it writes that statement once::

    -- RESULT_FORMAT: binary
    (-- DEADLINE: / -- ATTEMPT: / -- TRACE: lines, as for one chunk query)
    -- BATCH: 713 714 715                (or 713:45,46 714:12, sub-chunk ids after ':')
    SELECT ... FROM LSST.Object_1000000000000000713 AS Object ...;

The body is the *template*: the chunk query with :data:`ANY_CHUNK` (and
:data:`ANY_SUB_CHUNK`) in place of a member's ids, and
:func:`render_member` makes each member's own chunk query of it -- the
czar renders every chunk query it sends alone the same way.  ``H`` is
the hash of the whole text, batch line included.  The read returns one
answer for all members (:func:`encode_answer`, all integers
little-endian)::

    magic      4 bytes   b"\\x93QWB"
    members    u32
    -- per member, in the batch's order:
    chunk id   u32
    status     u8        index into FRAME_STATUSES
    seconds    f32       what executing the member cost the worker
    count      u32       ok: its rows in the table; else: its error's bytes
    -- then the error texts (utf-8), in member order
    -- then one wire table (repro.sql.wire) of every ok member's rows, in
       member order; absent when no member is ok

Only the czar's binary wire format batches: a czar asking for
``sqldump``, and a chunk query whose stand-in ids collide with a literal
of its own, send every chunk query alone.
"""

from __future__ import annotations

import hashlib
import re
import struct
from typing import NamedTuple, Optional

__all__ = [
    "QUERY_PREFIX",
    "RESULT_PREFIX",
    "CHUNK_PREFIX",
    "MANIFEST_PREFIX",
    "CANCEL_PREFIX",
    "RESULT_FORMAT_HEADER_PREFIX",
    "DEADLINE_HEADER_PREFIX",
    "TRACE_HEADER_PREFIX",
    "ATTEMPT_HEADER_PREFIX",
    "BATCH_HEADER_PREFIX",
    "SUBCHUNK_HEADER_PREFIX",
    "ANY_CHUNK",
    "ANY_SUB_CHUNK",
    "FRAME_STATUSES",
    "ANSWER_MAGIC",
    "WIRE_FORMATS",
    "query_path",
    "result_path",
    "query_hash",
    "chunk_path",
    "cancel_path",
    "hash_of_cancel_path",
    "manifest_path",
    "table_of_chunk_path",
    "chunk_id_of_manifest_path",
    "result_format_header",
    "ChunkRequest",
    "sub_chunk_text",
    "render_member",
    "MemberAnswer",
    "encode_answer",
    "decode_answer",
]

QUERY_PREFIX = "/query2/"
RESULT_PREFIX = "/result/"

#: Chunk-table dump/load paths, used by the self-healing data plane.
#: Reading ``/chunk/<table>`` from a worker returns the named chunk
#: table as binary wire bytes (:mod:`repro.sql.wire`); writing installs
#: the decoded table into the worker's local database.  Repair copies
#: ride the same open/read-write/close file transactions as dispatch,
#: so fault injection and health tracking apply to them unchanged.
CHUNK_PREFIX = "/chunk/"

#: Reading ``/chunkmanifest/<chunkId>`` from a worker returns the
#: newline-separated names of every physical table it holds for that
#: chunk (the chunk table per logical table plus overlap companions).
MANIFEST_PREFIX = "/chunkmanifest/"

#: Writing ``/cancel/<H>`` to a worker withdraws the chunk query whose
#: result would be published at ``/result/<H>``: a still-queued task is
#: discarded without executing (the slot is freed), an in-flight task's
#: result is dropped on completion, and any blocked result read is
#: released with a typed cancellation error.  Best-effort and
#: idempotent.  The write's payload carries the withdrawn submission's
#: ``-- ATTEMPT:`` nonce (empty for header-less dispatches), and the
#: worker refuses only late-arriving dispatches of that *same*
#: submission -- a fresh submission of identical SQL has a fresh nonce
#: and executes normally instead of being poisoned by the old cancel.
CANCEL_PREFIX = "/cancel/"

#: The chunk-query envelope: ``-- NAME: value`` comment lines ahead of
#: the SQL, which a worker that does not know a name skips (an old
#: worker, or the paper's ``-- SUBCHUNKS:`` line, which is part of the
#: chunk query itself).  :class:`ChunkRequest` is their one codec.
#:
#: ``RESULT_FORMAT`` requests a result encoding from the worker.
RESULT_FORMAT_HEADER_PREFIX = "-- RESULT_FORMAT:"

#: ``DEADLINE`` carries the query's remaining time budget (seconds) at
#: dispatch.  A worker bounds its result-ready wait by it, so a hung
#: executor surfaces as a missing result instead of a deadlocked read.
DEADLINE_HEADER_PREFIX = "-- DEADLINE:"

#: ``ATTEMPT`` names the czar submission this dispatch belongs to (an
#: opaque per-``Czar.submit`` nonce shared by every retry and hedge of
#: that query).  Cancellation is scoped by it: a ``/cancel/<H>`` write
#: withdraws only dispatches carrying the same nonce, so re-running the
#: identical SQL later -- same hash ``H`` -- is not refused by a
#: worker's cancel memory.
ATTEMPT_HEADER_PREFIX = "-- ATTEMPT:"

#: ``TRACE`` propagates the czar's trace context
#: (``<trace_id>/<parent_span_id>``) so worker-side execute/dump spans
#: parent under the dispatching attempt's span.
TRACE_HEADER_PREFIX = "-- TRACE:"

#: The identity rule: the header names that are *not* part of a chunk
#: query's result identity ``H``.  Budget, nonce and trace context
#: belong to one dispatch, not to the question asked; folding any of
#: them into the hash would give every dispatch its own result path --
#: defeating worker-side result caching and growing the worker's store
#: by one entry per distinct budget string.  Every other line of the
#: text, ``RESULT_FORMAT`` and names nobody knows included, is identity.
_NOT_IDENTITY = (DEADLINE_HEADER_PREFIX, ATTEMPT_HEADER_PREFIX, TRACE_HEADER_PREFIX)
_NOT_IDENTITY_LINE_RE = re.compile(
    "^(?:%s).*\n?" % "|".join(map(re.escape, _NOT_IDENTITY)), re.MULTILINE
)

#: ``BATCH`` makes the body a batch's *template*: the chunk query its
#: members share, with :data:`ANY_CHUNK` (and :data:`ANY_SUB_CHUNK`)
#: standing in for their ids.  The value lists the members, each
#: ``<chunk id>`` or ``<chunk id>:<sub-chunk id>,...``, separated by
#: spaces.  It is identity, and it is always the last header.
BATCH_HEADER_PREFIX = "-- BATCH:"

#: The paper's sub-chunk line: the sub-chunk ids a chunk query's
#: statements name, which the worker materializes.
SUBCHUNK_HEADER_PREFIX = "-- SUBCHUNKS:"

#: Stand in for a member's chunk id and sub-chunk id in a batch's
#: template (as ``_<id>`` in a table name); no catalog has this many.
ANY_CHUNK = 10**18 + 713
ANY_SUB_CHUNK = 10**18 + 45
_CHUNK_MARK = f"_{ANY_CHUNK}"
_SUB_CHUNK_MARK = f"_{ANY_SUB_CHUNK}"

#: A member's status in a batch's answer.  ``sql-error`` is the chunk
#: query's own fault; ``retryable`` is the worker's (shut down,
#: withdrawn, out of budget, chunk not held) and another replica may
#: answer.
FRAME_STATUSES = ("ok", "sql-error", "retryable")

#: A batch's answer: magic and member count, one index entry per member,
#: the error texts, then one wire table (see the module docstring).
ANSWER_MAGIC = b"\x93QWB"
_ANSWER_HEAD = struct.Struct("<4sI")
_ANSWER_ENTRY = struct.Struct("<IBfI")

#: Result encodings a czar may request / a worker may publish.
WIRE_FORMATS = ("binary", "sqldump")

_HASH_RE = re.compile(r"[0-9a-f]{32}")


def result_format_header(wire_format: str) -> str:
    """The chunk-query header line requesting ``wire_format`` results."""
    if wire_format not in WIRE_FORMATS:
        raise ValueError(f"unknown wire format {wire_format!r}")
    return f"{RESULT_FORMAT_HEADER_PREFIX} {wire_format}"


class ChunkRequest(NamedTuple):
    """One chunk query as it crosses the fabric: header fields and SQL body."""

    #: The chunk query below its headers; a batch's template.
    body: str
    #: ``binary``, or (also for no header, or anything else) ``sqldump``.
    result_format: str = "sqldump"
    #: The remaining budget in seconds at dispatch; None when unbounded.
    deadline: Optional[float] = None
    #: The submission nonce; ``""`` when absent.
    attempt: str = ""
    #: ``(trace_id, parent_span_id)``, or None.
    trace: Optional[tuple[str, str]] = None
    #: The text this was decoded from, unknown headers and all -- its
    #: identity; None for a request built from fields, whose identity is
    #: its format line, batch line and body.
    source: Optional[str] = None
    #: A batch's members, ``(chunk id, sub-chunk ids)`` each, whose
    #: chunk queries :func:`render_member` makes of the body; empty for
    #: one chunk query, which the body is.
    members: tuple = ()

    def _text(self, identity_only: bool = False) -> str:
        lines = []
        if self.result_format == "binary":
            lines.append(result_format_header("binary"))
        if not identity_only:
            if self.deadline is not None:
                lines.append(f"{DEADLINE_HEADER_PREFIX} {self.deadline:.3f}")
            if self.attempt:
                lines.append(f"{ATTEMPT_HEADER_PREFIX} {self.attempt}")
            if self.trace is not None:
                lines.append(f"{TRACE_HEADER_PREFIX} {self.trace[0]}/{self.trace[1]}")
        if self.members:
            lines.append(f"{BATCH_HEADER_PREFIX} {' '.join(map(_member_text, self.members))}")
        lines.append(self.body)
        return "\n".join(lines)

    def encode(self) -> bytes:
        """The bytes written to ``/query2/CC``: header lines, then the body."""
        return self._text().encode()

    @property
    def result_hash(self) -> str:
        """The ``H`` of ``/result/H``; ``query_hash`` of the encoded text."""
        return query_hash(self.source or self._text(identity_only=True))

    @classmethod
    def decode(cls, text: str) -> "ChunkRequest":
        """Decode a chunk query's leading ``-- NAME: value`` lines, all in one scan.

        Headers come in any order and only before the first statement;
        the first line of a name wins, names this worker does not know
        (``-- SUBCHUNKS:``, a newer master's) are skipped, a malformed
        value reads as an absent header -- except a malformed
        ``-- BATCH:`` line, which raises :class:`ValueError`: its
        template is no chunk query.
        """
        values: dict[str, str] = {}
        body = text.lstrip()
        while body.startswith("--"):
            line, _, body = body.partition("\n")
            name, colon, value = line.partition(":")
            if colon:
                values.setdefault(name + colon, value.strip())
        trace = None
        trace_id, slash, span_id = values.get(TRACE_HEADER_PREFIX, "").partition("/")
        if slash and trace_id and span_id:
            trace = (trace_id, span_id)
        try:
            deadline = max(float(values[DEADLINE_HEADER_PREFIX]), 0.0)
        except (KeyError, ValueError):
            deadline = None  # absent or malformed: no budget
        batch = values.get(BATCH_HEADER_PREFIX)
        return cls(
            body.rstrip(),
            "binary" if values.get(RESULT_FORMAT_HEADER_PREFIX) == "binary" else "sqldump",
            deadline,
            values.get(ATTEMPT_HEADER_PREFIX, ""),
            trace,
            text,
            () if batch is None else _members_of(batch),
        )


def _member_text(member) -> str:
    chunk_id, sub_chunk_ids = member
    if not sub_chunk_ids:
        return str(chunk_id)
    return f"{chunk_id}:{','.join(map(str, sub_chunk_ids))}"


def _members_of(value: str) -> tuple:
    """The members of a ``-- BATCH:`` line; :class:`ValueError` unless
    every one parses and no chunk id repeats."""
    members = []
    for word in value.split():
        chunk_id, colon, subs = word.partition(":")
        members.append(
            (int(chunk_id), tuple(int(s) for s in subs.split(",")) if colon else ())
        )
    if not members or len({chunk_id for chunk_id, _ in members}) != len(members):
        raise ValueError(f"bad batch line {value!r}")
    return tuple(members)


def sub_chunk_text(sub_chunk_ids, statements) -> str:
    """A sub-chunk query: its ``-- SUBCHUNKS:`` line, then its statements."""
    ids = ", ".join(map(str, sub_chunk_ids))
    return f"{SUBCHUNK_HEADER_PREFIX} {ids}\n" + "\n".join(statements)


def render_member(template: str, chunk_id: int, sub_chunk_ids=()) -> str:
    """A batch member's chunk query: ``template`` about its ids.

    The text the czar sends the member alone.  With sub-chunk ids the
    template is what the statements about one sub-chunk share, and the
    member is those statements about each of its sub-chunks in turn.
    """
    text = template.replace(_CHUNK_MARK, f"_{chunk_id}")
    if not sub_chunk_ids:
        return text
    return sub_chunk_text(
        sub_chunk_ids, [text.replace(_SUB_CHUNK_MARK, f"_{s}") for s in sub_chunk_ids]
    )


class MemberAnswer(NamedTuple):
    """One member's entry in a batch's answer index."""

    chunk_id: int
    status: str  # one of FRAME_STATUSES
    #: What executing the member cost the worker.
    seconds: float
    #: ``ok``: its rows in the answer's table, after those of the
    #: ``ok`` members before it.
    rows: int = 0
    #: Otherwise: the error text.
    error: str = ""


def encode_answer(entries, table_parts=()) -> bytes:
    """The bytes published at a batch's ``/result/H``, gathered in one copy.

    ``table_parts`` are the buffers of one wire table holding the rows
    of the ``ok`` entries in their order (none when there is none).
    """
    errors = [entry.error.encode() for entry in entries]
    parts = [_ANSWER_HEAD.pack(ANSWER_MAGIC, len(errors))]
    for entry, error in zip(entries, errors):
        ok = entry.status == "ok"
        parts.append(
            _ANSWER_ENTRY.pack(
                entry.chunk_id, FRAME_STATUSES.index(entry.status), entry.seconds,
                entry.rows if ok else len(error),
            )
        )
    parts += errors
    parts += table_parts
    return b"".join(parts)


def decode_answer(data, chunk_ids) -> tuple[list[MemberAnswer], memoryview]:
    """The index of a batch's answer and a view of its table's bytes.

    Raises :class:`ValueError` unless the index names each of
    ``chunk_ids`` exactly once, every status is known, the error texts
    are whole, and a table follows exactly when some member is ``ok``.
    That the table's rows are the entries' rows is the caller's to
    check, once it has decoded the table.
    """
    view = memoryview(data)
    if len(view) < _ANSWER_HEAD.size:
        raise ValueError("truncated batch answer")
    magic, n = _ANSWER_HEAD.unpack_from(view)
    pos = _ANSWER_HEAD.size + n * _ANSWER_ENTRY.size
    if magic != ANSWER_MAGIC or n != len(chunk_ids) or pos > len(view):
        raise ValueError(f"bad batch answer head: {bytes(magic)!r}, {n} members")
    entries, ok = [], False
    for chunk_id, code, seconds, count in _ANSWER_ENTRY.iter_unpack(
        view[_ANSWER_HEAD.size : pos]
    ):
        if code >= len(FRAME_STATUSES):
            raise ValueError(f"chunk {chunk_id}: unknown status {code}")
        if code == 0:
            ok = True
            entries.append(MemberAnswer(chunk_id, "ok", seconds, count))
            continue
        start, pos = pos, pos + count
        if pos > len(view):
            raise ValueError(f"chunk {chunk_id}: error text overruns the answer")
        error = str(view[start:pos], "utf-8", "replace")
        entries.append(MemberAnswer(chunk_id, FRAME_STATUSES[code], seconds, 0, error))
    named = {entry.chunk_id for entry in entries}
    if len(named) != n or named != set(chunk_ids):
        raise ValueError(f"the answer's members {sorted(named)} are not the batch's")
    table = view[pos:]
    if ok != bool(len(table)):
        raise ValueError("a table without an ok member, or an ok member without one")
    return entries, table


def query_path(chunk_id: int) -> str:
    """The write path for dispatching a chunk query."""
    return f"{QUERY_PREFIX}{int(chunk_id)}"


def query_hash(query_text: str) -> str:
    """MD5 of the chunk query text, as 32 hex digits (the paper's H).

    Header lines that are not identity (``_NOT_IDENTITY``) are cut from
    the text first, each with its line break; a text without one hashes
    as it is.
    """
    if any(name in query_text for name in _NOT_IDENTITY):
        query_text = _NOT_IDENTITY_LINE_RE.sub("", query_text)
    return hashlib.md5(query_text.encode()).hexdigest()


def _hash_of(query_text_or_hash: str) -> str:
    if _HASH_RE.fullmatch(query_text_or_hash):
        return query_text_or_hash
    return query_hash(query_text_or_hash)


def result_path(query_text_or_hash: str) -> str:
    """The read path for collecting a chunk query's results.

    Accepts either the raw chunk-query text (hashed here) or an
    already-computed 32-hex-digit hash.
    """
    return f"{RESULT_PREFIX}{_hash_of(query_text_or_hash)}"


def chunk_path(table_name: str) -> str:
    """The dump/load path for one physical chunk table."""
    return f"{CHUNK_PREFIX}{table_name}"


def table_of_chunk_path(path: str) -> str:
    """Parse the table name back out of a chunk path."""
    if not path.startswith(CHUNK_PREFIX):
        raise ValueError(f"not a chunk path: {path!r}")
    return path[len(CHUNK_PREFIX) :]


def cancel_path(query_text_or_hash: str) -> str:
    """The write path withdrawing one dispatched chunk query.

    Accepts the chunk query text or its 32-hex-digit hash, mirroring
    :func:`result_path` -- the cancel targets the same ``H``.
    """
    return f"{CANCEL_PREFIX}{_hash_of(query_text_or_hash)}"


def hash_of_cancel_path(path: str) -> str:
    """Parse the result hash back out of a cancel path."""
    if not path.startswith(CANCEL_PREFIX):
        raise ValueError(f"not a cancel path: {path!r}")
    return path[len(CANCEL_PREFIX) :]


def manifest_path(chunk_id: int) -> str:
    """The read path listing a worker's physical tables for a chunk."""
    return f"{MANIFEST_PREFIX}{int(chunk_id)}"


def chunk_id_of_manifest_path(path: str) -> int:
    """Parse the chunk id back out of a manifest path."""
    if not path.startswith(MANIFEST_PREFIX):
        raise ValueError(f"not a manifest path: {path!r}")
    return int(path[len(MANIFEST_PREFIX) :])


def chunk_id_of_query_path(path: str) -> int:
    """Parse the chunk id back out of a query path."""
    if not path.startswith(QUERY_PREFIX):
        raise ValueError(f"not a query path: {path!r}")
    return int(path[len(QUERY_PREFIX) :])
