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
such pair: the write's body holds every *member* behind a
``-- MEMBER: <chunk id> <length>`` line (:func:`batch_body`), ``H`` is
the hash of that whole text, and the read returns one frame per member
(:func:`encode_frames`).  A batch of one is the bare chunk query and
the bare payload -- the paper's protocol, byte for byte.
"""

from __future__ import annotations

import hashlib
import re
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
    "BATCH_MEMBER_PREFIX",
    "FRAME_PREFIX",
    "FRAME_STATUSES",
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
    "Frame",
    "batch_body",
    "encode_frames",
    "decode_frames",
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

#: ``MEMBER`` opens one member of a batch: its chunk id and the length
#: in characters of its chunk query, which follows verbatim (its own
#: ``-- SUBCHUNKS:`` line included) on the next line.  Not a header: the
#: headers end where the first member begins, and every member line is
#: identity.
BATCH_MEMBER_PREFIX = "-- MEMBER:"

#: A batch's result: per member one ``-- FRAME: <chunk id> <status>
#: <worker seconds> <length>`` line and ``length`` bytes -- the member's
#: result payload exactly as a batch of one would publish it (``ok``),
#: or the error text.  ``sql-error`` is the chunk query's own fault;
#: ``retryable`` is the worker's (shut down, withdrawn, out of budget,
#: chunk not held) and another replica may answer.
FRAME_PREFIX = b"-- FRAME:"
FRAME_STATUSES = ("ok", "sql-error", "retryable")

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

    #: The chunk query below its headers.
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
    #: its format line and body.
    source: Optional[str] = None

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
        value reads as an absent header.  A batch's headers end at its
        first ``-- MEMBER:`` line, which starts the body.
        """
        values: dict[str, str] = {}
        body = text.lstrip()
        while body.startswith("--") and not body.startswith(BATCH_MEMBER_PREFIX):
            line, _, body = body.partition("\n")
            name, colon, value = line.partition(":")
            if colon:
                values.setdefault(name + colon, value.strip())
        if not body.startswith(BATCH_MEMBER_PREFIX):
            body = body.rstrip()  # (a batch's last member is counted to the character)
        trace = None
        trace_id, slash, span_id = values.get(TRACE_HEADER_PREFIX, "").partition("/")
        if slash and trace_id and span_id:
            trace = (trace_id, span_id)
        try:
            deadline = max(float(values[DEADLINE_HEADER_PREFIX]), 0.0)
        except (KeyError, ValueError):
            deadline = None  # absent or malformed: no budget
        return cls(
            body,
            "binary" if values.get(RESULT_FORMAT_HEADER_PREFIX) == "binary" else "sqldump",
            deadline,
            values.get(ATTEMPT_HEADER_PREFIX, ""),
            trace,
            text,
        )

    def members(self, chunk_id: int) -> list[tuple[int, "ChunkRequest"]]:
        """``(chunk id, request)`` per member, each under this request's headers.

        A body that is no batch is the one member, about ``chunk_id``
        (the ``CC`` of the path it was written to).  Raises
        :class:`ValueError` for a member line that does not parse or a
        length that overruns the text.
        """
        if not self.body.startswith(BATCH_MEMBER_PREFIX):
            return [(chunk_id, self)]
        out, body, pos = [], self.body, 0
        while pos < len(body):
            end = body.find("\n", pos)
            prefix, member_id, length = body[pos : max(end, 0)].rsplit(" ", 2)
            start, stop = end + 1, end + 1 + int(length)
            if prefix != BATCH_MEMBER_PREFIX or int(length) < 0 or stop > len(body):
                raise ValueError(f"bad batch member line {body[pos:end]!r}")
            member = ChunkRequest.decode(body[start:stop])
            out.append((int(member_id), self._replace(body=member.body, source=None)))
            pos = stop + 1  # the line break that ends a member
        return out


def batch_body(members) -> str:
    """The body carrying ``(chunk id, chunk query)`` members; one member is itself."""
    if len(members) == 1:
        return members[0][1]
    return "\n".join(
        f"{BATCH_MEMBER_PREFIX} {chunk_id} {len(text)}\n{text}" for chunk_id, text in members
    )


class Frame(NamedTuple):
    """One member's part of a batch's result."""

    chunk_id: int
    status: str  # one of FRAME_STATUSES
    #: What the member cost the worker: execution and dump.
    seconds: float
    #: The result payload (``ok``) or the UTF-8 error text.
    payload: bytes


def encode_frames(frames) -> bytes:
    """The bytes published at a batch's ``/result/H``."""
    parts = []
    for frame in frames:
        parts.append(
            b"%s %d %s %.6f %d\n"
            % (FRAME_PREFIX, frame.chunk_id, frame.status.encode(), frame.seconds,
               len(frame.payload))
        )
        parts.append(frame.payload)
    return b"".join(parts)


def decode_frames(data: bytes) -> list[Frame]:
    """The frames of a batch's result; payloads are views into ``data``.

    Raises :class:`ValueError` unless ``data`` is frame after whole
    frame to its last byte, each with a known status.
    """
    view, out, pos = memoryview(data), [], 0
    while pos < len(data):
        end = data.find(b"\n", pos)
        fields = data[pos : max(end, 0)].split(b" ")
        if len(fields) != 6 or b" ".join(fields[:2]) != FRAME_PREFIX:
            raise ValueError(f"bad frame line at byte {pos}")
        status, length = fields[3].decode(), int(fields[5])
        start, pos = end + 1, end + 1 + length
        if status not in FRAME_STATUSES or length < 0 or pos > len(data):
            raise ValueError(f"bad frame for chunk {fields[2]!r}: {status} {length}")
        out.append(Frame(int(fields[2]), status, float(fields[4]), view[start:pos]))
    return out


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
