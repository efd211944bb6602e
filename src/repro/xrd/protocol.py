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
        value reads as an absent header.
        """
        values: dict[str, str] = {}
        body = text.strip()
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
        return cls(
            body,
            "binary" if values.get(RESULT_FORMAT_HEADER_PREFIX) == "binary" else "sqldump",
            deadline,
            values.get(ATTEMPT_HEADER_PREFIX, ""),
            trace,
            text,
        )


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
