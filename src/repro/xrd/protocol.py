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
    "deadline_header",
    "trace_header",
    "attempt_header",
    "ChunkHeaders",
    "parse_headers",
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

#: Chunk-query comment line requesting a result encoding from the worker.
RESULT_FORMAT_HEADER_PREFIX = "-- RESULT_FORMAT:"

#: Chunk-query comment line carrying the query's remaining time budget
#: (seconds).  A worker bounds its result-ready wait by it, so a hung
#: executor surfaces as a missing result instead of a deadlocked read.
#: Workers without deadline support ignore the comment line.
DEADLINE_HEADER_PREFIX = "-- DEADLINE:"

#: Chunk-query comment line propagating the czar's trace context
#: (``<trace_id>/<parent_span_id>``) so worker-side execute/dump spans
#: parent under the dispatching attempt's span.  Pure observability
#: metadata: workers without tracing support ignore the line, and it is
#: excluded from :func:`query_hash` so the result identity -- and with
#: it worker-side result caching -- is unchanged by tracing.
TRACE_HEADER_PREFIX = "-- TRACE:"

#: Chunk-query comment line naming the czar submission this dispatch
#: belongs to (an opaque per-``Czar.submit`` nonce shared by every
#: retry and hedge of that query).  Cancellation is scoped by it: a
#: ``/cancel/<H>`` write withdraws only dispatches carrying the same
#: nonce, so re-running the identical SQL later -- same hash ``H`` --
#: is not refused by a worker's cancel memory.  Excluded from
#: :func:`query_hash` like the trace header, so the result path (and
#: worker-side result caching) is unchanged by cancellation support.
ATTEMPT_HEADER_PREFIX = "-- ATTEMPT:"

#: Result encodings a czar may request / a worker may publish.
WIRE_FORMATS = ("binary", "sqldump")


def result_format_header(wire_format: str) -> str:
    """The chunk-query header line requesting ``wire_format`` results."""
    if wire_format not in WIRE_FORMATS:
        raise ValueError(f"unknown wire format {wire_format!r}")
    return f"{RESULT_FORMAT_HEADER_PREFIX} {wire_format}"


def deadline_header(seconds: float) -> str:
    """The chunk-query header line carrying a remaining time budget."""
    if seconds < 0:
        raise ValueError("deadline seconds must be >= 0")
    return f"{DEADLINE_HEADER_PREFIX} {seconds:.3f}"


def trace_header(trace_id: str, span_id: str) -> str:
    """The chunk-query header line carrying the czar's trace context."""
    return f"{TRACE_HEADER_PREFIX} {trace_id}/{span_id}"


def attempt_header(nonce: str) -> str:
    """The chunk-query header line naming the czar submission."""
    return f"{ATTEMPT_HEADER_PREFIX} {nonce}"


class ChunkHeaders(NamedTuple):
    """The comment-header block of a chunk query, decoded, and the SQL after it."""

    #: ``-- ATTEMPT:`` submission nonce; ``""`` when absent.
    attempt: str
    #: ``-- TRACE:`` as ``(trace_id, parent_span_id)``; None when absent or malformed.
    trace: Optional[tuple[str, str]]
    #: ``-- RESULT_FORMAT:``; anything but ``binary`` (or no header) is ``sqldump``.
    result_format: str
    #: ``-- DEADLINE:`` budget in seconds, clamped at 0; None when absent or malformed.
    deadline: Optional[float]
    #: The chunk query below its headers.
    body: str


def parse_headers(text: str) -> ChunkHeaders:
    """Decode a chunk query's leading ``-- NAME: value`` lines, all in one scan.

    Headers come in any order and only before the first statement; the
    first line of a name wins, names this worker does not know
    (``-- SUBCHUNKS:``, a newer master's) are skipped.
    """
    values: dict[str, str] = {}
    text = text.strip()
    while text.startswith("--"):
        line, _, text = text.partition("\n")
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
    return ChunkHeaders(
        attempt=values.get(ATTEMPT_HEADER_PREFIX, ""),
        trace=trace,
        result_format=(
            "binary" if values.get(RESULT_FORMAT_HEADER_PREFIX) == "binary" else "sqldump"
        ),
        deadline=deadline,
        body=text,
    )


def query_path(chunk_id: int) -> str:
    """The write path for dispatching a chunk query."""
    return f"{QUERY_PREFIX}{int(chunk_id)}"


def query_hash(query_text: str) -> str:
    """MD5 of the chunk query text, as 32 hex digits (the paper's H).

    ``-- TRACE:`` and ``-- ATTEMPT:`` header lines are excluded from
    the hash: trace context and the submission nonce are per-attempt
    metadata, and folding either into the result identity would defeat
    worker-side result caching (and change every result path) whenever
    tracing or cancellable submission is enabled.
    """
    if TRACE_HEADER_PREFIX in query_text or ATTEMPT_HEADER_PREFIX in query_text:
        query_text = "\n".join(
            line
            for line in query_text.splitlines()
            if not line.startswith((TRACE_HEADER_PREFIX, ATTEMPT_HEADER_PREFIX))
        )
    return hashlib.md5(query_text.encode()).hexdigest()


def result_path(query_text_or_hash: str) -> str:
    """The read path for collecting a chunk query's results.

    Accepts either the raw chunk-query text (hashed here) or an
    already-computed 32-hex-digit hash.
    """
    h = query_text_or_hash
    if not (len(h) == 32 and all(c in "0123456789abcdef" for c in h)):
        h = query_hash(query_text_or_hash)
    return f"{RESULT_PREFIX}{h}"


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
    h = query_text_or_hash
    if not (len(h) == 32 and all(c in "0123456789abcdef" for c in h)):
        h = query_hash(query_text_or_hash)
    return f"{CANCEL_PREFIX}{h}"


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
