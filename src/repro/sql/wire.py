"""Binary columnar result wire format (the paper's planned optimization).

Section 7.1 of the paper concedes that transferring results as
mysqldump SQL text "is not cheap in speed, disk usage, network
utilization, and number of transactions" and names a more efficient
transfer format as planned work.  This module is that format: a
self-describing, NaN-preserving columnar encoding that serializes a
:class:`~repro.sql.table.Table` as raw NumPy array payloads instead of
SQL literals, so the czar can decode straight into merge-ready arrays
without lexing or parsing a single byte.

Layout (all integers little-endian)::

    magic      4 bytes   b"\\x93QWF"  (non-ASCII first byte: can never
                                      collide with SQL-dump text)
    version    u8        currently 1
    tab_len    u16       table-name length, then that many utf-8 bytes
    ncols      u16       > 0 (zero-column tables are rejected)
    nrows      u64
    -- per column, in select-list order:
    name_len   u16       column-name length, then utf-8 bytes
    dtype      u8        0=int64  1=float64  2=bool  3=utf-8 string
    -- then per column, same order:
    int64/float64        nrows * 8 raw bytes (float NaN == SQL NULL,
                         preserved bit-for-bit)
    bool                 nrows * 1 raw bytes (0/1)
    string               nrows * u32 byte-lengths, then the
                         concatenated utf-8 payload

The format is deliberately dumb -- no compression, no framing beyond
the header -- because the win over the SQL dump comes from skipping
per-value rendering on the worker and re-parsing on the master, not
from shaving bytes (though it is also several times smaller).

The encode side is zero-copy for fixed-width columns:
:func:`encode_table_parts` hands out ``memoryview``\\ s over the live
column buffers (bools reinterpreted as uint8 views), so the only copy
on the whole worker-to-czar path is the final gather into one bytes
object.  The decode side mirrors it: ``decode_table(data, copy=False)``
returns read-only ``np.frombuffer`` views over the payload -- the
czar's merge (:meth:`Table.concat`) reads those views directly and
produces fresh writable arrays in its single concatenation pass.
"""

from __future__ import annotations

import struct

import numpy as np

from .table import Table

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireFormatError",
    "encode_table",
    "encode_table_parts",
    "encode_tables_parts",
    "decode_table",
    "is_wire_payload",
]

WIRE_MAGIC = b"\x93QWF"
WIRE_VERSION = 1

_DTYPE_INT64 = 0
_DTYPE_FLOAT64 = 1
_DTYPE_BOOL = 2
_DTYPE_STRING = 3

_HEAD = struct.Struct("<4sB")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_COUNTS = struct.Struct("<HQ")  # ncols, nrows
_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")

# Wire code by ``dtype.kind``; a kind not listed has no encoding.
_KIND_CODES = {
    "O": _DTYPE_STRING,
    "b": _DTYPE_BOOL,
    "i": _DTYPE_INT64,
    "u": _DTYPE_INT64,
    "f": _DTYPE_FLOAT64,
}
_CODE_BYTES = [bytes([code]) for code in range(4)]


class WireFormatError(ValueError):
    """The payload is not a valid wire-format table."""


def is_wire_payload(data: bytes) -> bool:
    """True when ``data`` starts with the wire magic (vs SQL-dump text)."""
    return bytes(data[: len(WIRE_MAGIC)]) == WIRE_MAGIC


def _dtype_code(name: str, arr: np.ndarray) -> int:
    code = _KIND_CODES.get(arr.dtype.kind)
    if code is None:
        raise WireFormatError(f"column {name!r} has unsupported dtype {arr.dtype}")
    return code


def encode_table_parts(table: Table, name: str | None = None) -> list:
    """The wire encoding as a list of buffers (bytes and memoryviews).

    Fixed-width columns that are already contiguous and in wire layout
    contribute ``memoryview``\\ s over their live buffers -- no copy is
    made until the caller joins (or writes) the parts.  String columns
    are rendered (inherently a copy).
    """
    return encode_tables_parts([table], name or table.name)


def encode_tables_parts(tables: list, name: str) -> list:
    """:func:`encode_table_parts` of the rows of ``tables``, one after another.

    What ``encode_table_parts(Table.concat(name, tables))`` returns,
    without the concatenation: each column's buffers are the tables'
    own, so joining the parts is the one copy.  Column order and dtypes
    follow the first table and empty later ones are skipped, as
    :meth:`Table.concat` has them.
    """
    first = tables[0]
    rest = [t for t in tables[1:] if t.num_rows]
    cols = first.columns()
    if not cols:
        raise WireFormatError("cannot encode a table with no columns")
    for t in rest:
        if set(t.column_names) != set(cols):
            raise WireFormatError(
                f"column mismatch: {sorted(cols)} against {sorted(t.column_names)}"
            )
    nrows = first.num_rows + sum(t.num_rows for t in rest)

    name_b = name.encode()
    parts: list = [
        _HEAD.pack(WIRE_MAGIC, WIRE_VERSION),
        _U16.pack(len(name_b)),
        name_b,
        _COUNTS.pack(len(cols), nrows),
    ]
    codes: list[int] = []
    for col_name, arr in cols.items():
        code = _dtype_code(col_name, arr)
        codes.append(code)
        cname = col_name.encode()
        parts += (_U16.pack(len(cname)), cname, _CODE_BYTES[code])

    for code, (col_name, base) in zip(codes, cols.items()):
        arrays = [base]
        for t in rest:
            arr = t.column(col_name)
            arrays.append(arr.astype(object if code == _DTYPE_STRING else base.dtype, copy=False))
        if code == _DTYPE_INT64:
            parts += [np.ascontiguousarray(arr, dtype=_I8).data for arr in arrays]
        elif code == _DTYPE_FLOAT64:
            parts += [np.ascontiguousarray(arr, dtype=_F8).data for arr in arrays]
        elif code == _DTYPE_BOOL:
            # bool is 1 byte; reinterpret in place instead of astype-copying.
            parts += [np.ascontiguousarray(arr).view(np.uint8).data for arr in arrays]
        else:  # string: u32 lengths, then the concatenated utf-8 blob
            encoded = [str(v).encode() for arr in arrays for v in arr]
            lengths = np.fromiter(
                (len(b) for b in encoded), dtype="<u4", count=len(encoded)
            )
            parts.append(lengths.data)
            parts.append(b"".join(encoded))
    return parts


def encode_table(table: Table, name: str | None = None) -> bytes:
    """Serialize ``table`` to wire bytes (the worker's half).

    One gather-copy total: ``join`` concatenates the zero-copy parts
    from :func:`encode_table_parts` into the response payload.
    """
    return b"".join(encode_table_parts(table, name))


class _Reader:
    """Bounds-checked cursor over the payload bytes.

    ``take`` hands out zero-copy slices of a memoryview for the column
    payloads; header fields are unpacked in place at the cursor.
    """

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.size = len(self.data)
        self.pos = 0

    def skip(self, n: int) -> int:
        """The offset of the next ``n`` bytes, which the cursor moves past."""
        pos = self.pos
        if pos + n > self.size:
            raise WireFormatError(
                f"truncated payload: need {n} bytes at offset {pos}, "
                f"have {self.size - pos}"
            )
        self.pos = pos + n
        return pos

    def take(self, n: int) -> memoryview:
        pos = self.skip(n)
        return self.data[pos : pos + n]

    def unpack(self, fields: struct.Struct) -> tuple:
        return fields.unpack_from(self.data, self.skip(fields.size))

    def text(self) -> str:
        """A u16 length, then that many utf-8 bytes."""
        (n,) = _U16.unpack_from(self.data, self.skip(2))
        pos = self.skip(n)
        return str(self.data[pos : pos + n], "utf-8")


def decode_table(data: bytes, copy: bool = True) -> Table:
    """Decode wire bytes back into a Table (the czar's half).

    With ``copy=True`` (default) every column is a fresh writable
    array.  With ``copy=False`` fixed-width columns are *read-only*
    ``np.frombuffer`` views over ``data`` -- the zero-copy merge path:
    the czar validates and concatenates straight out of the response
    buffer, and only the concatenation allocates.  Callers that mutate
    decoded columns must use ``copy=True``.

    Raises :class:`WireFormatError` on a bad magic, unknown version, or
    any truncation/corruption the bounds checks can catch.
    """
    r = _Reader(data)
    magic, version = r.unpack(_HEAD)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r} (not a wire payload)")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    name = r.text()
    (ncols,) = r.unpack(_U16)
    if ncols == 0:
        raise WireFormatError("payload declares zero columns")
    (nrows,) = r.unpack(_U64)

    schema: list[tuple[str, int]] = []
    for _ in range(ncols):
        col_name = r.text()
        code = r.data[r.skip(1)]
        if code not in (_DTYPE_INT64, _DTYPE_FLOAT64, _DTYPE_BOOL, _DTYPE_STRING):
            raise WireFormatError(f"column {col_name!r} has unknown dtype code {code}")
        schema.append((col_name, code))

    cols: dict[str, np.ndarray] = {}
    for col_name, code in schema:
        # copy=True: .astype() always copies here -- frombuffer views
        # are read-only and callers that mutate need writable arrays.
        if code == _DTYPE_INT64:
            view = np.frombuffer(r.data, _I8, nrows, r.skip(nrows * 8))
            cols[col_name] = view.astype(np.int64) if copy else view
        elif code == _DTYPE_FLOAT64:
            view = np.frombuffer(r.data, _F8, nrows, r.skip(nrows * 8))
            cols[col_name] = view.astype(np.float64) if copy else view
        elif code == _DTYPE_BOOL:
            raw = np.frombuffer(r.data, np.uint8, nrows, r.skip(nrows))
            if raw.size and raw.max() > 1:
                raise WireFormatError(f"column {col_name!r} has non-boolean bytes")
            cols[col_name] = raw.astype(bool) if copy else raw.view(np.bool_)
        else:
            lengths = np.frombuffer(r.take(nrows * 4), dtype="<u4")
            blob = r.take(int(lengths.sum()))
            out = np.empty(nrows, dtype=object)
            offset = 0
            for i, ln in enumerate(lengths):
                ln = int(ln)
                out[i] = bytes(blob[offset : offset + ln]).decode()
                offset += ln
            cols[col_name] = out
    if r.pos != len(data):
        raise WireFormatError(
            f"{len(data) - r.pos} trailing bytes after payload"
        )
    return Table(name, cols)
