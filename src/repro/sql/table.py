"""Column-store tables backed by NumPy arrays.

Per the hpc-parallel guides, the storage layout is column-major: each
column is one contiguous NumPy array, predicates evaluate as vectorized
masks, and row selection produces new column views/copies via fancy
indexing -- never Python-level row loops.  This mirrors why the paper
eyes columnar engines (section 7.4) even while shipping on MySQL.

Supported SQL types and their NumPy mappings:

==============  ==================
SQL              NumPy
==============  ==================
TINYINT..BIGINT  int64
FLOAT/DOUBLE     float64
BOOL/BOOLEAN     bool
CHAR/VARCHAR/TEXT str (object array)
==============  ==================

NULL handling follows the engine's needs: float columns use NaN as
NULL; other types are non-nullable (the LSST catalog schemas the paper
queries are fully populated for the tested columns).

Ingest is amortized-linear: :meth:`Table.append_rows` over-allocates
with capacity doubling and tracks a logical row count, so bulk loading
N rows in B batches costs O(N) copies total instead of the O(N*B) of
re-concatenating every batch.  Accessors hand out trimmed views of the
capacity buffers -- writable and write-through, but only ``num_rows``
long.

All derived operations (row access, selection, packing) go through the
public primitives ``column()`` / ``columns()`` / ``num_rows`` so that
storage subclasses (the mmap-backed tables in :mod:`repro.sql.colstore`,
the :class:`RowView` below) only need to override those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Column", "Table", "RowView", "sql_type_to_dtype", "dtype_to_sql_type"]

_INT_TYPES = {"TINYINT", "SMALLINT", "MEDIUMINT", "INT", "INTEGER", "BIGINT"}
_FLOAT_TYPES = {"FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC"}
_STR_TYPES = {"CHAR", "VARCHAR", "TEXT", "TINYTEXT", "MEDIUMTEXT", "LONGTEXT"}
_BOOL_TYPES = {"BOOL", "BOOLEAN", "BIT"}


def sql_type_to_dtype(type_name: str) -> np.dtype:
    """Map an SQL type name (possibly with a width) to a NumPy dtype."""
    base = type_name.upper().split("(")[0].strip()
    if base in _INT_TYPES:
        return np.dtype(np.int64)
    if base in _FLOAT_TYPES:
        return np.dtype(np.float64)
    if base in _BOOL_TYPES:
        return np.dtype(bool)
    if base in _STR_TYPES:
        return np.dtype(object)
    raise ValueError(f"unsupported SQL type {type_name!r}")


def dtype_to_sql_type(dtype: np.dtype) -> str:
    """Inverse mapping used when dumping result tables."""
    kind = np.dtype(dtype).kind
    if kind == "b":
        return "BOOL"
    if kind in "iu":
        return "BIGINT"
    if kind == "f":
        return "DOUBLE"
    return "TEXT"


@dataclass(frozen=True)
class Column:
    """Schema entry: a column name and its SQL type."""

    name: str
    type_name: str

    @property
    def dtype(self) -> np.dtype:
        return sql_type_to_dtype(self.type_name)


class Table:
    """An ordered collection of equally-long named NumPy columns."""

    def __init__(self, name: str, columns: dict[str, np.ndarray] | None = None):
        self.name = name
        # Capacity buffers; the first self._length entries of each are live.
        self._columns: dict[str, np.ndarray] = {}
        self._length = 0
        # Memo for signature(): names and dtypes are fixed at
        # construction (append_rows casts batches to the existing
        # dtypes), so nothing ever has to invalidate it.
        self._signature: tuple[tuple[str, str], ...] | None = None
        if columns:
            length = None
            for col_name, arr in columns.items():
                arr = np.asarray(arr)
                if arr.ndim != 1:
                    raise ValueError(f"column {col_name!r} must be 1-D")
                if length is None:
                    length = len(arr)
                elif len(arr) != length:
                    raise ValueError(
                        f"column {col_name!r} has length {len(arr)}, expected {length}"
                    )
                self._columns[col_name] = arr
            self._length = length or 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_schema(cls, name: str, schema: list[Column]) -> "Table":
        """An empty table with typed zero-length columns."""
        cols = {c.name: np.empty(0, dtype=c.dtype) for c in schema}
        return cls(name, cols)

    # -- shape ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, column: str) -> bool:
        return column in self.column_names

    # -- access ------------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """One column as a writable, write-through array of ``num_rows``.

        When the capacity buffer is exactly full this is the buffer
        itself (zero cost); otherwise a trimmed basic-slice view.
        """
        try:
            arr = self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in table {self.name!r} "
                f"(have {self.column_names})"
            ) from None
        if len(arr) != self._length:
            return arr[: self._length]
        return arr

    def columns(self) -> dict[str, np.ndarray]:
        """Column dict of trimmed views (treat membership as read-only)."""
        return {n: self.column(n) for n in self._columns}

    def signature(self) -> tuple[tuple[str, str], ...]:
        """``((column name, SQL type), ...)``, computed once per table.

        This is the schema half of the kernel-cache key, looked up for
        every statement, so it must not rebuild ``Column`` objects.
        """
        sig = self._signature
        if sig is None:
            sig = self._signature = self._compute_signature()
        return sig

    def _compute_signature(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (n, dtype_to_sql_type(a.dtype)) for n, a in self._columns.items()
        )

    def schema(self) -> list[Column]:
        return [Column(n, t) for n, t in self.signature()]

    def row(self, i: int) -> tuple:
        """A single row as a tuple (slow path; for tests and display)."""
        return tuple(self.column(n)[i] for n in self.column_names)

    def rows(self) -> list[tuple]:
        """All rows as tuples (slow path; for tests and display)."""
        cols = list(self.columns().values())
        return list(zip(*cols)) if cols else []

    # -- mutation -------------------------------------------------------------------

    def append_rows(self, data: dict[str, np.ndarray]) -> None:
        """Append a batch of rows given as a column dict.

        Amortized O(batch): capacity buffers double when full, so a
        bulk load of many batches never re-copies the whole table per
        batch.
        """
        if set(data) != set(self._columns):
            raise ValueError(
                f"column mismatch: table has {sorted(self._columns)}, "
                f"batch has {sorted(data)}"
            )
        lengths = {len(np.asarray(v)) for v in data.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged batch: lengths {sorted(lengths)}")
        extra = lengths.pop() if lengths else 0
        if extra == 0:
            return
        n = self._length
        needed = n + extra
        for name in self._columns:
            incoming = np.asarray(data[name])
            existing = self._columns[name]
            if existing.dtype == object:
                incoming = incoming.astype(object)
            else:
                incoming = incoming.astype(existing.dtype, copy=False)
            if needed > len(existing):
                grown = np.empty(
                    max(needed, 2 * len(existing)), dtype=existing.dtype
                )
                grown[:n] = existing[:n]
                self._columns[name] = existing = grown
            existing[n:needed] = incoming
        self._length = needed

    @classmethod
    def concat(cls, name: str, tables: list["Table"]) -> "Table":
        """One table holding all rows of ``tables``, single-pass.

        Each column is built with one :func:`numpy.concatenate` over all
        inputs instead of repeated :meth:`append_rows` reallocation --
        the merge-side half of the binary result transport.  Column
        order and dtypes follow the first table; later tables must have
        the same column set (empty ones may differ and are skipped,
        matching the old per-chunk merge behaviour).

        Inputs may be zero-copy wire views (read-only): concatenation
        always produces fresh writable arrays.
        """
        if not tables:
            raise ValueError("concat needs at least one table")
        first = tables[0]
        rest = [t for t in tables[1:] if t.num_rows]
        if not rest:
            return cls(name, dict(first.columns()))
        names = first.column_names
        for t in rest:
            if set(t.column_names) != set(names):
                raise ValueError(
                    f"column mismatch: table has {sorted(names)}, "
                    f"batch has {sorted(t.column_names)}"
                )
        cols: dict[str, np.ndarray] = {}
        for col_name in names:
            base = first.column(col_name)
            parts = [base]
            for t in rest:
                arr = t.column(col_name)
                if base.dtype == object:
                    arr = arr.astype(object)
                else:
                    arr = arr.astype(base.dtype, copy=False)
                parts.append(arr)
            cols[col_name] = np.concatenate(parts)
        return cls(name, cols)

    # -- bulk operations ---------------------------------------------------------------

    def select_rows(self, selector) -> "Table":
        """A new table with rows chosen by a boolean mask or index array."""
        cols = {n: a[selector] for n, a in self.columns().items()}
        return Table(self.name, cols)

    def select_columns(self, names: list[str]) -> "Table":
        cols = {n: self.column(n) for n in names}
        return Table(self.name, cols)

    def rename(self, name: str) -> "Table":
        """Same data under a different table name (columns shared, not copied)."""
        return Table(name, self.columns())

    def copy(self) -> "Table":
        return Table(self.name, {n: a.copy() for n, a in self.columns().items()})

    def to_row_store(self) -> np.ndarray:
        """The same data as one C-contiguous structured array (row-major).

        This is the MyISAM-like layout the paper's workers use; the
        section 7.4 ablation compares predicate evaluation over this
        against the column layout.  Object (string) columns cannot be
        packed and are rejected.
        """
        cols = self.columns()
        fields = []
        for name, arr in cols.items():
            if arr.dtype == object:
                raise ValueError(
                    f"column {name!r} has object dtype; row-store packing "
                    "requires fixed-width columns"
                )
            fields.append((name, arr.dtype))
        out = np.empty(self.num_rows, dtype=np.dtype(fields))
        for name, arr in cols.items():
            out[name] = arr
        return out

    @classmethod
    def from_row_store(cls, name: str, rows: np.ndarray) -> "Table":
        """Unpack a structured array back into contiguous columns."""
        if rows.dtype.names is None:
            raise ValueError("expected a structured array")
        cols = {f: np.ascontiguousarray(rows[f]) for f in rows.dtype.names}
        return cls(name, cols)

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the live column data."""
        total = 0
        for arr in self.columns().values():
            if arr.dtype == object:
                total += sum(len(str(v)) for v in arr) + 8 * len(arr)
            else:
                total += arr.nbytes
        return total

    def __repr__(self):
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.column_names})"


class RowView(Table):
    """Some rows of another table under a name of their own, gathered lazily.

    What ``parent.select_rows(rows)`` would hold, except that a column
    is cut from the parent the first time it is read and kept from then
    on -- building the view costs nothing per column, so a statement
    that reads 2 of 13 columns gathers 2.  The schema (and so the
    kernel-cache signature) is the parent's.  The view holds the parent
    *object*: it keeps answering with the rows it was cut from when the
    database replaces or drops the table of that name.
    """

    def __init__(self, name: str, parent: Table, rows: np.ndarray):
        super().__init__(name)
        self._parent = parent
        self._rows = rows
        self._names = parent.column_names

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def column_names(self) -> list[str]:
        return list(self._names)

    def column(self, name: str) -> np.ndarray:
        arr = self._columns.get(name)
        if arr is None:
            try:
                source = self._parent.column(name)
            except KeyError:
                raise KeyError(
                    f"no column {name!r} in table {self.name!r} "
                    f"(have {self.column_names})"
                ) from None
            # Two threads may both gather; they store equal arrays.
            arr = self._columns[name] = source[self._rows]
        return arr

    def columns(self) -> dict[str, np.ndarray]:
        return {n: self.column(n) for n in self._names}

    def signature(self) -> tuple[tuple[str, str], ...]:
        return self._parent.signature()

    def append_rows(self, data: dict[str, np.ndarray]) -> None:
        raise TypeError(f"{self.name!r} is a read-only view of {self._parent.name!r}")

    def __repr__(self):
        return (
            f"RowView({self.name!r}, rows={self.num_rows} of "
            f"{self._parent.name!r}, cols={self.column_names})"
        )
