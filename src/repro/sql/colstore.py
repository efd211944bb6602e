"""mmap-backed on-disk column store.

The paper's workers host chunk tables far larger than RAM and lean on
MySQL/MyISAM to page data in on demand.  This module is the repro's
equivalent: each table's columns are persisted as raw little-endian
files under a per-worker data directory, opened lazily as read-only
``np.memmap`` views, and accounted against a configurable
resident-memory budget with LRU eviction.  A worker can therefore
serve a dataset whose on-disk size far exceeds the budget -- the OS
pages column bytes in as scans touch them, and the budget bounds how
many column mappings the store keeps alive at once.

On-disk layout, one directory per table::

    <root>/<table>/manifest.json        name, row count, column specs
    <root>/<table>/<column>.bin         fixed-width columns, raw bytes
                                        (<i8 / <f8 / u8-bool -- the
                                        same layout as the wire format)
    <root>/<table>/<column>.len         string columns: u32 byte
    <root>/<table>/<column>.blob        lengths + concatenated utf-8
                                        (two files so appends are pure
                                        file appends on both)

Ingest appends straight to the column files (amortized by the OS page
cache) instead of concatenating arrays in RAM, so loading a chunk
never needs 2x its size in memory.  String columns cannot be mmapped
as object arrays; they are decoded to RAM on first access and charged
against the budget like everything else.

Eviction drops the store's *reference* to a mapping; NumPy refcounting
keeps any array a running query still holds alive until that query
finishes, so eviction can never invalidate in-flight results.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..analysis.sanitizer import make_lock
from ..obs import metrics as obs_metrics
from .table import Table

__all__ = [
    "ColumnStore",
    "ColumnStoreError",
    "MmapTable",
    "ResidencyBudget",
    "DEFAULT_BUDGET_BYTES",
]

DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024

# dtype tag in the manifest -> (numpy dtype, bytes per value); strings
# are variable-width and handled separately.
_FIXED_DTYPES = {
    "int64": (np.dtype("<i8"), 8),
    "float64": (np.dtype("<f8"), 8),
    "bool": (np.dtype(np.uint8), 1),
}


class ColumnStoreError(RuntimeError):
    """A table or column file is missing or inconsistent."""


def _dtype_tag(name: str, arr: np.ndarray) -> str:
    if arr.dtype == object:
        return "str"
    if np.issubdtype(arr.dtype, np.bool_):
        return "bool"
    if np.issubdtype(arr.dtype, np.integer):
        return "int64"
    if np.issubdtype(arr.dtype, np.floating):
        return "float64"
    raise ColumnStoreError(f"column {name!r} has unsupported dtype {arr.dtype}")


def _to_disk(arr: np.ndarray, tag: str) -> np.ndarray:
    if tag == "int64":
        return np.ascontiguousarray(arr, dtype="<i8")
    if tag == "float64":
        return np.ascontiguousarray(arr, dtype="<f8")
    # bool: 1 byte each, stored as 0/1 uint8
    return np.ascontiguousarray(arr, dtype=bool).view(np.uint8)


class ResidencyBudget:
    """LRU accounting of mapped/loaded column bytes.

    ``fetch(key, loader)`` returns the cached array for ``key`` or calls
    ``loader()`` (which must return the array) and caches it.  When the
    total charged bytes exceed ``max_bytes``, least-recently-used
    entries are dropped -- the newest entry always stays resident even
    if it alone exceeds the budget, since the caller is about to scan
    it.  Shared by all tables of a store (and may be shared wider, e.g.
    one budget per worker process).
    """

    def __init__(self, max_bytes: int | None = None):
        if max_bytes is None:
            max_bytes = int(
                os.environ.get("REPRO_COLSTORE_BUDGET", DEFAULT_BUDGET_BYTES)
            )
        self.max_bytes = max_bytes
        self._lock = make_lock("ResidencyBudget._lock")
        self._entries: OrderedDict[tuple, tuple[np.ndarray, int]] = OrderedDict()
        self._resident = 0

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident

    def fetch(self, key: tuple, loader) -> np.ndarray:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                obs_metrics.counter("colstore.map.hits").add(1)
                return entry[0]
        # Load outside the lock: mapping a file can fault in pages.
        arr = loader()
        nbytes = int(arr.nbytes)
        evicted = 0
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # lost a race; keep the first mapping
                self._entries.move_to_end(key)
                obs_metrics.counter("colstore.map.hits").add(1)
                return entry[0]
            self._entries[key] = (arr, nbytes)
            self._resident += nbytes
            while self._resident > self.max_bytes and len(self._entries) > 1:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._resident -= dropped
                evicted += 1
            resident = self._resident
        obs_metrics.counter("colstore.maps.opened").add(1)
        if evicted:
            obs_metrics.counter("colstore.evictions").add(evicted)
        obs_metrics.gauge("colstore.resident.bytes").set(resident)
        return arr

    def invalidate(self, prefix: tuple) -> None:
        """Drop every entry whose key starts with ``prefix`` (table grew)."""
        with self._lock:
            stale = [k for k in self._entries if k[: len(prefix)] == prefix]
            for k in stale:
                _, nbytes = self._entries.pop(k)
                self._resident -= nbytes
            resident = self._resident
        obs_metrics.gauge("colstore.resident.bytes").set(resident)


class ColumnStore:
    """Persist tables as per-column files under one data directory."""

    def __init__(self, root: str | Path, budget: ResidencyBudget | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.budget = budget if budget is not None else ResidencyBudget()
        self._lock = make_lock("ColumnStore._lock")

    # -- layout ---------------------------------------------------------------

    def _dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ColumnStoreError(f"invalid table name {name!r}")
        return self.root / name

    def _manifest_path(self, name: str) -> Path:
        return self._dir(name) / "manifest.json"

    def _col_paths(self, name: str, col: str, tag: str) -> list[Path]:
        if tag == "str":
            return [self._dir(name) / f"{col}.len", self._dir(name) / f"{col}.blob"]
        return [self._dir(name) / f"{col}.bin"]

    def _read_manifest(self, name: str) -> dict:
        path = self._manifest_path(name)
        try:
            with open(path, encoding="utf-8") as f:
                return json.load(f)
        except FileNotFoundError:
            raise ColumnStoreError(f"no stored table {name!r} under {self.root}") from None

    def _write_manifest(self, name: str, manifest: dict) -> None:
        path = self._manifest_path(name)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(manifest, f)
        os.replace(tmp, path)

    # -- catalog --------------------------------------------------------------

    def tables(self) -> list[str]:
        return sorted(
            p.name for p in self.root.iterdir() if (p / "manifest.json").exists()
        )

    def exists(self, name: str) -> bool:
        return self._manifest_path(name).exists()

    def drop(self, name: str) -> None:
        d = self._dir(name)
        if not d.exists():
            return
        for p in d.iterdir():
            p.unlink()
        d.rmdir()

    def on_disk_bytes(self, name: str) -> int:
        """Total size of the table's column files (excludes the manifest)."""
        manifest = self._read_manifest(name)
        total = 0
        for spec in manifest["columns"]:
            for path in self._col_paths(name, spec["name"], spec["dtype"]):
                total += path.stat().st_size
        return total

    # -- write path -----------------------------------------------------------

    def save_table(self, table: Table, name: str | None = None) -> "MmapTable":
        """Persist ``table`` (replacing any prior version) and return the
        mmap-backed handle over the stored data."""
        name = name or table.name
        with self._lock:
            self.drop(name)
            self._dir(name).mkdir(parents=True, exist_ok=True)
            specs = []
            for col_name, arr in table.columns().items():
                tag = _dtype_tag(col_name, arr)
                self._write_column(name, col_name, tag, arr, append=False)
                specs.append({"name": col_name, "dtype": tag})
            manifest = {"name": name, "nrows": table.num_rows, "columns": specs}
            self._write_manifest(name, manifest)
        self.budget.invalidate((str(self.root), name))
        return self.load_table(name)

    def append_rows(self, name: str, data: dict[str, np.ndarray]) -> None:
        """Append a batch to a stored table, writing straight to disk.

        This is the ingest path: column files are opened in append mode
        and the batch streams out without materializing old + new in
        RAM.  Open mappings of the old extent remain valid; cached
        entries for this table are invalidated so the next access remaps
        the grown files.
        """
        with self._lock:
            manifest = self._read_manifest(name)
            specs = {s["name"]: s["dtype"] for s in manifest["columns"]}
            if set(data) != set(specs):
                raise ColumnStoreError(
                    f"column mismatch: stored table has {sorted(specs)}, "
                    f"batch has {sorted(data)}"
                )
            lengths = {len(np.asarray(v)) for v in data.values()}
            if len(lengths) > 1:
                raise ColumnStoreError(f"ragged batch: lengths {sorted(lengths)}")
            extra = lengths.pop() if lengths else 0
            if extra == 0:
                return
            for col_name, tag in specs.items():
                self._write_column(
                    name, col_name, tag, np.asarray(data[col_name]), append=True
                )
            manifest["nrows"] += extra
            self._write_manifest(name, manifest)
        self.budget.invalidate((str(self.root), name))

    def _write_column(
        self, name: str, col: str, tag: str, arr: np.ndarray, append: bool
    ) -> None:
        paths = self._col_paths(name, col, tag)
        mode = "ab" if append else "wb"
        if tag == "str":
            encoded = [str(v).encode() for v in arr]
            lengths = np.fromiter(
                (len(b) for b in encoded), dtype="<u4", count=len(encoded)
            )
            with open(paths[0], mode) as f:
                f.write(lengths.tobytes())
            with open(paths[1], mode) as f:
                f.write(b"".join(encoded))
        else:
            with open(paths[0], mode) as f:
                f.write(_to_disk(arr, tag).tobytes())

    # -- read path ------------------------------------------------------------

    def load_table(self, name: str) -> "MmapTable":
        manifest = self._read_manifest(name)
        return MmapTable(self, manifest)

    def map_column(self, table: str, col: str, tag: str, nrows: int) -> np.ndarray:
        """The column as a read-only array, via the residency budget."""
        key = (str(self.root), table, col)
        return self.budget.fetch(
            key, lambda: self._open_column(table, col, tag, nrows)
        )

    def _open_column(self, table: str, col: str, tag: str, nrows: int) -> np.ndarray:
        paths = self._col_paths(table, col, tag)
        if tag == "str":
            # Object arrays cannot be mmapped; decode to RAM (charged
            # against the budget by the caller).
            lengths = np.fromfile(paths[0], dtype="<u4", count=nrows)
            with open(paths[1], "rb") as f:
                blob = f.read(int(lengths.sum()))
            out = np.empty(nrows, dtype=object)
            offset = 0
            for i, ln in enumerate(lengths):
                ln = int(ln)
                out[i] = blob[offset : offset + ln].decode()
                offset += ln
            return out
        path = paths[0]
        dtype, width = _FIXED_DTYPES[tag]
        if path.stat().st_size < nrows * width:
            raise ColumnStoreError(
                f"column file {path} shorter than manifest nrows={nrows}"
            )
        mapped = np.memmap(path, dtype=dtype, mode="r", shape=(nrows,))
        if tag == "bool":
            return mapped.view(np.bool_)
        return mapped


class MmapTable(Table):
    """A read-only Table whose columns live on disk until scanned.

    Column access routes through the store's residency budget and
    returns read-only memmap views (strings: RAM-decoded object
    arrays).  ``append_rows`` streams to disk via the store instead of
    growing RAM buffers; every derived Table operation (selection,
    packing, concat) works unchanged because the base class only uses
    the primitives overridden here.
    """

    def __init__(self, store: ColumnStore, manifest: dict):
        super().__init__(manifest["name"])
        self._store = store
        self._nrows = int(manifest["nrows"])
        self._specs: dict[str, str] = {
            s["name"]: s["dtype"] for s in manifest["columns"]
        }

    # -- shape ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._nrows

    @property
    def column_names(self) -> list[str]:
        return list(self._specs)

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        try:
            tag = self._specs[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in table {self.name!r} "
                f"(have {self.column_names})"
            ) from None
        return self._store.map_column(self.name, name, tag, self._nrows)

    def columns(self) -> dict[str, np.ndarray]:
        return {n: self.column(n) for n in self._specs}

    def _compute_signature(self) -> tuple[tuple[str, str], ...]:
        # From the manifest -- no need to touch (or map) any data file.
        # Appends stream to the same column files, so the memo in
        # Table.signature() stays valid for the handle's lifetime.
        sql_types = {"int64": "BIGINT", "float64": "DOUBLE", "bool": "BOOL", "str": "TEXT"}
        return tuple((n, sql_types[t]) for n, t in self._specs.items())

    # -- mutation -------------------------------------------------------------

    def append_rows(self, data: dict[str, np.ndarray]) -> None:
        """Ingest path: stream the batch to the column files on disk."""
        self._store.append_rows(self.name, data)
        self._nrows = int(self._store._read_manifest(self.name)["nrows"])

    def __repr__(self):
        return (
            f"MmapTable({self.name!r}, rows={self.num_rows}, "
            f"cols={self.column_names}, root={str(self._store.root)!r})"
        )
