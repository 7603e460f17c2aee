"""Binary columnar container: mmap-able numpy column blobs.

The ``.npt`` layout backs the v3 trace schema and the on-disk plan
store.  A file is::

    bytes 0..7    magic ``b"REPRONPT"``
    bytes 8..15   header length (unsigned little-endian 64-bit)
    header        UTF-8 JSON: ``{"schema", "meta", "columns": [...]}``
    padding       zeros up to the next 64-byte boundary
    data          raw column blobs, each 64-byte aligned

Each column descriptor records ``name``, ``dtype`` (a numpy dtype
string), ``shape``, ``offset`` (relative to the start of the data
section), and ``nbytes``.  A cold load is therefore one ``mmap`` plus a
dtype view per column — no row parsing, no copies — and concurrent
readers of one file share page cache instead of private parsed copies.
Blobs are written in C order, so every view is contiguous.

``meta`` carries the caller's small JSON payload (scalar fields, string
tables); anything large belongs in a column.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import StorageError, TraceError

__all__ = [
    "CORRUPT_ERRORS",
    "MAGIC",
    "ColumnStore",
    "is_npt",
    "quarantine",
    "write_columns",
]

MAGIC = b"REPRONPT"

#: Blob alignment: one cache line, and a multiple of every numpy
#: itemsize we store, so views never straddle element boundaries.
_ALIGN = 64

_PREFIX = struct.Struct("<Q")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def write_columns(
    path: str | Path,
    schema: str,
    meta: dict[str, Any],
    columns: Sequence[tuple[str, np.ndarray]],
) -> None:
    """Write named arrays (plus ``meta``) as one ``.npt`` container.

    Not atomic: callers that publish into shared directories stage to a
    temp name and ``os.replace`` (the trace cache and plan store do).
    """
    arrays = [(name, np.ascontiguousarray(array)) for name, array in columns]
    descriptors = []
    offset = 0
    for name, array in arrays:
        offset = _aligned(offset)
        descriptors.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            }
        )
        offset += int(array.nbytes)
    header = json.dumps(
        {"schema": schema, "meta": meta, "columns": descriptors},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    data_start = _aligned(len(MAGIC) + _PREFIX.size + len(header))

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(_PREFIX.pack(len(header)))
        handle.write(header)
        position = len(MAGIC) + _PREFIX.size + len(header)
        handle.write(b"\x00" * (data_start - position))
        position = data_start
        for descriptor, (_, array) in zip(descriptors, arrays):
            blob_start = data_start + descriptor["offset"]
            handle.write(b"\x00" * (blob_start - position))
            handle.write(array.tobytes())
            position = blob_start + descriptor["nbytes"]


#: What loading a torn, emptied or foreign artefact raises: the
#: container's own checks, a schema mismatch, or a header that lacks or
#: mistypes the fields a loader reads.
CORRUPT_ERRORS = (StorageError, TraceError, KeyError, ValueError, TypeError)


def quarantine(path: Path) -> None:
    """Set a malformed artefact aside as ``{name}.corrupt``.

    Callers hold the artefact's per-key file lock, so the rename cannot
    race a writer publishing the same key.
    """
    os.replace(path, path.with_name(f"{path.name}.corrupt"))


def is_npt(path: str | Path) -> bool:
    """Whether ``path`` starts with the ``.npt`` magic bytes."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


class ColumnStore:
    """A read-only mmap view over one ``.npt`` container.

    Columns come back as zero-copy :func:`numpy.frombuffer` views that
    pin the mapping through their ``.base`` chain, so a column (and any
    frame built over it) stays valid after the store goes out of scope
    — and, on POSIX, even after the backing file is unlinked.
    """

    __slots__ = ("path", "schema", "meta", "nbytes", "_mmap", "_columns", "_data_start")

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with self.path.open("rb") as handle:
            try:
                self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                raise StorageError(f"{self.path}: empty file is not a column container") from None
        self.nbytes = len(self._mmap)
        prefix_end = len(MAGIC) + _PREFIX.size
        if self.nbytes < prefix_end or self._mmap[: len(MAGIC)] != MAGIC:
            raise StorageError(f"{self.path}: not a column container (bad magic)")
        (header_nbytes,) = _PREFIX.unpack_from(self._mmap, len(MAGIC))
        if prefix_end + header_nbytes > self.nbytes:
            raise StorageError(f"{self.path}: truncated header")
        try:
            header = json.loads(self._mmap[prefix_end : prefix_end + header_nbytes])
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"{self.path}: malformed header: {exc}") from None
        self.schema = header.get("schema")
        self.meta = header.get("meta", {})
        self._columns = {descriptor["name"]: descriptor for descriptor in header["columns"]}
        self._data_start = _aligned(prefix_end + header_nbytes)
        for descriptor in self._columns.values():
            end = self._data_start + descriptor["offset"] + descriptor["nbytes"]
            if end > self.nbytes:
                raise StorageError(
                    f"{self.path}: column {descriptor['name']!r} extends past end of file"
                )

    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> np.ndarray:
        """The named column as a zero-copy, read-only view."""
        descriptor = self._columns.get(name)
        if descriptor is None:
            raise StorageError(f"{self.path}: no column {name!r}")
        dtype = np.dtype(descriptor["dtype"])
        shape = tuple(descriptor["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        view = np.frombuffer(
            self._mmap,
            dtype=dtype,
            count=count,
            offset=self._data_start + descriptor["offset"],
        )
        return view.reshape(shape)

    def __repr__(self) -> str:
        return f"ColumnStore({str(self.path)!r}, schema={self.schema!r}, nbytes={self.nbytes})"
