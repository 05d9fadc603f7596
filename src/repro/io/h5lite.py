"""``h5lite``: a minimal hierarchical array container.

This module stands in for HDF5 (the paper's input format) in an environment
without ``h5py``.  It supports the subset of the HDF5 data model the
reconstruction pipeline relies on:

* a tree of named **groups**;
* n-dimensional **datasets** of any NumPy dtype, stored contiguously or
  **chunked along the leading axis** so that a few detector rows/images can
  be read without loading the whole cube;
* JSON-serialisable **attributes** on groups and datasets, including an
  eagerly-validated JSON-attrs block (``set_json_attr``/``get_json_attr``)
  for nested documents such as run-provenance records;
* partial reads (``dataset[i:j]``) that only touch the required chunks.

Every read lands in place: the reader allocates the output array once and
``readinto``-s each chunk block or window row straight into its slice of it,
through an unbuffered handle.  Every read also checks its byte count, so a
file shorter than its header says raises :class:`H5LiteError` naming the
file, the offset and both byte counts, never a reshape error or an array
holding bytes the file never had.

File layout::

    bytes 0..7     magic  b"H5LITE01"
    bytes 8..15    little-endian uint64: header length H
    bytes 16..16+H JSON header describing the tree and every data block
    remainder      raw little-endian array bytes, one block per chunk

The JSON header stores, for every dataset chunk, its byte offset relative to
the start of the data section, so readers can seek directly to any chunk.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "H5LiteError",
    "Dataset",
    "Group",
    "H5LiteFile",
    "json_normalize",
    "header_digest",
]

_MAGIC = b"H5LITE01"


def header_digest(path) -> str:
    """SHA-256 over the magic, header length and JSON header bytes of *path*.

    The header describes the whole tree — shapes, dtypes, chunking, every
    attribute — so any structural or metadata change moves this digest while
    the (potentially huge) data section is never read.  This is what source
    fingerprinting uses as the cheap content component of a cache key;
    pure data edits are caught by the size/mtime components instead.
    Raises :class:`H5LiteError` for missing or non-h5lite files.
    """
    try:
        with open(path, "rb") as fh:
            prefix, header_bytes = _read_header(fh, path)
    except H5LiteError:  # an OSError too: pass it on, not wrapped again
        raise
    except OSError as exc:
        raise H5LiteError(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256()
    digest.update(prefix)
    digest.update(header_bytes)
    return digest.hexdigest()


class H5LiteError(IOError):
    """Raised for malformed or truncated files, wrong modes, and invalid paths."""


def _read_header(fh, path) -> Tuple[bytes, bytes]:
    """Read the magic, header length and JSON header bytes from *fh*.

    Returns ``(magic + length bytes, header bytes)``.  The declared header
    length is checked against the size of the open file before it is read,
    so a bogus length is an :class:`H5LiteError` naming *path*, not a
    ``MemoryError`` or ``OverflowError`` from sizing the read.
    """
    magic = fh.read(8)
    if magic != _MAGIC:
        raise H5LiteError(f"{path} is not an h5lite file (bad magic {magic!r})")
    length_bytes = fh.read(8)
    if len(length_bytes) != 8:
        raise H5LiteError(f"truncated h5lite file {path} (no header length)")
    header_len = int(np.frombuffer(length_bytes, dtype=np.uint64)[0])
    available = os.fstat(fh.fileno()).st_size - fh.tell()
    if header_len > available:
        raise H5LiteError(
            f"truncated h5lite header in {path}: declares {header_len} bytes, "
            f"the file holds {available} after the header length"
        )
    header_bytes = fh.read(header_len)
    if len(header_bytes) != header_len:
        raise H5LiteError(
            f"truncated h5lite header in {path}: expected {header_len} bytes, "
            f"got {len(header_bytes)}"
        )
    return magic + length_bytes, header_bytes


def _byte_view(array: np.ndarray) -> memoryview:
    """The bytes of the C-contiguous *array*: a flat, writable view of its memory.

    ``memoryview(array).cast("B")`` would do for most arrays, but it raises
    on a zero-size array and cannot export every dtype (``datetime64``); a
    ``uint8`` view of the flattened array can.
    """
    return memoryview(array.reshape(-1).view(np.uint8))


def _header_attrs(node: Dict, path) -> Dict:
    """The ``attrs`` block of a header node, validated to be an object."""
    attrs = node.get("attrs", {})
    if not isinstance(attrs, dict):
        raise H5LiteError(f"corrupt h5lite header in {path}: malformed attrs")
    return attrs


def _normalize_path(path: str) -> List[str]:
    parts = [p for p in path.strip("/").split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise H5LiteError(f"invalid path component {part!r} in {path!r}")
    return parts


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"attribute value of type {type(obj).__name__} is not serialisable")


def json_normalize(value):
    """Normalize *value* into plain JSON types (dict/list/str/int/float/bool/None).

    Tuples become lists, NumPy scalars and arrays become Python numbers and
    lists — exactly the shape the value will have after a write/read cycle
    through the file header, so callers see the round-tripped form
    immediately.  Raises :class:`H5LiteError` for unserialisable values.
    """
    try:
        return json.loads(json.dumps(value, default=_json_default, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise H5LiteError(f"value is not JSON-serialisable: {exc}") from None


class _JsonAttrs:
    """Eagerly-validated JSON attributes, shared by groups and datasets.

    Plain ``attrs`` entries are only serialised when the file is written, so
    a bad value surfaces far from where it was assigned.  The JSON-attrs
    block validates and normalizes at *set* time (h5py attributes fail at
    assignment too) and hands back deep copies at *get* time, making
    arbitrarily nested provenance records safe first-class attributes.
    """

    attrs: Dict

    def set_json_attr(self, key: str, value) -> None:
        """Store a nested JSON document under attribute *key*, fail-fast.

        The value is normalized through a JSON round-trip immediately, so an
        unserialisable payload raises here — not at file close — and what is
        stored is bit-for-bit what a reader will see.
        """
        self.attrs[str(key)] = json_normalize(value)

    def get_json_attr(self, key: str, default=None):
        """A deep copy of the JSON attribute *key* (*default* when absent).

        Runs the same strict normalization as :meth:`set_json_attr`, so a
        value smuggled in through the plain ``attrs`` dict is held to the
        identical rule set on the way out.
        """
        if key not in self.attrs:
            return default
        return json_normalize(self.attrs[key])


class Dataset(_JsonAttrs):
    """A named n-dimensional array inside an :class:`H5LiteFile`."""

    def __init__(
        self,
        file: "H5LiteFile",
        name: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        chunk_rows: Optional[int],
        chunk_offsets: List[int],
        attrs: Dict,
        data: Optional[np.ndarray] = None,
    ):
        self._file = file
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.chunk_rows = int(chunk_rows) if chunk_rows else None
        self._chunk_offsets = list(chunk_offsets)
        self.attrs: Dict = dict(attrs)
        self._data = data  # only set while writing

    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of elements."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        """Total byte size of the dataset."""
        return self.size * self.dtype.itemsize

    def _row_bytes(self) -> int:
        if not self.shape:
            return self.dtype.itemsize
        per_row = int(np.prod(self.shape[1:], dtype=np.int64)) if len(self.shape) > 1 else 1
        return per_row * self.dtype.itemsize

    # ------------------------------------------------------------------ #
    def read(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Read rows ``start:stop`` along the leading axis (whole array by default)."""
        if self._data is not None:
            full = self._data
            if not self.shape:
                return full.copy()
            stop = self.shape[0] if stop is None else stop
            return full[start:stop].copy()
        return self._file._read_dataset(self, start, stop)

    def read_window(
        self,
        start: int = 0,
        stop: Optional[int] = None,
        sub_start: int = 0,
        sub_stop: Optional[int] = None,
    ) -> np.ndarray:
        """Read rows ``start:stop`` of the leading axis restricted to
        ``sub_start:sub_stop`` along the second axis.

        This is the windowed out-of-core read the streaming pipeline uses:
        for a ``(n_positions, n_rows, n_cols)`` image cube it returns the
        slab ``cube[start:stop, sub_start:sub_stop, :]`` while touching only
        the bytes of that window — each leading-axis row stores its second
        axis contiguously, so the window is one seek and one ``readinto``
        per leading row, straight into that row of the returned slab, never
        the whole cube.  A file that ends inside the window raises
        :class:`H5LiteError`.
        """
        if self.ndim < 2:
            raise H5LiteError("read_window requires a dataset with at least 2 dimensions")
        n_sub = self.shape[1]
        sub_stop = n_sub if sub_stop is None else min(int(sub_stop), n_sub)
        sub_start = max(0, int(sub_start))
        if sub_stop <= sub_start:
            stop_eff = (self.shape[0] if stop is None else min(int(stop), self.shape[0])) - max(0, int(start))
            return np.empty((max(stop_eff, 0), 0) + self.shape[2:], dtype=self.dtype)
        if sub_start == 0 and sub_stop == n_sub:
            return self.read(start, stop)
        if self._data is not None:
            stop = self.shape[0] if stop is None else stop
            return self._data[start:stop, sub_start:sub_stop].copy()
        return self._file._read_dataset_window(self, start, stop, sub_start, sub_stop)

    def __getitem__(self, key) -> np.ndarray:
        if key is Ellipsis:
            return self.read()
        if isinstance(key, tuple):
            if len(key) != 2 or not all(isinstance(k, slice) for k in key):
                raise H5LiteError(
                    "h5lite datasets only support 2-axis windows of the form [i:j, k:l]"
                )
            lead, sub = key
            if lead.step not in (None, 1) or sub.step not in (None, 1):
                raise H5LiteError("h5lite windows must be contiguous (step 1)")
            return self.read_window(
                0 if lead.start is None else int(lead.start),
                None if lead.stop is None else int(lead.stop),
                0 if sub.start is None else int(sub.start),
                None if sub.stop is None else int(sub.stop),
            )
        if isinstance(key, slice):
            if key.step not in (None, 1):
                raise H5LiteError("h5lite datasets only support contiguous slices on the leading axis")
            start = 0 if key.start is None else int(key.start)
            stop = None if key.stop is None else int(key.stop)
            return self.read(start, stop)
        if isinstance(key, (int, np.integer)):
            rows = self.read(int(key), int(key) + 1)
            return rows[0]
        raise H5LiteError(f"unsupported index {key!r}; use [...], [i], [i:j] or [i:j, k:l]")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset({self.name!r}, shape={self.shape}, dtype={self.dtype})"


class Group(_JsonAttrs):
    """A named collection of groups and datasets."""

    def __init__(self, file: "H5LiteFile", name: str):
        self._file = file
        self.name = name
        self.attrs: Dict = {}
        self._children: Dict[str, "Group"] = {}
        self._datasets: Dict[str, Dataset] = {}

    # ------------------------------------------------------------------ #
    def create_group(self, name: str) -> "Group":
        """Create (or return an existing) sub-group."""
        self._file._require_writable()
        parts = _normalize_path(name)
        node = self
        for part in parts:
            if part in node._datasets:
                raise H5LiteError(f"cannot create group {name!r}: {part!r} is a dataset")
            if part not in node._children:
                child_name = f"{node.name.rstrip('/')}/{part}" if node.name != "/" else f"/{part}"
                node._children[part] = Group(self._file, child_name)
            node = node._children[part]
        return node

    def create_dataset(
        self,
        name: str,
        data: np.ndarray,
        chunk_rows: Optional[int] = None,
        attrs: Optional[Dict] = None,
    ) -> Dataset:
        """Create a dataset holding *data* (copied at write time)."""
        self._file._require_writable()
        parts = _normalize_path(name)
        if not parts:
            raise H5LiteError("dataset name must be non-empty")
        *group_parts, leaf = parts
        node = self.create_group("/".join(group_parts)) if group_parts else self
        if leaf in node._datasets or leaf in node._children:
            raise H5LiteError(f"object {name!r} already exists in group {node.name!r}")
        data = np.asarray(data)
        dataset_name = f"{node.name.rstrip('/')}/{leaf}" if node.name != "/" else f"/{leaf}"
        ds = Dataset(
            file=self._file,
            name=dataset_name,
            shape=data.shape,
            dtype=data.dtype,
            chunk_rows=chunk_rows,
            chunk_offsets=[],
            attrs=attrs or {},
            data=np.ascontiguousarray(data),
        )
        node._datasets[leaf] = ds
        return ds

    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        try:
            self[name]
            return True
        except (KeyError, H5LiteError):
            return False

    def __getitem__(self, name: str):
        parts = _normalize_path(name)
        node: Group = self
        for i, part in enumerate(parts):
            if part in node._children:
                node = node._children[part]
            elif part in node._datasets:
                if i != len(parts) - 1:
                    raise H5LiteError(f"{part!r} is a dataset, not a group")
                return node._datasets[part]
            else:
                raise KeyError(f"no object named {name!r} in group {self.name!r}")
        return node

    def keys(self) -> List[str]:
        """Names of immediate children (groups first, then datasets)."""
        return list(self._children.keys()) + list(self._datasets.keys())

    def items(self) -> Iterator[Tuple[str, object]]:
        """Iterate over (name, group-or-dataset) pairs."""
        for k, v in self._children.items():
            yield k, v
        for k, v in self._datasets.items():
            yield k, v

    def groups(self) -> Dict[str, "Group"]:
        """Immediate sub-groups."""
        return dict(self._children)

    def datasets(self) -> Dict[str, Dataset]:
        """Immediate datasets."""
        return dict(self._datasets)

    def visit(self) -> Iterator[object]:
        """Depth-first iteration over every group and dataset below this one."""
        for child in self._children.values():
            yield child
            yield from child.visit()
        for ds in self._datasets.values():
            yield ds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Group({self.name!r}, {len(self._children)} groups, {len(self._datasets)} datasets)"


class H5LiteFile:
    """A hierarchical array container file.

    Use as a context manager::

        with H5LiteFile(path, "w") as f:
            grp = f.create_group("entry")
            grp.create_dataset("images", cube, chunk_rows=4)
            grp.attrs["note"] = "synthetic"

        with H5LiteFile(path, "r") as f:
            cube = f["entry/images"][...]
    """

    def __init__(self, path, mode: str = "r"):
        if mode not in ("r", "w"):
            raise H5LiteError(f"mode must be 'r' or 'w', got {mode!r}")
        self.path = os.fspath(path)
        self.mode = mode
        self.root = Group(self, "/")
        self._closed = False
        self._data_start = 0
        if mode == "r":
            self._load_header()

    # ------------------------------------------------------------------ #
    def _require_writable(self) -> None:
        if self.mode != "w":
            raise H5LiteError("file is open read-only")
        if self._closed:
            raise H5LiteError("file is closed")

    def create_group(self, name: str) -> Group:
        """Create a group under the root."""
        return self.root.create_group(name)

    def create_dataset(self, name: str, data: np.ndarray, chunk_rows: Optional[int] = None,
                       attrs: Optional[Dict] = None) -> Dataset:
        """Create a dataset under the root."""
        return self.root.create_dataset(name, data, chunk_rows=chunk_rows, attrs=attrs)

    def __getitem__(self, name: str):
        return self.root[name]

    def __contains__(self, name: str) -> bool:
        return name in self.root

    @property
    def attrs(self) -> Dict:
        """Attributes of the root group."""
        return self.root.attrs

    def set_json_attr(self, key: str, value) -> None:
        """Store a validated JSON attribute on the root group."""
        self.root.set_json_attr(key, value)

    def get_json_attr(self, key: str, default=None):
        """Read a JSON attribute of the root group."""
        return self.root.get_json_attr(key, default)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush (in write mode) and close the file."""
        if self._closed:
            return
        if self.mode == "w":
            self._write_out()
        self._closed = True

    def __enter__(self) -> "H5LiteFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True

    # ------------------------------------------------------------------ #
    # writing
    def _write_out(self) -> None:
        header: Dict = {"attrs": self.root.attrs, "tree": {}}
        blocks: List[np.ndarray] = []
        offset = 0

        def serialise_group(group: Group) -> Dict:
            nonlocal offset
            node = {"type": "group", "attrs": group.attrs, "children": {}}
            for name, child in group._children.items():
                node["children"][name] = serialise_group(child)
            for name, ds in group._datasets.items():
                data = ds._data
                chunk_rows = ds.chunk_rows
                chunk_offsets = []
                if chunk_rows and data.ndim >= 1 and data.shape[0] > 0:
                    for start in range(0, data.shape[0], chunk_rows):
                        block = np.ascontiguousarray(data[start:start + chunk_rows])
                        chunk_offsets.append(offset)
                        blocks.append(block)
                        offset += block.nbytes
                else:
                    block = np.ascontiguousarray(data)
                    chunk_offsets.append(offset)
                    blocks.append(block)
                    offset += block.nbytes
                node["children"][name] = {
                    "type": "dataset",
                    # ds.shape (not data.shape): ascontiguousarray promotes
                    # 0-d scalars to 1-d, but the dataset keeps its true shape
                    "shape": list(ds.shape),
                    "dtype": data.dtype.str,
                    "chunk_rows": chunk_rows,
                    "chunk_offsets": chunk_offsets,
                    "attrs": ds.attrs,
                }
            return node

        header["tree"] = serialise_group(self.root)
        header_bytes = json.dumps(header, default=_json_default).encode("utf-8")
        with open(self.path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(np.uint64(len(header_bytes)).tobytes())
            fh.write(header_bytes)
            for block in blocks:
                if block.nbytes:
                    fh.write(_byte_view(block))

    # ------------------------------------------------------------------ #
    # reading
    def _load_header(self) -> None:
        if not os.path.exists(self.path):
            raise H5LiteError(f"no such file: {self.path}")
        with open(self.path, "rb") as fh:
            prefix, header_bytes = _read_header(fh, self.path)
        self._data_start = len(prefix) + len(header_bytes)
        # a corrupt header after a valid magic (partial write, bit rot) must
        # surface as H5LiteError like every other malformed-file condition,
        # not leak json/unicode/key errors to callers
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise H5LiteError(f"corrupt h5lite header in {self.path}: {exc}") from None
        if not isinstance(header, dict):
            raise H5LiteError(f"corrupt h5lite header in {self.path}: not a JSON object")
        self.root.attrs.update(_header_attrs(header, self.path))

        def build_group(group: Group, node: Dict) -> None:
            if not isinstance(node, dict):
                raise H5LiteError(f"corrupt h5lite header in {self.path}: malformed tree node")
            group.attrs.update(_header_attrs(node, self.path))
            children = node.get("children", {})
            if not isinstance(children, dict):
                raise H5LiteError(f"corrupt h5lite header in {self.path}: malformed children")
            for name, child in children.items():
                if not isinstance(child, dict):
                    raise H5LiteError(
                        f"corrupt h5lite header in {self.path}: malformed node {name!r}"
                    )
                if child.get("type") == "group":
                    sub = Group(self, f"{group.name.rstrip('/')}/{name}" if group.name != "/" else f"/{name}")
                    group._children[name] = sub
                    build_group(sub, child)
                else:
                    try:
                        ds = Dataset(
                            file=self,
                            name=f"{group.name.rstrip('/')}/{name}" if group.name != "/" else f"/{name}",
                            shape=tuple(child["shape"]),
                            dtype=np.dtype(child["dtype"]),
                            chunk_rows=child.get("chunk_rows"),
                            chunk_offsets=child.get("chunk_offsets", []),
                            attrs=child.get("attrs", {}),
                        )
                    except (KeyError, TypeError, ValueError) as exc:
                        raise H5LiteError(
                            f"corrupt h5lite header in {self.path}: bad dataset {name!r}: {exc}"
                        ) from None
                    group._datasets[name] = ds

        if "tree" not in header:
            raise H5LiteError(f"corrupt h5lite header in {self.path}: no tree")
        build_group(self.root, header["tree"])

    def _read_into(self, fh, offset: int, buffer: memoryview) -> None:
        """Fill the byte view *buffer* with the bytes at *offset* of *fh*.

        *fh* is an unbuffered handle, so the bytes land in the array behind
        *buffer* without an intermediate ``bytes`` object.  A raw read
        returns fewer bytes than asked only at end of file (or past the
        kernel's per-call cap), so a healthy file takes one ``readinto``; a
        file that ends first raises :class:`H5LiteError`.
        """
        size = len(buffer)
        if not size:
            return
        fh.seek(offset)
        filled = fh.readinto(buffer)
        while filled < size:
            got = fh.readinto(buffer[filled:])
            if not got:
                raise H5LiteError(
                    f"truncated h5lite file {self.path}: expected {size} bytes "
                    f"at offset {offset}, got {filled}"
                )
            filled += got

    def _read_dataset(self, ds: Dataset, start: int, stop: Optional[int]) -> np.ndarray:
        if self.mode != "r":
            raise H5LiteError("partial reads require the file to be open in read mode")
        if not ds.shape:
            scalar = np.empty((), dtype=ds.dtype)
            with open(self.path, "rb", buffering=0) as fh:
                self._read_into(fh, self._data_start + ds._chunk_offsets[0], _byte_view(scalar))
            return scalar[()]

        n_rows = ds.shape[0]
        stop = n_rows if stop is None else min(stop, n_rows)
        start = max(0, start)
        if stop <= start:
            return np.empty((0,) + ds.shape[1:], dtype=ds.dtype)

        row_bytes = ds._row_bytes()
        out = np.empty((stop - start,) + ds.shape[1:], dtype=ds.dtype)
        flat = _byte_view(out)
        with open(self.path, "rb", buffering=0) as fh:
            if ds.chunk_rows is None:
                self._read_into(
                    fh, self._data_start + ds._chunk_offsets[0] + start * row_bytes, flat
                )
            else:
                chunk_rows = ds.chunk_rows
                filled = 0
                first_chunk = start // chunk_rows
                last_chunk = (stop - 1) // chunk_rows
                for chunk_index in range(first_chunk, last_chunk + 1):
                    chunk_start_row = chunk_index * chunk_rows
                    chunk_stop_row = min(chunk_start_row + chunk_rows, n_rows)
                    lo = max(start, chunk_start_row)
                    hi = min(stop, chunk_stop_row)
                    self._read_into(
                        fh,
                        self._data_start
                        + ds._chunk_offsets[chunk_index]
                        + (lo - chunk_start_row) * row_bytes,
                        flat[filled * row_bytes:(filled + hi - lo) * row_bytes],
                    )
                    filled += hi - lo
        return out

    def _read_dataset_window(
        self, ds: Dataset, start: int, stop: Optional[int], sub_start: int, sub_stop: int
    ) -> np.ndarray:
        """Windowed read: leading rows ``start:stop``, second axis ``sub_start:sub_stop``.

        Only the bytes of the window are read (one seek and one ``readinto``
        per leading row, straight into that row of the output), which is
        what keeps the streaming reconstruction's resident set at one slab
        regardless of the cube size.
        """
        if self.mode != "r":
            raise H5LiteError("partial reads require the file to be open in read mode")
        n_rows = ds.shape[0]
        stop = n_rows if stop is None else min(stop, n_rows)
        start = max(0, start)
        window = sub_stop - sub_start
        if stop <= start:
            return np.empty((0, window) + ds.shape[2:], dtype=ds.dtype)

        row_bytes = ds._row_bytes()
        sub_bytes = row_bytes // ds.shape[1]  # bytes of one second-axis row
        out = np.empty((stop - start, window) + ds.shape[2:], dtype=ds.dtype)
        chunk_rows = ds.chunk_rows or n_rows
        flat = _byte_view(out)
        window_bytes = window * sub_bytes
        with open(self.path, "rb", buffering=0) as fh:
            for filled, lead in enumerate(range(start, stop)):
                chunk_index = lead // chunk_rows
                chunk_start_row = chunk_index * chunk_rows
                self._read_into(
                    fh,
                    self._data_start
                    + ds._chunk_offsets[chunk_index]
                    + (lead - chunk_start_row) * row_bytes
                    + sub_start * sub_bytes,
                    flat[filled * window_bytes:(filled + 1) * window_bytes],
                )
        return out
