"""The polymorphic input layer: ``repro.open()``.

The engine consumes :class:`~repro.core.engine.ChunkSource` objects, but
users hold many different things: an in-memory
:class:`~repro.core.stack.WireScanStack`, an ``.h5lite`` path, a directory
or glob of paths, or a bare intensity cube plus its geometry.  ``open()``
normalizes all of them into a :class:`Source` — the one object
:meth:`~repro.core.session.Session.run` and
:meth:`~repro.core.session.Session.run_many` accept — the way h5py's
high-level ``File`` front door hides its low-level core.

A :class:`Source` knows three things:

* its **identity** (:meth:`Source.identity`) — a JSON-safe description used
  for run provenance;
* how to produce an **engine-ready chunk source**
  (:meth:`Source.chunk_source`), which is where the in-memory / out-of-core
  split is absorbed: a file source always serves a streamed
  :class:`~repro.io.streaming.StreamingWireScanSource` (the image cube is
  never loaded whole), an in-memory stack a
  :class:`~repro.core.engine.StackChunkSource`;
* its **items** (:meth:`Source.items`) — one entry per reconstructable unit,
  which is what the batch scheduler iterates;
* its **fingerprint** (:meth:`Source.fingerprint`) — a JSON-safe digest of
  the *input content identity*, from which :mod:`repro.core.cache` derives
  content-addressed cache keys.  File sources fingerprint cheaply (path,
  size, mtime, h5lite-header digest — never the image cube); in-memory
  sources digest their actual bytes.  ``None`` means "not cacheable".
"""

from __future__ import annotations

import abc
import glob as _glob
import hashlib
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import ChunkSource, StackChunkSource
from repro.core.stack import WireScanStack
from repro.utils.validation import ValidationError

__all__ = ["Source", "StackSource", "FileSource", "BatchSource", "InvalidSource", "open"]

_GLOB_CHARS = ("*", "?", "[")


class Source(abc.ABC):
    """A normalized reconstruction input (see :func:`open`)."""

    #: short kind tag ("stack", "file", "batch") used in provenance
    kind: str = ""

    @property
    def is_batch(self) -> bool:
        """True when this source holds more than one reconstructable unit."""
        return False

    @abc.abstractmethod
    def identity(self) -> Dict:
        """JSON-safe description of where the data came from."""

    @abc.abstractmethod
    def label(self) -> str:
        """Short human label (file stem / stack shape) for batch tables."""

    @abc.abstractmethod
    def chunk_source(self, config) -> ChunkSource:
        """Engine-ready chunk source for a run under *config*."""

    def items(self) -> List["Source"]:
        """The individual reconstructable units (itself, unless a batch)."""
        return [self]

    def fingerprint(self) -> Optional[Dict]:
        """JSON-safe content identity for cache keys, ``None`` if uncacheable.

        A fingerprint must change whenever the reconstruction input could
        change and must never require reading the full image cube of a file
        source (fingerprinting a batch item has to stay far cheaper than
        reconstructing it).  Sources that cannot promise a stable identity
        (invalid entries, batches — which fingerprint per item) return
        ``None`` and simply bypass the cache.
        """
        return None

    def describe(self) -> str:
        """One-line description for logs."""
        return f"{type(self).__name__}({self.label()})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class StackSource(Source):
    """An in-memory :class:`WireScanStack` (streaming has nothing to stream)."""

    kind = "stack"

    def __init__(self, stack: WireScanStack):
        if not isinstance(stack, WireScanStack):
            raise ValidationError(f"StackSource requires a WireScanStack, got {type(stack).__name__}")
        self.stack = stack

    def identity(self) -> Dict:
        return {
            "kind": self.kind,
            "shape": list(self.stack.shape),
            "nbytes": self.stack.nbytes,
            "masked": self.stack.pixel_mask is not None,
        }

    def label(self) -> str:
        return "stack" + "x".join(str(n) for n in self.stack.shape)

    def chunk_source(self, config) -> ChunkSource:
        return StackChunkSource(self.stack)

    def fingerprint(self) -> Optional[Dict]:
        """Digest of the actual bytes plus the geometry that shapes the run.

        An in-memory stack has no path/mtime identity, so the fingerprint
        hashes what the reconstruction consumes: the image cube, the pixel
        mask, the wire trajectory and the detector/beam parameters.  Hashing
        the cube costs one pass over memory — far cheaper than any backend's
        reconstruction of the same bytes.
        """
        stack = self.stack
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(stack.images).tobytes())
        digest.update(b"|mask|")
        if stack.pixel_mask is not None:
            digest.update(np.ascontiguousarray(stack.pixel_mask).tobytes())
        digest.update(b"|scan|")
        digest.update(np.ascontiguousarray(stack.scan.positions).tobytes())
        geometry = (
            f"wire_radius={stack.scan.wire.radius!r};"
            f"detector={stack.detector.n_rows},{stack.detector.n_cols},"
            f"{stack.detector.pixel_size!r},{stack.detector.distance!r},"
            f"{tuple(stack.detector.center)!r};"
            f"beam={tuple(stack.beam.direction)!r},{tuple(stack.beam.origin)!r},"
            f"{stack.beam.energy_min_kev!r},{stack.beam.energy_max_kev!r}"
        )
        digest.update(geometry.encode("utf-8"))
        return {
            "kind": self.kind,
            "shape": list(stack.shape),
            "sha256": digest.hexdigest(),
        }


class FileSource(Source):
    """A wire-scan ``.h5lite`` file on disk."""

    kind = "file"

    def __init__(self, path):
        # existence is checked at load time, not here: a missing file inside a
        # batch must surface as that item's failure, not abort the whole batch
        self.path = str(path)

    def identity(self) -> Dict:
        identity = {"kind": self.kind, "path": self.path}
        if os.path.isfile(self.path):
            identity["bytes"] = os.path.getsize(self.path)
        return identity

    def label(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]

    def chunk_source(self, config) -> ChunkSource:
        from repro.io.streaming import StreamingWireScanSource

        return StreamingWireScanSource(self.path)

    def fingerprint(self) -> Optional[Dict]:
        """Path + size + mtime + h5lite-header digest, never the image cube.

        The header digest pins the file's structure and metadata; data-only
        edits are caught by size/mtime (a rewrite bumps at least the mtime).
        An unreadable or non-h5lite file returns ``None`` — it cannot be
        cached, and the failure surfaces where it always did: when the item
        is actually reconstructed.
        """
        from repro.io.h5lite import H5LiteError, header_digest

        try:
            stat = os.stat(self.path)
            digest = header_digest(self.path)
        except (OSError, H5LiteError):
            return None
        return {
            "kind": self.kind,
            "path": os.path.abspath(self.path),
            "bytes": int(stat.st_size),
            "mtime_ns": int(stat.st_mtime_ns),
            "header_sha256": digest,
        }


class InvalidSource(Source):
    """Placeholder for a batch entry that could not be normalized.

    ``Session.run_many`` wraps each entry's :func:`open` failure in one of
    these instead of aborting the whole batch, preserving per-item error
    isolation: the stored error surfaces when the item is run and lands on
    that item's :class:`~repro.core.pipeline.BatchItem`.
    """

    kind = "invalid"

    def __init__(self, obj, error: Exception):
        self.input = str(obj)
        self.error = error

    def identity(self) -> Dict:
        return {"kind": self.kind, "input": self.input, "error": str(self.error)}

    def label(self) -> str:
        return self.input

    def chunk_source(self, config) -> ChunkSource:
        raise ValidationError(str(self.error))


class BatchSource(Source):
    """An ordered collection of single sources (the batch scheduler's input)."""

    kind = "batch"

    def __init__(self, sources: Sequence[Source]):
        flattened: List[Source] = []
        for source in sources:
            flattened.extend(source.items())
        self.sources = flattened

    @property
    def is_batch(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.sources)

    def items(self) -> List[Source]:
        return list(self.sources)

    def identity(self) -> Dict:
        return {
            "kind": self.kind,
            "n_items": len(self.sources),
            "items": [source.identity() for source in self.sources],
        }

    def label(self) -> str:
        return f"batch of {len(self.sources)}"

    def chunk_source(self, config) -> ChunkSource:
        raise ValidationError(
            f"a batch source ({self.label()}) has no single chunk source; "
            "run it with Session.run_many()"
        )


def _open_path(path: str) -> Source:
    """Normalize one path string: glob pattern, directory, or single file.

    A path naming an existing file is always taken literally, even when it
    contains glob metacharacters (``scan[1].h5lite`` is a legal filename);
    only non-existent paths are interpreted as patterns.
    """
    if any(char in path for char in _GLOB_CHARS) and not os.path.isfile(path):
        matches = sorted(_glob.glob(path))
        if not matches:
            raise ValidationError(f"glob pattern {path!r} matched no files")
        return BatchSource([FileSource(match) for match in matches])
    if os.path.isdir(path):
        matches = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".h5lite")
        )
        if not matches:
            raise ValidationError(f"directory {path!r} contains no .h5lite files")
        return BatchSource([FileSource(match) for match in matches])
    return FileSource(path)


def open(
    obj,
    *,
    scan=None,
    detector=None,
    beam=None,
    pixel_mask: Optional[np.ndarray] = None,
    metadata: Optional[Dict] = None,
) -> Source:
    """Normalize *obj* into a :class:`Source`.

    Accepted inputs
    ---------------
    ``Source``
        Returned unchanged.
    :class:`WireScanStack`
        Wrapped as an in-memory :class:`StackSource`.
    ``str`` / ``os.PathLike``
        A single ``.h5lite`` file, a directory of them, or a glob pattern
        (``scans/*.h5lite``) — the latter two become a :class:`BatchSource`.
    ``numpy.ndarray``
        A raw ``(n_positions, n_rows, n_cols)`` intensity cube; requires the
        ``scan`` and ``detector`` keyword geometry (``beam``, ``pixel_mask``
        and ``metadata`` are optional), from which a
        :class:`WireScanStack` is assembled.
    list / tuple
        Each element is opened recursively and the result is a flattened
        :class:`BatchSource`.
    """
    geometry = {"scan": scan, "detector": detector, "beam": beam,
                "pixel_mask": pixel_mask, "metadata": metadata}
    if isinstance(obj, np.ndarray):
        if scan is None or detector is None:
            raise ValidationError(
                "opening a bare ndarray requires scan= and detector= geometry keywords"
            )
        from repro.geometry.beam import Beam

        stack = WireScanStack(
            images=obj,
            scan=scan,
            detector=detector,
            beam=beam if beam is not None else Beam(),
            pixel_mask=pixel_mask,
            metadata=dict(metadata or {}),
        )
        return StackSource(stack)
    if isinstance(obj, (list, tuple)):
        # geometry keywords apply to each ndarray element
        if not obj:
            return BatchSource([])
        return BatchSource([open(item, **geometry) for item in obj])
    if any(value is not None for value in geometry.values()):
        # geometry keywords only make sense for raw ndarrays — silently
        # ignoring e.g. pixel_mask= on a file path would reconstruct
        # unmasked data while the caller believes the mask applied
        raise ValidationError(
            "geometry keywords (scan=, detector=, beam=, pixel_mask=, metadata=) "
            f"apply to ndarray inputs only, not {type(obj).__name__}"
        )
    if isinstance(obj, Source):
        return obj
    if isinstance(obj, WireScanStack):
        return StackSource(obj)
    if isinstance(obj, (str, os.PathLike)):
        return _open_path(os.fspath(obj))
    raise ValidationError(
        f"cannot open {type(obj).__name__!r} as a reconstruction source; expected a "
        "WireScanStack, path, glob, directory, ndarray+geometry, or a sequence of those"
    )
