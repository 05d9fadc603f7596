"""Content-addressed result cache: the cheapest reconstruction is a cache hit.

Identical ``(source, config)`` requests dominate real workloads — parameter
sweeps re-run unchanged files, figures are re-served from the same scans —
yet until this module every request paid the full reconstruction.  The cache
closes that gap the way kedro versions pipeline outputs: results are stored
under a **content-addressed key** and reused only while every input the key
covers is provably unchanged.

Key derivation
--------------
:func:`compute_cache_key` hashes three components into one SHA-256 key:

* the **source fingerprint** (:meth:`repro.core.source.Source.fingerprint`):
  path + size + mtime + h5lite-header digest for files, an ndarray-bytes
  digest for in-memory stacks;
* the canonical :meth:`~repro.core.config.ReconstructionConfig.to_dict`
  snapshot — *every* config field participates, so changing the backend,
  layout, chunking, cutoff, … produces a different key;
* the package version plus :data:`CACHE_FORMAT_VERSION`, so upgrading the
  code (whose numerics a key cannot inspect) invalidates rather than serves
  stale bytes.

Entry storage
-------------
Entries are ordinary :meth:`~repro.core.session.RunResult.save` h5lite
records under ``<root>/runs/<key[:2]>/<key>.h5lite``, loaded back through
the same code path as ``repro.load()`` — a hit is bitwise-identical to the
recompute it replaces.  Every entry embeds a ``cache`` block (key, stored-at
timestamp, content digest of the stack); :meth:`ResultCache.get` re-verifies
the digest on every hit and treats any mismatch, truncation or parse error
as a **miss that repairs itself** (the corrupt entry is deleted, never
served).  Writes go through a temporary file plus :func:`os.replace`, so
concurrent sessions sharing one cache root can only ever observe complete
entries.

Analysis memoization rides on the same root: :meth:`ResultCache.analyze`
keys :class:`~repro.core.ops.AnalysisResult` JSON records by
``(run key, pipeline signature)`` under ``<root>/analysis/``, making
``RunResult.analyze`` chains incremental too.

The cache root resolves, in order: an explicit argument, the
:data:`CACHE_ENV_VAR` (``REPRO_CACHE_DIR``) environment variable, then
``~/.cache/repro``.  The ``repro-cache`` CLI (``stats`` / ``prune`` /
``clear`` / ``verify``) administers it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import ReconstructionConfig
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError
from repro.utils.version import package_version

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "ResultCache",
    "compute_cache_key",
    "default_cache_root",
    "resolve_cache",
]

_LOG = get_logger(__name__)

#: Environment variable naming the cache root (overridden by explicit args).
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Version of the on-disk entry layout and key recipe.  Bumping it orphans
#: (never mis-serves) every existing entry.
CACHE_FORMAT_VERSION = 1

#: Key the cache block is stored under inside an entry's run record.
CACHE_RECORD_KEY = "cache"


def default_cache_root() -> str:
    """The cache root used when neither an argument nor the env var names one."""
    root = os.environ.get(CACHE_ENV_VAR)
    if root:
        return root
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def compute_cache_key(fingerprint: Dict, config: ReconstructionConfig) -> str:
    """The content-addressed key for (source fingerprint, config, version).

    Deterministic by construction: the payload is canonical JSON (sorted
    keys, no whitespace) over already-JSON-safe inputs, so the same logical
    request always lands on the same key across processes and sessions.
    """
    if not isinstance(fingerprint, dict) or not fingerprint:
        raise ValidationError("cache keys require a non-empty source fingerprint dict")
    payload = {
        "cache_format": CACHE_FORMAT_VERSION,
        "repro_version": package_version(),
        "source": fingerprint,
        "config": config.to_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Cache provenance attached to a :class:`~repro.core.session.RunResult`.

    Every run that consulted the cache carries one of these on
    ``run.cache_stats``: hits record where the entry lived, when it was
    stored and the digest that was re-verified before serving; misses record
    the key the fresh result was stored under.
    """

    key: str
    hit: bool
    path: str
    stored_unix: float
    digest: str

    def to_dict(self) -> Dict:
        """JSON-safe record (the ``repro-cache`` CLI and tests consume it)."""
        return {
            "key": self.key,
            "hit": self.hit,
            "path": self.path,
            "stored_unix": self.stored_unix,
            "digest": self.digest,
        }


class ResultCache:
    """A content-addressed store of finished runs (and memoized analyses).

    Safe to share between concurrent sessions: writes are atomic
    (temp file + ``os.replace``), reads verify the stored content digest,
    and anything unverifiable is deleted and recomputed instead of served.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = str(root) if root is not None else default_cache_root()
        #: guards the probe counters — one cache object is probed from the
        #: serve daemon's admission/compute executors and from batch worker
        #: threads concurrently, and `+=` is not atomic across threads
        self._lock = threading.Lock()
        #: probe counters for this cache object's lifetime (CLI + tests)
        self.n_hits = 0
        self.n_misses = 0
        self.n_stores = 0
        self.n_repaired = 0

    # ------------------------------------------------------------------ #
    # paths
    def _run_path(self, key: str) -> str:
        return os.path.join(self.root, "runs", key[:2], f"{key}.h5lite")

    def _analysis_path(self, key: str) -> str:
        return os.path.join(self.root, "analysis", key[:2], f"{key}.json")

    def _entry_paths(self, kind: str) -> List[str]:
        """Every entry file of *kind* ("runs" or "analysis"), sorted."""
        suffix = ".h5lite" if kind == "runs" else ".json"
        base = os.path.join(self.root, kind)
        if not os.path.isdir(base):
            return []
        out: List[str] = []
        for shard in sorted(os.listdir(base)):
            shard_dir = os.path.join(base, shard)
            if not os.path.isdir(shard_dir):
                continue
            out.extend(
                os.path.join(shard_dir, name)
                for name in sorted(os.listdir(shard_dir))
                if name.endswith(suffix)
            )
        return out

    def _tmp_paths(self) -> List[str]:
        """Leftover ``.tmp-*`` intermediates (a writer killed mid-store)."""
        out: List[str] = []
        for kind in ("runs", "analysis"):
            base = os.path.join(self.root, kind)
            if not os.path.isdir(base):
                continue
            for shard in sorted(os.listdir(base)):
                shard_dir = os.path.join(base, shard)
                if not os.path.isdir(shard_dir):
                    continue
                out.extend(
                    os.path.join(shard_dir, name)
                    for name in sorted(os.listdir(shard_dir))
                    if ".tmp-" in name
                )
        return out

    def _sweep_tmp(self, min_age_s: float) -> int:
        """Delete orphaned temp files older than *min_age_s*; returns count.

        ``os.replace`` makes completed stores atomic, so a temp file only
        survives when its writer died mid-store (SIGKILL, power loss) — the
        in-process cleanup cannot cover those.  The age gate keeps a
        concurrent session's *live* write safe from a simultaneous prune.
        """
        removed = 0
        cutoff = time.time() - float(min_age_s)
        for path in self._tmp_paths():
            try:
                if os.stat(path).st_mtime <= cutoff:
                    os.remove(path)
                    removed += 1
            except OSError:
                continue  # the writer finished (or another session swept it)
        return removed

    @staticmethod
    def _atomic_write(path: str, writer) -> None:
        """Write via a unique temp file + ``os.replace`` (all-or-nothing).

        The temp name embeds pid and thread id, so concurrent sessions (or
        threads of one ``run_many``) sharing the cache root never collide on
        the intermediate file either.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
        try:
            writer(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # writer raised before the replace
                os.remove(tmp)

    @staticmethod
    def _discard(path: str) -> None:
        """Best-effort delete: another session may have repaired the entry
        first, and an undeletable file (read-only root) must degrade to a
        plain miss rather than turn cache maintenance into a run failure."""
        try:
            os.remove(path)
        except OSError:
            pass

    @staticmethod
    def _discard_if_unchanged(path: str, before: os.stat_result) -> None:
        """Repair-delete *path* unless a concurrent store replaced it.

        The repair path races concurrent writers: between a reader loading
        corrupt bytes and deleting the entry, another session's ``put`` may
        have atomically replaced it with a healthy file — which is then not
        ours to delete.  Re-checking the file identity (inode/mtime/size)
        immediately before the unlink shrinks the deletion window from the
        whole load duration to microseconds; a loss in the residual window
        costs one recompute, never a wrong result.
        """
        try:
            after = os.stat(path)
            if (after.st_ino, after.st_mtime_ns, after.st_size) != (
                before.st_ino, before.st_mtime_ns, before.st_size
            ):
                return  # replaced under us: the new entry is presumed healthy
            os.remove(path)
        except OSError:
            pass  # already repaired by another session, or undeletable root

    # ------------------------------------------------------------------ #
    # run entries
    def get(self, key: str):
        """The cached :class:`~repro.core.session.RunResult` for *key*, or ``None``.

        Loads through the same record path as ``repro.load()`` and then
        re-verifies the stored content digest against the loaded stack.  Any
        failure — missing file, truncated data, malformed record, digest
        mismatch — deletes the entry and reports a miss; a corrupt entry is
        repaired by the recompute that follows, never served.
        """
        from repro.core.session import _run_result_from_record
        from repro.io.image_stack import load_run_payload

        path = self._run_path(key)
        try:
            before = os.stat(path)
        except OSError:
            with self._lock:
                self.n_misses += 1
            return None
        try:
            stack, record = load_run_payload(path)
            if record is None:
                raise ValidationError("cache entry holds no run record")
            cache_block = record.get(CACHE_RECORD_KEY) or {}
            stored_digest = cache_block.get("data_sha256")
            if cache_block.get("key") != key or not stored_digest:
                raise ValidationError("cache entry carries no matching cache block")
            if stack.content_digest() != stored_digest:
                raise ValidationError("cache entry content digest mismatch")
            run = _run_result_from_record(stack, record, path)
        # deliberately broad: *whatever* makes an entry unloadable (H5LiteError,
        # which a truncated data section raises too, a malformed record, an OS
        # error) means the entry cannot be served; the recompute that follows
        # repairs it, so failing to a miss is always safe
        except Exception as exc:
            _LOG.warning(
                "cache: repairing unusable entry %s (%s: %s)", path, type(exc).__name__, exc
            )
            self._discard_if_unchanged(path, before)
            with self._lock:
                self.n_misses += 1
                self.n_repaired += 1
            return None
        # the entry path is cache internals, not a user output; hits look
        # exactly like the cold run they replace (output_path=None until the
        # caller saves somewhere)
        run.output_path = None
        run.cache_stats = CacheStats(
            key=key,
            hit=True,
            path=path,
            stored_unix=float(cache_block.get("stored_unix", 0.0)),
            digest=stored_digest,
        )
        run.bind_cache(self)
        with self._lock:
            self.n_hits += 1
        return run

    def put(self, key: str, run) -> Optional[CacheStats]:
        """Store *run* under *key*; returns (and attaches) its miss stats.

        The embedded record is the run's full provenance with the
        session-specific ``outputs`` block cleared (a cache entry is not a
        user output) plus the ``cache`` block the next :meth:`get` verifies.
        The caller's :class:`~repro.core.session.RunResult` is not mutated
        beyond attaching ``cache_stats``.

        A failing store (read-only root, full disk) must never lose a run
        that already reconstructed successfully: the error is logged, the
        run simply stays uncached, and ``None`` is returned — the exact
        mirror of :meth:`get` failing to a miss.
        """
        from repro.io.image_stack import save_depth_resolved

        path = self._run_path(key)
        digest = run.result.content_digest()
        stored_unix = time.time()
        record = run._run_record()
        record["outputs"] = {"output_path": None, "text_path": None, "profile_pixels": None}
        record[CACHE_RECORD_KEY] = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "stored_unix": stored_unix,
            "data_sha256": digest,
        }
        try:
            self._atomic_write(
                path, lambda tmp: save_depth_resolved(tmp, run.result, run_record=record)
            )
        except Exception as exc:
            _LOG.warning(
                "cache: failed to store %s (%s: %s); serving the run uncached",
                path, type(exc).__name__, exc,
            )
            return None
        with self._lock:
            self.n_stores += 1
        _LOG.debug("cache: stored %s", path)
        stats = CacheStats(
            key=key, hit=False, path=path, stored_unix=stored_unix, digest=digest
        )
        run.cache_stats = stats
        run.bind_cache(self)
        return stats

    # ------------------------------------------------------------------ #
    # analysis memoization
    def analyze(self, run, pipeline):
        """Apply *pipeline* to *run*, memoized per (run key, pipeline signature).

        Only runs that came through this cache (``run.cache_stats`` present)
        can be memoized — the run key is what anchors the analysis to its
        input.  Unverifiable memo entries are repaired exactly like run
        entries: deleted, recomputed, re-stored.
        """
        from repro.core.ops import AnalysisResult

        if getattr(run, "cache_stats", None) is None:
            return pipeline.apply(run)
        memo_key = hashlib.sha256(
            f"{run.cache_stats.key}:{pipeline.signature()}".encode("utf-8")
        ).hexdigest()
        path = self._analysis_path(memo_key)
        if os.path.isfile(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    document = json.load(fh)
                outcome = AnalysisResult(
                    results=list(document["results"]),
                    run=document["provenance"].get("run"),
                )
                with self._lock:
                    self.n_hits += 1
                return outcome
            except (ValueError, KeyError, TypeError, OSError) as exc:
                _LOG.warning("cache: repairing unusable analysis memo %s (%s)", path, exc)
                self._discard(path)
                with self._lock:
                    self.n_repaired += 1
        with self._lock:
            self.n_misses += 1
        outcome = pipeline.apply(run)
        document = json.dumps(outcome.to_dict(), sort_keys=True, indent=2)

        def _write(tmp: str) -> None:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(document)

        try:
            self._atomic_write(path, _write)
        except Exception as exc:  # an unwritable memo must not lose the analysis
            _LOG.warning(
                "cache: failed to store analysis memo %s (%s: %s)",
                path, type(exc).__name__, exc,
            )
            return outcome
        with self._lock:
            self.n_stores += 1
        return outcome

    # ------------------------------------------------------------------ #
    # administration (the repro-cache CLI surface)
    def counters(self) -> Dict:
        """This cache object's probe counters as one JSON-safe record.

        The structured twin of the ``n_hits``/``n_misses``/... attributes:
        long-lived consumers (the ``repro-serve`` ``/metrics`` endpoint, the
        CLI ``stats`` block) read one dict instead of reaching into
        attributes one by one.  ``hit_rate`` is derived over every probe this
        object ever made (``None`` before the first probe).
        """
        with self._lock:  # one coherent snapshot, not four racing reads
            hits, misses = self.n_hits, self.n_misses
            stores, repaired = self.n_stores, self.n_repaired
        probes = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "stores": stores,
            "repaired": repaired,
            "probes": probes,
            "hit_rate": (hits / probes) if probes else None,
        }

    def stats(self) -> Dict:
        """JSON-safe snapshot of what the cache root currently holds."""
        runs = self._entry_paths("runs")
        analyses = self._entry_paths("analysis")
        sizes: List[int] = []
        mtimes: List[float] = []
        for path in runs + analyses:
            try:
                stat = os.stat(path)
            except OSError:
                continue  # pruned by a concurrent session mid-listing
            sizes.append(stat.st_size)
            mtimes.append(stat.st_mtime)
        return {
            "root": self.root,
            "n_runs": len(runs),
            "n_analyses": len(analyses),
            "n_orphaned_tmp": len(self._tmp_paths()),
            "total_bytes": int(sum(sizes)),
            "oldest_unix": min(mtimes) if mtimes else None,
            "newest_unix": max(mtimes) if mtimes else None,
            "session": self.counters(),
        }

    def _listed_entries(self) -> List[Tuple[float, int, str]]:
        """Every entry as ``(mtime, size, path)``, oldest first."""
        out: List[Tuple[float, int, str]] = []
        for path in self._entry_paths("runs") + self._entry_paths("analysis"):
            try:
                stat = os.stat(path)
            except OSError:
                continue
            out.append((stat.st_mtime, stat.st_size, path))
        out.sort()
        return out

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than_s: Optional[float] = None,
    ) -> Dict:
        """Delete old entries; returns ``{"removed": n, "freed_bytes": b}``.

        ``older_than_s`` removes entries whose mtime is more than that many
        seconds in the past; ``max_bytes`` then evicts oldest-first until the
        remaining total fits.  With neither bound only orphaned temp files
        are swept (any maintenance pass reclaims crashed writers' leftovers,
        age-gated so a live concurrent store is never touched).
        """
        entries = self._listed_entries()
        removed = 0
        freed = 0
        self._sweep_tmp(min_age_s=3600.0)
        now = time.time()
        if older_than_s is not None:
            cutoff = now - float(older_than_s)
            keep: List[Tuple[float, int, str]] = []
            for mtime, size, path in entries:
                if mtime < cutoff:
                    self._discard(path)
                    removed += 1
                    freed += size
                else:
                    keep.append((mtime, size, path))
            entries = keep
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in entries)
            for _mtime, size, path in entries:  # oldest first
                if total <= int(max_bytes):
                    break
                self._discard(path)
                removed += 1
                freed += size
                total -= size
        if removed:
            _LOG.info("cache: pruned %d entr(ies), freed %d bytes", removed, freed)
        return {"removed": removed, "freed_bytes": freed}

    def clear(self) -> Dict:
        """Delete every entry (runs, analyses and any orphaned temp file)."""
        self._sweep_tmp(min_age_s=0.0)
        return self.prune(max_bytes=0)

    def verify(self) -> Dict:
        """Check every entry end-to-end; delete (repair) the unverifiable.

        Run entries are fully loaded and digest-checked through the same
        path a hit takes; analysis memos are parsed, and any document that
        is not a whole-pipeline memo (such as the per-node memos older
        versions wrote, which nothing reads) is deleted.  Returns counts
        plus the repaired paths, so operators can see *what* was bad.
        """
        checked = 0
        repaired: List[str] = []
        for path in self._entry_paths("runs"):
            checked += 1
            before = self.n_repaired
            key = os.path.splitext(os.path.basename(path))[0]
            self.get(key)
            if self.n_repaired > before:
                repaired.append(path)
        for path in self._entry_paths("analysis"):
            checked += 1
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    document = json.load(fh)
                if not isinstance(document, dict) or "results" not in document \
                        or "provenance" not in document:
                    raise ValueError("missing results/provenance blocks")
            except (ValueError, OSError):
                self._discard(path)
                with self._lock:
                    self.n_repaired += 1
                repaired.append(path)
        return {"checked": checked, "n_repaired": len(repaired), "repaired": repaired}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache(root={self.root!r})"


def resolve_cache(value, session_cache: Optional[ResultCache] = None) -> Optional[ResultCache]:
    """Normalize a ``cache=`` argument into a :class:`ResultCache` or ``None``.

    ``None`` defers to the session-level cache (itself ``None`` for plain
    sessions); ``False`` disables caching even on a cached session; ``True``
    selects the default root; a string/path names a root; a prebuilt
    :class:`ResultCache` is used as-is.
    """
    if value is None:
        return session_cache
    if value is False:
        return None
    if value is True:
        return ResultCache()
    if isinstance(value, ResultCache):
        return value
    if isinstance(value, (str, os.PathLike)):
        return ResultCache(os.fspath(value))
    raise ValidationError(
        f"cache= expects True/False, a cache root path or a ResultCache, "
        f"got {type(value).__name__}"
    )
