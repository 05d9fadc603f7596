"""Correctness suite for the content-addressed result cache.

The cache's contract, in order of importance:

* a hit is **bitwise-identical** to the recompute it replaces (stack bytes
  and provenance), on every backend;
* any change to the source bytes or to any config field changes the key —
  a stale entry can never be served as current;
* a corrupt or truncated entry is a miss that repairs itself, never a
  served result;
* ``run_many`` recomputes only the changed items of a batch;
* concurrent sessions sharing one cache root cannot corrupt each other.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import threading

import numpy as np
import pytest

import repro
from repro.core.cache import (
    CACHE_ENV_VAR,
    CacheStats,
    ResultCache,
    compute_cache_key,
    default_cache_root,
    resolve_cache,
)
from repro.core.config import ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.result import DepthResolvedStack
from repro.io.image_stack import save_wire_scan
from repro.synthetic.workloads import make_point_source_stack
from repro.utils.validation import ValidationError
from tests.helpers import RUNS


@pytest.fixture()
def cache_root(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture()
def small_stack():
    stack, _source = make_point_source_stack(depth=40.0, n_rows=6, n_cols=6, n_positions=41)
    return stack


@pytest.fixture()
def grid():
    return DepthGrid.from_range(0.0, 100.0, 20)


def _save_scan(path, depth=40.0, seed_offset=0):
    stack, _ = make_point_source_stack(
        depth=depth, n_rows=6, n_cols=6, n_positions=41 + seed_offset
    )
    save_wire_scan(path, stack)
    return stack


def _bump_mtime(path):
    """Force a visibly different mtime (rewrites within one tick must miss)."""
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


# --------------------------------------------------------------------------- #
# hits are bitwise-identical recomputes
class TestHitIdentity:
    @pytest.mark.parametrize("run", ["cpu_reference", "vectorized", "gpusim", "threaded"])
    def test_hit_bitwise_identical_on_every_backend(self, run, cache_root, small_stack, grid):
        sess = repro.session(grid=grid, **RUNS[run]).cached(cache_root)
        cold = sess.run(small_stack)
        assert cold.cache_stats is not None and not cold.cache_stats.hit
        warm = sess.run(small_stack)
        assert warm.cache_stats.hit
        assert warm.result.data.tobytes() == cold.result.data.tobytes()
        # provenance identical outright — cache metadata lives on
        # run.cache_stats, not inside the provenance record
        assert warm.provenance() == cold.provenance()

    def test_hit_for_file_source_matches_streamed_and_in_memory_separately(
        self, cache_root, tmp_path, grid
    ):
        """Streaming is a config field, so each mode has its own key."""
        path = str(tmp_path / "scan.h5lite")
        _save_scan(path)
        sess = repro.session(grid=grid).cached(cache_root)
        in_memory = sess.run(path)
        streamed = sess.stream(rows_per_chunk=2).run(path)
        assert not in_memory.cache_stats.hit and not streamed.cache_stats.hit
        assert in_memory.cache_stats.key != streamed.cache_stats.key
        assert sess.run(path).cache_stats.hit
        assert sess.stream(rows_per_chunk=2).run(path).cache_stats.hit

    def test_hit_records_key_stored_at_and_verified_digest(self, cache_root, small_stack, grid):
        sess = repro.session(grid=grid).cached(cache_root)
        cold = sess.run(small_stack)
        warm = sess.run(small_stack)
        stats = warm.cache_stats
        assert isinstance(stats, CacheStats)
        assert stats.key == cold.cache_stats.key
        assert stats.stored_unix > 0
        assert stats.digest == warm.result.content_digest()
        assert os.path.isfile(stats.path)
        payload = stats.to_dict()
        assert payload["hit"] is True and payload["key"] == stats.key

    def test_hit_still_writes_requested_outputs(self, cache_root, small_stack, grid, tmp_path):
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        out = str(tmp_path / "depth.h5lite")
        text = str(tmp_path / "profiles.txt")
        warm = sess.run(small_stack, output_path=out, text_path=text)
        assert warm.cache_stats.hit
        assert os.path.isfile(out) and os.path.isfile(text)
        assert repro.load(out).result.data.tobytes() == warm.result.data.tobytes()

    @pytest.mark.parametrize("layout", ["transposed", "big-endian"])
    def test_content_digest_matches_the_copied_bytes_form(self, grid, layout):
        # entries store the digest of the cube's C-order bytes; hashing the
        # buffer in place must give the same hex digest, or stored entries
        # would stop verifying
        cube = np.random.default_rng(3).random((grid.n_bins, 5, 7))
        stack = DepthResolvedStack(data=cube, grid=grid)
        # assigned after construction, which would convert to native order
        if layout == "transposed":
            stack.data = cube.transpose(0, 2, 1)
        else:
            stack.data = cube.astype(">f8")
        assert not stack.data.flags.c_contiguous or not stack.data.dtype.isnative
        expected = hashlib.sha256()
        expected.update(np.ascontiguousarray(stack.data).tobytes())
        expected.update(
            f"|grid={grid.start!r},{grid.step!r},{grid.n_bins}".encode("utf-8")
        )
        assert stack.content_digest() == expected.hexdigest()

    def test_cold_run_without_cache_has_no_cache_stats(self, small_stack, grid):
        run = repro.session(grid=grid).run(small_stack)
        assert run.cache_stats is None


# --------------------------------------------------------------------------- #
# key derivation and invalidation
class TestKeyInvalidation:
    def test_touching_source_bytes_changes_the_key(self, cache_root, tmp_path, grid):
        path = str(tmp_path / "scan.h5lite")
        _save_scan(path, depth=40.0)
        sess = repro.session(grid=grid).cached(cache_root)
        first = sess.run(path)
        _save_scan(path, depth=60.0)  # same shape, different bytes
        _bump_mtime(path)
        second = sess.run(path)
        assert not second.cache_stats.hit
        assert second.cache_stats.key != first.cache_stats.key
        assert second.result.data.tobytes() != first.result.data.tobytes()

    def test_in_memory_stack_bytes_change_the_key(self, cache_root, grid, small_stack):
        sess = repro.session(grid=grid).cached(cache_root)
        first = sess.run(small_stack)
        other = repro.core.WireScanStack(
            images=small_stack.images + 1.0,
            scan=small_stack.scan,
            detector=small_stack.detector,
            beam=small_stack.beam,
        )
        second = sess.run(other)
        assert not second.cache_stats.hit
        assert second.cache_stats.key != first.cache_stats.key

    @pytest.mark.parametrize("overrides", [
        {"backend": "gpusim"},
        {"layout": "pointer3d", "backend": "gpusim"},
        {"rows_per_chunk": 2},
        {"intensity_cutoff": 0.5},
        {"subtract_background": True},
        {"streaming": True},
        {"n_workers": 3},
        {"difference_mode": repro.core.DifferenceMode.RECTIFIED},
    ])
    def test_every_config_field_participates_in_the_key(self, overrides, grid, small_stack):
        base = ReconstructionConfig(grid=grid, backend="vectorized")
        fingerprint = repro.open(small_stack).fingerprint()
        changed = base.with_overrides(**overrides)
        assert compute_cache_key(fingerprint, base) != compute_cache_key(fingerprint, changed)

    def test_grid_participates_in_the_key(self, grid, small_stack):
        fingerprint = repro.open(small_stack).fingerprint()
        base = ReconstructionConfig(grid=grid)
        other = ReconstructionConfig(grid=DepthGrid.from_range(0.0, 100.0, 21))
        assert compute_cache_key(fingerprint, base) != compute_cache_key(fingerprint, other)

    def test_key_is_deterministic_across_cache_objects(self, grid, small_stack):
        fingerprint = repro.open(small_stack).fingerprint()
        config = ReconstructionConfig(grid=grid)
        assert compute_cache_key(fingerprint, config) == compute_cache_key(fingerprint, config)

    def test_empty_fingerprint_rejected(self, grid):
        with pytest.raises(ValidationError):
            compute_cache_key({}, ReconstructionConfig(grid=grid))


# --------------------------------------------------------------------------- #
# corruption: always a miss, never a served result
def _empty_file(path):
    open(path, "wb").close()


def _truncate_file(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def _clobber_magic(path):
    with open(path, "r+b") as fh:
        fh.write(b"garbage!")


class TestCorruptEntries:
    def _entry_path(self, cache_root):
        entries = glob.glob(os.path.join(cache_root, "runs", "*", "*.h5lite"))
        assert len(entries) == 1
        return entries[0]

    def _poisoned_session(self, cache_root, grid, small_stack, poison):
        sess = repro.session(grid=grid).cached(cache_root)
        cold = sess.run(small_stack)
        poison(self._entry_path(cache_root))
        return sess, cold

    @pytest.mark.parametrize("poison", [
        _empty_file, _truncate_file, _clobber_magic,
    ], ids=["emptied", "truncated", "bad-magic"])
    def test_unreadable_entry_is_miss_and_repaired(self, cache_root, grid, small_stack, poison):
        sess, cold = self._poisoned_session(cache_root, grid, small_stack, poison)
        warm = sess.run(small_stack)
        assert not warm.cache_stats.hit  # recomputed, never served corrupt bytes
        assert warm.result.data.tobytes() == cold.result.data.tobytes()
        assert sess.cache.n_repaired == 1
        # the recompute re-stored a healthy entry: next request hits again
        assert sess.run(small_stack).cache_stats.hit

    def test_flipped_data_bytes_fail_digest_verification(self, cache_root, grid, small_stack):
        """Bit rot in the data section parses fine — the digest catches it."""
        def poison(path):
            with open(path, "r+b") as fh:
                fh.seek(-9, os.SEEK_END)
                byte = fh.read(1)
                fh.seek(-9, os.SEEK_END)
                fh.write(bytes([byte[0] ^ 0xFF]))

        sess, cold = self._poisoned_session(cache_root, grid, small_stack, poison)
        warm = sess.run(small_stack)
        assert not warm.cache_stats.hit
        assert warm.result.data.tobytes() == cold.result.data.tobytes()
        assert sess.cache.n_repaired == 1

    def test_verify_deletes_only_broken_entries(self, cache_root, grid, small_stack, tmp_path):
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        path = str(tmp_path / "scan.h5lite")
        _save_scan(path, depth=70.0)
        sess.run(path)
        entries = sorted(glob.glob(os.path.join(cache_root, "runs", "*", "*.h5lite")))
        assert len(entries) == 2
        with open(entries[0], "r+b") as fh:
            fh.write(b"garbage!")
        outcome = sess.cache.verify()
        assert outcome["checked"] == 2
        assert outcome["repaired"] == [entries[0]]
        assert os.path.isfile(entries[1]) and not os.path.exists(entries[0])


# --------------------------------------------------------------------------- #
# incremental batches
class TestIncrementalRunMany:
    def _make_batch(self, tmp_path, n=4):
        paths = []
        for index in range(n):
            path = str(tmp_path / f"scan_{index}.h5lite")
            _save_scan(path, depth=20.0 + 15.0 * index)
            paths.append(path)
        return paths

    def test_second_batch_is_all_hits(self, cache_root, tmp_path, grid):
        paths = self._make_batch(tmp_path)
        sess = repro.session(grid=grid).cached(cache_root)
        first = sess.run_many(paths)
        assert first.n_ok == 4 and first.n_cached == 0
        second = sess.run_many(paths)
        assert second.n_ok == 4 and second.n_cached == 4 and second.n_computed == 0
        for a, b in zip(first.succeeded, second.succeeded):
            assert a.result.data.tobytes() == b.result.data.tobytes()

    def test_only_changed_files_recompute(self, cache_root, tmp_path, grid):
        paths = self._make_batch(tmp_path)
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run_many(paths)
        _save_scan(paths[2], depth=99.0)
        _bump_mtime(paths[2])
        batch = sess.run_many(paths)
        assert [item.cached for item in batch.items] == [True, True, False, True]
        assert batch.n_cached == 3 and batch.n_computed == 1
        # the changed item's fresh result was stored: run again, all hits
        assert sess.run_many(paths).n_cached == 4

    def test_cached_items_still_write_output_dir(self, cache_root, tmp_path, grid):
        paths = self._make_batch(tmp_path, n=2)
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run_many(paths)
        out_dir = str(tmp_path / "out")
        batch = sess.run_many(paths, output_dir=out_dir)
        assert batch.n_cached == 2
        for item in batch.items:
            assert item.output_path and os.path.isfile(item.output_path)
            loaded = repro.load(item.output_path)
            assert loaded.result.data.tobytes() == item.result.data.tobytes()

    def test_failed_items_are_isolated_and_never_cached(self, cache_root, tmp_path, grid):
        paths = self._make_batch(tmp_path, n=2)
        missing = str(tmp_path / "missing.h5lite")
        sess = repro.session(grid=grid).cached(cache_root)
        first = sess.run_many(paths + [missing])
        assert first.n_ok == 2 and first.n_failed == 1
        second = sess.run_many(paths + [missing])
        assert second.n_cached == 2 and second.n_failed == 1
        assert not second.items[2].cached

    def test_uncached_session_never_marks_items_cached(self, tmp_path, grid):
        paths = self._make_batch(tmp_path, n=2)
        sess = repro.session(grid=grid)
        batch = sess.run_many(paths)
        assert batch.n_cached == 0
        assert "cached" in batch.to_dict()["items"][0]


# --------------------------------------------------------------------------- #
# analysis memoization
class TestAnalysisMemoization:
    def test_analyze_is_memoized_per_run_key_and_pipeline(self, cache_root, small_stack, grid):
        sess = repro.session(grid=grid).cached(cache_root)
        cold = sess.run(small_stack)
        first = cold.analyze("peaks", "fwhm")
        assert sess.cache.stats()["n_analyses"] == 1
        warm = sess.run(small_stack)
        second = warm.analyze("peaks", "fwhm")
        assert first.to_json() == second.to_json()
        # a different pipeline is a different memo entry
        warm.analyze("total_intensity")
        assert sess.cache.stats()["n_analyses"] == 2

    def test_run_analyze_kwarg_is_memoized_too(self, cache_root, small_stack, grid):
        sess = repro.session(grid=grid).cached(cache_root)
        cold = sess.run(small_stack, analyze="total_intensity")
        warm = sess.run(small_stack, analyze="total_intensity")
        assert cold.analysis.to_json() == warm.analysis.to_json()
        assert sess.cache.stats()["n_analyses"] == 1

    def test_verify_deletes_node_memos_and_keeps_pipeline_memos(
        self, cache_root, small_stack, grid
    ):
        sess = repro.session(grid=grid).cached(cache_root)
        cold = sess.run(small_stack)
        cold.analyze("peaks", "fwhm")
        pipeline_memos = glob.glob(os.path.join(cache_root, "analysis", "*", "*.json"))
        assert len(pipeline_memos) == 1
        # a per-node memo of the retired analysis-graph engine, keyed and
        # shaped as that engine stored them beside the pipeline memos
        run_key = cold.cache_stats.key
        memo_key = hashlib.sha256(f"node:{run_key}:{'0' * 64}".encode("utf-8")).hexdigest()
        node_memo = os.path.join(cache_root, "analysis", memo_key[:2], f"{memo_key}.json")
        os.makedirs(os.path.dirname(node_memo), exist_ok=True)
        with open(node_memo, "w", encoding="utf-8") as fh:
            json.dump({"kind": "node_memo", "node": "tot", "op": "total_intensity",
                       "node_signature": "0" * 64, "run_key": run_key, "value": 1.5}, fh)
        repaired_before = sess.cache.n_repaired
        outcome = sess.cache.verify()
        assert outcome["checked"] == 3
        assert outcome["n_repaired"] == 1 and outcome["repaired"] == [node_memo]
        assert sess.cache.n_repaired == repaired_before + 1
        assert not os.path.exists(node_memo) and os.path.isfile(pipeline_memos[0])
        # the whole-pipeline memo still hits: nothing is recomputed
        warm = sess.run(small_stack)
        hits, stores = sess.cache.n_hits, sess.cache.n_stores
        warm.analyze("peaks", "fwhm")
        assert sess.cache.n_hits == hits + 1 and sess.cache.n_stores == stores

    def test_verify_repairs_a_memo_that_is_not_an_object(self, cache_root):
        path = os.path.join(cache_root, "analysis", "ab", "ab" + "0" * 62 + ".json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("5")
        outcome = ResultCache(cache_root).verify()
        assert outcome["repaired"] == [path] and not os.path.exists(path)

    def test_pipeline_signature_depends_on_ops_order_and_params(self):
        a = repro.analysis("peaks", "fwhm")
        b = repro.analysis("fwhm", "peaks")
        c = repro.analysis(("peaks", {"min_relative_height": 0.2}), "fwhm")
        assert len({a.signature(), b.signature(), c.signature()}) == 3
        assert a.signature() == repro.analysis("peaks", "fwhm").signature()


# --------------------------------------------------------------------------- #
# concurrency
class TestConcurrentSessions:
    def test_concurrent_sessions_share_one_root_without_corruption(
        self, cache_root, grid, tmp_path
    ):
        """Many threads, same (source, config), one root: every result is right."""
        path = str(tmp_path / "scan.h5lite")
        stack = _save_scan(path)
        reference = repro.session(grid=grid).run(stack)
        results = []
        errors = []

        def worker():
            try:
                sess = repro.session(grid=grid).cached(ResultCache(cache_root))
                run = sess.run(path)
                results.append(run.result.data.tobytes())
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 8
        assert all(blob == reference.result.data.tobytes() for blob in results)
        # afterwards the root holds exactly one healthy entry
        cache = ResultCache(cache_root)
        stats = cache.stats()
        assert stats["n_runs"] == 1
        assert cache.verify()["n_repaired"] == 0

    def test_atomic_writes_leave_no_tmp_files(self, cache_root, small_stack, grid):
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        leftovers = [
            name for _root, _dirs, files in os.walk(cache_root)
            for name in files if ".tmp-" in name
        ]
        assert leftovers == []


# --------------------------------------------------------------------------- #
# cache plumbing
class TestCachePlumbing:
    def test_resolve_cache_forms(self, cache_root):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        session_cache = ResultCache(cache_root)
        assert resolve_cache(None, session_cache) is session_cache
        assert resolve_cache(False, session_cache) is None
        assert resolve_cache(cache_root).root == cache_root
        assert resolve_cache(session_cache) is session_cache
        with pytest.raises(ValidationError):
            resolve_cache(42)

    def test_default_root_honours_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envroot"))
        assert default_cache_root() == str(tmp_path / "envroot")
        assert ResultCache().root == str(tmp_path / "envroot")
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert default_cache_root().endswith(os.path.join(".cache", "repro"))

    def test_cached_session_is_immutable_and_fluent(self, cache_root, grid):
        sess = repro.session(grid=grid)
        cached = sess.cached(cache_root)
        assert sess.cache is None and cached.cache is not None
        assert cached.on("gpusim").cache is cached.cache  # fluent methods keep it
        assert cached.stream(2).cache is cached.cache
        assert cached.configure(intensity_cutoff=0.1).cache is cached.cache
        assert cached.cached(False).cache is None

    def test_per_call_cache_overrides_session(self, cache_root, grid, small_stack):
        sess = repro.session(grid=grid).cached(cache_root)
        run = sess.run(small_stack, cache=False)
        assert run.cache_stats is None
        assert ResultCache(cache_root).stats()["n_runs"] == 0

    def test_prune_and_clear(self, cache_root, grid, small_stack, tmp_path):
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        path = str(tmp_path / "scan.h5lite")
        _save_scan(path, depth=55.0)
        sess.run(path)
        cache = sess.cache
        assert cache.stats()["n_runs"] == 2
        # max_bytes=1: everything must go (each entry is larger than a byte)
        outcome = cache.prune(max_bytes=1)
        assert outcome["removed"] == 2 and cache.stats()["n_runs"] == 0
        sess.run(small_stack)
        assert cache.stats()["n_runs"] == 1
        assert cache.clear()["removed"] == 1
        assert cache.stats()["total_bytes"] == 0

    def test_prune_older_than_keeps_recent_entries(self, cache_root, grid, small_stack):
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        assert sess.cache.prune(older_than_s=3600.0)["removed"] == 0
        entry = glob.glob(os.path.join(cache_root, "runs", "*", "*.h5lite"))[0]
        old = os.stat(entry)
        os.utime(entry, ns=(old.st_atime_ns, old.st_mtime_ns - int(7200e9)))
        assert sess.cache.prune(older_than_s=3600.0)["removed"] == 1

    def test_failed_store_degrades_to_uncached_run(self, tmp_path, grid, small_stack):
        """An unwritable cache root must never lose a successful run.

        The root's parent is a regular *file*, so every ``os.makedirs``
        inside the store fails with an OSError — chmod tricks would not
        work for a root test runner, this fails for any uid.
        """
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        root = str(blocker / "cache")
        sess = repro.session(grid=grid).cached(root)
        run = sess.run(small_stack)
        assert run.result.total_intensity() > 0  # the run survived
        assert run.cache_stats is None  # ...just uncached
        batch = sess.run_many([small_stack, small_stack])
        assert batch.n_ok == 2 and batch.n_failed == 0

    def test_prune_and_clear_sweep_orphaned_tmp_files(self, cache_root, grid, small_stack):
        """A writer killed mid-store leaves a .tmp- file; maintenance reclaims it."""
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        shard = os.path.dirname(glob.glob(os.path.join(cache_root, "runs", "*", "*.h5lite"))[0])
        orphan = os.path.join(shard, "deadbeef.h5lite.tmp-9999-1")
        with open(orphan, "wb") as fh:
            fh.write(b"partial write")
        assert sess.cache.stats()["n_orphaned_tmp"] == 1
        # a *young* orphan survives prune: it may be a live concurrent write
        sess.cache.prune(older_than_s=3600.0)
        assert os.path.exists(orphan)
        old = os.stat(orphan)
        os.utime(orphan, ns=(old.st_atime_ns, old.st_mtime_ns - int(7200e9)))
        sess.cache.prune(older_than_s=3600.0)
        assert not os.path.exists(orphan)
        # clear sweeps orphans regardless of age
        with open(orphan, "wb") as fh:
            fh.write(b"partial write")
        sess.cache.clear()
        assert not os.path.exists(orphan)
        assert sess.cache.stats()["n_orphaned_tmp"] == 0

    def test_cache_entry_record_is_json_clean(self, cache_root, grid, small_stack):
        """The stored cache block must round-trip as strict JSON."""
        from repro.io.image_stack import load_run_payload

        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        entry = glob.glob(os.path.join(cache_root, "runs", "*", "*.h5lite"))[0]
        _stack, record = load_run_payload(entry)
        block = record["cache"]
        assert set(block) == {"format", "key", "stored_unix", "data_sha256"}
        json.dumps(record)  # strictly serialisable
        # cache entries never claim user outputs
        assert record["outputs"] == {
            "output_path": None, "text_path": None, "profile_pixels": None,
        }


# --------------------------------------------------------------------------- #
# structured session counters (the serve /metrics "cache" section)
class TestCounters:
    def test_counters_track_probe_outcomes(self, cache_root, grid, small_stack):
        sess = repro.session(grid=grid).cached(cache_root)
        cache = sess.cache
        assert cache.counters() == {
            "hits": 0, "misses": 0, "stores": 0, "repaired": 0,
            "probes": 0, "hit_rate": None,
        }
        sess.run(small_stack)  # miss + store
        counters = cache.counters()
        assert counters["misses"] == 1 and counters["stores"] == 1
        assert counters["hits"] == 0 and counters["hit_rate"] == 0.0
        sess.run(small_stack)  # hit
        counters = cache.counters()
        assert counters["hits"] == 1 and counters["probes"] == 2
        assert counters["hit_rate"] == 0.5

    def test_counters_track_repairs(self, cache_root, grid, small_stack):
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        entry = glob.glob(os.path.join(cache_root, "runs", "*", "*.h5lite"))[0]
        with open(entry, "r+b") as fh:
            fh.write(b"garbage!")
        sess.run(small_stack)  # repair + recompute + re-store
        counters = sess.cache.counters()
        assert counters["repaired"] == 1
        assert counters["stores"] == 2

    def test_stats_embeds_the_session_counters(self, cache_root, grid, small_stack):
        sess = repro.session(grid=grid).cached(cache_root)
        sess.run(small_stack)
        stats = sess.cache.stats()
        assert stats["session"] == sess.cache.counters()
        json.dumps(stats)  # the whole stats document stays JSON-safe
