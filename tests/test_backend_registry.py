"""Tests for the pluggable backend registry and config round-tripping.

Covers the registry mechanics (registration, unregistration, duplicate-name
rejection, did-you-mean suggestions), ``ReconstructionConfig`` fail-fast
validation and ``to_dict``/``from_dict``, and the acceptance scenario: a toy
out-of-tree backend registered via ``@register_backend`` running end-to-end
through the session, the registry CLI and ``Session.compare``.
"""

import json

import numpy as np
import pytest

from repro.core.backends.base import Backend
from repro.core.backends.vectorized import VectorizedExecutor
from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.registry import (
    BackendInfo,
    available_backends,
    backend_info,
    backends,
    get_backend,
    register_backend,
    register_backend_info,
    unregister_backend,
)
from repro.core.session import session
from repro.geometry.wire import WireEdge
from repro.utils.validation import ValidationError
from tests.helpers import make_tiny_stack

ALL_BACKENDS = ("cpu_reference", "vectorized", "gpusim")


class _ToyExecutor(VectorizedExecutor):
    """The vectorised compute under an out-of-tree name."""

    name = "toy"


@pytest.fixture()
def toy_backend():
    """Register a toy out-of-tree backend for the duration of one test."""

    @register_backend("toy", supports_streaming=True, description="out-of-tree test backend")
    class ToyBackend(Backend):
        def make_executor(self, config):
            return _ToyExecutor()

    try:
        yield ToyBackend
    finally:
        unregister_backend("toy")


class TestRegistry:
    def test_builtins_registered_with_capabilities(self):
        names = available_backends()
        for name in ALL_BACKENDS:
            assert name in names
            info = backend_info(name)
            assert info.supports_streaming is True
            assert info.module.startswith("repro.core.backends.")
            assert info.description
            assert info.capabilities() == {"supports_streaming": True}
        assert available_backends() == sorted(ALL_BACKENDS)

    def test_backends_listing_sorted(self):
        infos = backends()
        assert [info.name for info in infos] == sorted(info.name for info in infos)
        assert {info.name for info in infos} >= set(ALL_BACKENDS)

    def test_backends_single_lookup(self):
        info = backends("gpusim")
        assert isinstance(info, BackendInfo)
        assert info.name == "gpusim"

    def test_unknown_backend_rejected_with_suggestion(self):
        with pytest.raises(ValidationError, match="did you mean 'vectorized'"):
            get_backend("vectorised")

    def test_unknown_backend_without_close_match(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            get_backend("zzzz-not-a-backend")

    def test_register_and_unregister(self, toy_backend):
        assert "toy" in available_backends()
        assert isinstance(get_backend("toy"), toy_backend)
        info = unregister_backend("toy")
        assert info.name == "toy"
        assert "toy" not in available_backends()
        register_backend_info(info)  # restore for the fixture teardown

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ValidationError, match="cannot unregister"):
            unregister_backend("never-registered")

    def test_duplicate_name_rejected(self, toy_backend):
        with pytest.raises(ValidationError, match="already registered"):
            @register_backend("toy")
            class Duplicate(Backend):
                def make_executor(self, config):  # pragma: no cover - never built
                    raise NotImplementedError

    def test_duplicate_name_allowed_with_replace(self, toy_backend):
        original = backend_info("toy")

        @register_backend("toy", replace=True, description="replacement")
        class Replacement(Backend):
            def make_executor(self, config):
                return _ToyExecutor()

        assert backend_info("toy").description == "replacement"
        register_backend_info(original, replace=True)

    def test_register_requires_name(self):
        with pytest.raises(ValidationError):
            @register_backend
            class Nameless(Backend):  # pragma: no cover - definition only
                name = ""

                def make_executor(self, config):
                    raise NotImplementedError

    def test_register_rejects_conflicting_names(self):
        with pytest.raises(ValidationError, match="declares name"):
            @register_backend("one-name")
            class Conflicted(Backend):  # pragma: no cover - definition only
                name = "another-name"

                def make_executor(self, config):
                    raise NotImplementedError

    def test_info_to_dict_json_safe(self):
        payload = json.dumps([info.to_dict() for info in backends()])
        decoded = json.loads(payload)
        assert {entry["name"] for entry in decoded} >= set(ALL_BACKENDS)


class TestConfigRegistryValidation:
    def test_typo_fails_fast_at_construction(self, depth_grid):
        with pytest.raises(ValidationError, match="did you mean 'gpusim'"):
            ReconstructionConfig(grid=depth_grid, backend="gpusym")

    def test_with_backend_validates(self, depth_grid):
        config = ReconstructionConfig(grid=depth_grid)
        with pytest.raises(ValidationError, match="unknown backend"):
            config.with_backend("quantum")

    def test_streaming_capability_enforced(self, depth_grid):
        @register_backend("no-stream", supports_streaming=False)
        class NoStream(Backend):
            def make_executor(self, config):  # pragma: no cover - never built
                raise NotImplementedError

        try:
            ReconstructionConfig(grid=depth_grid, backend="no-stream")  # fine
            with pytest.raises(ValidationError, match="does not support streaming"):
                ReconstructionConfig(grid=depth_grid, backend="no-stream", streaming=True)
        finally:
            unregister_backend("no-stream")


class TestConfigRoundTrip:
    def test_round_trip_all_fields(self):
        config = ReconstructionConfig(
            grid=DepthGrid(start=-5.0, step=2.5, n_bins=17),
            wire_edge=WireEdge.TRAILING,
            difference_mode=DifferenceMode.RECTIFIED,
            intensity_cutoff=0.75,
            backend="vectorized",
            layout="pointer3d",
            rows_per_chunk=3,
            device_memory_limit=1 << 20,
            n_workers=5,
            executor="threads",
            subtract_background=True,
            streaming=True,
        )
        data = config.to_dict()
        assert json.loads(json.dumps(data)) == data  # JSON-safe snapshot
        restored = ReconstructionConfig.from_dict(data)
        assert restored == config

    def test_round_trip_defaults(self, depth_grid):
        config = ReconstructionConfig(grid=depth_grid)
        assert ReconstructionConfig.from_dict(config.to_dict()) == config

    def test_from_dict_accepts_enum_instances(self, depth_grid):
        data = ReconstructionConfig(grid=depth_grid).to_dict()
        data["wire_edge"] = WireEdge.LEADING
        data["difference_mode"] = DifferenceMode.SIGNED
        data["grid"] = depth_grid
        assert ReconstructionConfig.from_dict(data).grid == depth_grid

    def test_from_dict_rejects_unknown_fields(self, depth_grid):
        data = ReconstructionConfig(grid=depth_grid).to_dict()
        data["gpu_count"] = 8
        with pytest.raises(ValidationError, match="unknown config field"):
            ReconstructionConfig.from_dict(data)

    def test_from_dict_rejects_bad_enum_strings(self, depth_grid):
        data = ReconstructionConfig(grid=depth_grid).to_dict()
        data["wire_edge"] = "sideways"
        with pytest.raises(ValidationError, match="unknown wire_edge"):
            ReconstructionConfig.from_dict(data)
        data = ReconstructionConfig(grid=depth_grid).to_dict()
        data["difference_mode"] = "absolute"
        with pytest.raises(ValidationError, match="unknown difference_mode"):
            ReconstructionConfig.from_dict(data)

    def test_from_dict_requires_grid(self):
        with pytest.raises(ValidationError, match="grid"):
            ReconstructionConfig.from_dict({"backend": "vectorized"})

    def test_from_dict_validates_backend_via_registry(self, depth_grid):
        data = ReconstructionConfig(grid=depth_grid).to_dict()
        data["backend"] = "vectorised"
        with pytest.raises(ValidationError, match="did you mean"):
            ReconstructionConfig.from_dict(data)


class TestRetiredNames:
    """``threaded`` / ``multiprocess`` still load, as the vectorized backend
    on the ``threads`` executor; ``processes`` as ``threads``."""

    def test_constructor_resolves_with_warning(self, depth_grid):
        # the retired backends ran on threads whatever executor was named
        for old in ("threaded", "multiprocess"):
            for executor in ("serial", "threads", "auto"):
                with pytest.warns(DeprecationWarning, match=old):
                    config = ReconstructionConfig(grid=depth_grid, backend=old, executor=executor)
                assert (config.backend, config.executor) == ("vectorized", "threads")
        with pytest.warns(DeprecationWarning, match="processes"):
            config = ReconstructionConfig(grid=depth_grid, executor="processes")
        assert (config.backend, config.executor) == ("vectorized", "threads")

    def test_with_backend_resolves_with_warning(self, depth_grid):
        for old in ("threaded", "multiprocess"):
            with pytest.warns(DeprecationWarning, match=old):
                config = ReconstructionConfig(grid=depth_grid).with_backend(old)
            assert (config.backend, config.executor) == ("vectorized", "threads")

    def test_from_dict_resolves_saved_records(self, depth_grid):
        data = ReconstructionConfig(grid=depth_grid).to_dict()
        data.update(backend="multiprocess", executor="processes")
        with pytest.warns(DeprecationWarning) as caught:
            config = ReconstructionConfig.from_dict(data)
        assert len(caught) == 2
        assert (config.backend, config.executor) == ("vectorized", "threads")
        assert config.to_dict() == dict(data, backend="vectorized", executor="threads")

    def test_session_on_old_name_is_bitwise_threaded(self, depth_grid):
        stack = make_tiny_stack(n_rows=6, n_cols=4, n_positions=21)
        base = session(grid=depth_grid, n_workers=2)
        serial = base.run(stack)
        threads = base.configure(executor="threads").run(stack)
        # the report, and so the provenance, names the backend; the executor
        # is in the config
        assert threads.report.backend == threads.provenance()["backend"] == "vectorized"
        for old in ("threaded", "multiprocess"):
            with pytest.warns(DeprecationWarning, match=old):
                run = base.on(old).run(stack)
            assert (run.config.backend, run.config.executor) == ("vectorized", "threads")
            assert run.report.backend == "vectorized"
            assert run.result.data.tobytes() == threads.result.data.tobytes()
        assert np.array_equal(threads.result.data, serial.result.data)


class TestToyBackendEndToEnd:
    """Acceptance: an out-of-tree backend is a first-class citizen."""

    def test_runs_through_session(self, toy_backend, depth_grid):
        stack = make_tiny_stack(n_rows=4, n_cols=3, n_positions=11)
        run = session(grid=depth_grid).on("toy").run(stack)
        reference = session(grid=depth_grid).on("vectorized").run(stack)
        np.testing.assert_array_equal(run.result.data, reference.result.data)
        assert run.report.backend == "toy"
        assert json.loads(run.to_json())["backend"] == "toy"

    def test_visible_in_registry_cli(self, toy_backend, capsys):
        from repro.cli import main_backends

        assert main_backends([]) == 0
        table = capsys.readouterr().out
        assert "toy" in table and "out-of-tree test backend" in table
        assert main_backends(["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = [item for item in payload if item["name"] == "toy"]
        assert entry["supports_streaming"] is True
        assert entry["module"] == __name__

    def test_compare_backends_includes_toy(self, toy_backend, depth_grid):
        stack = make_tiny_stack(n_rows=4, n_cols=3, n_positions=11)
        runs = session(grid=depth_grid).compare(stack, ["vectorized", "toy"])
        assert set(runs) == {"vectorized", "toy"}
        np.testing.assert_array_equal(
            runs["toy"].result.data, runs["vectorized"].result.data
        )

    def test_streamed_toy_run_matches_in_memory(self, toy_backend, depth_grid, tmp_path):
        from repro.io.image_stack import save_wire_scan

        stack = make_tiny_stack(n_rows=5, n_cols=3, n_positions=11)
        path = tmp_path / "scan.h5lite"
        save_wire_scan(path, stack)
        sess = session(grid=depth_grid).on("toy")
        in_memory = sess.run(str(path))
        streamed = sess.stream(rows_per_chunk=2).run(str(path))
        np.testing.assert_array_equal(streamed.result.data, in_memory.result.data)
        assert any("streamed from disk" in note for note in streamed.report.notes)
