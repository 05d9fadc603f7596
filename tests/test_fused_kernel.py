"""Property-style equivalence tests for the fused single-pass kernel.

The fused kernel (``depth_resolve_chunk_fused``) is the production kernel of
the host backends, and its load-bearing contract is **bitwise identity**
with the scalar reference loop: the same trapezoid table, the same per-bin
weights in the same operation order, the same accumulation order into every
output slot, results independent of the ``row_block`` / ``element_batch``
temporaries.  These tests pin that contract across odd shapes, degenerate
trapezoids, masks, cutoffs, both wire edges, both difference modes, a
realistic detector geometry, row-offset chunks written into one cube, and
every registered backend (chunked and streamed).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.core.backends.base import build_kernel_context
from repro.core.backends.threaded import _band_context
from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.engine import execute_backend
from repro.core.kernels import depth_resolve_chunk_fused, depth_resolve_chunk_scalar
from repro.core.stack import WireScanStack
from repro.core.workerpool import shutdown_shared_thread_pool
from repro.geometry.detector import Detector
from repro.geometry.scan import WireScan
from repro.geometry.wire import Wire, WireEdge
from repro.io.image_stack import save_wire_scan
from repro.io.streaming import StreamingWireScanSource
from repro.synthetic.forward_model import design_scan_for_depth_range
from repro.synthetic.workloads import make_grain_sample_stack, make_point_source_stack
from repro.utils.validation import ValidationError
from tests.helpers import make_tiny_stack

#: Every registered backend: each one is bitwise identical to the scalar
#: reference and reports the same active-element count.
ALL_BACKENDS = ("cpu_reference", "vectorized", "threaded", "gpusim")
#: The host backends the parametrized bitwise tests below run (gpusim has
#: its own test there).
EXACT_BACKENDS = ALL_BACKENDS[:3]
#: Retired backend names the config still resolves, with a deprecation warning.
RETIRED_BACKENDS = ("multiprocess",)


def _noisy_stack(n_rows=7, n_cols=5, n_positions=17, masked=False, seed=11):
    stack = make_tiny_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
    rng = np.random.default_rng(seed)
    stack.images = stack.images + rng.random(stack.images.shape) * 5.0
    if masked:
        stack.pixel_mask = rng.random((n_rows, n_cols)) > 0.3
    return stack


def _backend_config(backend_name, **kwargs):
    """A config naming ``backend_name``; a retired name must warn and resolve."""
    if backend_name in RETIRED_BACKENDS:
        with pytest.warns(DeprecationWarning, match=backend_name):
            return ReconstructionConfig(backend=backend_name, **kwargs)
    return ReconstructionConfig(backend=backend_name, **kwargs)


def _context(stack, **config_overrides):
    grid = config_overrides.pop("grid", DepthGrid.from_range(0.0, 100.0, 25))
    config = ReconstructionConfig(grid=grid, **config_overrides)
    return build_kernel_context(stack, config)


def _assert_fused_bitwise(ctx, **fused_kwargs):
    shape = (ctx.grid.n_bins, ctx.n_rows, ctx.n_cols)
    out_scalar = np.zeros(shape)
    out_fused = np.zeros(shape)
    n_active_scalar = depth_resolve_chunk_scalar(ctx, out_scalar)
    n_active_fused = depth_resolve_chunk_fused(ctx, out_fused, **fused_kwargs)
    assert np.array_equal(out_scalar, out_fused), (
        f"fused kernel diverged from scalar reference: "
        f"{np.count_nonzero(out_scalar != out_fused)} differing slot(s)"
    )
    assert n_active_scalar == n_active_fused
    return out_scalar


class TestFusedVsScalar:
    def test_point_source_bitwise(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        _assert_fused_bitwise(_context(stack, grid=depth_grid))

    @pytest.mark.parametrize(
        "n_rows,n_cols,n_positions",
        [(1, 1, 3), (1, 7, 5), (7, 1, 5), (3, 5, 2), (5, 3, 17)],
    )
    def test_odd_shapes_bitwise(self, n_rows, n_cols, n_positions):
        stack = _noisy_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
        _assert_fused_bitwise(_context(stack))

    @pytest.mark.parametrize("wire_edge", [WireEdge.LEADING, WireEdge.TRAILING])
    @pytest.mark.parametrize(
        "difference_mode", [DifferenceMode.SIGNED, DifferenceMode.RECTIFIED]
    )
    def test_edges_and_modes_bitwise(self, wire_edge, difference_mode):
        stack = _noisy_stack(masked=True)
        ctx = _context(stack, wire_edge=wire_edge, difference_mode=difference_mode)
        _assert_fused_bitwise(ctx)

    def test_mask_and_cutoff_bitwise(self):
        stack = _noisy_stack(masked=True)
        ctx = _context(stack)
        ctx.intensity_cutoff = float(np.median(np.abs(ctx.signed_differences())))
        _assert_fused_bitwise(ctx)

    def test_degenerate_trapezoids_bitwise(self):
        """Zero-motion wire steps collapse the trapezoid's ramps to zero width.

        Both paths must treat exactly the same degenerate (step, row) pairs
        alike — a divide-by-ramp-width in the fused path would surface here
        as NaN.
        """
        stack = _noisy_stack(n_positions=9)
        positions = stack.scan.positions
        positions[3] = positions[2]  # a step the wire did not move
        positions[7] = positions[6]
        stack = dataclasses.replace(
            stack, scan=WireScan(wire=stack.scan.wire, positions_yz=positions)
        )
        ctx = _context(stack)
        d1, d2, d3, d4, _area, _active = ctx.trapezoids
        assert np.array_equal(d1[[2, 6]], d2[[2, 6]])
        assert np.array_equal(d3[[2, 6]], d4[[2, 6]])
        out = _assert_fused_bitwise(ctx)
        assert np.all(np.isfinite(out))

    def test_all_inactive_elements(self):
        stack = _noisy_stack()
        ctx = _context(stack)
        ctx.intensity_cutoff = 1e12
        shape = (ctx.grid.n_bins, ctx.n_rows, ctx.n_cols)
        out = np.zeros(shape)
        assert depth_resolve_chunk_fused(ctx, out) == 0
        assert out.sum() == 0.0

    def test_row_block_and_batch_do_not_change_result(self):
        """row_block / element_batch bound temporaries, never the answer."""
        stack = _noisy_stack(n_rows=11, masked=True)
        ctx = _context(stack)
        reference = _assert_fused_bitwise(ctx)
        for row_block, element_batch in [(1, 3), (2, 7), (4, 1), (100, 1 << 20)]:
            out = np.zeros_like(reference)
            depth_resolve_chunk_fused(
                ctx, out, element_batch=element_batch, row_block=row_block
            )
            assert np.array_equal(out, reference), (
                f"result depends on row_block={row_block}, "
                f"element_batch={element_batch}"
            )


class TestIntoOneCube:
    """The chunk kernels write their rows of one whole-detector cube: a
    context of rows ``start:stop`` (``_band_context``, whose ``row_offset``
    is ``start``) lands at those rows."""

    @pytest.mark.parametrize("kernel", [depth_resolve_chunk_fused, depth_resolve_chunk_scalar])
    def test_row_offset_chunks_equal_the_whole_stack(self, kernel):
        stack = _noisy_stack(n_rows=7, masked=True)
        ctx = _context(stack)
        whole = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols))
        n_whole = kernel(ctx, whole)
        cube = np.zeros_like(whole)
        n_chunks = sum(
            kernel(_band_context(ctx, start, stop), cube)
            for start, stop in [(0, 2), (2, 3), (3, 6), (6, 7)]
        )
        assert np.array_equal(cube, whole)
        assert n_chunks == n_whole

    @pytest.mark.parametrize("kernel", [depth_resolve_chunk_fused, depth_resolve_chunk_scalar])
    @pytest.mark.parametrize(
        "bad_out",
        [
            lambda cube: cube[:, 0:3],  # a row view: reshape(-1) would copy
            lambda cube: cube[:, :3].astype(np.float32),
            lambda cube: cube[:, :2].copy(),  # rows 1..2 at offset 1 need 3
            lambda cube: cube[:-1, :3].copy(),  # wrong number of bins
        ],
        ids=["row-view", "float32", "too-few-rows", "wrong-bins"],
    )
    def test_refuses_an_out_it_would_drop(self, kernel, bad_out):
        """Writes through ``out.reshape(-1)`` into a non-contiguous view land
        in a copy; the kernel must raise instead of reporting them done."""
        stack = _noisy_stack(n_rows=3)
        ctx = _band_context(_context(stack, grid=DepthGrid.from_range(0.0, 100.0, 20)), 1, 3)
        cube = np.zeros((20, 6, ctx.n_cols))
        with pytest.raises(ValidationError, match="C-contiguous float64 cube holding"):
            kernel(ctx, bad_out(cube))
        assert cube.sum() == 0.0


class TestBackendsBitwise:
    @pytest.fixture(scope="class")
    def reference_run(self):
        stack, _ = make_point_source_stack(depth=40.0, n_rows=6, n_cols=5, n_positions=41)
        grid = DepthGrid.from_range(0.0, 100.0, 25)
        config = ReconstructionConfig(grid=grid, backend="cpu_reference")
        result, _report = get_backend("cpu_reference").reconstruct(stack, config)
        return stack, grid, result

    @pytest.mark.parametrize("backend_name", EXACT_BACKENDS[1:] + RETIRED_BACKENDS)
    def test_backend_bitwise_identical(self, reference_run, backend_name):
        stack, grid, reference = reference_run
        config = _backend_config(backend_name, grid=grid, n_workers=2)
        result, _report = get_backend(config.backend).reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        shutdown_shared_thread_pool()

    @pytest.mark.parametrize("backend_name", EXACT_BACKENDS[1:] + RETIRED_BACKENDS)
    def test_backend_bitwise_identical_chunked(self, reference_run, backend_name):
        stack, grid, reference = reference_run
        config = _backend_config(backend_name, grid=grid, n_workers=2, rows_per_chunk=2)
        result, _report = get_backend(config.backend).reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        shutdown_shared_thread_pool()

    def test_backend_bitwise_identical_streamed(self, reference_run, tmp_path):
        stack, grid, reference = reference_run
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        config = ReconstructionConfig(
            grid=grid, backend="vectorized", rows_per_chunk=2
        )
        source = StreamingWireScanSource(path)
        result, _report = execute_backend(source, config)
        assert source.accounting()["max_resident_rows"] == 2  # truly streamed
        assert np.array_equal(reference.data, result.data)

    def test_gpusim_bitwise_identical(self, reference_run):
        """The simulated device is bitwise identical too: it reads the same table."""
        stack, grid, reference = reference_run
        config = ReconstructionConfig(grid=grid, backend="gpusim")
        result, _report = get_backend("gpusim").reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)


class TestRealisticGeometry:
    """A full-height detector column at the benchmark scans' geometry.

    Realistic pixel and wire coordinates are where NumPy's vectorised
    transcendental functions and ``math``'s differ in the last bit, so a
    backend that solved the critical depths its own way would diverge from
    the scalar reference here.  Every backend reads the one per-run
    trapezoid table, in every chunking and streaming mode.
    """

    CASES = [
        ("vectorized", {}),
        ("vectorized", {"executor": "threads"}),
        ("threaded", {}),
        ("gpusim", {}),
    ]

    @pytest.fixture(scope="class")
    def scan(self, tmp_path_factory):
        detector = Detector(n_rows=87, n_cols=2, pixel_size=200.0, distance=510_000.0)
        wire_scan = design_scan_for_depth_range(
            detector, (0.0, 100.0), wire=Wire(radius=26.0), n_points=49
        )
        images = np.random.default_rng(0).random((49, 87, 2)) * 100.0
        stack = WireScanStack(images=images, scan=wire_scan, detector=detector)
        grid = DepthGrid.from_range(0.0, 100.0, 40)
        reference, _report = get_backend("cpu_reference").reconstruct(
            stack, ReconstructionConfig(grid=grid, backend="cpu_reference")
        )
        path = str(tmp_path_factory.mktemp("realistic") / "scan.h5lite")
        save_wire_scan(path, stack)
        return stack, path, grid, reference

    @pytest.mark.parametrize("backend_name,extra", CASES)
    @pytest.mark.parametrize("mode", ["in-memory", "chunked", "streamed"])
    def test_bitwise_identical_to_reference(self, scan, mode, backend_name, extra):
        stack, path, grid, reference = scan
        config = ReconstructionConfig(
            grid=grid,
            backend=backend_name,
            n_workers=2,
            rows_per_chunk=None if mode == "in-memory" else 2,
            **extra,
        )
        if mode == "streamed":
            result, _report = execute_backend(StreamingWireScanSource(path), config)
        else:
            result, _report = get_backend(backend_name).reconstruct(stack, config)
        shutdown_shared_thread_pool()
        differing = int(np.count_nonzero(result.data != reference.data))
        assert differing == 0, f"{differing} of {reference.data.size} slots differ"


class TestNoisyGrainScan:
    """A noisy grain scan whose overlap squares hit inputs where libm ``pow``
    is one ulp off the exact product: the scalar reference squares with
    products, like NumPy, so every backend stays bitwise equal to it."""

    @pytest.fixture(scope="class")
    def scan(self):
        stack, _source, _sample = make_grain_sample_stack(
            n_rows=6, n_cols=64, n_positions=121, noise=True
        )
        grid = DepthGrid.from_range(0.0, 120.0, 60)
        reference, report = get_backend("cpu_reference").reconstruct(
            stack, ReconstructionConfig(grid=grid, backend="cpu_reference")
        )
        return stack, grid, reference, report

    @pytest.mark.parametrize("backend_name,extra", TestRealisticGeometry.CASES)
    def test_bitwise_identical_to_reference(self, scan, backend_name, extra):
        stack, grid, reference, reference_report = scan
        config = ReconstructionConfig(grid=grid, backend=backend_name, n_workers=2, **extra)
        result, report = get_backend(backend_name).reconstruct(stack, config)
        shutdown_shared_thread_pool()
        differing = int(np.count_nonzero(result.data != reference.data))
        assert differing == 0, f"{differing} of {reference.data.size} slots differ"
        assert report.n_active_pixels == reference_report.n_active_pixels


class TestNanPixel:
    """A NaN difference is never active: every kernel tests ``|d| > cutoff``,
    which is false for NaN, so no backend distributes the two elements a NaN
    pixel touches, and none writes a NaN."""

    @pytest.mark.parametrize("rows_per_chunk", [None, 2], ids=["in-memory", "chunked"])
    def test_every_backend_skips_the_nan_pixel(self, rows_per_chunk):
        stack = _noisy_stack()
        stack.images[8, 3, 2] = np.nan
        results = {}
        for name in ALL_BACKENDS:
            config = ReconstructionConfig(
                grid=DepthGrid.from_range(0.0, 100.0, 25),
                backend=name,
                n_workers=2,
                rows_per_chunk=rows_per_chunk,
            )
            results[name] = get_backend(name).reconstruct(stack, config)
        shutdown_shared_thread_pool()
        reference, reference_report = results["cpu_reference"]
        assert not np.isnan(reference.data).any()
        for name, (result, report) in results.items():
            assert np.array_equal(result.data, reference.data), name
            assert report.n_active_pixels == reference_report.n_active_pixels, name


class TestActiveCountAcrossBackends:
    """``n_active_pixels`` is counted by each backend's kernel, one definition."""

    @pytest.fixture(scope="class")
    def scan(self, tmp_path_factory):
        stack = _noisy_stack(n_rows=6, n_cols=5, n_positions=13, masked=True)
        path = str(tmp_path_factory.mktemp("active") / "scan.h5lite")
        save_wire_scan(path, stack)
        return stack, path

    @pytest.mark.parametrize("mode", ["in-memory", "chunked", "streamed"])
    def test_every_backend_reports_the_same_count(self, scan, mode):
        from repro.core.engine import StackChunkSource

        stack, path = scan
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 25),
            subtract_background=True,
            difference_mode=DifferenceMode.RECTIFIED,
            n_workers=2,
            rows_per_chunk=None if mode == "in-memory" else 2,
        )
        counts = {}
        for name in ALL_BACKENDS:
            source = (
                StreamingWireScanSource(path) if mode == "streamed" else StackChunkSource(stack)
            )
            _result, report = execute_backend(source, config.with_backend(name))
            counts[name] = report.n_active_pixels
        shutdown_shared_thread_pool()
        # ground truth: the scalar reference over the whole background-
        # subtracted stack; the mask and the rectification leave elements out
        ctx = build_kernel_context(stack, config)
        out = np.zeros((config.grid.n_bins, ctx.n_rows, ctx.n_cols))
        expected = depth_resolve_chunk_scalar(ctx, out)
        assert 0 < expected < ctx.n_steps * ctx.n_rows * ctx.n_cols
        assert counts == dict.fromkeys(ALL_BACKENDS, expected)
