"""Property-style equivalence tests for the fused single-pass kernel.

The fused kernel (``depth_resolve_chunk_fused``) is the production kernel of
the host backends, and its load-bearing contract is **bitwise identity**
with the scalar reference loop: the same trapezoid table, the same per-bin
weights in the same operation order, the same accumulation order into every
output slot, results independent of the ``row_block`` / ``element_batch``
temporaries.  These tests pin that contract across odd shapes, degenerate
trapezoids, masks, cutoffs, both wire edges, both difference modes, a
realistic detector geometry, row-offset chunks written into one cube, one
element batch shared by every chunk of a run (as the serial executor
shares it), and every backend and executor (chunked and streamed).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import kernels
from repro.core.backends import get_backend
from repro.core.backends.threaded import _band_context
from repro.core.backends.vectorized import VectorizedExecutor
from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.engine import (
    StackChunkSource,
    build_chunk_context,
    build_execution_plan,
    execute,
    execute_backend,
)
from repro.core.kernels import (
    _ElementBatch,
    depth_resolve_chunk_fused,
    depth_resolve_chunk_scalar,
)
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
from tests.helpers import RUNS, make_tiny_stack

#: Retired backend names the config still resolves, with a deprecation warning.
RETIRED_BACKENDS = ("multiprocess",)


def _noisy_stack(n_rows=7, n_cols=5, n_positions=17, masked=False, seed=11):
    stack = make_tiny_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
    rng = np.random.default_rng(seed)
    stack.images = stack.images + rng.random(stack.images.shape) * 5.0
    if masked:
        stack.pixel_mask = rng.random((n_rows, n_cols)) > 0.3
    return stack


def _run_config(name, **kwargs):
    """The config of the run ``RUNS[name]``; a retired backend name must warn
    and resolve."""
    if name in RETIRED_BACKENDS:
        with pytest.warns(DeprecationWarning, match=name):
            return ReconstructionConfig(backend=name, **kwargs)
    return ReconstructionConfig(**RUNS[name], **kwargs)


def _context(stack, **config_overrides):
    """The kernel context of every row of *stack*, as an engine run builds it."""
    grid = config_overrides.pop("grid", DepthGrid.from_range(0.0, 100.0, 25))
    config = ReconstructionConfig(grid=grid, **config_overrides)
    source = StackChunkSource(stack)
    plan = build_execution_plan(source, config)
    return build_chunk_context(source, config, plan, 0, source.n_rows)


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
        ctx.intensity_cutoff = float(np.median(np.abs(ctx.images[:-1] - ctx.images[1:])))
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

    @pytest.mark.parametrize("run", ("vectorized", "threaded") + RETIRED_BACKENDS)
    def test_backend_bitwise_identical(self, reference_run, run):
        stack, grid, reference = reference_run
        config = _run_config(run, grid=grid, n_workers=2)
        result, _report = get_backend(config.backend).reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        shutdown_shared_thread_pool()

    @pytest.mark.parametrize("run", ("vectorized", "threaded") + RETIRED_BACKENDS)
    def test_backend_bitwise_identical_chunked(self, reference_run, run):
        stack, grid, reference = reference_run
        config = _run_config(run, grid=grid, n_workers=2, rows_per_chunk=2)
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

    #: (run, extra config): serial, the threads executor at two widths, and
    #: the simulated device
    CASES = [
        ("vectorized", {}),
        ("vectorized", {"executor": "threads", "n_workers": 2}),
        ("threaded", {"n_workers": 3}),
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

    @pytest.mark.parametrize("run,extra", CASES)
    @pytest.mark.parametrize("mode", ["in-memory", "chunked", "streamed"])
    def test_bitwise_identical_to_reference(self, scan, mode, run, extra):
        stack, path, grid, reference = scan
        config = _run_config(
            run, grid=grid, rows_per_chunk=None if mode == "in-memory" else 2, **extra
        )
        if mode == "streamed":
            result, _report = execute_backend(StreamingWireScanSource(path), config)
        else:
            result, _report = get_backend(config.backend).reconstruct(stack, config)
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

    @pytest.mark.parametrize("run,extra", TestRealisticGeometry.CASES)
    def test_bitwise_identical_to_reference(self, scan, run, extra):
        stack, grid, reference, reference_report = scan
        config = _run_config(run, grid=grid, **extra)
        result, report = get_backend(config.backend).reconstruct(stack, config)
        shutdown_shared_thread_pool()
        differing = int(np.count_nonzero(result.data != reference.data))
        assert differing == 0, f"{differing} of {reference.data.size} slots differ"
        assert report.n_active_pixels == reference_report.n_active_pixels


def _every_run(stack, rows_per_chunk):
    """``{run: (result, report)}`` of every run in ``RUNS`` on *stack*."""
    results = {}
    for name in RUNS:
        config = _run_config(
            name,
            grid=DepthGrid.from_range(0.0, 100.0, 25),
            n_workers=2,
            rows_per_chunk=rows_per_chunk,
        )
        results[name] = get_backend(config.backend).reconstruct(stack, config)
    shutdown_shared_thread_pool()
    return results


class TestNanPixel:
    """A NaN difference is never active: every kernel tests ``|d| > cutoff``,
    which is false for NaN, so no backend distributes the two elements a NaN
    pixel touches, and none writes a NaN."""

    @pytest.mark.parametrize("rows_per_chunk", [None, 2], ids=["in-memory", "chunked"])
    def test_every_backend_skips_the_nan_pixel(self, rows_per_chunk):
        stack = _noisy_stack()
        stack.images[8, 3, 2] = np.nan
        results = _every_run(stack, rows_per_chunk)
        reference, reference_report = results["cpu_reference"]
        assert not np.isnan(reference.data).any()
        for name, (result, report) in results.items():
            assert np.array_equal(result.data, reference.data), name
            assert report.n_active_pixels == reference_report.n_active_pixels, name


class TestInfPixel:
    """An infinite difference is active, and every kernel distributes it to
    the same bins: the fused kernel skips the bins whose overlap is not
    positive, as the scalar loop does, instead of writing ``inf * 0.0``
    (NaN) there.  The pixel's two infinite differences have opposite signs,
    so the bins both reach hold NaN on every backend alike."""

    # inf + -inf in a slot is NumPy's invalid-value RuntimeWarning, from the
    # fused kernel's np.add.at ("in add") and the scalar loop's element
    # update ("in scalar add") alike
    @pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("rows_per_chunk", [None, 2], ids=["in-memory", "chunked"])
    def test_every_backend_matches_the_reference(self, rows_per_chunk, value):
        stack = _noisy_stack()
        stack.images[8, 3, 2] = value
        results = _every_run(stack, rows_per_chunk)
        reference, reference_report = results["cpu_reference"]
        assert np.isnan(reference.data).any() and np.isinf(reference.data).any()
        for name, (result, report) in results.items():
            assert np.array_equal(result.data, reference.data, equal_nan=True), name
            assert report.n_active_pixels == reference_report.n_active_pixels, name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("masked", [False, True], ids=["dense-block", "masked-block"])
    def test_a_lone_infinite_difference_does_not_warn(self, masked):
        """One infinite difference (position 2 of the noisy stack touches the
        unusable step 1 and the first usable step 2): the scalar loop skips
        its bins whose overlap is not positive without a warning, and both
        forms of the fused kernel must too, never forming the
        ``inf * 0.0`` (NaN) that warns."""
        stack = _noisy_stack()
        stack.images[2, 3, 2] = np.inf
        if masked:
            stack.pixel_mask = np.zeros(stack.images.shape[1:], dtype=bool)
            stack.pixel_mask[:, 2] = True
        ctx = _context(stack)
        # the stack is one row block: with every pixel on it takes the row
        # form, with one column of five the element form
        active = (np.abs(ctx.images[:-1] - ctx.images[1:]) > 0.0) & ctx.trapezoids[5][:, :, None]
        if masked:
            active &= ctx.mask[None]
        density = np.count_nonzero(active) / (np.count_nonzero(active.any(axis=2)) * ctx.n_cols)
        assert (density >= 0.5) != masked, density
        out_scalar = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols))
        out_fused = np.zeros_like(out_scalar)
        n_scalar = depth_resolve_chunk_scalar(ctx, out_scalar)
        assert depth_resolve_chunk_fused(ctx, out_fused) == n_scalar
        assert np.array_equal(out_fused, out_scalar, equal_nan=True)
        assert np.isinf(out_scalar).any()


class TestUnreadPositions:
    """A row block differences only the steps from its first to its last
    usable one, so it never reads a position that only unusable steps touch.
    On the noisy stack (usable steps 2-13 of 16) an ``inf - inf`` at
    positions 0-1 is never computed: no kernel warns, and every backend
    matches the reference bit for bit.  The scalar loop differences every
    element, so the reference runs with that NaN's warning ignored.  A
    streamed vectorized run does not even read those positions: its chunks'
    windows hold only their spans."""

    GRID = DepthGrid.from_range(0.0, 100.0, 25)

    @pytest.fixture(scope="class")
    def stack(self):
        stack = _noisy_stack()
        stack.images[0:2, 3, 2] = np.inf
        return stack

    @pytest.fixture(scope="class")
    def reference(self, stack):
        config = ReconstructionConfig(grid=self.GRID, backend="cpu_reference")
        with pytest.warns(RuntimeWarning, match="invalid value encountered in scalar subtract"):
            result, _report = get_backend("cpu_reference").reconstruct(stack, config)
        return result

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row_block", [None, 1])
    def test_fused_kernel_matches_the_scalar_loop(self, stack, row_block):
        ctx = _context(stack, grid=self.GRID)
        assert not ctx.trapezoids[5][:2].any() and ctx.trapezoids[5][2].all()
        out_scalar = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols))
        out_fused = np.zeros_like(out_scalar)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in scalar subtract"):
            n_scalar = depth_resolve_chunk_scalar(ctx, out_scalar)
        assert depth_resolve_chunk_fused(ctx, out_fused, row_block=row_block) == n_scalar
        assert np.array_equal(out_fused, out_scalar)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows_per_chunk", [None, 2], ids=["in-memory", "chunked"])
    @pytest.mark.parametrize("run", [name for name in RUNS if name != "cpu_reference"])
    def test_every_backend_matches_the_reference(self, stack, reference, run, rows_per_chunk):
        config = _run_config(run, grid=self.GRID, n_workers=2, rows_per_chunk=rows_per_chunk)
        result, _report = get_backend(config.backend).reconstruct(stack, config)
        shutdown_shared_thread_pool()
        assert np.array_equal(result.data, reference.data)

    @pytest.fixture(scope="class")
    def streamed(self, stack, tmp_path_factory):
        """The stack with -inf also at positions 15-16, past every usable step,
        on disk, and the reference over it."""
        stack = dataclasses.replace(stack, images=stack.images.copy())
        stack.images[15:17, 4, 1] = -np.inf
        path = str(tmp_path_factory.mktemp("unread") / "scan.h5lite")
        save_wire_scan(path, stack)
        config = ReconstructionConfig(grid=self.GRID, backend="cpu_reference")
        with pytest.warns(RuntimeWarning, match="invalid value encountered in scalar subtract"):
            reference, _report = get_backend("cpu_reference").reconstruct(stack, config)
        return stack, path, reference

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    @pytest.mark.parametrize("run", ["vectorized", "threaded"])
    def test_streamed_windows_skip_the_infinite_positions(self, streamed, run, rows_per_chunk):
        """A streamed window holds only the positions its chunk's span
        covers, so the ±inf positions are never read at all."""
        stack, path, reference = streamed
        config = _run_config(run, grid=self.GRID, n_workers=2, rows_per_chunk=rows_per_chunk)
        plan = build_execution_plan(StackChunkSource(stack), config, trim_positions=True)
        infinite = {int(position) for position in np.flatnonzero(np.isinf(stack.images).any(axis=(1, 2)))}
        assert infinite == {0, 1, 15, 16}
        for start, stop in plan.position_ranges:
            assert not infinite & set(range(start, stop))
        source = StreamingWireScanSource(path)
        result, _report = execute_backend(source, config)
        shutdown_shared_thread_pool()
        assert np.array_equal(result.data, reference.data)
        assert source.bytes_read == sum(
            (stop - start) * (row_stop - row_start) * stack.n_cols * stack.images.itemsize
            for (row_start, row_stop), (start, stop) in zip(plan.chunks, plan.position_ranges)
        )


class TestBothForms:
    """A row block whose active elements fill at least half of its used
    pairs' rows is distributed in whole cube rows, one wire step at a time;
    any other block element by element.  Rows with every pixel on beside
    rows masked down to two pixels put 2-row blocks (and 2-row chunks) on
    both sides of that rule, each kind holding a +inf, a -inf and a NaN
    pixel; both forms must match the reference bit for bit, and so deliver
    every slot's contributions in ascending step order."""

    #: (position, row, col) of a +inf, a -inf and a NaN pixel in the dense
    #: rows 0-1 and in the sparse rows 2-3
    SPECIAL = [
        ((5, 0, 1), np.inf), ((9, 1, 4), -np.inf), ((12, 0, 6), np.nan),
        ((4, 2, 1), np.inf), ((10, 3, 6), -np.inf), ((7, 2, 5), np.nan),
    ]

    @pytest.fixture(scope="class")
    def stack(self):
        stack = _noisy_stack(n_rows=6, n_cols=8, n_positions=41)
        mask = np.ones((6, 8), dtype=bool)
        mask[2:4] = False
        mask[2, [1, 5]] = mask[3, [2, 6]] = True
        stack.pixel_mask = mask
        for index, value in self.SPECIAL:
            stack.images[index] = value
        return stack

    def test_blocks_fall_on_both_sides_of_the_rule(self, stack):
        ctx = _context(stack)
        diffs = ctx.images[:-1] - ctx.images[1:]
        active = (np.abs(diffs) > 0.0) & ctx.mask[None] & ctx.trapezoids[5][:, :, None]
        densities = [
            np.count_nonzero(block) / (np.count_nonzero(block.any(axis=2)) * ctx.n_cols)
            for block in (active[:, start:start + 2] for start in (0, 2, 4))
        ]
        assert densities[0] >= 0.5 and densities[2] >= 0.5, densities
        assert densities[1] < 0.5, densities

    # inf + -inf in a slot is a NumPy invalid-value RuntimeWarning (see
    # TestInfPixel)
    @pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
    def test_kernel_matches_the_scalar_loop(self, stack):
        ctx = _context(stack)
        out_scalar = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols))
        out_fused = np.zeros_like(out_scalar)
        n_scalar = depth_resolve_chunk_scalar(ctx, out_scalar)
        assert depth_resolve_chunk_fused(ctx, out_fused, row_block=2) == n_scalar
        assert np.array_equal(out_fused, out_scalar, equal_nan=True)
        assert np.isnan(out_scalar).any() and np.isinf(out_scalar).any()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
    @pytest.mark.parametrize("rows_per_chunk", [None, 2], ids=["in-memory", "chunked"])
    def test_every_backend_matches_the_reference(self, stack, rows_per_chunk):
        results = _every_run(stack, rows_per_chunk)
        reference, reference_report = results["cpu_reference"]
        for name, (result, report) in results.items():
            assert np.array_equal(result.data, reference.data, equal_nan=True), name
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
        stack, path = scan
        config = ReconstructionConfig(
            grid=DepthGrid.from_range(0.0, 100.0, 25),
            subtract_background=True,
            difference_mode=DifferenceMode.RECTIFIED,
            n_workers=2,
            rows_per_chunk=None if mode == "in-memory" else 2,
        )
        counts = {}
        for name in RUNS:
            source = (
                StreamingWireScanSource(path) if mode == "streamed" else StackChunkSource(stack)
            )
            _result, report = execute_backend(source, config.with_overrides(**RUNS[name]))
            counts[name] = report.n_active_pixels
        shutdown_shared_thread_pool()
        # ground truth: the scalar reference over the whole background-
        # subtracted stack; the mask and the rectification leave elements out
        whole = StackChunkSource(stack)
        plan = build_execution_plan(whole, config)
        ctx = build_chunk_context(whole, config, plan, 0, whole.n_rows)
        expected = depth_resolve_chunk_scalar(ctx, plan.output)
        assert 0 < expected < ctx.n_steps * ctx.n_rows * ctx.n_cols
        assert counts == dict.fromkeys(RUNS, expected)


class _RecordingBatch(_ElementBatch):
    """An element batch that records the rows it is given and every add
    made while it already held *element_batch* elements or more."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rows = set()
        self.overfull = []

    def add(self, corners, area, values, pairs, pixels):
        if self.n_elements >= self.element_batch:
            self.overfull.append(self.n_elements)
        self.rows.update((pixels // self.out.shape[2]).tolist())
        super().add(corners, area, values, pairs, pixels)


class _FailingSource(StackChunkSource):
    """Serves windows until the *fail_at*-th, which raises ``OSError``,
    noting how many elements the executor's batch then held."""

    def __init__(self, stack, executor, fail_at):
        super().__init__(stack)
        self.executor = executor
        self.fail_at = fail_at
        self.windows = 0
        self.held = None

    def load_window(self, *args):
        self.windows += 1
        if self.windows == self.fail_at:
            self.held = self.executor._batch.n_elements
            raise OSError(f"window {self.windows} lost")
        return super().load_window(*args)


class TestElementBatch:
    """Sparse row blocks only collect their active elements into an element
    batch, and the batch distributes them; the serial executor shares one
    batch between every chunk of a run and flushes it in ``drain()``.  Rows
    0-1 of the stack have every pixel on (the row form), rows 2-5 two pixels
    each (the element form), so dense blocks distribute at once while the
    sparse blocks beside them wait in the batch.  A +inf starts one row's
    first usable step, a -inf ends another's last one and a NaN sits in a
    third, so the batch holds infinite values without ``inf + -inf``
    meeting in a slot: nothing may warn."""

    GRID = DepthGrid.from_range(0.0, 100.0, 25)
    #: the chunks the serial executor would run at rows_per_chunk 1-3
    CHUNKS = [(0, 2), (2, 3), (3, 5), (5, 6)]

    @pytest.fixture(scope="class")
    def stack(self):
        stack = _noisy_stack(n_rows=6, n_cols=8, n_positions=17)
        mask = np.zeros((6, 8), dtype=bool)
        mask[0:2] = True
        mask[2, [1, 5]] = mask[3, [2, 6]] = mask[4, [0, 7]] = mask[5, [3, 4]] = True
        stack.pixel_mask = mask
        usable = _context(stack, grid=self.GRID).trapezoids[5]
        steps = [np.flatnonzero(usable[:, row]) for row in range(6)]
        # each of these positions touches one usable step of its row
        stack.images[steps[0][0], 0, 3] = np.inf
        stack.images[steps[2][0], 2, 1] = np.inf
        stack.images[steps[3][-1] + 1, 3, 6] = -np.inf
        stack.images[8, 4, 7] = np.nan
        return stack

    @staticmethod
    def _widest_window(ctx):
        """The widest bin window of any usable pair of *ctx*."""
        grid = ctx.grid
        d1, _d2, _d3, d4, _area, usable = ctx.trapezoids
        first = np.clip(np.floor((d1[usable] - grid.start) / grid.step), 0, grid.n_bins)
        last = np.clip(np.floor((d4[usable] - grid.start) / grid.step), -1, grid.n_bins - 1)
        return int((last - first).max()) + 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("element_batch", [1, 7, 16384])
    @pytest.mark.parametrize("mode", [DifferenceMode.SIGNED, DifferenceMode.RECTIFIED])
    def test_chunk_by_chunk_with_one_batch(self, stack, mode, element_batch, monkeypatch):
        ctx = _context(stack, grid=self.GRID, difference_mode=mode)
        calls = []

        def recording_atomic_add(array, indices, values):
            calls.append(len(indices))
            return atomic_add(array, indices, values)

        atomic_add = kernels.atomic_add
        monkeypatch.setattr(kernels, "atomic_add", recording_atomic_add)
        shape = (ctx.grid.n_bins, ctx.n_rows, ctx.n_cols)
        reference, per_call, shared = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        n_reference = depth_resolve_chunk_scalar(ctx, reference)
        n_per_call = depth_resolve_chunk_fused(ctx, per_call, element_batch=element_batch)
        batch = _RecordingBatch(shared, ctx.grid, element_batch)
        n_shared = sum(
            depth_resolve_chunk_fused(_band_context(ctx, start, stop), shared, row_block=1, batch=batch)
            for start, stop in self.CHUNKS
        )
        batch.flush()
        assert batch.n_elements == 0
        assert n_shared == n_per_call == n_reference
        assert np.array_equal(per_call, reference, equal_nan=True)
        assert np.array_equal(shared, reference, equal_nan=True)
        assert np.isinf(reference).any()
        # the dense rows never reach the batch; the sparse ones all do
        assert batch.rows == {2, 3, 4, 5}
        # a batch is flushed as soon as it holds element_batch elements, so
        # it never holds more than that plus one block's, and no atomic_add
        # takes more than element_batch elements' windows
        assert batch.overfull == []
        assert calls and max(calls) <= element_batch * self._widest_window(ctx)

    def test_a_batch_for_another_cube_or_grid_raises(self, stack):
        ctx = _context(stack, grid=self.GRID)
        out = np.zeros((ctx.grid.n_bins, ctx.n_rows, ctx.n_cols))
        others = [
            _ElementBatch(np.zeros_like(out), ctx.grid),
            _ElementBatch(out, DepthGrid.from_range(0.0, 50.0, 25)),
        ]
        for batch in others:
            with pytest.raises(ValidationError, match="element batch"):
                depth_resolve_chunk_fused(ctx, out, batch=batch)
        assert out.sum() == 0.0

    def test_the_serial_executor_distributes_in_drain(self, stack):
        """``drain()`` is a generator: it flushes when it is iterated, so a
        traced ``drain`` times the flush."""
        config = ReconstructionConfig(grid=self.GRID, rows_per_chunk=2)
        source = StackChunkSource(stack)
        executor = VectorizedExecutor()
        plan = executor.plan(source, config)
        executor.prepare(source, config, plan)
        n_active = 0
        for (start, stop), positions in zip(plan.chunks, plan.position_ranges):
            ctx = build_chunk_context(source, config, plan, start, stop, positions)
            n_active += sum(executor.execute_chunk(ctx, start, stop))
        batch = executor._batch
        assert batch.n_elements > 0
        drain = executor.drain()
        assert batch.n_elements > 0
        assert list(drain) == [] and batch.n_elements == 0
        executor.close()
        reference, report = get_backend("cpu_reference").reconstruct(
            stack, ReconstructionConfig(grid=self.GRID, backend="cpu_reference")
        )
        assert np.array_equal(plan.output, reference.data, equal_nan=True)
        assert n_active == report.n_active_pixels

    def test_close_after_a_failing_chunk_leaves_nothing_pending(self, stack):
        executor = VectorizedExecutor()
        # rows 0-2 are read and run (row 2 into the batch); row 3's window fails
        source = _FailingSource(stack, executor, fail_at=4)
        config = ReconstructionConfig(grid=self.GRID, rows_per_chunk=1)
        with pytest.raises(OSError, match="window 4 lost"):
            execute(source, config, executor)
        assert source.held > 0
        assert executor._batch.n_elements == 0
        assert not executor._batch._pairs and not executor._batch._elements
