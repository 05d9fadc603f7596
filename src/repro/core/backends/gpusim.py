"""GPU-sim backend: the paper's CUDA design on the simulated device.

Follows the structure of the original CUDA program step by step:

1. plan how many detector rows fit on the device per chunk (Fig. 2);
2. for each chunk: allocate device buffers, ``cudaMemcpy`` the image slab
   (with the configured array layout — flat 1-D or pointer-based 3-D),
   geometry tables and the output slab host→device;
3. launch the ``setTwo`` kernel over a ``(cols, rows, steps)`` thread
   lattice;
4. copy the depth-resolved slab back device→host into a host staging slab,
   and assign that slab to the chunk's rows of the run's output cube (the
   Fig. 2 "put it back together" step);
5. free the chunk's allocations and continue with the next rows.

Every step runs in order on one timeline: the paper's program uses the
default stream and does not overlap transfers with compute, so the
simulated clock simply adds each transfer's and launch's modelled cost
(overlapping them is one of the extensions its related work discusses).

The chunk loop itself lives in the shared engine; this module supplies the
per-chunk upload → launch → download compute and keeps the transfer/kernel
accounting as executor hooks.  The report separates modelled transfer time
from modelled kernel time, which is what the Fig. 4 layout comparison and
the scalability argument of Figs. 8/9 are about.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.backends.base import Backend, register_backend
from repro.core.config import ReconstructionConfig
from repro.core.engine import ChunkExecutor, ChunkSource, ExecutionPlan, build_execution_plan
from repro.core.kernels import KernelContext, make_set_two_kernel
from repro.core.layouts import get_layout
from repro.cudasim.device import Device, DeviceProperties, TESLA_M2070
from repro.cudasim.kernel import LaunchConfig, launch
from repro.cudasim.transfer import memcpy_device_to_host, memcpy_host_to_device

__all__ = ["GpuSimBackend", "GpuSimExecutor"]


class GpuSimExecutor(ChunkExecutor):
    """Upload → launch → download execution of each chunk on the simulated device."""

    name = "gpusim"

    def __init__(
        self,
        device: Optional[Device] = None,
        device_properties: DeviceProperties = TESLA_M2070,
        block_dim: Tuple[int, int, int] = (32, 4, 8),
        launch_mode: str = "vectorized",
    ):
        self._external_device = device
        self._device_properties = device_properties
        self.block_dim = block_dim
        self.launch_mode = launch_mode
        self.device: Optional[Device] = None
        self._layout = None
        self._kernel = None
        self._h2d_bytes = 0
        self._d2h_bytes = 0
        self._n_launches = 0
        self._n_threads = 0

    # ------------------------------------------------------------------ #
    def _make_device(self, config: ReconstructionConfig) -> Device:
        if self._external_device is not None:
            self._external_device.reset_clock()
            return self._external_device
        return Device(self._device_properties, memory_limit_bytes=config.device_memory_limit)

    def plan(self, source: ChunkSource, config: ReconstructionConfig) -> ExecutionPlan:
        """Chunks sized to the simulated device memory (the Fig. 2 constraint).

        Every chunk reads all its positions: the paper's program copies the
        whole chunk slab host to device, so the launch batches below index
        the uploaded slab from position 0.
        """
        self.device = self._make_device(config)
        self._layout = get_layout(config.layout)
        self._kernel = make_set_two_kernel(
            extra_flops_per_thread=self._layout.index_arithmetic_flops
        )
        return build_execution_plan(
            source,
            config,
            device_memory_bytes=self.device.memory.capacity_bytes,
            strategy="gpusim",
        )

    def prepare(
        self, source: ChunkSource, config: ReconstructionConfig, plan: ExecutionPlan
    ) -> None:
        self._out = plan.output

    # ------------------------------------------------------------------ #
    @staticmethod
    def _batch_context(ctx: KernelContext, device_images: np.ndarray, step_start: int, step_stop: int):
        """Kernel context restricted to wire steps ``step_start:step_stop``.

        The image view covers positions ``step_start .. step_stop`` inclusive
        (a step needs both of its bounding wire positions) and reads from the
        *device-side* slab uploaded for the chunk; the trapezoid view covers
        the batch's steps.  Its ``row_offset`` is 0: a launch writes the
        chunk-sized device output buffer, not the host cube.
        """
        return KernelContext(
            images=device_images[step_start:step_stop + 1],
            back_edge_yz=ctx.back_edge_yz,
            front_edge_yz=ctx.front_edge_yz,
            wire_positions_yz=ctx.wire_positions_yz[step_start:step_stop + 1],
            trapezoids=tuple(part[step_start:step_stop] for part in ctx.trapezoids),
            grid=ctx.grid,
            wire_edge=ctx.wire_edge,
            difference_mode=ctx.difference_mode,
            intensity_cutoff=ctx.intensity_cutoff,
            mask=ctx.mask,
        )

    def execute_chunk(self, ctx: KernelContext, row_start: int, row_stop: int) -> Iterable[int]:
        device = self.device
        grid = ctx.grid
        chunk_rows = row_stop - row_start

        # -- host -> device -------------------------------------------------
        upload = self._layout.upload(device, ctx.images)
        self._h2d_bytes += upload.bytes_transferred

        geometry_host = np.concatenate(
            [
                ctx.back_edge_yz.reshape(-1),
                ctx.front_edge_yz.reshape(-1),
                ctx.wire_positions_yz.reshape(-1),
            ]
        )
        geometry_buf = device.memory.allocate(geometry_host.shape, geometry_host.dtype)
        memcpy_host_to_device(device, geometry_buf, geometry_host, label="H2D:geometry")
        self._h2d_bytes += int(geometry_host.nbytes)

        out_buf = device.memory.allocate((grid.n_bins, chunk_rows, ctx.n_cols), np.float64)
        out_buf.fill(0.0)
        # one-slot counter the kernel atomically bumps per active element
        count_buf = device.memory.allocate((1,), np.int64)
        count_buf.fill(0)

        # -- kernel launches -------------------------------------------------
        # The kernel reads the uploaded slab through the layout (as the CUDA
        # kernel would read through the device pointer(s)).  The Tesla M2070
        # only supports a one-deep grid z dimension, so the wire-step axis is
        # covered by several launches when it exceeds blockDim.z * gridDim.z.
        device_images = self._layout.read_cube(upload, (ctx.n_positions, chunk_rows, ctx.n_cols))
        steps_per_launch = self.block_dim[2] * device.properties.max_grid_dim[2]
        for step_start in range(0, ctx.n_steps, steps_per_launch):
            step_stop = min(step_start + steps_per_launch, ctx.n_steps)
            batch_ctx = self._batch_context(ctx, device_images, step_start, step_stop)
            launch_cfg = LaunchConfig.for_volume(
                (ctx.n_cols, chunk_rows, step_stop - step_start), block_dim=self.block_dim
            )
            launch(
                device,
                self._kernel,
                launch_cfg,
                batch_ctx,
                out_buf.device_array(),
                count_buf.device_array(),
                mode=self.launch_mode,
            )
            self._n_launches += 1
            self._n_threads += launch_cfg.total_threads

        # -- device -> host --------------------------------------------------
        # into a contiguous staging slab, then onto the chunk's rows of the
        # output cube; device slots accumulate from +0.0 and never hold
        # -0.0, so assigning equals adding into the zeroed rows
        staging = np.empty((grid.n_bins, chunk_rows, ctx.n_cols), dtype=np.float64)
        memcpy_device_to_host(device, staging, out_buf, label="D2H:depth_resolved")
        self._d2h_bytes += int(staging.nbytes)
        self._out[:, row_start:row_stop] = staging
        count = np.zeros(1, dtype=np.int64)
        memcpy_device_to_host(device, count, count_buf, label="D2H:active_count")
        self._d2h_bytes += int(count.nbytes)

        # -- free chunk allocations ------------------------------------------
        upload.free()
        geometry_buf.free()
        out_buf.free()
        count_buf.free()

        yield int(count[0])

    # ------------------------------------------------------------------ #
    def report_extras(self) -> Dict:
        by_kind = self.device.profiler.time_by_kind()
        return {
            "compute_time": by_kind.get("kernel", 0.0),
            "transfer_time": by_kind.get("memcpy_h2d", 0.0) + by_kind.get("memcpy_d2h", 0.0),
            "simulated_device_time": self.device.simulated_time,
            "h2d_bytes": self._h2d_bytes,
            "d2h_bytes": self._d2h_bytes,
            "n_kernel_launches": self._n_launches,
            "n_threads_launched": self._n_threads,
            "layout": self._layout.name,
        }

    def notes(self) -> List[str]:
        return [f"device: {self.device.properties.name}"]


@register_backend(
    "gpusim",
    supports_streaming=True,
    description="the paper's CUDA design on the simulated device (Fig. 4 layouts)",
)
class GpuSimBackend(Backend):
    """Row-chunked reconstruction on the simulated CUDA device."""

    name = "gpusim"

    def __init__(
        self,
        device: Optional[Device] = None,
        device_properties: DeviceProperties = TESLA_M2070,
        block_dim: Tuple[int, int, int] = (32, 4, 8),
        launch_mode: str = "vectorized",
    ):
        self._external_device = device
        self._device_properties = device_properties
        self.block_dim = block_dim
        self.launch_mode = launch_mode

    def make_executor(self, config: ReconstructionConfig) -> ChunkExecutor:
        return GpuSimExecutor(
            device=self._external_device,
            device_properties=self._device_properties,
            block_dim=self.block_dim,
            launch_mode=self.launch_mode,
        )
