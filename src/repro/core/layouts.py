"""Device array layouts: the Fig. 4 design choice.

The paper compares two ways of holding the image cube on the device:

* **flat 1-D** — a single contiguous allocation; threads compute their element
  offset with ``idx + idy*NX + idz*NX*NY`` (a little extra integer
  arithmetic per access, one ``cudaMalloc`` + one ``cudaMemcpy`` per chunk);
* **pointer-based 3-D** — one allocation per 2-D slab plus a table of slab
  pointers; element access is direct but the host must allocate and copy one
  buffer per slab *and* ship the pointer table, multiplying the per-transfer
  latency cost.

Both layouts implement the same interface so the GPU-sim backend can run the
identical kernel on either; they differ in how many device allocations and
transfers they perform and in the per-element index-arithmetic cost reported
to the performance model.  The experiment in ``benchmarks/bench_fig4_layouts``
sweeps the two, reproducing Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cudasim.device import Device
from repro.cudasim.memory import DeviceBuffer
from repro.cudasim.transfer import memcpy_host_to_device
from repro.utils.validation import ValidationError

__all__ = ["Flat1DLayout", "Pointer3DLayout", "get_layout", "LayoutUpload"]

_POINTER_BYTES = 8  # a device pointer


@dataclass
class LayoutUpload:
    """Result of uploading a host cube with a given layout."""

    buffers: List[DeviceBuffer]
    pointer_table: DeviceBuffer | None
    n_transfers: int
    bytes_transferred: int

    def free(self) -> None:
        """Release every device allocation of this upload."""
        for buf in self.buffers:
            buf.free()
        if self.pointer_table is not None:
            self.pointer_table.free()


class _BaseLayout:
    """Shared helpers for both layouts."""

    name: str = "base"
    #: extra floating/integer operations per element access charged by the
    #: performance model (index arithmetic for flat1d, none for pointer3d)
    index_arithmetic_flops: float = 0.0

    def device_bytes_for(self, shape: Tuple[int, int, int], itemsize: int = 8) -> int:
        """Device bytes needed to hold a cube of the given shape."""
        raise NotImplementedError

    def upload(self, device: Device, cube: np.ndarray) -> LayoutUpload:
        """Allocate device storage for *cube* and copy it host→device."""
        raise NotImplementedError

    def read_cube(self, upload: LayoutUpload, shape: Tuple[int, int, int]) -> np.ndarray:
        """Device-side view of the uploaded cube as a contiguous ndarray.

        (Used by the kernel bodies; on real hardware this would be the device
        pointer handed to the kernel.)
        """
        raise NotImplementedError


class Flat1DLayout(_BaseLayout):
    """Single flat allocation, offsets computed per element."""

    name = "flat1d"
    index_arithmetic_flops = 6.0  # two multiplies, two adds, plus bounds math

    def device_bytes_for(self, shape: Tuple[int, int, int], itemsize: int = 8) -> int:
        n = int(np.prod([int(s) for s in shape], dtype=np.int64))
        return n * itemsize

    def upload(self, device: Device, cube: np.ndarray) -> LayoutUpload:
        cube = np.ascontiguousarray(cube)
        buf = device.memory.allocate((cube.size,), cube.dtype)
        memcpy_host_to_device(device, buf, cube.reshape(-1), label=f"{self.name}:H2D")
        return LayoutUpload(buffers=[buf], pointer_table=None, n_transfers=1,
                            bytes_transferred=int(cube.nbytes))

    def read_cube(self, upload: LayoutUpload, shape: Tuple[int, int, int]) -> np.ndarray:
        return upload.buffers[0].device_array().reshape(shape)


class Pointer3DLayout(_BaseLayout):
    """One allocation per leading-axis slab plus a pointer table."""

    name = "pointer3d"
    index_arithmetic_flops = 2.0  # pointer chase + column offset

    def device_bytes_for(self, shape: Tuple[int, int, int], itemsize: int = 8) -> int:
        n_slabs = int(shape[0])
        slab_elements = int(shape[1]) * int(shape[2])
        return n_slabs * slab_elements * itemsize + n_slabs * _POINTER_BYTES

    def upload(self, device: Device, cube: np.ndarray) -> LayoutUpload:
        cube = np.ascontiguousarray(cube)
        if cube.ndim != 3:
            raise ValidationError("Pointer3DLayout expects a 3-D cube")
        buffers: List[DeviceBuffer] = []
        total_bytes = 0
        for slab_index in range(cube.shape[0]):
            slab = cube[slab_index]
            buf = device.memory.allocate(slab.shape, slab.dtype)
            memcpy_host_to_device(device, buf, slab, label=f"{self.name}:H2D:slab{slab_index}")
            buffers.append(buf)
            total_bytes += int(slab.nbytes)
        # the pointer table itself must also be built on the host and shipped
        pointer_table = device.memory.allocate((cube.shape[0],), np.int64)
        handles = np.array([b.handle for b in buffers], dtype=np.int64)
        memcpy_host_to_device(device, pointer_table, handles, label=f"{self.name}:H2D:pointers")
        total_bytes += int(handles.nbytes)
        return LayoutUpload(
            buffers=buffers,
            pointer_table=pointer_table,
            n_transfers=cube.shape[0] + 1,
            bytes_transferred=total_bytes,
        )

    def read_cube(self, upload: LayoutUpload, shape: Tuple[int, int, int]) -> np.ndarray:
        slabs = [buf.device_array().reshape(shape[1], shape[2]) for buf in upload.buffers]
        return np.stack(slabs, axis=0)


_LAYOUTS = {
    Flat1DLayout.name: Flat1DLayout,
    Pointer3DLayout.name: Pointer3DLayout,
}


def get_layout(name: str) -> _BaseLayout:
    """Return a layout instance by name (``'flat1d'`` or ``'pointer3d'``)."""
    try:
        return _LAYOUTS[name]()
    except KeyError:
        raise ValidationError(
            f"unknown layout {name!r}; available: {sorted(_LAYOUTS)}"
        ) from None
