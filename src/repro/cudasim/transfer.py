"""Host <-> device transfers (the ``cudaMemcpy`` analogue).

Every copy validates shapes/dtypes, moves the data, and advances the device's
simulated clock by the PCIe-model cost.  The per-transfer latency term is why
the pointer-based 3-D layout of Fig. 4 — which requires one copy per 2-D
slab plus the pointer tables — is slower end-to-end than a single flat copy.
"""

from __future__ import annotations

import numpy as np

from repro.cudasim.device import Device
from repro.cudasim.errors import TransferError
from repro.cudasim.memory import DeviceBuffer

__all__ = ["memcpy_host_to_device", "memcpy_device_to_host"]


def _check_compatible(host_array: np.ndarray, buffer: DeviceBuffer) -> None:
    if host_array.dtype != buffer.dtype:
        raise TransferError(
            f"dtype mismatch: host {host_array.dtype} vs device {buffer.dtype}"
        )
    if host_array.size != int(np.prod(buffer.shape, dtype=np.int64)):
        raise TransferError(
            f"size mismatch: host has {host_array.size} elements, "
            f"device buffer has shape {buffer.shape}"
        )


def memcpy_host_to_device(
    device: Device,
    dst: DeviceBuffer,
    src: np.ndarray,
    label: str = "H2D",
) -> float:
    """Copy a host array into a device buffer; returns modelled seconds."""
    src = np.ascontiguousarray(src)
    _check_compatible(src, dst)
    dst.device_array()[...] = src.reshape(dst.shape)
    seconds = device.perf.transfer_time(src.nbytes)
    device.advance_clock(seconds, label=label, kind="memcpy_h2d", detail={"bytes": int(src.nbytes)})
    return seconds


def memcpy_device_to_host(
    device: Device,
    dst: np.ndarray,
    src: DeviceBuffer,
    label: str = "D2H",
) -> float:
    """Copy a device buffer into a (preallocated) host array; returns modelled seconds."""
    if not isinstance(dst, np.ndarray):
        raise TransferError("destination of a device-to-host copy must be a numpy array")
    if not dst.flags["C_CONTIGUOUS"]:
        raise TransferError("destination host array must be C-contiguous")
    _check_compatible(dst, src)
    dst.reshape(src.shape)[...] = src.device_array()
    seconds = device.perf.transfer_time(dst.nbytes)
    device.advance_clock(seconds, label=label, kind="memcpy_d2h", detail={"bytes": int(dst.nbytes)})
    return seconds
