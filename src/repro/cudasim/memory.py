"""Simulated device memory: buffers and the allocation pool.

Device memory is the resource whose scarcity drives the paper's design: the
Tesla M2070 has 6 GB, the data sets are 2.1–5.2 GB plus temporaries, so the
input cube must be streamed to the device a few detector rows at a time
(Fig. 2).  ``MemoryPool`` enforces a hard capacity so that the same pressure
exists in the simulation, and ``DeviceBuffer`` is the handle returned by the
simulated ``cudaMalloc``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.cudasim.errors import DeviceMemoryError, InvalidBufferError
from repro.utils.validation import ensure_positive

__all__ = ["DeviceBuffer", "MemoryPool"]


class DeviceBuffer:
    """A contiguous allocation in simulated device memory.

    The underlying storage is a NumPy array living in host RAM — the
    simulation is about the *accounting and movement* of data, not about
    physically separate memory — but the buffer can only be read or written
    through explicit transfer calls or inside a kernel, which keeps user code
    honest about where data lives.
    """

    def __init__(self, pool: "MemoryPool", handle: int, shape: Tuple[int, ...], dtype: np.dtype):
        self._pool = pool
        self._handle = handle
        self._shape = tuple(int(s) for s in shape)
        self._dtype = np.dtype(dtype)
        self._data = np.zeros(self._shape, dtype=self._dtype)
        self._freed = False

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        """Buffer shape."""
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        """Buffer dtype."""
        return self._dtype

    @property
    def nbytes(self) -> int:
        """Allocation size in bytes."""
        return int(np.prod(self._shape, dtype=np.int64)) * self._dtype.itemsize

    @property
    def handle(self) -> int:
        """Opaque allocation id (the simulated device pointer)."""
        return self._handle

    # ------------------------------------------------------------------ #
    def _check_alive(self) -> None:
        if self._freed:
            raise InvalidBufferError(f"device buffer {self._handle} used after free")

    def device_array(self) -> np.ndarray:
        """The device-side array (for use *inside* kernels and transfers only)."""
        self._check_alive()
        return self._data

    def fill(self, value: float) -> None:
        """Device-side memset (``cudaMemset`` analogue)."""
        self._check_alive()
        self._data.fill(value)

    def free(self) -> None:
        """Release the allocation back to the pool (idempotent)."""
        if not self._freed:
            self._pool._release(self)
            self._freed = True
            self._data = np.empty(0, dtype=self._dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else f"{self.nbytes} bytes"
        return f"DeviceBuffer(handle={self._handle}, shape={self._shape}, dtype={self._dtype}, {state})"


class MemoryPool:
    """Tracks allocations against a fixed device-memory capacity."""

    def __init__(self, capacity_bytes: int):
        ensure_positive(capacity_bytes, "capacity_bytes")
        self._capacity = int(capacity_bytes)
        self._used = 0
        self._next_handle = 1
        self._live: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    @property
    def capacity_bytes(self) -> int:
        """Total device memory."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Bytes currently available."""
        return self._capacity - self._used

    # ------------------------------------------------------------------ #
    def allocate(self, shape: Tuple[int, ...], dtype=np.float64) -> DeviceBuffer:
        """Allocate a buffer (``cudaMalloc`` analogue).

        Raises
        ------
        DeviceMemoryError
            If the allocation would exceed the device capacity.
        """
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(tuple(int(s) for s in shape), dtype=np.int64)) * dtype.itemsize
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._used + nbytes > self._capacity:
            raise DeviceMemoryError(
                f"out of device memory: requested {nbytes} bytes, "
                f"{self.free_bytes} of {self._capacity} available"
            )
        handle = self._next_handle
        self._next_handle += 1
        buffer = DeviceBuffer(self, handle, shape, dtype)
        self._live[handle] = nbytes
        self._used += nbytes
        return buffer

    def _release(self, buffer: DeviceBuffer) -> None:
        nbytes = self._live.pop(buffer.handle, None)
        if nbytes is not None:
            self._used -= nbytes

    def reset(self) -> None:
        """Free everything (used between independent experiments)."""
        self._live.clear()
        self._used = 0
