"""Atomic accumulation primitives.

The reconstruction kernel has many threads adding intensity into the same
depth-resolved output arrays, which in CUDA requires ``atomicAdd``.  Fermi
GPUs (the Tesla M2070) only provide a hardware ``atomicAdd`` for 32-bit
types, so the original code implements the well-known double-precision
emulation with ``atomicCAS`` on the 64-bit integer reinterpretation of the
value.  Both the plain accumulation (what NumPy's ``np.add.at`` gives us) and
a faithful step-by-step CAS emulation are provided here; they must produce
identical results, which the test-suite asserts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["atomic_add", "atomic_add_double_cas"]


def atomic_add(array: np.ndarray, indices, values) -> np.ndarray:
    """Atomically add *values* into ``array`` at (possibly repeated) *indices*.

    This is the semantic equivalent of every simulated thread performing
    ``atomicAdd(&array[index], value)``: repeated indices accumulate rather
    than overwrite.  Implemented with :func:`numpy.ufunc.at`, which applies
    the addition unbuffered and therefore matches atomic semantics.

    Parameters
    ----------
    array:
        Flat (1-D) float64 accumulation buffer, modified in place.
    indices:
        Integer array of target offsets (one per simulated thread).
    values:
        Array of addends, broadcast-compatible with *indices*.
    """
    array = np.asarray(array)
    if array.ndim != 1:
        raise ValueError("atomic_add expects a flat accumulation buffer")
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=array.dtype)
    if indices.size and (indices.min() < 0 or indices.max() >= array.shape[0]):
        raise IndexError("atomic_add index out of range")
    np.add.at(array, indices, values)
    return array


def atomic_add_double_cas(array: np.ndarray, index: int, value: float, max_iterations: int = 64) -> float:
    """Faithful model of the CUDA double-precision ``atomicAdd`` emulation.

    Mirrors the canonical loop::

        unsigned long long int* address_as_ull = (unsigned long long int*) address;
        unsigned long long int old = *address_as_ull, assumed;
        do {
            assumed = old;
            old = atomicCAS(address_as_ull, assumed,
                            __double_as_longlong(val + __longlong_as_double(assumed)));
        } while (assumed != old);

    In the simulation there is no true concurrency, so the CAS succeeds on
    the first iteration; the value of modelling it is (a) documentation of
    what the paper's ``device_atomicAdd`` does and (b) a bit-exactness check
    against :func:`atomic_add` used by the tests.

    Returns the value stored at ``array[index]`` *before* the addition, like
    CUDA's ``atomicAdd``.
    """
    array = np.asarray(array)
    if array.dtype != np.float64:
        raise ValueError("atomic_add_double_cas requires a float64 buffer")
    flat = array.reshape(-1)
    index = int(index)
    if not (0 <= index < flat.size):
        raise IndexError("atomic_add_double_cas index out of range")

    as_uint = flat.view(np.uint64)
    old = as_uint[index]
    for _ in range(max_iterations):
        assumed = old
        new_double = np.float64(value) + np.frombuffer(np.uint64(assumed).tobytes(), dtype=np.float64)[0]
        new_bits = np.frombuffer(np.float64(new_double).tobytes(), dtype=np.uint64)[0]
        # atomicCAS: write new_bits only if the slot still holds `assumed`
        current = as_uint[index]
        if current == assumed:
            as_uint[index] = new_bits
            old = assumed
        else:  # pragma: no cover - unreachable without real concurrency
            old = current
        if assumed == old:
            break
    return float(np.frombuffer(np.uint64(assumed).tobytes(), dtype=np.float64)[0])
