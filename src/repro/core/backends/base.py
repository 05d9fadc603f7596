"""Backend interface.

Since the engine refactor a backend is a thin shell: it names itself in the
registry (:mod:`repro.core.registry` — the pluggable table shared by built-in
and out-of-tree backends alike) and supplies a
:class:`~repro.core.engine.ChunkExecutor` with the per-chunk compute.  The
plan → execute → report control flow lives once in
:mod:`repro.core.engine`; ``Backend.reconstruct`` just wraps an in-memory
stack in a :class:`~repro.core.engine.StackChunkSource` and runs the engine.

``register_backend`` / ``get_backend`` / ``available_backends`` are
re-exported from the registry module for backwards compatibility.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from repro.core.config import ReconstructionConfig
from repro.core.engine import ChunkExecutor, StackChunkSource, execute
from repro.core.kernels import KernelContext
from repro.core.registry import available_backends, get_backend, register_backend
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.core.stack import WireScanStack

__all__ = ["Backend", "register_backend", "get_backend", "available_backends", "build_kernel_context"]


def build_kernel_context(
    stack: WireScanStack,
    config: ReconstructionConfig,
    row_start: int = 0,
    row_stop: Optional[int] = None,
) -> KernelContext:
    """Assemble the kernel inputs for detector rows ``row_start:row_stop``.

    A convenience wrapper over :func:`repro.core.engine.build_chunk_context`
    for in-memory stacks — the host-side preparation performed before each
    kernel launch: slice the image cube, look up the pixel-edge coordinates
    of the selected rows, and collect the wire positions.

    The per-run state comes from :func:`repro.core.engine.build_execution_plan`
    over the **whole** stack, exactly as in an engine run: when
    ``config.subtract_background`` is set the per-image background is the
    median over the whole image, not over the chunk's rows, and the
    context's trapezoids are its rows' view of the run's table — so every
    chunk (and therefore every backend, however it chunks) sees the same
    levels and the same geometry.
    """
    from repro.core.engine import build_chunk_context, build_execution_plan

    source = StackChunkSource(stack)
    row_stop = stack.n_rows if row_stop is None else row_stop
    plan = build_execution_plan(source, config)
    return build_chunk_context(source, config, plan, row_start, row_stop)


class Backend(abc.ABC):
    """Abstract reconstruction backend (a named executor factory)."""

    #: registry name; subclasses must override
    name: str = ""

    @abc.abstractmethod
    def make_executor(self, config: ReconstructionConfig) -> ChunkExecutor:
        """Build the per-run executor carrying this backend's chunk compute."""

    def reconstruct(
        self, stack: WireScanStack, config: ReconstructionConfig
    ) -> Tuple[DepthResolvedStack, ReconstructionReport]:
        """Reconstruct *stack* according to *config* through the shared engine.

        Returns the depth-resolved stack and a timing/accounting report.
        """
        return execute(StackChunkSource(stack), config, self.make_executor(config))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
