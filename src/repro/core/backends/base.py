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
from typing import Tuple

from repro.core.config import ReconstructionConfig
from repro.core.engine import ChunkExecutor, StackChunkSource, execute, host_chunk_rows
from repro.core.registry import available_backends, get_backend, register_backend
from repro.core.result import DepthResolvedStack, ReconstructionReport
from repro.core.stack import WireScanStack

__all__ = ["Backend", "register_backend", "get_backend", "available_backends"]


class Backend(abc.ABC):
    """Abstract reconstruction backend (a named executor factory)."""

    #: registry name; subclasses must override
    name: str = ""

    @abc.abstractmethod
    def make_executor(self, config: ReconstructionConfig) -> ChunkExecutor:
        """Build the per-run executor carrying this backend's chunk compute."""

    def chunk_rows(
        self, n_positions: int, n_rows: int, n_cols: int, config: ReconstructionConfig
    ) -> int:
        """Rows of a file run's window this backend's executors plan for a
        ``(n_positions, n_rows, n_cols)`` scan under *config*: the host
        plan's out-of-core rule, :func:`~repro.core.engine.host_chunk_rows`,
        unless the backend plans by another.  The batch scheduler sizes a
        file item's window with it."""
        return host_chunk_rows(n_positions, n_rows, n_cols, config.rows_per_chunk, True)

    def reconstruct(
        self, stack: WireScanStack, config: ReconstructionConfig
    ) -> Tuple[DepthResolvedStack, ReconstructionReport]:
        """Reconstruct *stack* according to *config* through the shared engine.

        Returns the depth-resolved stack and a timing/accounting report.
        """
        return execute(StackChunkSource(stack), config, self.make_executor(config))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
