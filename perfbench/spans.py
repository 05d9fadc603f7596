"""In-memory spans around the calls into each layer, and their self times.

The program is never patched: layer boundaries are timed from here, by
driving ``Session.run``'s own sequence of public calls
(``repro.open`` -> ``Source.chunk_source`` -> ``engine.execute``) with a
chunk source and an executor that are proxies implementing the public
``ChunkSource`` / ``ChunkExecutor`` protocol.  Span names start with the
layer they time (``io.``, ``kernel.``, ``backend.``, ``engine.``,
``session``, ``serve.``).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed interval: name, start, end, parent span and request id."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`to_json` writes them out at the end.

    A disabled tracer records nothing and costs one branch per span, so the
    same code paths serve traced and untraced samples.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench-span-{id(self)}", default=None
        )

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Dict[str, float]]:
        """Time the body as a child of the innermost open span (same thread)."""
        counts: Dict[str, float] = {}
        if not self.enabled:
            yield counts
            return
        parent = self._current.get()
        if request is None and parent is not None:
            request = parent[1]
        with self._lock:
            span_id = next(self._ids)
        token = self._current.set((span_id, request))
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            span = Span(span_id, name, start, end, None if parent is None else parent[0],
                        request, counts)
            with self._lock:
                self.spans.append(span)

    def request_spans(self, request: str) -> List[Span]:
        """The spans recorded for one request id."""
        return [span for span in self.spans if span.request == request]

    def to_json(self) -> List[Dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request, "counts": s.counts}
            for s in self.spans
        ]


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent in by_id:
            parent = by_id[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return {span.id: span.duration - covered(children.get(span.id, ())) for span in spans}


def run_layers(spans: List[Span], report, result) -> Dict[str, float]:
    """Time and work per layer of one :func:`traced_run`, from its spans."""
    own = self_times(spans)
    _n_bins, n_rows, n_cols = result.data.shape
    io = [s for s in spans if s.name.startswith("io.")]
    return {
        "kernel": sum(s.duration for s in spans if s.name.startswith("kernel.")),
        "backend": sum(s.duration for s in spans if s.name.startswith("backend.")),
        "io_s": sum(s.duration for s in io),
        "io_bytes": sum(s.counts.get("bytes", 0) for s in io),
        "io_reads": sum(1 for s in io if s.counts.get("bytes", 0) > 0),
        "engine_self": sum(own[s.id] for s in spans if s.name == "engine.execute"),
        "session_self": sum(own[s.id] for s in spans if s.name == "session"),
        "active": report.n_active_pixels,
        "scanned": report.n_steps * n_rows * n_cols,
        "cube_bytes": result.data.nbytes,
        "chunks": report.n_chunks,
        "dispatches": report.n_kernel_launches,
    }


def engine_metrics(rows: List[Dict[str, float]], median) -> Dict[str, float]:
    """The ``kernel.*``, ``io.*``, ``engine.*`` and ``session.*`` metrics:
    medians over serial traced runs (*rows* from :func:`run_layers`)."""
    from repro.core.kernels import KERNEL_BYTES_PER_THREAD

    def med(key: str) -> float:
        return median([row[key] for row in rows]) if rows else 0.0

    kernel, active, scanned = med("kernel"), med("active"), med("scanned")
    # modelled traffic: both images of every scanned difference, the
    # kernel's per-active-element budget, one write of the output cube
    computed = 16 * scanned + KERNEL_BYTES_PER_THREAD * active + med("cube_bytes")
    return {
        "kernel.busy_s": kernel,
        "kernel.active_elements": active,
        "kernel.active_share": active / scanned if scanned else 0.0,
        "kernel.us_per_active_element": 1e6 * kernel / active if active else 0.0,
        "kernel.computed_mb": computed / 1e6 if rows else 0.0,
        "io.read_s": med("io_s"),
        "io.read_mb": med("io_bytes") / 1e6,
        "io.reads": med("io_reads"),
        "engine.self_s": med("engine_self"),
        "engine.chunks": med("chunks"),
        "session.self_s": med("session_self"),
    }


# --------------------------------------------------------------------------- #
# proxies over the public engine protocol
@functools.lru_cache(maxsize=None)
def _proxy_classes():
    """Build the proxy classes lazily: ``repro`` is importable only once the
    benchmark has put the checkout's ``src`` on the path."""
    from repro.core.engine import ChunkExecutor, ChunkSource

    class TracedSource(ChunkSource):
        """A ``ChunkSource`` timing ``load_rows`` and ``position_image``."""

        def __init__(self, inner, tracer: Tracer):
            self._inner = inner
            self._tracer = tracer
            self.out_of_core = inner.out_of_core
            self.n_positions = inner.n_positions
            self.n_rows = inner.n_rows
            self.n_cols = inner.n_cols
            self.wire_positions_yz = inner.wire_positions_yz
            self.wire_radius = inner.wire_radius
            self.metadata = inner.metadata

        def row_edges_yz(self, rows):
            return self._inner.row_edges_yz(rows)

        def load_rows(self, row_start, row_stop):
            with self._tracer.span("io.load_rows") as counts:
                slab = self._inner.load_rows(row_start, row_stop)
                # an in-memory source serves views of a cube already read
                counts["bytes"] = slab.nbytes if self.out_of_core else 0
            return slab

        def mask_rows(self, row_start, row_stop):
            return self._inner.mask_rows(row_start, row_stop)

        def position_image(self, position):
            with self._tracer.span("io.position_image") as counts:
                image = self._inner.position_image(position)
                counts["bytes"] = image.nbytes if self.out_of_core else 0
            return image

        def describe(self):
            return self._inner.describe()

    class TracedExecutor(ChunkExecutor):
        """A ``ChunkExecutor`` timing the iteration of ``execute_chunk`` and
        ``drain`` (generators: the work happens while they are iterated)."""

        def __init__(self, inner, tracer: Tracer, layer: str):
            self._inner = inner
            self._tracer = tracer
            self._layer = layer
            self.name = inner.name

        def plan(self, source, config):
            return self._inner.plan(source, config)

        def prepare(self, source, config, plan):
            self._inner.prepare(source, config, plan)

        def _timed(self, iterable, what: str):
            iterator = iter(iterable)
            while True:
                with self._tracer.span(f"{self._layer}.{what}"):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        def execute_chunk(self, ctx, row_start, row_stop):
            return self._timed(self._inner.execute_chunk(ctx, row_start, row_stop),
                               "execute_chunk")

        def drain(self):
            return self._timed(self._inner.drain(), "drain")

        def report_extras(self):
            return self._inner.report_extras()

        def notes(self):
            return self._inner.notes()

        def close(self):
            self._inner.close()

    return TracedSource, TracedExecutor


def traced_run(tracer: Tracer, path: str, config, request: Optional[str] = None):
    """``Session.run``'s cold sequence with every layer boundary spanned.

    The executor's span layer is ``kernel`` for the serial executor (its
    chunk work is the fused kernel itself) and ``backend`` for the others
    (dispatch plus waiting on pool workers).  Returns ``(result, report)``.
    """
    import repro
    from repro.core import engine
    from repro.core.registry import get_backend

    TracedSource, TracedExecutor = _proxy_classes()
    with tracer.span("session", request):
        source = repro.open(path)
        with tracer.span("io.open") as counts:
            chunk_source = source.chunk_source(config)
            counts["bytes"] = 0 if chunk_source.out_of_core else chunk_source.stack.images.nbytes
        executor = get_backend(config.backend).make_executor(config)
        layer = "kernel" if config.executor == "serial" else "backend"
        with tracer.span("engine.execute"):
            return engine.execute(
                TracedSource(chunk_source, tracer), config,
                TracedExecutor(executor, tracer, layer),
            )
