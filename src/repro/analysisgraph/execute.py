"""Graph execution: topological scheduling, thread parallelism, memoization.

Two scopes:

* **run scope** (:func:`execute_run_graph`) — one depth-resolved stack;
  independent nodes run concurrently on the shared thread pool (ready-set
  scheduling, not lock-step waves: a node launches the moment its last
  dependency finishes).
* **batch scope** (:func:`execute_batch_graph`) — per-run nodes fan out over
  the batch items (items are the parallel axis, each item runs its subgraph
  serially), then reduce nodes consume the collected outputs serially with
  per-node error capture.

When the target came through a :class:`~repro.core.cache.ResultCache`, every
node value is memoized per ``(run key, node signature)``: re-running after a
one-node parameter change recomputes only that node's dirty subgraph, and a
one-file batch change recomputes only that file's nodes plus the reduces.

The executor is ``"serial"``, ``"threads"`` or ``"auto"``: node values are
in-process Python objects and the ops are NumPy-bound (they release the GIL),
so the shared thread pool is the parallel strategy.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, List, Optional, Tuple

from repro.analysisgraph.graph import RESERVED_INPUTS, AnalysisGraph
from repro.analysisgraph.results import GraphAnalysisResult, GraphBatchItem, GraphBatchResult
from repro.core.ops import _json_value, op_info
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = [
    "GraphExecutionError",
    "execute_chain",
    "execute_run_graph",
    "execute_batch_graph",
]

_LOG = get_logger(__name__)

#: Default concurrency cap (matching ``run_many``'s batch default).
DEFAULT_MAX_WORKERS = 4


class GraphExecutionError(Exception):
    """A node's op raised during graph execution.

    Carries the node name so batch-scope error capture (and users) can see
    *which* node failed, with the original exception chained as the cause.
    """

    def __init__(self, node: str, op: str, cause: BaseException):
        super().__init__(f"node {node!r} (op {op!r}) failed: {type(cause).__name__}: {cause}")
        self.node = node
        self.op = op


def _resolve_executor(
    executor: str, max_workers: Optional[int], width: int
) -> Tuple[str, int]:
    """Concrete ``(mode, n_workers)`` for a potential parallel width."""
    mode = str(executor)
    if mode == "auto":
        mode = "threads" if width > 1 else "serial"
    if mode not in ("serial", "threads"):
        raise ValidationError(
            f"analysis graphs execute with 'serial', 'threads' or 'auto', got {executor!r}"
        )
    if mode == "serial":
        return "serial", 1
    if max_workers is None:
        n_workers = min(DEFAULT_MAX_WORKERS, max(width, 1))
    else:
        n_workers = max(1, int(max_workers))
    return "threads", n_workers


# --------------------------------------------------------------------------- #
# run scope
def execute_chain(graph: AnalysisGraph, stack) -> List[object]:
    """Serial, memo-free execution on a bare stack; values in spec order.

    The compiled-linear fast path: exceptions propagate unwrapped so
    ``AnalysisPipeline`` keeps its historical error semantics.
    """
    values: Dict[str, object] = {}
    for name in graph.topo_order():
        node = graph.node(name)
        args = [stack if ref == "stack" else values[ref] for ref in node.inputs]
        values[name] = _json_value(op_info(node.op).func(*args, **node.params_dict))
    return [values[node.name] for node in graph.nodes]


def execute_run_graph(
    graph: AnalysisGraph,
    stack,
    run: Optional[Dict] = None,
    run_result=None,
    cache=None,
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> GraphAnalysisResult:
    """Execute a reduce-free graph on one stack; see :meth:`AnalysisGraph.apply`."""
    if graph.has_reduce:
        raise ValidationError(
            "execute_run_graph() takes a reduce-free graph; batch-scope graphs "
            "go through execute_batch_graph()"
        )
    active_cache = cache
    if active_cache is None and run_result is not None:
        active_cache = getattr(run_result, "_bound_cache", None)
    run_key = None
    if run_result is not None and getattr(run_result, "cache_stats", None) is not None:
        run_key = run_result.cache_stats.key
    memoized = active_cache is not None and run_key is not None

    width = max(len(wave) for wave in graph.waves())
    mode, n_workers = _resolve_executor(executor, max_workers, width)

    values: Dict[str, object] = {}
    meta: Dict[str, Dict] = {}

    def compute(name: str) -> None:
        node = graph.node(name)
        start = time.perf_counter()
        if memoized:
            memo_key = active_cache.node_memo_key(run_key, graph.node_signature(name))
            document = active_cache.memo_get(memo_key)
            if document is not None:
                values[name] = document["value"]
                meta[name] = {
                    "elapsed_s": time.perf_counter() - start, "memo_hit": True,
                }
                return
        args = [stack if ref == "stack" else values[ref] for ref in node.inputs]
        try:
            value = _json_value(op_info(node.op).func(*args, **node.params_dict))
        except Exception as exc:
            raise GraphExecutionError(name, node.op, exc) from exc
        values[name] = value
        meta[name] = {"elapsed_s": time.perf_counter() - start, "memo_hit": False}
        if memoized:
            active_cache.memo_put(memo_key, {
                "node": name,
                "op": node.op,
                "node_signature": graph.node_signature(name),
                "run_key": run_key,
                "value": value,
            })

    if mode == "serial":
        for name in graph.topo_order():
            compute(name)
    else:
        _run_ready_set(graph, compute, n_workers)

    n_hits = sum(1 for record in meta.values() if record["memo_hit"])
    results = [
        {
            "node": node.name,
            "op": node.op,
            "inputs": list(node.inputs),
            "params": node.params_dict,
            "value": values[node.name],
            "elapsed_s": meta[node.name]["elapsed_s"],
            "memo_hit": meta[node.name]["memo_hit"],
        }
        for node in graph.nodes
    ]
    return GraphAnalysisResult(
        results=results,
        run=run,
        graph=graph.to_spec(),
        execution={
            "scope": "run",
            "executor": mode,
            "n_workers": n_workers,
            "signature": graph.signature(),
            "memoized": memoized,
            "n_memo_hits": n_hits,
            "n_computed": len(graph) - n_hits,
            "nodes": {name: dict(record) for name, record in meta.items()},
        },
    )


def _run_ready_set(graph: AnalysisGraph, compute, n_workers: int) -> None:
    """Ready-set scheduling on the shared thread pool.

    A node is submitted the moment its last dependency completes — no wave
    barrier, so a long node on one branch never stalls an independent branch.
    The first failure stops new submissions, in-flight nodes drain, and the
    original error re-raises.
    """
    from repro.core.workerpool import shared_thread_pool

    dependents: Dict[str, List[str]] = {name: [] for name in graph.topo_order()}
    remaining: Dict[str, int] = {}
    for node in graph.nodes:
        deps = graph._dependencies(node)
        remaining[node.name] = len(deps)
        for dep in deps:
            dependents[dep].append(node.name)

    pool = shared_thread_pool(n_workers)
    ready = [node.name for node in graph.nodes if remaining[node.name] == 0]
    futures = {}
    failure: Optional[BaseException] = None
    while ready or futures:
        if failure is None:
            for name in ready:
                futures[pool.submit(compute, name)] = name
            ready = []
        if not futures:
            break
        done, _pending = wait(list(futures), return_when=FIRST_COMPLETED)
        for future in done:
            name = futures.pop(future)
            error = future.exception()
            if error is not None:
                failure = failure or error
                continue
            for child in dependents[name]:
                remaining[child] -= 1
                if remaining[child] == 0:
                    ready.append(child)
    if failure is not None:
        raise failure


# --------------------------------------------------------------------------- #
# batch scope
def _item_target(item) -> Tuple[Optional[object], Optional[str]]:
    """(target, error) for one batch item, mirroring the linear batch path."""
    if not item.ok:
        return None, f"reconstruction failed: {item.error}"
    if item.run is not None:
        return item.run, None
    if item.result is not None:
        return item.result, None
    if item.output_path is not None:
        return item.output_path, None
    return None, (
        "no result available (batch ran with keep_results=False and no output_dir)"
    )


def execute_batch_graph(
    graph: AnalysisGraph,
    batch,
    cache=None,
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> GraphBatchResult:
    """Execute a graph over a whole batch; see :meth:`AnalysisGraph.apply`."""
    run_specs = graph.run_nodes()
    run_subgraph = AnalysisGraph(run_specs) if run_specs else None
    mode, n_workers = _resolve_executor(executor, max_workers, len(batch.items))
    start = time.perf_counter()

    def analyze_item(item) -> GraphBatchItem:
        target, error = _item_target(item)
        if error is not None:
            return GraphBatchItem(input_path=item.input_path, ok=False, error=error)
        if run_subgraph is None:
            return GraphBatchItem(input_path=item.input_path, ok=True)
        try:
            # items are the parallel axis here; each item's subgraph runs
            # serially (memoized per node when the item's run is cache-bound)
            outcome = run_subgraph.apply(target, cache=cache, executor="serial")
        except Exception as exc:  # per-item isolation: record, don't abort
            message = str(exc) if isinstance(exc, GraphExecutionError) \
                else f"{type(exc).__name__}: {exc}"
            return GraphBatchItem(input_path=item.input_path, ok=False, error=message)
        return GraphBatchItem(input_path=item.input_path, ok=True, analysis=outcome)

    if mode == "serial" or len(batch.items) <= 1:
        items = [analyze_item(item) for item in batch.items]
    else:
        from repro.core.workerpool import shared_thread_pool

        pool = shared_thread_pool(n_workers)
        futures = [pool.submit(analyze_item, item) for item in batch.items]
        items = [future.result() for future in futures]

    # collect per-run node outputs across the successful items, plus the run
    # keys that anchor reduce-node memoization to the batch content
    collected: Dict[str, List[object]] = {node.name: [] for node in run_specs}
    run_keys: List[Optional[str]] = []
    for raw, item in zip(batch.items, items):
        if not item.ok:
            continue
        if item.analysis is not None:
            for name, value in item.analysis.values.items():
                collected[name].append(value)
        stats = getattr(raw.run, "cache_stats", None) if raw.run is not None else None
        run_keys.append(stats.key if stats is not None else None)
    active_cache = cache
    if active_cache is None:
        for raw in batch.items:
            bound = getattr(raw.run, "_bound_cache", None) if raw.run is not None else None
            if bound is not None:
                active_cache = bound
                break
    all_ok = all(item.ok for item in items) and bool(items)
    reduce_memoized = (
        active_cache is not None and all_ok
        and all(key is not None for key in run_keys)
    )
    batch_key = ",".join(run_keys) if reduce_memoized else None

    reduces: List[Dict] = []
    reduce_values: Dict[str, object] = {}
    failed_reduces: set = set()
    n_memo_hits = sum(
        item.analysis.execution.get("n_memo_hits", 0)
        for item in items if item.analysis is not None
    )
    for name in graph.topo_order():
        if graph.node_kind(name) != "reduce":
            continue
        node = graph.node(name)
        record = {
            "node": name,
            "op": node.op,
            "inputs": list(node.inputs),
            "params": node.params_dict,
            "value": None,
            "error": None,
            "elapsed_s": 0.0,
            "memo_hit": False,
        }
        blocked = [ref for ref in node.inputs if ref in failed_reduces]
        if blocked:
            record["error"] = f"skipped: upstream reduce node(s) {blocked} failed"
            failed_reduces.add(name)
            reduces.append(record)
            continue
        node_start = time.perf_counter()
        memo_key = None
        if reduce_memoized:
            memo_key = active_cache.node_memo_key(batch_key, graph.node_signature(name))
            document = active_cache.memo_get(memo_key)
            if document is not None:
                record["value"] = document["value"]
                record["memo_hit"] = True
                record["elapsed_s"] = time.perf_counter() - node_start
                reduce_values[name] = record["value"]
                n_memo_hits += 1
                reduces.append(record)
                continue
        args = []
        for ref in node.inputs:
            if ref == "batch":
                args.append(batch)
            elif ref in reduce_values:
                args.append(reduce_values[ref])
            else:
                args.append(collected[ref])
        try:
            value = _json_value(op_info(node.op).func(*args, **node.params_dict))
        except Exception as exc:  # per-node isolation at batch scope
            _LOG.warning("analysis graph: reduce node %r failed: %s", name, exc)
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["elapsed_s"] = time.perf_counter() - node_start
            failed_reduces.add(name)
            reduces.append(record)
            continue
        record["value"] = value
        record["elapsed_s"] = time.perf_counter() - node_start
        reduce_values[name] = value
        if memo_key is not None:
            active_cache.memo_put(memo_key, {
                "node": name,
                "op": node.op,
                "node_signature": graph.node_signature(name),
                "run_key": batch_key,
                "value": value,
            })
        reduces.append(record)

    total_nodes = len(run_specs) * sum(1 for item in items if item.ok) + len(reduces)
    return GraphBatchResult(
        items=items,
        reduces=reduces,
        graph=graph.to_spec(),
        execution={
            "scope": "batch",
            "executor": mode,
            "n_workers": n_workers,
            "signature": graph.signature(),
            "memoized": reduce_memoized or any(
                item.analysis is not None and item.analysis.execution.get("memoized")
                for item in items
            ),
            "n_memo_hits": n_memo_hits,
            "n_computed": max(total_nodes - n_memo_hits, 0),
            "wall_time": time.perf_counter() - start,
        },
    )
