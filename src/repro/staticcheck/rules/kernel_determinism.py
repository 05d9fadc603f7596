"""``kernel-determinism``: numerical kernels must be bitwise-reproducible.

Every benchmark gate in this repository (streamed-vs-in-memory, cache
hits, fused-vs-scalar kernels) asserts *bitwise* identity, and the
content-addressed cache serves results keyed on inputs alone — one hidden
source of nondeterminism in a kernel silently poisons all of it.  Modules
under ``core/kernels`` may not:

* read clocks (``time.time``/``perf_counter``/``datetime.now`` ...) —
  timing lives in :mod:`repro.perf`, outside the numerical path;
* draw randomness without explicit seed plumbing — ``random.*`` and
  ``numpy.random.*`` are banned except ``numpy.random.default_rng(seed)``
  called with an explicit seed argument;
* read ambient configuration (``os.environ`` / ``os.getenv``) — kernel
  behaviour must be a function of its arguments, never of the shell;
* iterate a ``set`` (literal, comprehension or ``set()``/``frozenset()``
  call) in a loop or comprehension — set order varies with hash
  randomization, and feeding unordered elements into float accumulation
  changes the rounding sequence from run to run.

The rule is **interprocedural**: via the project call graph, every
function *reachable* from a kernel-module function is held to the
clock/RNG/env contract too, wherever it is defined — a helper in
``utils`` that reads ``os.environ`` poisons the kernel that calls it just
as surely as an inline read would.  (The set-iteration check stays
module-local: outside the kernels, iteration order only matters when the
result feeds a kernel accumulation, which the reachable clock/RNG/env
sweep does not model.)
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Iterable, Iterator, Optional

from repro.staticcheck.callgraph import graph_for_project
from repro.staticcheck.model import Finding, ModuleContext, ProjectContext
from repro.staticcheck.registry import register_rule

#: path fragments selecting the modules this rule governs
_TARGET_FRAGMENTS = ("core/kernels",)

_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}

_ENV_READS = {"os.environ", "os.getenv"}


def _is_target_path(posix_path: str) -> bool:
    return any(fragment in posix_path for fragment in _TARGET_FRAGMENTS)


def _set_expression(ctx: ModuleContext, node: ast.AST) -> Optional[str]:
    """A human name for *node* when it produces a set, else ``None``."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        dotted = ctx.dotted_name(node.func)
        if dotted in ("set", "frozenset"):
            return f"a {dotted}() call"
    return None


def _own_subtree(root: ast.AST) -> Iterator[ast.AST]:
    """*root* and its descendants, minus nested def/class scopes.

    Used for the interprocedural sweep, where nested defs are distinct
    call-graph nodes scanned on their own when reachable.
    """
    yield root
    queue = list(ast.iter_child_nodes(root))
    while queue:
        node = queue.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        queue.extend(ast.iter_child_nodes(node))


def _scan(ctx: ModuleContext, nodes: Iterable[ast.AST], *,
          include_sets: bool, suffix: str = "") -> Iterator[Finding]:
    """The determinism checks over an iterable of AST nodes."""
    for node in nodes:
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = ctx.dotted_name(node)
            if dotted in _ENV_READS:
                parent = ctx.parents.get(node)
                if isinstance(parent, ast.Attribute):
                    continue  # inner segment of a longer chain, handled there
                yield ctx.finding(
                    node,
                    f"`{dotted}` read inside a deterministic kernel path: "
                    "kernel behaviour must depend only on explicit arguments, "
                    f"never on ambient environment{suffix}",
                )
        if isinstance(node, ast.Call):
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _CLOCK_CALLS:
                yield ctx.finding(
                    node,
                    f"clock read `{dotted}` inside a deterministic kernel "
                    "path; timing belongs in repro.perf, outside the "
                    f"numerical path{suffix}",
                )
            elif dotted == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        node,
                        "`numpy.random.default_rng()` without an explicit "
                        "seed argument: entropy-seeded RNGs break bitwise "
                        f"reproducibility — plumb the seed through the config{suffix}",
                    )
            elif dotted.startswith("numpy.random.") or dotted == "random" or dotted.startswith("random."):
                yield ctx.finding(
                    node,
                    f"`{dotted}` inside a deterministic kernel path; the "
                    "only sanctioned randomness is numpy.random.default_rng "
                    f"with an explicitly plumbed seed{suffix}",
                )
        if not include_sets:
            continue
        iter_sources = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_sources.append(node.iter)
        elif isinstance(node, ast.comprehension):
            iter_sources.append(node.iter)
        for source in iter_sources:
            described = _set_expression(ctx, source)
            if described is not None:
                yield ctx.finding(
                    source,
                    f"iterating {described} in a kernel module: set order "
                    "varies with hash randomization, so float accumulation "
                    "over it is not bitwise-reproducible — sort it or use a "
                    "tuple/list",
                )


@register_rule(
    "kernel-determinism",
    severity="error",
    scope="project",
    description="kernel/science-op modules — and everything reachable from "
                "them — may not read clocks, env vars, unseeded RNGs, or "
                "iterate sets into accumulations",
)
def check_kernel_determinism(project: ProjectContext) -> Iterator[Finding]:
    """Numerical kernels must be pure functions of their arguments."""
    # pass 1: the kernel modules themselves, checked in full
    for ctx in project.modules:
        if not _is_target_path(ctx.posix_path):
            continue
        for finding in _scan(ctx, ast.walk(ctx.tree), include_sets=True):
            yield replace(finding, path=ctx.path)

    # pass 2: everything the kernels reach, wherever it is defined
    graph = graph_for_project(project)
    contexts = {m.posix_path: m for m in project.modules}
    roots = [
        qual for qual, info in sorted(graph.functions.items())
        if _is_target_path(info.path)
    ]
    reached = graph.reachable(roots)
    for qual in sorted(reached):
        info = graph.functions[qual]
        if _is_target_path(info.path):
            continue  # covered by pass 1
        ctx = contexts.get(info.path)
        node = graph.function_ast(qual)
        if ctx is None or node is None:
            continue
        suffix = f" (reachable from kernel entry `{reached[qual]}`)"
        for finding in _scan(
            ctx, _own_subtree(node), include_sets=False, suffix=suffix
        ):
            yield replace(finding, path=ctx.path)
