"""``thread-escape``: no unlocked shared-state writes on pool threads.

The whole-program companion to ``lock-discipline``.  Starting from every
**submission site** the call graph records (``pool.submit(fn)``,
``pool.map(fn, items)``, ``loop.run_in_executor(...)``,
``future.add_done_callback(fn)``,
``threading.Thread(target=fn)`` — including callables forwarded through a
parameter, which is how ``ThreadPool.submit`` hands work over), it
computes the set of functions
that can execute on a thread other than the one that created the shared
state, and inside that set flags:

* writes to **module globals** — a ``global`` rebind, or an item/attribute
  store on a module-level binding (``_REGISTRY[key] = value``) — outside a
  lock region built from a module-level lock;
* writes to **attributes of shared objects** — instances of classes that
  own a ``threading.Lock``/``RLock`` — outside a lock region, whether
  through ``self`` or through a receiver whose class is known from
  annotations;
* **any** write reaching an event-loop-confined class
  (``FairPriorityQueue``): those classes are lock-free *by contract of
  never being touched off the loop thread*, so pool-reachability itself
  is the bug.

``__init__`` writes are exempt (construction precedes sharing).  Every
finding names the submitted callable and the submission site that makes
the code thread-reachable, so the report reads as a data-flow story, not
a style complaint.  Deliberate patterns (caller-holds-lock helpers,
pre-fork setup) are waived at the site with ``# repro-lint:
ignore[thread-escape]`` and a justification.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Dict, Iterator, Optional, Set

from repro.staticcheck.callgraph import (
    CallGraph,
    SubmissionSite,
    graph_for_project,
)
from repro.staticcheck.model import Finding, ModuleContext, ProjectContext
from repro.staticcheck.registry import register_rule
from repro.staticcheck.rules._locks import (
    class_lock_attrs,
    collect_lock_aliases,
    global_declarations,
    in_lock_region,
    local_bindings,
    module_lock_names,
    module_mutable_names,
    written_names,
    written_self_fields,
)

#: classes that are lock-free because they live on one event loop only —
#: reachability from a pool thread is itself a contract violation
_LOOP_CONFINED = {"FairPriorityQueue"}


class _ModuleModel:
    """Per-module facts the sweep needs repeatedly (built once each)."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.locks = module_lock_names(ctx)
        self.mutables = module_mutable_names(ctx)


def _lock_attrs_for_class(graph: CallGraph, contexts: Dict[str, ModuleContext],
                          class_qual: Optional[str],
                          cache: Dict[str, Set[str]]) -> Set[str]:
    """Lock attributes of *class_qual*, resolved in its defining module.

    A lock-owning class necessarily assigns the lock in ``__init__``, so
    locating the class through any of its methods always finds the right
    :class:`ModuleContext` (a method-less class cannot own a lock).
    """
    if not class_qual:
        return set()
    if class_qual not in cache:
        attrs: Set[str] = set()
        record = graph.classes.get(class_qual)
        if record is not None and record.node is not None:
            for method_qual in record.methods.values():
                function = graph.functions.get(method_qual)
                if function is None:
                    continue
                ctx = contexts.get(function.path)
                if ctx is not None:
                    attrs = class_lock_attrs(ctx, record.node)
                break
        cache[class_qual] = attrs
    return cache[class_qual]


def _receiver_guarded(ctx: ModuleContext, anchor: ast.AST, receiver: str,
                      receiver_locks: Set[str]) -> bool:
    """Is *anchor* under ``with <receiver>.<lock>:`` for a known lock attr?"""
    chain = [anchor]
    chain.extend(ctx.ancestors(anchor))
    for ancestor in chain:
        if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
            continue
        for item in ancestor.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == receiver
                and expr.attr in receiver_locks
            ):
                return True
    return False


def _escape_story(root: str, site: Optional[SubmissionSite]) -> str:
    if site is None:
        return f"reachable from pool-submitted callable `{root}`"
    return (
        f"reachable from `{root}` submitted to another thread via "
        f"{site.api} at {site.path}:{site.line}"
    )


@register_rule(
    "thread-escape",
    severity="error",
    scope="project",
    description="functions reachable from thread-pool submissions may not "
                "write shared state outside a lock region",
)
def check_thread_escape(project: ProjectContext) -> Iterator[Finding]:
    """Sweep the pool-reachable closure for unlocked shared-state writes."""
    graph = graph_for_project(project)
    contexts = {m.posix_path: m for m in project.modules}
    models: Dict[str, _ModuleModel] = {}
    class_locks: Dict[str, Set[str]] = {}
    site_by_callee: Dict[str, SubmissionSite] = {}
    for site in sorted(
        graph.submission_sites, key=lambda s: (s.path, s.line, s.caller)
    ):
        if site.callee is not None and site.callee not in site_by_callee:
            site_by_callee[site.callee] = site

    reached = graph.reachable(site_by_callee)
    for qual in sorted(reached):
        info = graph.functions[qual]
        node = graph.function_ast(qual)
        ctx = contexts.get(info.path)
        if node is None or ctx is None:
            continue
        if qual.endswith(".__init__"):
            continue  # construction precedes sharing
        if info.path not in models:
            models[info.path] = _ModuleModel(ctx)
        model = models[info.path]
        story = _escape_story(reached[qual], site_by_callee.get(reached[qual]))
        own_locks = _lock_attrs_for_class(
            graph, contexts, info.class_qualname, class_locks
        )
        aliases = collect_lock_aliases(node, own_locks, model.locks)
        local_types = graph.local_types(qual)
        locals_bound = local_bindings(node)
        globals_declared = global_declarations(node)

        # (a) writes through self, when the owning class is shared state
        if info.class_qualname is not None:
            class_name = info.class_qualname.split(".")[-1]
            loop_confined = class_name in _LOOP_CONFINED
            if own_locks or loop_confined:
                for field_name, anchor in written_self_fields(node):
                    if field_name in own_locks:
                        continue
                    if loop_confined:
                        yield replace(ctx.finding(
                            anchor,
                            f"`{qual}` mutates `self.{field_name}` of "
                            f"event-loop-confined {class_name} but is {story} "
                            "— loop-confined state must never be touched "
                            "from a pool thread",
                        ), path=ctx.path)
                        continue
                    if in_lock_region(ctx, anchor, own_locks, model.locks, aliases):
                        continue
                    held = " / ".join(f"self.{n}" for n in sorted(own_locks))
                    yield replace(ctx.finding(
                        anchor,
                        f"`{qual}` writes `self.{field_name}` without "
                        f"holding {held}, and is {story} — another thread "
                        "can observe or lose this write",
                    ), path=ctx.path)

        # (b) writes to attributes of typed shared receivers
        for child in ast.walk(node):
            targets = []
            if isinstance(child, ast.Assign):
                targets = list(child.targets)
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value
                if not (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id not in ("self", "cls")
                ):
                    continue
                receiver = base.value.id
                receiver_class = local_types.get(receiver)
                if receiver_class is None:
                    continue
                receiver_locks = _lock_attrs_for_class(
                    graph, contexts, receiver_class, class_locks
                )
                class_name = receiver_class.split(".")[-1]
                loop_confined = class_name in _LOOP_CONFINED
                if not receiver_locks and not loop_confined:
                    continue
                if loop_confined:
                    yield replace(ctx.finding(
                        child,
                        f"`{qual}` mutates `{receiver}.{base.attr}` of "
                        f"event-loop-confined {class_name} but is {story}",
                    ), path=ctx.path)
                    continue
                if _receiver_guarded(ctx, child, receiver, receiver_locks):
                    continue
                held = " / ".join(f"{receiver}.{n}" for n in sorted(receiver_locks))
                yield replace(ctx.finding(
                    child,
                    f"`{qual}` writes `{receiver}.{base.attr}` without "
                    f"holding {held}, and is {story}",
                ), path=ctx.path)

        # (c) module-global writes
        for name, how, anchor in written_names(node):
            is_global_rebind = how == "rebind" and name in globals_declared
            is_item_store = (
                how == "item"
                and name in model.mutables
                and name not in locals_bound
            )
            if not (is_global_rebind or is_item_store):
                continue
            if in_lock_region(ctx, anchor, set(), model.locks, aliases):
                continue
            verb = "rebinds global" if is_global_rebind else "mutates module-level"
            yield replace(ctx.finding(
                anchor,
                f"`{qual}` {verb} `{name}` outside a lock region, and is "
                f"{story} — guard it with a module-level lock or suppress "
                "with a justification",
            ), path=ctx.path)
