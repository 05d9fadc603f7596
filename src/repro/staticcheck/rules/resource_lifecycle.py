"""``resource-lifecycle``: acquired segments, pools and executors must release.

PR 5 shipped a whole satellite ("/dev/shm leak sweeps") because abandoned
``SharedMemory`` segments outlived the process: a crashed run or a
forgotten ``close()`` left real files in ``/dev/shm`` until reboot.
Executors are the same class of bug with threads instead of bytes.  The
resulting house style, now enforced:

an acquisition of ``SharedMemory`` / ``ThreadPoolExecutor`` /
``ProcessPoolExecutor`` must be one of

* the context expression of a ``with`` statement (directly, or the bound
  variable is later used as one);
* released in a ``try``/``finally`` — either the acquisition sits inside a
  ``try`` with a ``finally``, or a later ``try`` in the same function
  releases the bound name (``close``/``shutdown``/``release``/``unlink``/
  ``terminate``/``join``) in its ``finally``;
* assigned to an attribute (``self._executor = ...``) — the owner object's
  lifecycle manages it;
* returned directly — the caller owns it (factory functions).

Deliberate exceptions (a process-lifetime resource released by an atexit
hook) carry explicit suppressions at the acquisition site — which is
exactly where a reviewer wants to read the justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.model import Finding, ModuleContext
from repro.staticcheck.registry import register_rule

_RESOURCE_TYPES = {"SharedMemory", "ThreadPoolExecutor", "ProcessPoolExecutor"}

_RELEASE_METHODS = {"close", "shutdown", "release", "unlink", "terminate", "join"}

#: callables that adopt a resource's lifecycle when it is passed straight in
_ADOPTING_CALLS = {"enter_context", "push", "callback", "closing"}


def _resource_name(ctx: ModuleContext, call: ast.Call) -> Optional[str]:
    target = call.func
    name = target.attr if isinstance(target, ast.Attribute) else (
        target.id if isinstance(target, ast.Name) else None
    )
    return name if name in _RESOURCE_TYPES else None


def _nearest_statement(ctx: ModuleContext, node: ast.AST) -> Optional[ast.stmt]:
    current: Optional[ast.AST] = node
    while current is not None and not isinstance(current, ast.stmt):
        current = ctx.parents.get(current)
    return current


def _inside_with_item(ctx: ModuleContext, call: ast.Call) -> bool:
    current: ast.AST = call
    for ancestor in ctx.ancestors(call):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                expr = item.context_expr
                if call is expr or any(n is call for n in ast.walk(expr)):
                    return True
        current = ancestor
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return False


def _inside_try_finally(ctx: ModuleContext, node: ast.AST) -> bool:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.Try) and ancestor.finalbody:
            return True
    return False


def _scope_of(ctx: ModuleContext, node: ast.AST) -> ast.AST:
    return ctx.enclosing_function(node) or ctx.tree


def _released_later(ctx: ModuleContext, call: ast.Call, name: str) -> bool:
    """The bound *name* is with-managed or finally-released in this scope."""
    scope = _scope_of(ctx, call)
    for node in ast.walk(scope):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
        if isinstance(node, ast.Try) and node.finalbody:
            for final_node in node.finalbody:
                for inner in ast.walk(final_node):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr in _RELEASE_METHODS
                        and isinstance(inner.func.value, ast.Name)
                        and inner.func.value.id == name
                    ):
                        return True
    return False


@register_rule(
    "resource-lifecycle",
    severity="error",
    description="SharedMemory/Executor acquisitions must be released via "
                "context manager or try/finally on every path",
)
def check_resource_lifecycle(ctx: ModuleContext) -> Iterator[Finding]:
    """Leak-prone acquisitions need a guaranteed release path."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resource = _resource_name(ctx, node)
        if resource is None:
            continue
        if _inside_with_item(ctx, node):
            continue
        statement = _nearest_statement(ctx, node)
        if isinstance(statement, ast.Return):
            continue  # factory: the caller owns the lifecycle
        parent = ctx.parents.get(node)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr in _ADOPTING_CALLS
        ):
            continue  # ExitStack.enter_context(...) and friends adopt it
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            if any(isinstance(target, ast.Attribute) for target in targets):
                continue  # owner-managed: self._executor = ThreadPoolExecutor(...)
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
            if _inside_try_finally(ctx, statement):
                continue
            if any(_released_later(ctx, node, name) for name in bound):
                continue
        yield ctx.finding(
            node,
            f"{resource} acquired without a context manager or try/finally "
            "release on every path — leaked segments/executors outlive the "
            "run (the PR 5 /dev/shm leak class); wrap in `with`, release in "
            "a `finally`, or suppress with a justification if an atexit "
            "sweep owns it",
        )
