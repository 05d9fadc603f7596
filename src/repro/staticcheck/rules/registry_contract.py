"""``registry-contract``: registered ops and backends must honour the registry.

The registries (:mod:`repro.core.registry`, :mod:`repro.core.ops`) validate
what they can at import time — names, callables, duplicates.  What they
*cannot* see from a live object is how it was written, and three textual
contracts have each been broken at least once during growth:

* **module-top-level registration** — a ``@register_op`` inside a function
  or method re-registers on every call, which the duplicate guard turns
  into a crash on the second invocation (tests register-and-unregister on
  purpose; library code must not);
* **JSON-serializable keyword defaults** — ``OpInfo.parameters()`` feeds
  ``repro-analyze --list`` and provenance records, and a non-literal
  default (an object, a call, a module attribute) breaks the JSON document
  and hides the real default from introspection;
* **registry-expected arity** — ops receive the stack as their first
  positional argument, and backends must be classes (the factory
  protocol).  Registering the wrong shape fails deep inside a pipeline
  instead of at import.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.model import Finding, ModuleContext
from repro.staticcheck.registry import register_rule

#: registrar name → what it must decorate
_REGISTRARS = {
    "register_op": "function",
    "register_backend": "class",
}

_JSON_CONST_TYPES = (str, int, float, bool, type(None))


def _registrar_name(decorator: ast.AST) -> Optional[str]:
    """The registrar a decorator resolves to, or ``None``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        name = target.attr
    elif isinstance(target, ast.Name):
        name = target.id
    else:
        return None
    return name if name in _REGISTRARS else None


def _is_json_literal(node: ast.AST) -> bool:
    """True when *node* is a literal expression of strict JSON value types."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, _JSON_CONST_TYPES) and not isinstance(node.value, bytes)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return isinstance(node.operand, ast.Constant) and isinstance(
            node.operand.value, (int, float)
        )
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(_is_json_literal(item) for item in node.elts)
    if isinstance(node, ast.Dict):
        return all(
            isinstance(key, ast.Constant) and isinstance(key.value, str)
            for key in node.keys
        ) and all(_is_json_literal(value) for value in node.values)
    return False


def _positional_params(args: ast.arguments):
    return list(getattr(args, "posonlyargs", [])) + list(args.args)


def _check_op_function(ctx: ModuleContext, node, registrar: str) -> Iterator[Finding]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield ctx.finding(
            node,
            f"@{registrar} must decorate a function, not a class "
            f"({node.name!r}); backends register classes, ops register functions",
        )
        return
    if isinstance(node, ast.AsyncFunctionDef):
        yield ctx.finding(
            node,
            f"@{registrar} op {node.name!r} must be a plain function: the "
            "execution engine calls ops synchronously on worker threads",
        )
    positional = _positional_params(node.args)
    if not positional:
        yield ctx.finding(
            node,
            f"@{registrar} op {node.name!r} takes no positional parameter; "
            "the registry passes the depth-resolved stack as the first argument",
        )
    # keyword parameters = positional-with-default + kwonly-with-default
    defaulted = list(zip(
        [param.arg for param in positional[len(positional) - len(node.args.defaults):]],
        node.args.defaults,
    ))
    defaulted.extend(
        (param.arg, default)
        for param, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None
    )
    for name, default in defaulted:
        if not _is_json_literal(default):
            yield ctx.finding(
                default,
                f"op {node.name!r} keyword default {name!r} must be a "
                "JSON-serializable literal (str/int/float/bool/None or "
                "lists/dicts of those): registry introspection and "
                "provenance records serialize defaults verbatim",
            )


def _check_backend_class(ctx: ModuleContext, node, registrar: str) -> Iterator[Finding]:
    if not isinstance(node, ast.ClassDef):
        yield ctx.finding(
            node,
            f"@{registrar} must decorate a class implementing the Backend "
            f"factory protocol, not a function ({node.name!r})",
        )


@register_rule(
    "registry-contract",
    severity="error",
    description="@register_op/@register_backend targets must be "
                "top-level, correctly shaped, with JSON-literal keyword defaults",
)
def check_registry_contract(ctx: ModuleContext) -> Iterator[Finding]:
    """Registered ops/backends must satisfy the registry's textual contracts."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        registrars = [
            name for name in
            (_registrar_name(decorator) for decorator in node.decorator_list)
            if name is not None
        ]
        if not registrars:
            continue
        parent = ctx.parents.get(node)
        if not isinstance(parent, ast.Module):
            yield ctx.finding(
                node,
                f"{node.name!r} is registered inside a "
                f"{type(parent).__name__.lower()}; registrations must be "
                "module-top-level so they run exactly once at import time "
                "(the duplicate guard rejects re-registration)",
            )
        for registrar in registrars:
            if _REGISTRARS[registrar] == "function":
                yield from _check_op_function(ctx, node, registrar)
            else:
                yield from _check_backend_class(ctx, node, registrar)
