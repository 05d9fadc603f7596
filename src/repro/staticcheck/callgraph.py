"""Project-wide call graph: the whole-program substrate of ``repro-lint``.

The per-file rules in :mod:`repro.staticcheck.rules` see one module at a
time, which is exactly the wrong unit for concurrency bugs: a callable
handed to ``shared_thread_pool(...).submit`` in one file mutates state
defined in another, and neither file looks wrong on its own.  This module
builds the missing global view:

* **Nodes** — every function, method and nested function under the linted
  tree, keyed by module-qualified name (``repro.core.cache.ResultCache.get``,
  ``repro.core.session.Session.run_many.<locals>.run_one``).
* **Edges** — resolved call relationships.  Resolution is deliberately
  syntactic but annotation-aware: plain names resolve through the lexical
  scope chain and the import table; ``self.method()`` resolves within the
  enclosing class and its project-local bases; ``obj.method()`` resolves
  through the receiver's inferred type (parameter annotations, ``self.x:
  T`` attribute annotations, ``x = ClassName(...)`` constructor
  assignments and annotated return types), falling back to a
  unique-method-name match when exactly one project class defines the
  method.
* **Entry points** — functions and classes carrying registry decorators
  (``register_op`` / ``register_backend`` / ``register_rule``) are marked: they are called by machinery, not by
  name, so reachability analyses must treat them as roots.
* **Submission sites** — every place a callable escapes onto another
  thread: ``pool.submit(fn)``, ``pool.map(fn, items)``,
  ``loop.run_in_executor(executor, fn)``
  (including the ``contextvars`` idiom ``run_in_executor(executor,
  context.run, fn)``), ``future.add_done_callback(fn)`` and
  ``threading.Thread(target=fn)``.  The ``thread-escape`` rule seeds its
  reachability sweep from these.

The rules build the graph in memory (:func:`graph_for_project`).  It also
serializes to a **byte-deterministic** JSON artifact (``repro-lint
--write-callgraph`` writes ``callgraph.json``; CI uploads it for review):
modules are visited in sorted path order, every mapping is emitted with
sorted keys and every edge list is sorted, so two runs over the same tree
produce identical bytes.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.model import ModuleContext, ProjectContext
from repro.utils.version import package_version

__all__ = [
    "CallGraph",
    "FunctionNode",
    "SubmissionSite",
    "build_call_graph",
    "graph_from_modules",
    "graph_for_project",
    "module_name_for_path",
    "write_callgraph",
]

#: conventional artifact location (repo root), mirroring ``api_snapshot.json``
DEFAULT_CALLGRAPH = "callgraph.json"

#: decorator base names that mark a def (or a whole class) as machinery-invoked
_ENTRY_DECORATORS = {
    "register_op",
    "register_backend",
    "register_rule",
}

#: attribute names whose call hands a positional callable to another thread
_SUBMIT_APIS = ("submit", "map", "run_in_executor", "add_done_callback")


def module_name_for_path(path: str) -> str:
    """Dotted module name for *path*, anchored at its package root.

    Walks parent directories while an ``__init__.py`` is present, so
    ``src/repro/core/cache.py`` names ``repro.core.cache`` regardless of
    where the lint run was rooted, and a fixture package in a temporary
    directory names itself consistently.  A file outside any package is
    just its stem.
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    parts = [os.path.splitext(filename)[0]]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.append(package)
    if parts[0] == "__init__":
        parts = parts[1:] or [parts[0]]
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class FunctionNode:
    """One def in the project: the unit of reachability analysis."""

    qualname: str
    module: str
    path: str
    line: int
    #: ``"function"`` (module level), ``"method"``, or ``"nested"``
    kind: str
    #: qualname of the owning class for methods, else ``None``
    class_qualname: Optional[str]
    decorators: Tuple[str, ...]
    #: registry-decorated (directly or via a decorated class)
    is_entry: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "kind": self.kind,
            "class": self.class_qualname,
            "decorators": list(self.decorators),
            "entry": self.is_entry,
        }


@dataclass(frozen=True)
class SubmissionSite:
    """One place a callable escapes the submitting thread."""

    #: qualname of the function containing the submission
    caller: str
    #: which API carried it: ``submit`` / ``map`` / ``run_in_executor`` / ...
    api: str
    #: resolved qualname of the escaping callable (``None`` if unresolved)
    callee: Optional[str]
    path: str
    line: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "caller": self.caller,
            "api": self.api,
            "callee": self.callee,
            "path": self.path,
            "line": self.line,
        }


@dataclass
class _ClassRecord:
    """Internal per-class index: methods, bases and inferred attribute types."""

    qualname: str
    module: str
    #: method name → function qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: raw dotted base names (resolved to qualnames in the link pass)
    raw_bases: Tuple[str, ...] = ()
    bases: Tuple[str, ...] = ()
    #: attribute name → class qualname (from annotations / ctor assignments)
    attr_types: Dict[str, str] = field(default_factory=dict)
    node: Optional[ast.ClassDef] = None
    is_entry: bool = False


class _ModuleRecord:
    """Internal per-module index built in the definition pass."""

    def __init__(self, context: ModuleContext, modname: str):
        self.context = context
        self.modname = modname
        #: module-level name → qualname of the def/class it binds
        self.top_defs: Dict[str, str] = {}

    @property
    def imports(self) -> Dict[str, str]:
        return self.context.imports


class CallGraph:
    """The linked whole-program view.  Build via :func:`build_call_graph`."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, _ClassRecord] = {}
        self.edges: Dict[str, Tuple[str, ...]] = {}
        self.submission_sites: List[SubmissionSite] = []
        self.modules: List[str] = []
        #: function qualname → its AST node (for rules; not serialized)
        self._def_nodes: Dict[str, ast.AST] = {}
        #: function qualname → inferred local/param types (name → class qual)
        self._local_types: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------------ #
    def function_ast(self, qualname: str) -> Optional[ast.AST]:
        """The def node behind a :class:`FunctionNode` (in-memory only)."""
        return self._def_nodes.get(qualname)

    def local_types(self, qualname: str) -> Dict[str, str]:
        """Inferred ``local name → class qualname`` map for a function."""
        return self._local_types.get(qualname, {})

    def entry_points(self) -> List[str]:
        """Qualnames of registry-decorated functions/methods, sorted."""
        return sorted(q for q, node in self.functions.items() if node.is_entry)

    def submission_roots(self) -> List[str]:
        """Resolved callables escaping to other threads, sorted + unique."""
        return sorted({s.callee for s in self.submission_sites if s.callee})

    def reachable(self, roots: Iterable[str]) -> Dict[str, str]:
        """BFS closure over call edges: reached qualname → its root.

        The root attribution (first root to reach each node, in sorted
        root order) lets rules explain *why* a function is considered
        thread-reachable.
        """
        reached: Dict[str, str] = {}
        frontier: List[Tuple[str, str]] = []
        for root in sorted(set(roots)):
            if root in self.functions and root not in reached:
                reached[root] = root
                frontier.append((root, root))
        while frontier:
            current, root = frontier.pop(0)
            for callee in self.edges.get(current, ()):
                if callee not in reached and callee in self.functions:
                    reached[callee] = root
                    frontier.append((callee, root))
        return reached

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """The serializable artifact (stable schema, fully sorted)."""
        edges = {
            caller: list(callees)
            for caller, callees in sorted(self.edges.items())
            if callees
        }
        n_edges = sum(len(v) for v in edges.values())
        return {
            "tool": "repro-callgraph",
            "format": 1,
            "version": package_version(),
            "summary": {
                "n_modules": len(self.modules),
                "n_functions": len(self.functions),
                "n_edges": n_edges,
                "n_entry_points": len(self.entry_points()),
                "n_submission_sites": len(self.submission_sites),
            },
            "modules": list(self.modules),
            "functions": {
                qual: node.to_dict() for qual, node in sorted(self.functions.items())
            },
            "edges": edges,
            "entry_points": self.entry_points(),
            "submission_sites": [
                site.to_dict()
                for site in sorted(
                    self.submission_sites,
                    key=lambda s: (s.path, s.line, s.api, s.caller, s.callee or ""),
                )
            ],
        }

    def to_json(self) -> str:
        """Byte-deterministic JSON rendering (trailing newline included)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------- #
# construction
# ---------------------------------------------------------------------- #

def _decorator_names(node: ast.AST, context: ModuleContext) -> Tuple[str, ...]:
    names: List[str] = []
    for decorator in getattr(node, "decorator_list", []):
        expr = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = context.dotted_name(expr)
        if dotted:
            names.append(dotted)
    return tuple(names)


def _is_entry_decorated(decorators: Tuple[str, ...]) -> bool:
    return any(d.split(".")[-1] in _ENTRY_DECORATORS for d in decorators)


def _annotation_dotted(node: Optional[ast.AST], context: ModuleContext) -> Optional[str]:
    """The class-ish dotted name inside an annotation, unwrapping
    ``Optional[X]`` / ``"X"`` string forms / single-parameter generics."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        head = context.dotted_name(node.value)
        if head and head.split(".")[-1] in ("Optional", "Final", "ClassVar"):
            return _annotation_dotted(node.slice, context)
        return None
    return context.dotted_name(node)


class _Builder:
    """Three passes: index definitions, link classes, resolve calls."""

    def __init__(self, contexts: Sequence[ModuleContext]):
        self.graph = CallGraph()
        self.records: List[_ModuleRecord] = []
        #: method name → sorted class qualnames defining it (fallback lookup)
        self.method_index: Dict[str, List[str]] = {}
        #: function qualname → return-annotation class qualname
        self.return_types: Dict[str, str] = {}
        #: resolved project calls: (caller qualname, callee qualname, Call node)
        self.call_records: List[Tuple[str, str, ast.Call]] = []
        #: submission sites whose callable is a parameter of the caller:
        #: (index into graph.submission_sites, parameter name)
        self.forwarded_sites: List[Tuple[int, str]] = []
        ordered = sorted(contexts, key=lambda c: c.posix_path)
        for context in ordered:
            record = _ModuleRecord(context, module_name_for_path(context.path))
            self.records.append(record)
            self.graph.modules.append(context.posix_path)

    # -------------------------------------------------------------- #
    def build(self) -> CallGraph:
        for record in self.records:
            self._index_module(record)
        self._link_classes()
        for record in self.records:
            self._resolve_module(record)
        self._resolve_forwarded_sites()
        return self.graph

    # ---------------------------- pass 1 --------------------------- #
    def _index_module(self, record: _ModuleRecord) -> None:
        context = record.context

        def register_function(node, qualprefix: str, kind: str,
                              class_qual: Optional[str],
                              class_entry: bool) -> str:
            qual = f"{qualprefix}.{node.name}"
            decorators = _decorator_names(node, context)
            info = FunctionNode(
                qualname=qual,
                module=record.modname,
                path=context.posix_path,
                line=node.lineno,
                kind=kind,
                class_qualname=class_qual,
                decorators=decorators,
                is_entry=class_entry or _is_entry_decorated(decorators),
            )
            self.graph.functions[qual] = info
            self.graph._def_nodes[qual] = node
            return qual

        def walk_class(node: ast.ClassDef, qualprefix: str) -> None:
            class_qual = f"{qualprefix}.{node.name}"
            decorators = _decorator_names(node, context)
            cls = _ClassRecord(
                qualname=class_qual,
                module=record.modname,
                raw_bases=tuple(
                    d for d in (context.dotted_name(b) for b in node.bases) if d
                ),
                node=node,
                is_entry=_is_entry_decorated(decorators),
            )
            self.graph.classes[class_qual] = cls
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_qual = register_function(
                        child, class_qual, "method", class_qual, cls.is_entry
                    )
                    cls.methods[child.name] = method_qual
                    walk_function(child, method_qual)
                elif isinstance(child, ast.ClassDef):
                    walk_class(child, class_qual)
                elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                    dotted = _annotation_dotted(child.annotation, context)
                    if dotted:
                        cls.attr_types.setdefault(child.target.id, dotted)

        def walk_function(node, qualprefix: str) -> None:
            for child in ast.walk(node):
                if child is node:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if self._direct_parent_function(node, child):
                        nested_qual = register_function(
                            child, f"{qualprefix}.<locals>", "nested", None, False
                        )
                        walk_function(child, nested_qual)

        for statement in record.context.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = register_function(
                    statement, record.modname, "function", None, False
                )
                record.top_defs[statement.name] = qual
                walk_function(statement, qual)
            elif isinstance(statement, ast.ClassDef):
                walk_class(statement, record.modname)
                record.top_defs[statement.name] = f"{record.modname}.{statement.name}"

    @staticmethod
    def _direct_parent_function(parent: ast.AST, child: ast.AST) -> bool:
        """True when *child* is nested in *parent* with no def/class between."""
        found = [False]

        class _Scan(ast.NodeVisitor):
            def generic_visit(self, node: ast.AST) -> None:
                if node is child:
                    found[0] = True
                    return
                if node is not parent and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    return  # do not descend into inner scopes
                ast.NodeVisitor.generic_visit(self, node)

        _Scan().visit(parent)
        return found[0]

    # ---------------------------- pass 2 --------------------------- #
    def _link_classes(self) -> None:
        #: class local/dotted name → qualname, per module
        for qual in sorted(self.graph.classes):
            cls = self.graph.classes[qual]
            for method_name in sorted(cls.methods):
                self.method_index.setdefault(method_name, []).append(
                    cls.qualname
                )
        for record in self.records:
            module_classes = {
                qual for qual in self.graph.classes
                if self.graph.classes[qual].module == record.modname
            }
            for qual in sorted(module_classes):
                cls = self.graph.classes[qual]
                resolved: List[str] = []
                for raw in cls.raw_bases:
                    base = self._resolve_class_name(raw, record)
                    if base:
                        resolved.append(base)
                cls.bases = tuple(resolved)
        # return-annotation types (needs class resolution)
        for record in self.records:
            for qual, node in sorted(self.graph._def_nodes.items()):
                info = self.graph.functions[qual]
                if info.module != record.modname:
                    continue
                returns = getattr(node, "returns", None)
                dotted = _annotation_dotted(returns, record.context)
                if dotted:
                    resolved_class = self._resolve_class_name(dotted, record)
                    if resolved_class:
                        self.return_types[qual] = resolved_class
        # constructor-inferred attribute types (self.x = ClassName(...) /
        # self.x: T = ... in __init__)
        for record in self.records:
            for qual in sorted(self.graph.classes):
                cls = self.graph.classes[qual]
                if cls.module != record.modname or cls.node is None:
                    continue
                init_qual = cls.methods.get("__init__")
                init_node = self.graph._def_nodes.get(init_qual) if init_qual else None
                if init_node is None:
                    continue
                for child in ast.walk(init_node):
                    target = None
                    value = None
                    if isinstance(child, ast.AnnAssign):
                        target = child.target
                        dotted = _annotation_dotted(child.annotation, record.context)
                        value = None
                        if (
                            dotted
                            and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            resolved_class = self._resolve_class_name(dotted, record)
                            if resolved_class:
                                cls.attr_types.setdefault(target.attr, resolved_class)
                        continue
                    if isinstance(child, ast.Assign) and len(child.targets) == 1:
                        target = child.targets[0]
                        value = child.value
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and isinstance(value, ast.Call)
                    ):
                        inferred = self._call_result_type(value, record)
                        if inferred:
                            cls.attr_types.setdefault(target.attr, inferred)

    def _resolve_class_name(self, dotted: str, record: _ModuleRecord) -> Optional[str]:
        """Map a dotted (import-resolved) name to a project class qualname."""
        if dotted in self.graph.classes:
            return dotted
        local = record.top_defs.get(dotted)
        if local and local in self.graph.classes:
            return local
        # an imported name already resolves through ModuleContext.imports to
        # a fully dotted origin; the bare-name case remains (same-module ref
        # written before definition, or a conditional import)
        candidate = f"{record.modname}.{dotted}"
        if candidate in self.graph.classes:
            return candidate
        leaf = dotted.split(".")[-1]
        matches = sorted(
            qual for qual in self.graph.classes
            if qual.split(".")[-1] == leaf
        )
        if len(matches) == 1:
            return matches[0]
        return None

    def _call_result_type(self, call: ast.Call, record: _ModuleRecord) -> Optional[str]:
        """Type of a call's result: constructor → the class; annotated fn →
        its declared return class."""
        callees = self._resolve_callable(call.func, record, None, [], {})
        for callee in callees:
            if callee in self.graph.classes:
                return callee
            if callee in self.return_types:
                return self.return_types[callee]
            # Class.__init__ edge form
            if callee.endswith(".__init__"):
                owner = callee[: -len(".__init__")]
                if owner in self.graph.classes:
                    return owner
        return None

    def _resolve_method(self, class_qual: str, method: str) -> Optional[str]:
        """Look *method* up on a class, then its project-local bases."""
        seen: Set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.graph.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            queue.extend(cls.bases)
        return None

    # ---------------------------- pass 3 --------------------------- #
    def _resolve_module(self, record: _ModuleRecord) -> None:
        for qual, node in sorted(self.graph._def_nodes.items()):
            info = self.graph.functions[qual]
            if info.module != record.modname:
                continue
            self._resolve_function(qual, node, record)

    def _scope_chain(self, qual: str) -> List[Dict[str, str]]:
        """Lexical def scopes enclosing *qual*, innermost first.

        Each scope maps a local def name to its qualname; built from the
        qualname structure (``a.b.<locals>.c`` nests inside ``a.b``).
        """
        chain: List[Dict[str, str]] = []
        current = qual
        while True:
            scope: Dict[str, str] = {}
            prefix = f"{current}.<locals>."
            for candidate in self.graph.functions:
                if candidate.startswith(prefix) and "." not in candidate[len(prefix):]:
                    scope[candidate[len(prefix):]] = candidate
            chain.append(scope)
            if ".<locals>." not in current:
                break
            current = current.rsplit(".<locals>.", 1)[0]
        return chain

    def _local_type_table(self, qual: str, node: ast.AST,
                          record: _ModuleRecord) -> Dict[str, str]:
        """name → class qualname for params and simple local assignments."""
        types: Dict[str, str] = {}
        args = getattr(node, "args", None)
        if args is not None:
            every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            for arg in every:
                dotted = _annotation_dotted(arg.annotation, record.context)
                if dotted:
                    resolved = self._resolve_class_name(dotted, record)
                    if resolved:
                        types[arg.arg] = resolved
        for child in self._own_statements(node):
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                dotted = _annotation_dotted(child.annotation, record.context)
                if dotted:
                    resolved = self._resolve_class_name(dotted, record)
                    if resolved:
                        types[child.target.id] = resolved
            elif isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name) and isinstance(child.value, ast.Call):
                    inferred = self._call_result_type(child.value, record)
                    if inferred:
                        types[target.id] = inferred
        return types

    @staticmethod
    def _own_statements(node: ast.AST) -> Iterable[ast.AST]:
        """Walk *node*'s body without descending into nested defs/classes."""
        queue = list(ast.iter_child_nodes(node))
        while queue:
            child = queue.pop(0)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield child
            queue.extend(ast.iter_child_nodes(child))

    def _receiver_type(self, expr: ast.AST, record: _ModuleRecord,
                       class_qual: Optional[str],
                       local_types: Dict[str, str]) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and class_qual:
                return class_qual
            return local_types.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and class_qual
        ):
            cls = self.graph.classes.get(class_qual)
            if cls is not None:
                seen: Set[str] = set()
                queue = [class_qual]
                while queue:
                    current = queue.pop(0)
                    if current in seen:
                        continue
                    seen.add(current)
                    owner = self.graph.classes.get(current)
                    if owner is None:
                        continue
                    if expr.attr in owner.attr_types:
                        return owner.attr_types[expr.attr]
                    queue.extend(owner.bases)
        if isinstance(expr, ast.Call):
            return self._call_result_type(expr, record)
        return None

    def _resolve_callable(self, expr: ast.AST, record: _ModuleRecord,
                          class_qual: Optional[str],
                          scopes: List[Dict[str, str]],
                          local_types: Dict[str, str]) -> List[str]:
        """Resolve a callable expression to project qualnames (possibly [])."""
        if isinstance(expr, ast.Name):
            for scope in scopes:
                if expr.id in scope:
                    return [scope[expr.id]]
            top = record.top_defs.get(expr.id)
            if top:
                return [top]
            dotted = record.imports.get(expr.id)
            if dotted:
                return self._resolve_dotted(dotted)
            return []
        if isinstance(expr, ast.Attribute):
            # self.method / cls.method
            if isinstance(expr.value, ast.Name) and expr.value.id in ("self", "cls"):
                if class_qual:
                    method = self._resolve_method(class_qual, expr.attr)
                    if method:
                        return [method]
            dotted = record.context.dotted_name(expr)
            if dotted:
                # module attribute (mod.func) or Class.method spelled out
                resolved = self._resolve_dotted(dotted)
                if resolved:
                    return resolved
                head = record.top_defs.get(dotted.split(".")[0])
                if head:
                    resolved = self._resolve_dotted(
                        ".".join([head] + dotted.split(".")[1:])
                    )
                    if resolved:
                        return resolved
            receiver = self._receiver_type(expr.value, record, class_qual, local_types)
            if receiver:
                method = self._resolve_method(receiver, expr.attr)
                if method:
                    return [method]
            # fallback: exactly one project class defines this method name
            owners = self.method_index.get(expr.attr, [])
            if len(owners) == 1:
                method = self._resolve_method(owners[0], expr.attr)
                if method:
                    return [method]
            return []
        return []

    def _resolve_dotted(self, dotted: str) -> List[str]:
        if dotted in self.graph.functions:
            return [dotted]
        if dotted in self.graph.classes:
            ctor = self._resolve_method(dotted, "__init__")
            return [ctor] if ctor else [dotted]
        if "." in dotted:
            head, tail = dotted.rsplit(".", 1)
            if head in self.graph.classes:
                method = self._resolve_method(head, tail)
                if method:
                    return [method]
        return []

    def _submitted_expr(self, call: ast.Call, api: str) -> Optional[ast.AST]:
        """The callable argument escaping through a submission API."""
        args = call.args
        if api in ("submit", "map", "add_done_callback"):
            return args[0] if args else None
        if api == "run_in_executor":
            if len(args) < 2:
                return None
            fn = args[1]
            # the contextvars idiom: run_in_executor(ex, context.run, fn, ...)
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr == "run"
                and len(args) >= 3
            ):
                return args[2]
            return fn
        return None

    def _resolve_function(self, qual: str, node: ast.AST,
                          record: _ModuleRecord) -> None:
        info = self.graph.functions[qual]
        scopes = self._scope_chain(qual)
        local_types = self._local_type_table(qual, node, record)
        self.graph._local_types[qual] = local_types
        callees: Set[str] = set()

        def resolve_value(expr: ast.AST) -> List[str]:
            if isinstance(expr, ast.Call):
                # functools.partial(fn, ...) escapes fn
                dotted = record.context.dotted_name(expr.func)
                if dotted and dotted.split(".")[-1] == "partial" and expr.args:
                    return resolve_value(expr.args[0])
                return []
            return self._resolve_callable(
                expr, record, info.class_qualname, scopes, local_types
            )

        param_names = set()
        args = getattr(node, "args", None)
        if args is not None:
            param_names = {
                a.arg
                for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            }

        for child in self._own_statements(node):
            if not isinstance(child, ast.Call):
                continue
            for target in self._resolve_callable(
                child.func, record, info.class_qualname, scopes, local_types
            ):
                callees.add(target)
                self.call_records.append((qual, target, child))
            # thread submissions: record the site and add an async edge
            api: Optional[str] = None
            if isinstance(child.func, ast.Attribute) and child.func.attr in _SUBMIT_APIS:
                api = child.func.attr
            else:
                dotted = record.context.dotted_name(child.func)
                if dotted and dotted.split(".")[-1] == "Thread":
                    api = "Thread"
            if api is None:
                continue
            if api == "Thread":
                escaping: Optional[ast.AST] = None
                for keyword in child.keywords:
                    if keyword.arg == "target":
                        escaping = keyword.value
            else:
                escaping = self._submitted_expr(child, api)
            if escaping is None:
                continue
            resolved = resolve_value(escaping)
            callee = resolved[0] if resolved else None
            self.graph.submission_sites.append(SubmissionSite(
                caller=qual,
                api=api,
                callee=callee,
                path=info.path,
                line=child.lineno,
            ))
            if callee:
                callees.add(callee)
            elif isinstance(escaping, ast.Name) and escaping.id in param_names:
                # fn handed straight through from the caller's caller — e.g.
                # ThreadPool.submit(fn) or _run_ready_set(graph, compute):
                # resolved one level up in _resolve_forwarded_sites
                self.forwarded_sites.append(
                    (len(self.graph.submission_sites) - 1, escaping.id)
                )

        if callees:
            self.graph.edges[qual] = tuple(sorted(callees))

    # ----------------------- forwarded callables ------------------- #
    def _parameter_position(self, qual: str, param: str) -> Optional[int]:
        """Positional index of *param* at project call sites of *qual*
        (``self``/``cls`` excluded for bound-method calls)."""
        node = self.graph._def_nodes.get(qual)
        args = getattr(node, "args", None)
        if args is None:
            return None
        names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        info = self.graph.functions.get(qual)
        if (
            info is not None
            and info.kind == "method"
            and names
            and names[0] in ("self", "cls")
            and not any(d.split(".")[-1] == "staticmethod" for d in info.decorators)
        ):
            names = names[1:]
        if param in names:
            return names.index(param)
        return None

    def _resolve_forwarded_sites(self) -> None:
        """Resolve submissions of the form ``pool.submit(fn)`` where ``fn``
        is a parameter, by inspecting the submitting function's call sites.

        One level of forwarding covers the project's real pattern: every
        ``ThreadPool.submit(fn)`` forwards the callable its caller chose
        (the threaded backend's ``_reconstruct_band``).  Each resolution
        appends a new site with the same location and a filled-in callee.
        """
        if not self.forwarded_sites:
            return
        calls_to: Dict[str, List[Tuple[str, ast.Call]]] = {}
        for caller, callee, call in self.call_records:
            calls_to.setdefault(callee, []).append((caller, call))
        record_by_module = {r.modname: r for r in self.records}
        new_sites: List[SubmissionSite] = []
        superseded: Set[int] = set()
        for site_index, param in self.forwarded_sites:
            site = self.graph.submission_sites[site_index]
            position = self._parameter_position(site.caller, param)
            resolved_here: Set[str] = set()
            for caller, call in calls_to.get(site.caller, []):
                expr: Optional[ast.AST] = None
                if position is not None and position < len(call.args):
                    expr = call.args[position]
                else:
                    for keyword in call.keywords:
                        if keyword.arg == param:
                            expr = keyword.value
                if expr is None:
                    continue
                caller_info = self.graph.functions.get(caller)
                if caller_info is None:
                    continue
                caller_record = record_by_module.get(caller_info.module)
                if caller_record is None:
                    continue
                for target in self._resolve_callable(
                    expr,
                    caller_record,
                    caller_info.class_qualname,
                    self._scope_chain(caller),
                    self.graph._local_types.get(caller, {}),
                ):
                    resolved_here.add(target)
            if resolved_here:
                superseded.add(site_index)
            for target in sorted(resolved_here):
                new_sites.append(SubmissionSite(
                    caller=site.caller,
                    api=site.api,
                    callee=target,
                    path=site.path,
                    line=site.line,
                ))
                self.graph.edges[site.caller] = tuple(sorted(
                    set(self.graph.edges.get(site.caller, ())) | {target}
                ))
        self.graph.submission_sites = [
            site for index, site in enumerate(self.graph.submission_sites)
            if index not in superseded
        ] + new_sites


# ---------------------------------------------------------------------- #
# public constructors
# ---------------------------------------------------------------------- #

def graph_from_modules(modules: Sequence[ModuleContext]) -> CallGraph:
    """Build the graph from already-parsed lint contexts (engine reuse)."""
    return _Builder(modules).build()


def build_call_graph(paths: Sequence[str]) -> CallGraph:
    """Parse every ``.py`` under *paths* and build the project graph.

    Unparsable files are skipped — ``repro-lint`` reports them as parse
    errors through its own pipeline; the graph covers what parses.
    """
    from repro.staticcheck.engine import iter_python_files

    contexts: List[ModuleContext] = []
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (SyntaxError, UnicodeDecodeError, OSError):
            continue
        contexts.append(ModuleContext(path=path, source=source, tree=tree))
    return graph_from_modules(contexts)


def graph_for_project(project: ProjectContext) -> CallGraph:
    """The (memoized) graph for one lint invocation.

    Project-scope rules share a single build per run; the cache lives in
    ``project.options`` so it expires with the invocation.
    """
    cached = project.options.get("_callgraph")
    if isinstance(cached, CallGraph):
        return cached
    graph = graph_from_modules(project.modules)
    project.options["_callgraph"] = graph
    return graph


def write_callgraph(path: str = DEFAULT_CALLGRAPH,
                    paths: Sequence[str] = ("src",)) -> Dict[str, object]:
    """Regenerate the JSON artifact at *path* and return its document."""
    graph = build_call_graph(paths)
    document = graph.to_dict()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(graph.to_json())
    return document
