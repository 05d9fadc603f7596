"""The public-surface snapshot: ``api_snapshot.json`` and its drift check.

The ``repro`` package promises a public API — everything in
``repro.__all__`` plus ``repro.open`` (deliberately kept out of ``__all__``
so ``from repro import *`` never shadows the builtin).  Eight PRs of
growth have changed that surface on purpose many times; this module makes
sure it can never change *by accident*:

* :func:`build_api_surface` introspects the live package into a
  deterministic JSON document — kind, signature, public methods and
  properties, deprecation status per symbol;
* :func:`write_snapshot` checks that document in as ``api_snapshot.json``
  (``repro-lint --write-snapshot``);
* :func:`diff_surfaces` names every drift — added, removed, re-signatured
  or (un)deprecated symbols and methods — and the ``api-snapshot``
  project rule turns each one into a gating finding.

A drift finding is not a prohibition: it is a forced declaration.  The fix
is either to revert the accidental change or to regenerate the snapshot in
the same commit, making the surface change reviewable in the diff.
"""

from __future__ import annotations

import inspect
import json
import os
import re
from typing import Dict, List, Optional, Tuple

__all__ = [
    "build_api_surface",
    "load_snapshot",
    "write_snapshot",
    "diff_surfaces",
    "SNAPSHOT_FORMAT",
]

#: Bumped when the snapshot document shape itself changes.
SNAPSHOT_FORMAT = 1

#: ``repr`` of object-identity defaults embeds addresses; normalize them so
#: the snapshot is byte-stable across interpreter runs.
_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _signature_of(obj) -> Optional[str]:
    try:
        return _ADDR_RE.sub(" at 0x…", str(inspect.signature(obj)))
    except (ValueError, TypeError):
        return None


def _is_deprecated(obj) -> bool:
    """Deprecation by docstring convention: the first line says so.

    A deprecated symbol opens its docstring with "Deprecated:", so the
    snapshot can track deprecation status without importing private
    warning plumbing.
    """
    doc = inspect.getdoc(obj) or ""
    first = doc.strip().splitlines()[0].lower() if doc.strip() else ""
    return "deprecated" in first


def _describe_class(cls) -> Dict:
    methods: Dict[str, Dict] = {}
    properties: List[str] = []
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            properties.append(name)
        elif callable(member):
            methods[name] = {"signature": _signature_of(member)}
    return {
        "kind": "class",
        "signature": _signature_of(cls),
        "deprecated": _is_deprecated(cls),
        "methods": methods,
        "properties": sorted(properties),
    }


def _describe(obj) -> Dict:
    if inspect.ismodule(obj):
        return {"kind": "module"}
    if inspect.isclass(obj):
        return _describe_class(obj)
    if callable(obj):
        return {
            "kind": "function",
            "signature": _signature_of(obj),
            "deprecated": _is_deprecated(obj),
        }
    return {"kind": "object", "type": type(obj).__name__}


def build_api_surface() -> Dict:
    """Introspect the live ``repro`` package into the snapshot document."""
    import repro

    names = sorted(set(repro.__all__) | {"open"})
    symbols = {name: _describe(getattr(repro, name)) for name in names}
    return {"module": "repro", "format": SNAPSHOT_FORMAT, "symbols": symbols}


def load_snapshot(path: str) -> Optional[Dict]:
    """The checked-in snapshot, or ``None`` when the file does not exist."""
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_snapshot(path: str) -> Dict:
    """Write (or refresh) the snapshot file from the live package; returns
    the written document."""
    surface = build_api_surface()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(surface, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return surface


def _diff_symbol(name: str, old: Dict, new: Dict) -> List[str]:
    drifts: List[str] = []
    if old.get("kind") != new.get("kind"):
        return [f"public symbol {name!r} changed kind: "
                f"{old.get('kind')} → {new.get('kind')}"]
    if old.get("signature") != new.get("signature"):
        drifts.append(
            f"public symbol {name!r} changed signature: "
            f"{old.get('signature')} → {new.get('signature')}"
        )
    if bool(old.get("deprecated")) != bool(new.get("deprecated")):
        state = "deprecated" if new.get("deprecated") else "un-deprecated"
        drifts.append(f"public symbol {name!r} became {state}")
    old_methods, new_methods = old.get("methods", {}), new.get("methods", {})
    for method in sorted(set(old_methods) | set(new_methods)):
        if method not in old_methods:
            drifts.append(f"{name}.{method} is new public API")
        elif method not in new_methods:
            drifts.append(f"{name}.{method} was removed from the public API")
        elif old_methods[method] != new_methods[method]:
            drifts.append(
                f"{name}.{method} changed signature: "
                f"{old_methods[method].get('signature')} → "
                f"{new_methods[method].get('signature')}"
            )
    old_props = old.get("properties", [])
    new_props = new.get("properties", [])
    for prop in sorted(set(old_props) ^ set(new_props)):
        verb = "is new public API" if prop in new_props else "was removed from the public API"
        drifts.append(f"{name}.{prop} (property) {verb}")
    return drifts


def diff_surfaces(snapshot: Dict, current: Dict) -> List[str]:
    """Every human-readable drift between *snapshot* and *current*."""
    if snapshot.get("format") != current.get("format"):
        return [
            f"snapshot format {snapshot.get('format')} != tool format "
            f"{current.get('format')}; regenerate with repro-lint --write-snapshot"
        ]
    drifts: List[str] = []
    old_symbols: Dict = snapshot.get("symbols", {})
    new_symbols: Dict = current.get("symbols", {})
    for name in sorted(set(old_symbols) | set(new_symbols)):
        if name not in old_symbols:
            drifts.append(f"public symbol {name!r} is new (undeclared API addition)")
        elif name not in new_symbols:
            drifts.append(f"public symbol {name!r} disappeared (undeclared API removal)")
        else:
            drifts.extend(_diff_symbol(name, old_symbols[name], new_symbols[name]))
    return drifts


def check_snapshot(path: str) -> Tuple[List[str], bool]:
    """Compare the live surface against the snapshot at *path*.

    Returns ``(drift messages, snapshot_present)``; the ``api-snapshot``
    rule renders each message as one finding.
    """
    snapshot = load_snapshot(path)
    if snapshot is None:
        return (
            [f"API snapshot {path!r} is missing; generate it with "
             "repro-lint --write-snapshot"],
            False,
        )
    return diff_surfaces(snapshot, build_api_surface()), True
