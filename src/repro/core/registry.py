"""The pluggable backend registry.

Backends used to be a hard-coded string table inside ``backends/base.py``;
this module turns them into plugins.  A backend registers itself under a
name::

    from repro.core.registry import register_backend
    from repro.core.backends.base import Backend

    @register_backend("mybackend", description="my out-of-tree executor")
    class MyBackend(Backend):
        def make_executor(self, config):
            ...

and from that point on it is indistinguishable from a built-in: it resolves
through :func:`get_backend` (and therefore through
:class:`~repro.core.config.ReconstructionConfig` validation, the
:class:`~repro.core.session.Session` front door and the ``repro-backends``
CLI), and its entry is introspectable via :func:`backends`.  Every backend
runs in-memory stacks and streamed files alike, through the shared engine.

The registry is the single source of truth for backend names:
``ReconstructionConfig`` validates ``backend=`` against it at construction
time, so a typo fails fast with a did-you-mean suggestion instead of deep
inside a reconstruction run.

The three built-in backends live in :mod:`repro.core.backends` and are
registered lazily on first lookup, which keeps this module import-cycle-free
(it depends only on the validation utilities).
"""

from __future__ import annotations

import difflib
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.utils.validation import ValidationError

__all__ = [
    "BackendInfo",
    "register_backend",
    "register_backend_info",
    "unregister_backend",
    "get_backend",
    "backend_info",
    "available_backends",
    "backends",
]

_REGISTRY: Dict[str, "BackendInfo"] = {}
_BUILTINS_LOADED = False


@dataclass(frozen=True)
class BackendInfo:
    """Registry entry: a backend factory and its description.

    Parameters
    ----------
    name:
        Registry name the backend resolves under (``config.backend``).
    factory:
        Zero-argument callable returning a ready
        :class:`~repro.core.backends.base.Backend` instance (usually the
        backend class itself).
    description:
        One-line human description for the ``repro-backends`` CLI.
    """

    name: str
    factory: Callable[[], object]
    description: str = ""

    @property
    def module(self) -> str:
        """Module the backend factory is defined in (provenance/CLI)."""
        return getattr(self.factory, "__module__", "?")

    def to_dict(self) -> Dict:
        """JSON-safe summary (the ``repro-backends --json`` payload)."""
        return {"name": self.name, "module": self.module, "description": self.description}


def _ensure_builtin_backends() -> None:
    """Import the built-in backend package once, registering its backends."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        # idempotent one-way latch: a racing double-set is harmless (both
        # writers store True) and the import below is serialized by the
        # interpreter's own import lock
        # repro-lint: ignore[thread-escape]
        _BUILTINS_LOADED = True
        import repro.core.backends  # noqa: F401  (registers the built-ins)


def register_backend_info(info: BackendInfo, replace: bool = False) -> BackendInfo:
    """Add a fully-built :class:`BackendInfo` to the registry.

    Duplicate names are rejected unless ``replace=True`` — silent shadowing
    of an existing backend is almost always a bug in a plugin.
    """
    if not info.name:
        raise ValidationError("backend registration requires a non-empty name")
    if not callable(info.factory):
        raise ValidationError(f"backend {info.name!r} factory must be callable")
    _ensure_builtin_backends()
    if not replace and info.name in _REGISTRY:
        raise ValidationError(
            f"backend {info.name!r} is already registered "
            f"(by {_REGISTRY[info.name].module}); pass replace=True to override"
        )
    _REGISTRY[info.name] = info
    return info


def register_backend(
    name=None,
    *,
    supports_streaming: Optional[bool] = None,
    description: str = "",
    replace: bool = False,
):
    """Class decorator registering a backend under *name*.

    Two forms are accepted::

        @register_backend("mybackend", description="...")
        class MyBackend(Backend): ...

        @register_backend          # legacy: the class's own ``name`` is used
        class MyBackend(Backend):
            name = "mybackend"

    The decorator also sets ``cls.name`` when the named form is used, so the
    class and the registry can never disagree about the name.  The retired
    ``supports_streaming`` is accepted and ignored with a
    :class:`DeprecationWarning`: every backend runs streamed files.
    """
    if supports_streaming is not None:
        warnings.warn(
            f"register_backend(supports_streaming={supports_streaming!r}) is retired and "
            "ignored: every backend runs streamed files through the shared engine",
            DeprecationWarning,
            stacklevel=2,
        )

    def decorate(cls, backend_name):
        if not backend_name:
            raise ValidationError("backend classes must define a non-empty 'name'")
        if getattr(cls, "name", "") and cls.name != backend_name:
            raise ValidationError(
                f"backend class {cls.__name__} declares name={cls.name!r} but is "
                f"being registered as {backend_name!r}"
            )
        cls.name = backend_name
        about = description
        if not about and cls.__doc__:
            about = cls.__doc__.strip().splitlines()[0]
        register_backend_info(
            BackendInfo(name=backend_name, factory=cls, description=about),
            replace=replace,
        )
        return cls

    if isinstance(name, type):  # bare @register_backend on a class
        cls = name
        return decorate(cls, getattr(cls, "name", ""))
    return lambda cls: decorate(cls, name or getattr(cls, "name", ""))


def unregister_backend(name: str) -> BackendInfo:
    """Remove a backend from the registry, returning its entry.

    Intended for plugin teardown and tests; re-register the returned info
    with :func:`register_backend_info` to restore it.
    """
    _ensure_builtin_backends()
    info = _REGISTRY.pop(name, None)
    if info is None:
        raise ValidationError(f"cannot unregister unknown backend {name!r}")
    return info


def backend_info(name: str) -> BackendInfo:
    """Look up a backend's registry entry, failing fast with a suggestion."""
    _ensure_builtin_backends()
    try:
        return _REGISTRY[str(name)]
    except KeyError:
        known = sorted(_REGISTRY)
        message = f"unknown backend {name!r}; available: {known}"
        close = difflib.get_close_matches(str(name), known, n=1)
        if close:
            message += f" — did you mean {close[0]!r}?"
        raise ValidationError(message) from None


def get_backend(name: str):
    """Instantiate a backend by registry name."""
    return backend_info(name).factory()


def available_backends() -> List[str]:
    """Names of all registered backends, sorted."""
    _ensure_builtin_backends()
    return sorted(_REGISTRY)


def backends(name: Optional[str] = None):
    """Introspect the registry.

    With no argument, return every :class:`BackendInfo` sorted by name (the
    ``repro.backends()`` public API); with a name, return that single entry.
    """
    if name is not None:
        return backend_info(name)
    _ensure_builtin_backends()
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]
