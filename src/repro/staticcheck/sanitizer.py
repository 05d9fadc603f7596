"""Runtime race sanitizer: the dynamic companion to ``thread-escape``.

The static rule proves that pool-reachable code *syntactically* guards its
shared writes; this module checks the same contract *at runtime* while the
real test suites exercise the threaded executor, the result cache and
the serve daemon.  Enable it with ``REPRO_RACE_SANITIZER=1`` — the pytest
hook in the repository ``conftest.py`` then calls :func:`install`, and an
autouse fixture fails any test during which an unsynchronized cross-thread
write was observed.

How it works
------------

:func:`instrument_class` rewires a lock-owning class:

* the instance's lock attribute (``self._lock`` by default) is replaced
  after ``__init__`` with a :class:`TrackedLock` proxy that remembers
  which thread currently holds it (reentrantly, with a depth counter);
* every assignment to a *guarded field* goes through a wrapped
  ``__setattr__`` that records ``(class, field, instance, thread,
  lock-held?)`` with the global :class:`RaceRecorder`;
* dict-valued guarded fields (e.g. ``ServeMetrics.counts``) are wrapped
  in a :class:`TrackedDict` so item stores are recorded too — ``+=`` on
  a dict entry is exactly the read-modify-write the static rule hunts.

A **violation** is a ``(class, field, instance)`` triple written *without
the lock held* from two or more distinct threads.  Single-threaded
unlocked writes are legal (construction, single-owner phases); the
sanitizer only fires when the race is demonstrated, which keeps it free
of false positives on loop-confined state like ``FairPriorityQueue``.

Threads are told apart by a token drawn once per thread from a
never-repeating counter, not by ``threading.get_ident()``: Python reuses an
ident as soon as its thread exits, so short-lived threads run one after
another would otherwise look like a single writer.

Writes made during ``__init__`` are never recorded: construction
precedes sharing, the same exemption the static rules grant.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "RaceViolation",
    "RaceRecorder",
    "TrackedLock",
    "TrackedDict",
    "enabled",
    "instrument_class",
    "install",
    "drain",
    "recorder",
]

#: Environment flag that turns the sanitizer lane on.
ENV_FLAG = "REPRO_RACE_SANITIZER"

#: Marker attribute set on classes that have already been instrumented.
_INSTRUMENTED = "_race_sanitizer_instrumented"

#: Instance attribute flipped once ``__init__`` finishes — writes before
#: it are construction, not sharing.
_READY = "_race_sanitizer_ready"


def enabled() -> bool:
    """``True`` when the sanitizer lane is switched on via the environment."""
    return os.environ.get(ENV_FLAG, "") == "1"


_TOKENS = itertools.count(1)
_THREAD = threading.local()


def _thread_token() -> int:
    """The calling thread's identity, unique for the life of the process."""
    token = getattr(_THREAD, "token", None)
    if token is None:
        token = _THREAD.token = next(_TOKENS)
    return token


# --------------------------------------------------------------------------- #
# recording
@dataclass(frozen=True)
class RaceViolation:
    """One guarded field written unlocked from two or more threads."""

    class_name: str
    field_name: str
    instance_id: int
    threads: Tuple[int, ...]
    n_writes: int

    def render(self) -> str:
        return (
            f"{self.class_name}.{self.field_name} (instance 0x{self.instance_id:x}) "
            f"written without its lock from {len(self.threads)} threads "
            f"({self.n_writes} unlocked write(s) total)"
        )


@dataclass
class _WriteLog:
    threads: Set[int] = field(default_factory=set)
    n_writes: int = 0


class RaceRecorder:
    """Thread-safe ledger of unlocked writes to guarded fields."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._unlocked: Dict[Tuple[str, str, int], _WriteLog] = {}

    def record(self, class_name: str, field_name: str, instance_id: int,
               locked: bool) -> None:
        if locked:
            return
        token = _thread_token()
        key = (class_name, field_name, instance_id)
        with self._lock:
            log = self._unlocked.setdefault(key, _WriteLog())
            log.threads.add(token)
            log.n_writes += 1

    def drain(self) -> List[RaceViolation]:
        """Violations observed since the last drain, clearing the ledger."""
        with self._lock:
            entries = self._unlocked
            self._unlocked = {}
        violations = [
            RaceViolation(
                class_name=cls, field_name=fld, instance_id=iid,
                threads=tuple(sorted(log.threads)), n_writes=log.n_writes,
            )
            for (cls, fld, iid), log in sorted(entries.items())
            if len(log.threads) >= 2
        ]
        return violations


_RECORDER = RaceRecorder()


def recorder() -> RaceRecorder:
    """The process-global recorder (one ledger per interpreter)."""
    return _RECORDER


def drain() -> List[RaceViolation]:
    """Drain the global recorder (per-test semantics in the pytest lane)."""
    return _RECORDER.drain()


# --------------------------------------------------------------------------- #
# tracked primitives
class TrackedLock:
    """A lock proxy that remembers its current owner thread.

    Wraps either a ``threading.Lock`` or ``threading.RLock``; re-entrant
    acquisition is handled with a depth counter so ``held_by_me`` stays
    correct for RLocks.  Owner bookkeeping happens *inside* the critical
    section (set after acquire succeeds, cleared before the final
    release), so it is itself race-free.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._owner: Optional[int] = None
        self._depth = 0

    def acquire(self, *args, **kwargs) -> bool:
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._owner = _thread_token()
            self._depth += 1
        return got

    def release(self) -> None:
        self._depth -= 1
        if self._depth <= 0:
            self._owner = None
            self._depth = 0
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return bool(self._inner.locked()) if hasattr(self._inner, "locked") else (
            self._owner is not None
        )

    def held_by_me(self) -> bool:
        return self._owner == _thread_token()


class TrackedDict(dict):
    """A dict whose item stores are reported to the race recorder.

    Used for dict-valued guarded fields: ``self.counts[name] += by`` never
    triggers ``__setattr__`` on the owner, but it does call ``__setitem__``
    here.  Reads stay native-speed; only mutations pay the bookkeeping.
    """

    __slots__ = ("_race_class", "_race_field", "_race_owner_id", "_race_lock_ref")

    def __init__(self, data, class_name: str, field_name: str,
                 owner_id: int, lock_ref) -> None:
        super().__init__(data)
        self._race_class = class_name
        self._race_field = field_name
        self._race_owner_id = owner_id
        self._race_lock_ref = lock_ref  # zero-arg callable -> TrackedLock|None

    def _record(self) -> None:
        lock = self._race_lock_ref()
        locked = isinstance(lock, TrackedLock) and lock.held_by_me()
        _RECORDER.record(self._race_class, self._race_field,
                         self._race_owner_id, locked)

    def __setitem__(self, key, value) -> None:
        self._record()
        super().__setitem__(key, value)

    def __delitem__(self, key) -> None:
        self._record()
        super().__delitem__(key)

    def pop(self, *args):
        self._record()
        return super().pop(*args)

    def update(self, *args, **kwargs) -> None:
        self._record()
        super().update(*args, **kwargs)

    def setdefault(self, key, default=None):
        self._record()
        return super().setdefault(key, default)

    def clear(self) -> None:
        self._record()
        super().clear()


# --------------------------------------------------------------------------- #
# instrumentation
def instrument_class(cls: Type, fields: Sequence[str],
                     lock_attr: str = "_lock") -> Type:
    """Rewire *cls* so writes to *fields* are checked against *lock_attr*.

    Idempotent: instrumenting the same class twice is a no-op.  The class
    is modified in place (``__init__`` and ``__setattr__`` wrapped) and
    returned, so it can be used as a decorator in fixtures.
    """
    if getattr(cls, _INSTRUMENTED, False):
        return cls

    guarded = tuple(fields)
    class_name = cls.__name__
    original_init = cls.__init__
    original_setattr = cls.__setattr__

    def _lock_of(instance) -> Optional[TrackedLock]:
        lock = getattr(instance, lock_attr, None)
        return lock if isinstance(lock, TrackedLock) else None

    def _wrap_dict_fields(instance) -> None:
        for name in guarded:
            value = instance.__dict__.get(name)
            if isinstance(value, dict) and not isinstance(value, TrackedDict):
                tracked = TrackedDict(
                    value, class_name, name, id(instance),
                    functools.partial(_lock_of, instance),
                )
                object.__setattr__(instance, name, tracked)

    @functools.wraps(original_init)
    def __init__(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        inner = getattr(self, lock_attr, None)
        if inner is not None and not isinstance(inner, TrackedLock):
            object.__setattr__(self, lock_attr, TrackedLock(inner))
        _wrap_dict_fields(self)
        object.__setattr__(self, _READY, True)

    def __setattr__(self, name, value):
        if name in guarded and getattr(self, _READY, False):
            lock = _lock_of(self)
            locked = lock is not None and lock.held_by_me()
            _RECORDER.record(class_name, name, id(self), locked)
            if isinstance(value, dict) and not isinstance(value, TrackedDict):
                value = TrackedDict(
                    value, class_name, name, id(self),
                    functools.partial(_lock_of, self),
                )
        original_setattr(self, name, value)

    cls.__init__ = __init__
    cls.__setattr__ = __setattr__
    setattr(cls, _INSTRUMENTED, True)
    return cls


#: ``(module, class, guarded fields, lock attribute)`` — the lock-owning
#: shared classes the static rules reason about.  Grown alongside them.
_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.core.cache", "ResultCache",
     ("n_hits", "n_misses", "n_stores", "n_repaired"), "_lock"),
    ("repro.serve.metrics", "ServeMetrics", ("counts",), "_lock"),
    ("repro.core.workerpool", "ThreadPool", ("n_submitted", "max_workers"), "_lock"),
)


def install() -> List[str]:
    """Instrument every known lock-owning shared class; return their names.

    Called from ``conftest.pytest_configure`` when ``REPRO_RACE_SANITIZER=1``.
    Import errors are propagated: a target class that cannot be imported
    means the sanitizer lane is not covering what it claims to cover.
    """
    import importlib

    instrumented: List[str] = []
    for module_name, class_name, fields, lock_attr in _TARGETS:
        module = importlib.import_module(module_name)
        cls = getattr(module, class_name)
        instrument_class(cls, fields, lock_attr=lock_attr)
        instrumented.append(f"{module_name}.{class_name}")
    return instrumented
