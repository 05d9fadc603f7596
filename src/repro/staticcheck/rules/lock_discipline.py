"""``lock-discipline``: a class that owns a lock must use it consistently.

The repository's shared-state classes (``ResultCache``, ``ThreadPool``,
``ServeMetrics``, ``LatencySeries`` ...) all follow one
convention: a ``threading.Lock``/``RLock`` created in ``__init__`` guards
the fields that cross threads.  The subtle failure mode is *partial*
discipline — a field mutated under the lock in one method and bare in
another, which is exactly how the ``n_submitted`` / cache-counter races
entered this codebase.

The guarded set is **inferred, not declared**: any ``self.X`` mutated
inside a lock region in at least one method (``__init__`` aside) is
treated as lock-guarded, and every other mutation of it must also hold
the lock.  Writes in ``__init__`` are exempt — construction happens
before the instance can be shared.  Deliberate lock-free patterns
(single-consumer handoffs, monotonic flags) are waived at the site with
``# repro-lint: ignore[lock-discipline]`` plus a one-line justification.
"""

from __future__ import annotations

from typing import Iterator

from repro.staticcheck.model import Finding, ModuleContext
from repro.staticcheck.registry import register_rule
from repro.staticcheck.rules._locks import class_guard_map, iter_class_defs


@register_rule(
    "lock-discipline",
    severity="error",
    description="fields a lock-owning class guards in one method must be "
                "guarded in every method",
)
def check_lock_discipline(ctx: ModuleContext) -> Iterator[Finding]:
    """Every mutation of an inferred lock-guarded field must hold the lock."""
    for class_node in iter_class_defs(ctx.tree):
        model = class_guard_map(ctx, class_node)
        guarded = model["guarded"]
        if not guarded:
            continue
        lock_names = " / ".join(f"self.{name}" for name in sorted(model["locks"]))
        for method, field_name, anchor, is_guarded in model["writes"]:
            if is_guarded or field_name not in guarded:
                continue
            yield ctx.finding(
                anchor,
                f"`self.{field_name}` of {class_node.name} is lock-guarded "
                f"(held in `{guarded[field_name]}`) but `{method.name}` "
                f"mutates it without holding {lock_names} — wrap the write "
                "in the lock, or suppress with a justification if the "
                "pattern is deliberately lock-free",
            )
