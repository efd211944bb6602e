"""guarded-by: lock-consistency of attribute mutations.

In a class that owns locks, the rule infers which state each lock
guards from the code itself -- a *guard association* is established the
first time an attribute (or any attribute of a shared object such as
a row of the czar's per-query ``ChunkLedger``) is mutated inside a
``with self.<lock>:`` block.  Every other mutation of the same state
must then hold at least one of its associated locks:

- **exact-path discipline** for ``self`` state: if ``self._attempt_pool``
  is assigned under ``_attempt_pool_lock`` anywhere, assigning it
  elsewhere without the lock is a finding;
- **object-level discipline** for non-``self`` roots: if *any*
  attribute of a variable named ``row`` is mutated under a lock in
  this class, *every* ``row.*`` mutation in the class must hold one
  of the observed locks.  This is deliberately heuristic (same class +
  same variable name ~ same shared object role); it is exact where a
  type owns both the lock and every write, as ``ChunkLedger`` does
  its rows and ``QservWorker`` its result records.

Methods named ``*_locked`` (the documented "caller holds the lock"
convention) are exempt.  ``__init__`` is exempt only *up to* the first
``t.start()`` call: before a worker thread exists construction is
single-threaded, but a write landing after ``start()`` races with that
thread like any other unguarded mutation.
"""

from __future__ import annotations

from ..astutil import collect_mutations, iter_classes_with_locks
from ..core import Rule, register

__all__ = ["GuardedByRule"]


@register
class GuardedByRule(Rule):
    name = "guarded-by"
    description = (
        "attributes mutated under a lock somewhere must hold an "
        "associated lock everywhere"
    )
    severity = "error"

    def check(self, ctx):
        for cls, locks in iter_classes_with_locks(ctx.tree):
            mutations, _ = collect_mutations(cls, locks)

            exact_guards: dict[tuple[str, tuple[str, ...]], set[str]] = {}
            object_guards: dict[str, set[str]] = {}
            for m in mutations:
                guarded = m.held & locks.locks
                if not guarded:
                    continue
                if m.root == "self":
                    exact_guards.setdefault((m.root, m.path), set()).update(guarded)
                else:
                    object_guards.setdefault(m.root, set()).update(guarded)

            for m in mutations:
                if m.root == "self":
                    guards = exact_guards.get((m.root, m.path))
                else:
                    guards = object_guards.get(m.root)
                if not guards or m.held & guards:
                    continue
                lock_names = ", ".join(sorted(guards))
                yield self.finding(
                    ctx,
                    m.node,
                    f"'{m.dotted}' is mutated in {cls.name}.{m.function} "
                    f"without holding {lock_names}, which guard(s) it "
                    f"elsewhere in class {cls.name}",
                )
