"""Runtime lock-order sanitizer: instrumented locks behind a factory.

The static ``lock-order`` rule sees only *syntactic* nesting of ``with``
blocks; it cannot follow a call chain like ``Redirector.locate`` (which
holds ``Redirector._lock``) into ``HealthTracker.available`` (which
takes ``HealthTracker._lock``).  This module covers that dynamic half:

- :class:`SanitizedLock` / :class:`SanitizedRLock` wrap the stdlib
  primitives and report every acquisition/release to a global
  :class:`LockOrderMonitor`;
- the monitor keeps one *order graph* over lock **roles** (names like
  ``"Lru._lock"``, shared by every instance of the class, the
  way kernel lockdep keys by lock class) and raises
  :class:`LockOrderViolation` the moment a thread acquires lock B while
  holding lock A after some thread previously held B before A --
  a potential deadlock, caught even when this run does not deadlock;
- production code never names the stdlib primitives directly: it calls
  :func:`make_lock` / :func:`make_rlock` / :func:`make_condition`,
  which return plain ``threading`` objects normally and sanitized
  wrappers when ``REPRO_SANITIZE=1`` is set (or :func:`enable` was
  called).  The pytest fixture in ``tests/conftest.py`` resets the
  monitor between tests so the whole suite -- including the chaos and
  resilience runs -- doubles as a race-order test under
  ``REPRO_SANITIZE=1``.

Known limits (documented, deliberate): keying by role means two
instances of the same class count as one lock, so self-deadlocks
between sibling instances are reported as an inversion of the role with
itself only when a genuine nested acquisition happens; and a thread
parked in ``Condition.wait`` keeps its outer locks on the monitor's
per-thread stack (it cannot acquire anything new while blocked, so no
false edges arise).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Optional

__all__ = [
    "LockOrderViolation",
    "LockOrderMonitor",
    "SanitizedLock",
    "SanitizedRLock",
    "make_lock",
    "make_rlock",
    "make_condition",
    "enabled",
    "enable",
    "disable",
    "reset",
    "MONITOR",
]

_THIS_FILE = __file__


class LockOrderViolation(RuntimeError):
    """Two locks were acquired in both orders (a potential deadlock)."""


def _call_site() -> str:
    """``file:line (thread)`` of the frame that asked for the lock."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename in (
        _THIS_FILE,
        threading.__file__,
    ):
        frame = frame.f_back
    if frame is None:
        return f"<unknown> ({threading.current_thread().name})"
    return (
        f"{frame.f_code.co_filename}:{frame.f_lineno} "
        f"({threading.current_thread().name})"
    )


class LockOrderMonitor:
    """The global acquisition-order graph plus per-thread held stacks.

    Edges mean "was held while acquiring": ``A -> B`` records that some
    thread held A when it acquired B.  A new acquisition of B while
    holding A is a violation iff the graph already contains a path
    ``B -> ... -> A`` (the opposite order was established somewhere).
    """

    def __init__(self):
        # The monitor's own mutex is a *plain* lock: it must never be
        # sanitized (it would recurse) and it nests inside every
        # sanitized lock by construction.
        self._mu = threading.Lock()
        # role -> {successor role -> first witness call site}
        self._edges: dict[str, dict[str, str]] = {}
        self._held = threading.local()

    # -- per-thread held stack (no _mu needed: thread-local) ------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def held(self) -> tuple[str, ...]:
        """Roles the calling thread currently holds, outermost first."""
        return tuple(self._stack())

    # -- graph ----------------------------------------------------------------

    def _reachable_from(self, start: str) -> dict[str, Optional[str]]:
        """BFS parents map over the order graph (caller holds ``_mu``)."""
        parents: dict[str, Optional[str]] = {start: None}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for succ in self._edges.get(node, ()):
                if succ not in parents:
                    parents[succ] = node
                    frontier.append(succ)
        return parents

    def _chain(self, parents: dict[str, Optional[str]], end: str) -> list[str]:
        chain = [end]
        while parents[chain[-1]] is not None:
            chain.append(parents[chain[-1]])
        chain.reverse()
        return chain

    # -- acquisition protocol ---------------------------------------------------

    def on_acquire(self, role: str) -> None:
        """Record that the calling thread is taking ``role``.

        Called *before* the underlying acquire so a would-be deadlock
        raises instead of hanging.  Reentrant re-acquisition of a role
        already on this thread's stack is not re-checked.
        """
        stack = self._stack()
        if role in stack:
            stack.append(role)
            return
        held = list(stack)
        if held:
            with self._mu:
                parents = self._reachable_from(role)
                inverted = [h for h in held if h in parents]
                if inverted:
                    chain = self._chain(parents, inverted[0])
                    hops = []
                    for a, b in zip(chain, chain[1:]):
                        hops.append(
                            f"  {a!r} -> {b!r} first seen at "
                            f"{self._edges[a][b]}"
                        )
                    raise LockOrderViolation(
                        f"acquiring {role!r} while holding {held!r} at "
                        f"{_call_site()} inverts the established order:\n"
                        + "\n".join(hops)
                    )
                site = _call_site()
                for h in held:
                    self._edges.setdefault(h, {}).setdefault(role, site)
        stack.append(role)

    def on_release(self, role: str) -> None:
        """The calling thread dropped one acquisition of ``role``."""
        stack = self._stack()
        # Remove the innermost matching entry; tolerate a release from
        # a thread that never acquired (Lock allows cross-thread release).
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == role:
                del stack[i]
                return

    # -- inspection / lifecycle ----------------------------------------------------

    def edges(self) -> dict[str, dict[str, str]]:
        """A copy of the order graph (role -> successors -> witness)."""
        with self._mu:
            return {a: dict(succ) for a, succ in self._edges.items()}

    def reset(self) -> None:
        """Forget all recorded edges.

        Per-thread held stacks are *not* cleared (other threads may
        legitimately be holding locks); they drain as locks release.
        """
        with self._mu:
            self._edges.clear()


#: The process-wide monitor every sanitized lock reports to by default.
MONITOR = LockOrderMonitor()

#: Set by :mod:`repro.analysis.races` while the data-race detector is
#: enabled: sanitized locks feed it release->acquire happens-before edges.
_RACE_ENGINE = None
#: Set by :mod:`repro.analysis.sched` while a deterministic scheduler is
#: active: lock operations become cooperative yield points.
_SCHEDULER = None


class SanitizedLock:
    """A ``threading.Lock`` that reports acquisition order to a monitor."""

    _reentrant = False

    def __init__(self, name: str, monitor: Optional[LockOrderMonitor] = None):
        self.name = name
        self._monitor = monitor or MONITOR
        self._lock = self._make_inner()
        self._depth = threading.local()

    @staticmethod
    def _make_inner():
        return threading.Lock()

    def _depth_get(self) -> int:
        return getattr(self._depth, "n", 0)

    def _depth_set(self, n: int) -> None:
        self._depth.n = n

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        reentry = self._reentrant and self._depth_get() > 0
        if not reentry:
            # Check *before* blocking so a would-be deadlock raises.
            self._monitor.on_acquire(self.name)
        scheduler = _SCHEDULER
        if blocking and scheduler is not None and scheduler.manages_current():
            got = self._acquire_cooperative(scheduler)
        else:
            got = self._lock.acquire(blocking, timeout)
        if not got:
            if not reentry:
                self._monitor.on_release(self.name)
            return False
        if reentry:
            self._monitor.on_acquire(self.name)  # depth bump, no re-check
        self._depth_set(self._depth_get() + 1)
        if not reentry:
            engine = _RACE_ENGINE
            if engine is not None:
                engine.lock_acquired(self)
        return True

    def _acquire_cooperative(self, scheduler) -> bool:
        """Yield/try-acquire loop so a managed thread never really blocks."""
        while True:
            scheduler.yield_point()
            if self._lock.acquire(False):
                return True
            if not scheduler.block_on_lock(self):
                # Scheduler entered free-run (stall/finish): block for real.
                return self._lock.acquire(True)

    def release(self) -> None:
        depth = self._depth_get()
        if depth <= 1:
            # Publish this thread's clock on the lock *before* the next
            # owner can acquire it: release->acquire is an HB edge.
            engine = _RACE_ENGINE
            if engine is not None:
                engine.lock_released(self)
        self._lock.release()
        self._depth_set(max(depth - 1, 0))
        self._monitor.on_release(self.name)
        if depth <= 1:
            scheduler = _SCHEDULER
            if scheduler is not None:
                scheduler.lock_released(self)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class SanitizedRLock(SanitizedLock):
    """A ``threading.RLock`` wrapper, usable under ``threading.Condition``.

    Implements the private ``_release_save`` / ``_acquire_restore`` /
    ``_is_owned`` protocol so ``Condition.wait`` keeps the monitor's
    per-thread stack consistent across the full release/re-acquire.
    """

    _reentrant = True

    @staticmethod
    def _make_inner():
        return threading.RLock()

    # -- Condition protocol ------------------------------------------------------

    def _release_save(self):
        engine = _RACE_ENGINE
        if engine is not None:
            engine.lock_released(self)
        state = self._lock._release_save()
        depth = self._depth_get()
        self._depth_set(0)
        for _ in range(depth):
            self._monitor.on_release(self.name)
        scheduler = _SCHEDULER
        if scheduler is not None:
            scheduler.lock_released(self)
        return (state, depth)

    def _acquire_restore(self, state):
        inner_state, depth = state
        self._monitor.on_acquire(self.name)
        self._lock._acquire_restore(inner_state)
        self._depth_set(depth)
        for _ in range(depth - 1):
            self._monitor.on_acquire(self.name)
        engine = _RACE_ENGINE
        if engine is not None:
            engine.lock_acquired(self)

    def _is_owned(self) -> bool:
        return self._lock._is_owned()


# -- factories: the only lock constructors production code should use -----------

_FORCED: Optional[bool] = None


def enabled() -> bool:
    """Is sanitization active for locks created *from now on*?

    True under ``REPRO_SANITIZE=1`` (lock order only), under the race
    modes (``race`` / ``race:report``, which need acquire/release HB
    edges), and while a deterministic scheduler or the race engine is
    active in-process.
    """
    if _FORCED is not None:
        return _FORCED
    if _RACE_ENGINE is not None or _SCHEDULER is not None:
        return True
    return os.environ.get("REPRO_SANITIZE", "") in {"1", "race", "race:report"}


def enable() -> None:
    """Force sanitization on regardless of ``REPRO_SANITIZE``."""
    global _FORCED
    _FORCED = True


def disable() -> None:
    """Return to ``REPRO_SANITIZE`` environment control."""
    global _FORCED
    _FORCED = None


def reset() -> None:
    """Clear the global monitor's order graph (between tests)."""
    MONITOR.reset()


def make_lock(name: str) -> "threading.Lock | SanitizedLock":
    """A mutex named for its role, e.g. ``make_lock("Lru._lock")``."""
    if enabled():
        return SanitizedLock(name)
    return threading.Lock()


def make_rlock(name: str) -> "threading.RLock | SanitizedRLock":
    """A reentrant mutex named for its role."""
    if enabled():
        return SanitizedRLock(name)
    return threading.RLock()


def make_condition(lock=None, name: str = "condition") -> threading.Condition:
    """A condition variable over ``lock`` (sanitized when active).

    Pass the owning object's (possibly sanitized) lock to share it, the
    way :class:`~repro.qserv.worker.QservWorker` couples its queue
    condition to its state lock.
    """
    if lock is None:
        lock = make_rlock(name)
    if _SCHEDULER is not None:
        # Under a deterministic scheduler a real Condition.wait would
        # park the managed thread (and the token) in the OS; the
        # cooperative variant parks on the scheduler instead.
        from . import sched as _sched

        return _sched.CooperativeCondition(lock, name)
    return threading.Condition(lock)


# Under the race modes the detector must exist before any tracked class
# is constructed, so importing the lock factories (which every qserv
# module does) boots it straight from the environment.
_env_mode = os.environ.get("REPRO_SANITIZE", "")
if _env_mode.startswith("race"):
    from . import races as _races_mod

    _races_mod.enable(report=_env_mode == "race:report")
