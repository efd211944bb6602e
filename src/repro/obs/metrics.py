"""Process-local metrics: named counters, gauges, fixed-bucket histograms.

Instruments live in a :class:`Registry`.  Registries form a hierarchy
through ``parent``: every update to an instrument also lands on the
same-named instrument of the parent registry, all the way up.  The
czar and the workers use exactly that shape -- a lifetime registry each,
parented to the process-global :data:`REGISTRY` -- and resolve the
instruments of their hot paths once, so an update is one ``add`` per
level and no look-up.  (Per-query numbers are not a registry: they are
sums over the query's chunk rows, :mod:`repro.obs.profile`.)

Propagation is sequential, never nested: an instrument updates its own
value under its own lock, releases it, and only then calls its parent.
That keeps the runtime lock-order sanitizer happy (instrument locks all
share a role name, so nesting them would read as a self-cycle) and
keeps the cost of an update at one uncontended lock per level.

Everything is snapshot-able as a plain dict (``Registry.snapshot()``)
and dumpable to JSON (``Registry.to_json()``) -- the shell's ``SHOW
METRICS`` is just a rendering of that snapshot.
"""

from __future__ import annotations

import bisect
import json
from typing import Optional

from ..analysis.sanitizer import make_lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "to_json",
    "reset",
    "estimate_quantile",
]

#: Default histogram bucket upper bounds, in seconds: tuned for the
#: sub-millisecond-to-seconds latencies of the in-process cluster.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


def estimate_quantile(bounds, counts, q, observed_max=None, observed_min=None):
    """Estimate a quantile from fixed-bucket counts by interpolation.

    ``counts`` has ``len(bounds) + 1`` entries, the last being the
    ``+Inf`` overflow bucket.  Within a finite bucket the estimate
    interpolates linearly between its bounds.  When the quantile lands
    in the overflow bucket the estimate is the *observed* maximum when
    one is known -- fixed-bucket histograms used to silently clamp p99
    at the last bucket edge, which under-reported every tail worse than
    the layout anticipated.  Returns ``None`` for an empty histogram.
    """
    total = sum(counts)
    if total <= 0:
        return None
    q = min(max(float(q), 0.0), 1.0)
    rank = q * total
    cum = 0
    for i, c in enumerate(counts):
        if c <= 0:
            continue
        if cum + c >= rank:
            if i >= len(bounds):
                # Overflow bucket: report the real tail, not the edge.
                if observed_max is not None:
                    return float(observed_max)
                return float(bounds[-1]) if bounds else None
            hi = float(bounds[i])
            if i > 0:
                lo = float(bounds[i - 1])
            elif observed_min is not None:
                lo = min(float(observed_min), hi)
            else:
                lo = 0.0
            frac = (rank - cum) / c
            est = lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            if observed_max is not None:
                est = min(est, float(observed_max))
            if observed_min is not None:
                est = max(est, float(observed_min))
            return est
        cum += c
    return float(observed_max) if observed_max is not None else None


class Counter:
    """An additive metric (events, bytes); adds propagate to the parent."""

    kind = "counter"

    __slots__ = ("name", "_value", "_lock", "_parent")

    def __init__(self, name: str, parent: Optional["Counter"] = None):
        self.name = name
        self._value = 0
        self._lock = make_lock("obs.Counter._lock")
        self._parent = parent

    def add(self, n=1) -> None:
        with self._lock:
            self._value += n
        if self._parent is not None:
            self._parent.add(n)

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value

    def __repr__(self):
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time level (queue depth); sets propagate last-writer-wins."""

    kind = "gauge"

    __slots__ = ("name", "_value", "_lock", "_parent")

    def __init__(self, name: str, parent: Optional["Gauge"] = None):
        self.name = name
        self._value = 0
        self._lock = make_lock("obs.Gauge._lock")
        self._parent = parent

    def set(self, value) -> None:
        with self._lock:
            self._value = value
        if self._parent is not None:
            self._parent.set(value)

    def add(self, delta) -> None:
        with self._lock:
            self._value += delta
        if self._parent is not None:
            self._parent.add(delta)

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value

    def __repr__(self):
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A fixed-bucket latency/size distribution with running summary stats.

    Buckets are upper bounds; one overflow bucket (``+Inf``) catches the
    rest.  The bucket layout is fixed at creation -- when the same name
    is requested again the existing instrument (and its layout) wins.
    """

    kind = "histogram"

    __slots__ = (
        "name",
        "buckets",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
        "_parent",
    )

    def __init__(self, name: str, buckets=None, parent: Optional["Histogram"] = None):
        self.name = name
        self.buckets = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None
        self._lock = make_lock("obs.Histogram._lock")
        self._parent = parent

    def observe(self, value) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect.bisect_left(self.buckets, value)] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
        if self._parent is not None:
            self._parent.observe(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def overflow(self) -> int:
        """Observations beyond the last bucket bound (the +Inf bucket)."""
        with self._lock:
            return self._counts[-1]

    def quantile(self, q) -> Optional[float]:
        """Interpolated quantile estimate; ``None`` when empty.

        Overflow-aware: a quantile that lands past the last bucket edge
        reports the observed maximum instead of clamping at the edge.
        """
        with self._lock:
            counts = list(self._counts)
            lo, hi = self._min, self._max
        return estimate_quantile(
            self.buckets, counts, q, observed_max=hi, observed_min=lo
        )

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        labels = [f"<={b:g}" for b in self.buckets] + ["+Inf"]
        return {
            "count": count,
            "sum": total,
            "avg": (total / count) if count else 0.0,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "overflow": counts[-1],
            "p50": estimate_quantile(self.buckets, counts, 0.5, hi, lo),
            "p99": estimate_quantile(self.buckets, counts, 0.99, hi, lo),
            "buckets": dict(zip(labels, counts)),
        }

    def __repr__(self):
        return f"Histogram({self.name!r}, count={self.count})"


class Registry:
    """A named collection of instruments, optionally feeding a parent."""

    def __init__(self, parent: Optional["Registry"] = None):
        self._parent = parent
        self._lock = make_lock("obs.Registry._lock")
        self._instruments: dict = {}

    def _get_or_create(self, name, kind, factory, parent_factory):
        with self._lock:
            inst = self._instruments.get(name)
        if inst is None:
            # Resolve the parent instrument *outside* our lock: parent
            # registries share the lock role, and the chain can be deep.
            parent_inst = (
                parent_factory(self._parent) if self._parent is not None else None
            )
            candidate = factory(parent_inst)
            with self._lock:
                inst = self._instruments.setdefault(name, candidate)
        if inst.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}, not {kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(
            name,
            "counter",
            lambda p: Counter(name, parent=p),
            lambda reg: reg.counter(name),
        )

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(
            name,
            "gauge",
            lambda p: Gauge(name, parent=p),
            lambda reg: reg.gauge(name),
        )

    def histogram(self, name: str, buckets=None) -> Histogram:
        return self._get_or_create(
            name,
            "histogram",
            lambda p: Histogram(name, buckets=buckets, parent=p),
            lambda reg: reg.histogram(name, buckets=buckets),
        )

    def snapshot(self) -> dict:
        """``{name: value-or-histogram-dict}`` for every instrument."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}

    def instruments(self) -> list:
        """``(name, instrument)`` pairs, sorted by name (a point-in-time copy)."""
        with self._lock:
            return sorted(self._instruments.items())

    def to_json(self, indent=2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Forget every instrument (tests); links to parents are dropped."""
        with self._lock:
            self._instruments.clear()

    def __len__(self):
        with self._lock:
            return len(self._instruments)


#: The process-global registry: the root of every registry chain and
#: what the shell's ``SHOW METRICS`` renders.
REGISTRY = Registry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str, buckets=None) -> Histogram:
    return REGISTRY.histogram(name, buckets=buckets)


def snapshot() -> dict:
    return REGISTRY.snapshot()


def to_json(indent=2) -> str:
    return REGISTRY.to_json(indent=indent)


def reset() -> None:
    REGISTRY.reset()
