"""Observability for the czar/xrd/worker pipeline (paper section 4.1/5).

The paper's czar carries a "query management" duty -- tracking every
in-flight query from analysis through dispatch, merge, and delivery.
This package is that duty made inspectable, in three parts:

- :mod:`repro.obs.trace` -- per-query span trees with czar-to-worker
  context propagation (the ``-- TRACE:`` chunk-query header) and
  Chrome/Perfetto trace-event JSON export;
- :mod:`repro.obs.metrics` -- a hierarchy of named counters, gauges,
  and fixed-bucket histograms (per-czar / per-worker -> process-global);
- :mod:`repro.obs.events` -- a ring-buffered log of typed operational
  records (retries, hedges, breaker transitions, shutdowns).

On top of the record-keeping tier sits the *operational* tier -- what
an operator of the multi-tenant frontend works with:

- :mod:`repro.obs.profile` -- EXPLAIN ANALYZE: the per-chunk rows of
  one query and their ledger (``QueryStats`` is a view over them),
  enriched from the span tree, riding on ``result.stats.profile``;
- :mod:`repro.obs.progress` -- the in-flight query registry behind
  ``SHOW PROCESSLIST`` / ``SHOW TENANTS``;
- :mod:`repro.obs.timeseries` -- a bounded metrics-history recorder
  (``REPRO_HISTORY=<seconds>``), with Prometheus text exposition and a
  Perfetto counter-track export;
- :mod:`repro.obs.slo` -- declared latency/error objectives, fast/slow
  burn rates computed from the history recorder, ``slo_burn`` events,
  and the admission controller's overload-pricing pressure signal.

All layers are near-zero-cost when idle: tracing returns a shared no-op
span unless enabled (``REPRO_TRACE=1``, sampling via
``REPRO_TRACE_SAMPLE``), metric updates are one uncontended lock per
registry level, the event ring is bounded, and the history recorder
only runs when started.  The shell surfaces the layer as ``SHOW
METRICS``, ``SHOW EVENTS``, ``SHOW PROCESSLIST``, ``SHOW TENANTS``,
``SHOW HISTORY``, ``TRACE <sql>``, and ``EXPLAIN ANALYZE <sql>``.
"""

from . import events, metrics, profile, progress, slo, timeseries, trace

__all__ = [
    "events",
    "metrics",
    "profile",
    "progress",
    "slo",
    "timeseries",
    "trace",
]
