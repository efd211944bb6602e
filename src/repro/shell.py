"""An interactive SQL shell against an in-process Qserv cluster.

The paper's users talk to Qserv with the stock ``mysql`` command-line
client through the MySQL proxy; this module is the equivalent surface
for the reproduction:

    python -m repro.shell --objects 2000 --workers 4

Meta-commands (backslash-prefixed, like ``mysql``'s):

========  =====================================================
\\d        list tables and their partitioning
\\stats    dispatch statistics of the last query
\\chunks   chunk placement per worker
\\timing   toggle per-query timing output
\\q        quit
========  =====================================================

Observability statements (SQL-flavored, uppercase keywords):

==========================  ===========================================
``SHOW METRICS``             snapshot of the process-global registry
``SHOW METRICS LIKE 'pat'``  the same, filtered by a glob pattern
``SHOW EVENTS [n]``          the most recent structured events
``SHOW CLUSTER``             membership, replication, integrity status
``SHOW PROCESSLIST``         in-flight queries with live chunk progress
``SHOW TENANTS``             per-tenant admission + quota-burn rollup
``SHOW HISTORY <pat> [n]``   recorded metric time series (glob pattern)
``SHOW SLO``                 objective burn rates and firing state
``TRACE <sql>``              run the query traced; print its span tree
``EXPLAIN ANALYZE <sql>``    run traced; print the profiled plan
``SUBMIT JOB <sql>``         enqueue a durable batch job; prints its id
``SHOW JOBS``                the batch job queue (id, status, rows)
``FETCH JOB <id>``           print a finished job's result table
``CANCEL JOB <id>``          cancel a queued or running job
==========================  ===========================================
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from .data import build_testbed
from .qserv import QservAnalysisError
from .sql import SqlError

__all__ = ["QservShell", "main"]

_log = logging.getLogger(__name__)


def _format_table(column_names, rows, max_rows=40) -> str:
    """mysql-client-style ASCII table."""
    if not column_names:
        return "(no columns)"
    shown = rows[:max_rows]
    cells = [[_fmt(v) for v in row] for row in shown]
    widths = [
        max(len(str(name)), *(len(r[i]) for r in cells)) if cells else len(str(name))
        for i, name in enumerate(column_names)
    ]
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out = [sep]
    out.append(
        "|" + "|".join(f" {str(n).ljust(w)} " for n, w in zip(column_names, widths)) + "|"
    )
    out.append(sep)
    for row in cells:
        out.append("|" + "|".join(f" {v.ljust(w)} " for v, w in zip(row, widths)) + "|")
    out.append(sep)
    if len(rows) > max_rows:
        out.append(f"... {len(rows) - max_rows} more rows")
    out.append(f"{len(rows)} row{'s' if len(rows) != 1 else ''} in set")
    return "\n".join(out)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _clip(s: str, width: int = 48) -> str:
    return s if len(s) <= width else s[: width - 3] + "..."


class QservShell:
    """Stateful shell logic, separated from the input loop for testing."""

    def __init__(self, testbed):
        self.testbed = testbed
        self.last_result = None
        self.timing = True

    def execute_line(self, line: str) -> str:
        """One input line -> printable output (never raises)."""
        line = line.strip().rstrip(";")
        if not line:
            return ""
        if line.startswith("\\"):
            return self._meta(line)
        upper = line.upper()
        if upper == "SHOW METRICS" or upper.startswith("SHOW METRICS LIKE"):
            return self._show_metrics(line)
        if upper == "SHOW EVENTS" or upper.startswith("SHOW EVENTS "):
            return self._show_events(line)
        if upper == "SHOW CLUSTER":
            return self._show_cluster()
        if upper == "SHOW PROCESSLIST":
            return self._show_processlist()
        if upper == "SHOW TENANTS":
            return self._show_tenants()
        if upper == "SHOW HISTORY" or upper.startswith("SHOW HISTORY "):
            return self._show_history(line)
        if upper == "SHOW SLO":
            return self._show_slo()
        if upper == "EXPLAIN ANALYZE" or upper.startswith("EXPLAIN ANALYZE "):
            return self._explain_analyze(line[len("EXPLAIN ANALYZE") :])
        if upper == "TRACE" or upper.startswith("TRACE "):
            return self._trace_query(line[len("TRACE") :])
        if upper == "SUBMIT JOB" or upper.startswith("SUBMIT JOB "):
            return self._submit_job(line[len("SUBMIT JOB") :])
        if upper == "SHOW JOBS":
            return self._show_jobs()
        if upper.startswith("FETCH JOB"):
            return self._fetch_job(line[len("FETCH JOB") :])
        if upper.startswith("CANCEL JOB"):
            return self._cancel_job(line[len("CANCEL JOB") :])
        t0 = time.perf_counter()
        try:
            result = self.testbed.query(line)
        except (SqlError, QservAnalysisError) as e:
            return f"ERROR: {e}"
        except Exception as e:
            # Anything else is a bug, not a user error: keep the shell
            # alive but leave the traceback in the log.
            _log.exception("unexpected failure running %r", line)
            return f"ERROR: {type(e).__name__}: {e}"
        self.last_result = result
        elapsed = time.perf_counter() - t0
        out = _format_table(result.column_names, result.rows())
        if self.timing:
            out += f" ({elapsed:.3f} sec, {result.stats.chunks_dispatched} chunk queries)"
        return out

    @staticmethod
    def _like_pattern(line: str, keyword: str):
        """The glob from ``... LIKE '<pat>'``, or None / an error string."""
        rest = line[len(keyword) :].strip()
        if not rest:
            return None
        if rest.upper().startswith("LIKE"):
            rest = rest[len("LIKE") :].strip()
        pat = rest.strip("'\"")
        if not pat:
            return f"usage: {keyword} LIKE '<glob>'"
        return pat

    def _show_metrics(self, line: str = "SHOW METRICS") -> str:
        """``SHOW METRICS [LIKE '<glob>']``: the process-global registry."""
        import fnmatch

        from .obs import metrics as obs_metrics

        pattern = self._like_pattern(line, "SHOW METRICS")
        if pattern is not None and pattern.startswith("usage:"):
            return pattern
        snap = obs_metrics.snapshot()
        if pattern is not None:
            snap = {
                name: value
                for name, value in snap.items()
                if fnmatch.fnmatch(name, pattern)
            }
        if not snap:
            if pattern is not None:
                return f"no metrics match {pattern!r}"
            return "no metrics recorded yet"
        rows = []
        for name, value in sorted(snap.items()):
            if isinstance(value, dict):  # histogram summary
                p50, p99 = value.get("p50"), value.get("p99")
                detail = (
                    f"count={value['count']} avg={value['avg']:.6g}s "
                    f"p50={p50:.6g}s p99={p99:.6g}s max={value['max']:.6g}s"
                    if p50 is not None and p99 is not None
                    else f"count={value['count']} avg={value['avg']:.6g}s "
                    f"min={value['min']:.6g}s max={value['max']:.6g}s"
                )
                if value.get("overflow"):
                    detail += f" ({value['overflow']} past top bucket)"
                rows.append((name, detail))
            else:
                rows.append((name, value))
        return _format_table(["metric", "value"], rows, max_rows=len(rows))

    def _show_events(self, line: str) -> str:
        """``SHOW EVENTS [n]``: the most recent structured events."""
        from .obs import events as obs_events

        parts = line.split()
        n = 20
        if len(parts) > 2:
            try:
                n = max(int(parts[2]), 1)
            except ValueError:
                return "usage: SHOW EVENTS [n]"
        events = obs_events.recent(n)
        if not events:
            return "no events recorded yet"
        rows = [
            (
                e.seq,
                time.strftime("%H:%M:%S", time.localtime(e.ts)),
                e.type,
                ", ".join(f"{k}={_clip(_fmt(v))}" for k, v in e.fields.items()),
            )
            for e in events
        ]
        out = _format_table(["seq", "time", "event", "fields"], rows, max_rows=n)
        dropped = obs_events.dropped()
        if dropped:
            oldest = obs_events.oldest_seq()
            out += (
                f"\n({dropped} older event{'s' if dropped != 1 else ''} dropped; "
                f"oldest retained seq {oldest})"
            )
        return out

    def _show_cluster(self) -> str:
        """``SHOW CLUSTER``: the self-healing data plane's status page."""
        from .obs import metrics as obs_metrics
        from .xrd import RedirectError

        tb = self.testbed
        membership = getattr(tb, "membership", None)
        repair = getattr(tb, "repair", None)
        states = membership.states() if membership is not None else {}
        placement = tb.placement
        quarantine = getattr(tb.redirector, "quarantine", None)
        quarantined = quarantine.snapshot() if quarantine is not None else []
        blocked_by_server: dict[str, int] = {}
        for server_name, _path in quarantined:
            blocked_by_server[server_name] = blocked_by_server.get(server_name, 0) + 1
        rows = []
        for name in sorted(set(placement.nodes) | set(states)):
            state = states.get(name, "up")
            if state != "decommissioned":
                try:
                    if not tb.redirector.server(name).up:
                        state = "DOWN"
                except RedirectError:
                    state = "unregistered"
            in_placement = name in placement.nodes
            rows.append(
                (
                    name,
                    state,
                    len(placement.chunks_of(name)) if in_placement else 0,
                    len(placement.chunks_hosted_by(name)) if in_placement else 0,
                    blocked_by_server.get(name, 0),
                )
            )
        out = _format_table(
            ["worker", "state", "primary", "hosted", "quarantined"], rows
        )
        degraded = repair.under_replicated() if repair is not None else {}
        snap = obs_metrics.snapshot()
        out += (
            f"\nreplication target {placement.effective_replication}: "
            f"{len(degraded)} under-replicated chunk"
            f"{'s' if len(degraded) != 1 else ''}, "
            f"{len(quarantined)} quarantined replica"
            f"{'s' if len(quarantined) != 1 else ''}"
        )
        out += (
            f"\nrepair: {snap.get('repair.copies', 0)} copies "
            f"({snap.get('repair.verify.failures', 0)} verify failures); "
            f"scrub: {snap.get('scrub.passes', 0)} passes, "
            f"{snap.get('scrub.tables.checked', 0)} tables checked, "
            f"{snap.get('scrub.mismatches', 0)} mismatches"
        )
        return out

    def _show_processlist(self) -> str:
        """``SHOW PROCESSLIST``: in-flight queries with live progress."""
        from .obs import progress as obs_progress

        entries = obs_progress.PROCESSLIST.entries()
        if not entries:
            return "no queries in flight"
        rows = []
        for e in entries:
            total = e["chunks_total"]
            chunks = f"{e['chunks_done']}/{total if total else '?'}"
            remaining = e["remaining"]
            deadline = "-" if remaining is None else f"{remaining:.1f}s left"
            rows.append(
                (
                    e["qid"],
                    e["tenant"],
                    e["session"] or "-",
                    e["stage"],
                    chunks,
                    e["bytes"],
                    e["retries"],
                    f"{e['elapsed']:.3f}s",
                    deadline,
                    _clip(e["sql"]),
                )
            )
        return _format_table(
            ["qid", "tenant", "session", "stage", "chunks", "bytes", "retries",
             "elapsed", "deadline", "sql"],
            rows,
            max_rows=len(rows),
        )

    def _show_tenants(self) -> str:
        """``SHOW TENANTS``: admission accounting plus live in-flight load."""
        from .obs import progress as obs_progress

        frontend = getattr(self.testbed, "frontend", None)
        if frontend is None:
            return "ERROR: no frontend attached to this testbed"
        snap = frontend.admission.snapshot()
        inflight = obs_progress.PROCESSLIST.by_tenant()
        names = sorted(set(snap) | set(inflight))
        if not names:
            return "no tenants seen yet"
        rows = []
        for name in names:
            t = snap.get(name, {})
            live = inflight.get(name, [])
            burn = t.get("quota_burn")
            rows.append(
                (
                    name,
                    t.get("running", 0),
                    t.get("queued", 0),
                    len(live),
                    sum(e["chunks_done"] for e in live),
                    t.get("completed", 0),
                    t.get("shed", 0),
                    t.get("rows_used", 0),
                    t.get("bytes_used", 0),
                    "-" if burn is None else f"{burn * 100:.1f}%",
                )
            )
        return _format_table(
            ["tenant", "running", "queued", "inflight", "chunks done",
             "completed", "shed", "rows used", "bytes used", "quota burn"],
            rows,
            max_rows=len(rows),
        )

    def _show_history(self, line: str) -> str:
        """``SHOW HISTORY <metric|glob> [n]``: recorded time series."""
        import shlex

        from .obs import timeseries as obs_timeseries

        try:
            parts = shlex.split(line)
        except ValueError:
            parts = line.split()
        args = parts[2:]
        n = 10
        if args and args[-1].isdigit():
            n = max(int(args.pop()), 1)
        pattern = args[0].strip("'\"") if args else "*"
        recorder = obs_timeseries.RECORDER
        names = recorder.names(pattern)
        if not names:
            hint = "" if recorder.ticks else (
                " (recorder idle; set REPRO_HISTORY=<seconds> or call "
                "RECORDER.start())"
            )
            return f"no recorded series match {pattern!r}{hint}"
        rows = []
        for name in names:
            points = recorder.get(name, n)
            if not points:
                continue
            latest = points[-1]
            spark = " ".join(f"{p.value:.4g}" for p in points)
            rows.append((name, recorder.series_kind(name), len(points),
                         f"{latest.value:.6g}", spark))
        return _format_table(
            ["series", "kind", "points", "latest", f"last {n}"],
            rows,
            max_rows=len(rows),
        )

    def _show_slo(self) -> str:
        """``SHOW SLO``: objective burn rates and firing state."""
        frontend = getattr(self.testbed, "frontend", None)
        if frontend is None or not getattr(frontend, "slo", None):
            return "ERROR: no frontend (and so no SLO monitor) attached"
        snap = frontend.slo.snapshot()
        if not snap:
            return "no SLO objectives declared"
        rows = [
            (
                s["objective"],
                s["kind"],
                f"{s['budget'] * 100:g}%",
                f"{s['burn_fast']:.2f}x",
                f"{s['burn_slow']:.2f}x",
                "FIRING" if s["firing"] else "ok",
            )
            for s in snap
        ]
        out = _format_table(
            ["objective", "kind", "budget", "burn (fast)", "burn (slow)", "state"],
            rows,
            max_rows=len(rows),
        )
        out += f"\nadmission pressure {frontend.slo.pressure():.2f}"
        return out

    def _explain_analyze(self, sql: str) -> str:
        """``EXPLAIN ANALYZE <sql>``: run traced; print the profiled plan."""
        sql = sql.strip().rstrip(";")
        if not sql:
            return "usage: EXPLAIN ANALYZE <SELECT ...>"
        try:
            result = self.testbed.proxy.query(sql, trace=True)
        except (SqlError, QservAnalysisError) as e:
            return f"ERROR: {e}"
        except Exception as e:
            _log.exception("unexpected failure profiling %r", sql)
            return f"ERROR: {type(e).__name__}: {e}"
        self.last_result = result
        return result.stats.profile.pretty()

    def _trace_query(self, sql: str) -> str:
        """``TRACE <sql>``: run the query traced; print its span tree."""
        sql = sql.strip().rstrip(";")
        if not sql:
            return "usage: TRACE <SELECT ...>"
        try:
            result = self.testbed.proxy.query(sql, trace=True)
        except (SqlError, QservAnalysisError) as e:
            return f"ERROR: {e}"
        except Exception as e:
            _log.exception("unexpected failure tracing %r", sql)
            return f"ERROR: {type(e).__name__}: {e}"
        self.last_result = result
        trace = result.stats.trace
        if trace is None:
            return "no trace captured (query ran outside the czar)"
        header = (
            f"trace {trace.trace_id}: {len(trace.spans)} spans, "
            f"{result.stats.chunks_dispatched} chunk queries, "
            f"{len(result.rows())} result rows, "
            f"{result.stats.elapsed_seconds:.3f}s"
        )
        return header + "\n" + trace.pretty()

    def _submit_job(self, sql: str) -> str:
        """``SUBMIT JOB <sql>``: enqueue a durable batch job."""
        sql = sql.strip().rstrip(";")
        if not sql:
            return "usage: SUBMIT JOB <SELECT ...>"
        frontend = getattr(self.testbed, "frontend", None)
        if frontend is None:
            return "ERROR: no frontend attached to this testbed"
        try:
            job_id = frontend.submit_job(sql, user="shell")
        except Exception as e:  # noqa: BLE001 - shed/validation errors reach the user
            return f"ERROR: {type(e).__name__}: {e}"
        return f"accepted {job_id} (poll with SHOW JOBS, results with FETCH JOB {job_id})"

    def _show_jobs(self) -> str:
        """``SHOW JOBS``: the batch queue, most recent last."""
        frontend = getattr(self.testbed, "frontend", None)
        if frontend is None:
            return "ERROR: no frontend attached to this testbed"
        jobs = frontend.list_jobs()
        if not jobs:
            return "no jobs submitted yet"
        rows = [
            (
                j["job_id"],
                j["user"],
                j["status"] + (" (recovered)" if j["recovered"] else ""),
                j["rows"],
                j["table"],
                _clip(j["error"] or j["sql"]),
            )
            for j in jobs
        ]
        return _format_table(
            ["job", "user", "status", "rows", "mydb table", "detail"], rows
        )

    def _fetch_job(self, arg: str) -> str:
        """``FETCH JOB <id>``: print a finished job's result table."""
        job_id = arg.strip()
        frontend = getattr(self.testbed, "frontend", None)
        if frontend is None:
            return "ERROR: no frontend attached to this testbed"
        if not job_id:
            return "usage: FETCH JOB <job-id>"
        try:
            table = frontend.fetch_job(job_id)
        except Exception as e:  # noqa: BLE001 - unknown/unfinished jobs reach the user
            return f"ERROR: {type(e).__name__}: {e}"
        return _format_table(table.column_names, table.rows())

    def _cancel_job(self, arg: str) -> str:
        """``CANCEL JOB <id>``: cancel a queued or running job."""
        job_id = arg.strip()
        frontend = getattr(self.testbed, "frontend", None)
        if frontend is None:
            return "ERROR: no frontend attached to this testbed"
        if not job_id:
            return "usage: CANCEL JOB <job-id>"
        try:
            cancelled = frontend.cancel_job(job_id)
        except Exception as e:  # noqa: BLE001 - unknown jobs reach the user
            return f"ERROR: {type(e).__name__}: {e}"
        return f"{job_id} {'cancel requested' if cancelled else 'already finished'}"

    def _meta(self, line: str) -> str:
        cmd = line.split()[0]
        if cmd in ("\\q", "\\quit"):
            raise EOFError
        if cmd == "\\d":
            rows = []
            md = self.testbed.metadata
            for name in sorted(self.testbed.tables):
                if md.is_partitioned(name):
                    info = md.info(name)
                    extra = f"partitioned on ({info.ra_column}, {info.dec_column})"
                    if info.is_director:
                        extra += ", director"
                else:
                    extra = "replicated"
                rows.append((name, self.testbed.tables[name].num_rows, extra))
            return _format_table(["table", "rows", "partitioning"], rows)
        if cmd == "\\stats":
            if self.last_result is None:
                return "no query yet"
            s = self.last_result.stats
            rows = [
                ("chunks dispatched", s.chunks_dispatched),
                ("sub-chunk statements", s.sub_chunk_statements),
                ("workers used", len(s.workers_used)),
                ("bytes dispatched", s.bytes_dispatched),
                ("bytes collected", s.bytes_collected),
                ("rows merged", s.rows_merged),
                ("wire format", s.wire_format or "n/a"),
                ("plan cache hit", bool(s.plan_cache_hits)),
                ("secondary index", s.used_secondary_index),
                ("region restriction", s.used_region_restriction),
                ("chunks retried", s.chunks_retried),
                ("chunks hedged", f"{s.chunks_hedged} ({s.hedges_won} won)"),
                ("chunks timed out", s.chunks_timed_out),
                ("elapsed (s)", round(s.elapsed_seconds, 4)),
            ]
            if s.partial_result:
                rows.append(("PARTIAL: failed chunks", sorted(s.failed_chunks)))
            return _format_table(["metric", "value"], rows)
        if cmd == "\\chunks":
            placement = self.testbed.placement
            rows = [
                (node, len(placement.chunks_of(node)), len(placement.chunks_hosted_by(node)))
                for node in placement.nodes
            ]
            return _format_table(["worker", "primary chunks", "hosted chunks"], rows)
        if cmd == "\\timing":
            self.timing = not self.timing
            return f"timing {'on' if self.timing else 'off'}"
        if cmd == "\\health":
            from .qserv.admin import ClusterAdmin

            admin = ClusterAdmin(
                self.testbed.placement, self.testbed.redirector, self.testbed.workers
            )
            h = admin.health()
            breaker = self.testbed.czar.health
            rows = [
                (n.name, "up" if n.up else "DOWN", breaker.state(n.name),
                 n.primary_chunks, n.hosted_chunks, n.queries_executed)
                for n in h.nodes
            ]
            out = _format_table(
                ["worker", "state", "breaker", "primary", "hosted", "queries"], rows
            )
            out += (
                f"\ncluster: {'healthy' if h.healthy else 'DEGRADED'}, "
                f"{len(h.dark_chunks)} dark chunks, "
                f"{len(h.under_replicated)} under-replicated, "
                f"imbalance {h.imbalance:.2f}"
            )
            return out
        if cmd == "\\explain":
            sql = line[len("\\explain") :].strip().rstrip(";")
            if not sql:
                return "usage: \\explain <SELECT ...>"
            try:
                return self.testbed.czar.explain(sql).summary()
            except (SqlError, QservAnalysisError) as e:
                return f"ERROR: {e}"
        return (
            f"unknown command {cmd!r} "
            "(try \\d, \\stats, \\chunks, \\health, \\explain, \\timing, \\q)"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description="Interactive Qserv shell")
    parser.add_argument("--objects", type=int, default=2000, help="objects to synthesize")
    parser.add_argument("--workers", type=int, default=4, help="worker nodes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--replication", type=int, default=1, help="chunk replicas per node"
    )
    parser.add_argument("--stripes", type=int, default=18)
    parser.add_argument("--sub-stripes", type=int, default=6)
    parser.add_argument(
        "--execute",
        "-e",
        metavar="SQL",
        help="execute one statement and exit (like mysql -e)",
    )
    args = parser.parse_args(argv)

    print(f"Building {args.workers}-worker cluster with {args.objects} objects...")
    tb = build_testbed(
        num_workers=args.workers,
        num_objects=args.objects,
        seed=args.seed,
        replication=args.replication,
        num_stripes=args.stripes,
        num_sub_stripes=args.sub_stripes,
    )
    shell = QservShell(tb)
    if args.execute is not None:
        print(shell.execute_line(args.execute))
        tb.shutdown()
        return 0
    print(
        f"Ready: {len(tb.placement.chunk_ids)} chunks on {args.workers} workers. "
        "Type SQL, or \\q to quit."
    )
    while True:
        try:
            line = input("qserv> ")
        except (EOFError, KeyboardInterrupt):
            print()
            break
        try:
            out = shell.execute_line(line)
        except EOFError:
            break
        if out:
            print(out)
    tb.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
