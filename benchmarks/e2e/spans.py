"""Benchmark-owned spans: name, start, end, parent, query id.

Spans are recorded from the benchmark's side of each call into a
layer, kept in memory, and written as Chrome trace-event JSON when the
run ends.  A span's self time is its duration minus the part of it its
children cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        #: (name, start, end, parent index or -1, query id, thread id)
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, qid: int):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:  # two clients record at once in mixed_load
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so children see their parent
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, qid, threading.get_ident())

    def self_seconds(self) -> dict:
        """Total self time per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            total[name] += (end - start) - child_time[i]
        return dict(total)

    def write_chrome_trace(self, path, max_events: int, metadata: dict) -> None:
        """Whole queries, in order, until ``max_events`` spans are written."""
        keep = set()
        events = []
        origin = self.spans[0][1] if self.spans else 0.0
        for i, (name, start, end, parent, qid, tid) in enumerate(self.spans):
            if qid not in keep:
                if len(events) >= max_events:
                    continue
                keep.add(qid)
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 1),
                "dur": round((end - start) * 1e6, 1),
                "args": {"id": i, "parent": parent, "query": qid},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "metadata": metadata}, fh,
                      separators=(",", ":"))
