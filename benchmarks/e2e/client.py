"""A closed-loop client: the next op is sent when the previous one returns."""

from __future__ import annotations

import time
from collections import defaultdict

from oracle import summarize
from workloads import OpStream


class Client:
    """Issues ops through ``QservFrontend.query``, times and digests them."""

    def __init__(self, frontend, stream: OpStream, user: str):
        self.frontend = frontend
        self.stream = stream
        self.user = user
        self.latency = defaultdict(list)  # class -> seconds per op
        self.started = defaultdict(list)  # class -> perf_counter at each of those ops
        self.answers = []  # (op, summary), checked after the timed section
        self.attempted = 0
        self.failed = 0
        self.errors = []  # one line per failed or rejected op

    def issue(self, cls: str):
        """One op; returns ``(op, result, start, seconds)`` or None when it failed."""
        op = self.stream.next(cls)
        self.attempted += 1
        start = time.perf_counter()
        try:
            # The result cache would answer a repeat in microseconds.
            result = self.frontend.query(op.sql, user=self.user, use_cache=False)
        except Exception as exc:  # noqa: BLE001 - any error or typed shed is a failed op
            self.failed += 1
            self.errors.append(f"failed: {op.sql}: {exc!r}")
            return None
        seconds = time.perf_counter() - start
        self.answers.append((op, summarize(op, result)))
        return op, result, start, seconds

    def run_round(self, classes) -> None:
        """One op of each class, timed."""
        for cls in classes:
            done = self.issue(cls)
            if done is not None:
                self.latency[cls].append(done[3])
                self.started[cls].append(done[2])

    def run_rounds(self, classes, until: float, stop=None) -> None:
        """Whole round-robin rounds until the clock passes ``until``."""
        while time.perf_counter() < until and not (stop and stop.is_set()):
            self.run_round(classes)

    def verify(self, oracle) -> int:
        """Number of answers the oracle rejects."""
        rejected = [op for op, summary in self.answers if not oracle.check(op, summary)]
        self.errors += [f"wrong answer: {op.sql}" for op in rejected]
        return len(rejected)
