"""The Xrootd client API used by the Qserv master.

Wraps the redirector handshake and the two file-level transactions of
paper section 5.4.  ``write_file`` returns the name of the data server
that accepted the write because the second transaction (result read)
goes to *that worker directly* -- the paper's result URL carries
``<worker ip:port>``, not the manager.

Both transactions run under a :class:`~repro.xrd.retry.RetryPolicy`:
bounded attempts, exponential backoff with deterministic jitter, and an
optional :class:`~repro.xrd.retry.Deadline` that caps the whole
operation.  Outcomes feed the optional
:class:`~repro.xrd.health.HealthTracker`, whose circuit breaker steers
the redirector away from flapping replicas.
"""

from __future__ import annotations

from typing import Optional

from ..obs import metrics as obs_metrics
from .dataserver import DataServer
from .filesystem import FileSystemError
from .health import HealthTracker
from .redirector import RedirectError, Redirector
from .retry import Deadline, RetryPolicy

__all__ = ["XrdClient"]


class XrdClient:
    """A client session against one redirector.

    ``max_retries`` is the legacy knob (extra attempts after the
    first); passing an explicit ``retry_policy`` supersedes it and adds
    backoff and per-attempt budgets.
    """

    def __init__(
        self,
        redirector: Redirector,
        max_retries: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[HealthTracker] = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.redirector = redirector
        self.max_retries = max_retries
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=max_retries + 1, base_backoff=0.0
        )
        self.health = health
        # Resolved once, not by name per transaction.
        self._bytes_written = obs_metrics.counter("xrd.bytes.written")
        self._bytes_read = obs_metrics.counter("xrd.bytes.read")

    def _report(self, server_name: str, ok: bool) -> None:
        if self.health is None:
            return
        if ok:
            self.health.record_success(server_name)
        else:
            self.health.record_failure(server_name)

    # -- transaction 1: dispatch ------------------------------------------------

    def write_file(
        self,
        path: str,
        data: bytes | str,
        exclude=(),
        deadline: Optional[Deadline] = None,
    ) -> str:
        """Open-write-close on ``path``; returns the accepting server's name.

        Retries through the redirector when the chosen server fails
        mid-transaction (replica fail-over), backing off between
        attempts per the retry policy.  ``exclude`` steers the write
        away from named servers (hedged dispatch); ``deadline`` bounds
        the whole operation.
        """
        if isinstance(data, str):
            data = data.encode()
        policy = self.retry_policy
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt and not policy.sleep_before(attempt, path, deadline):
                last_error = last_error or TimeoutError("deadline expired")
                break
            if deadline is not None and deadline.expired:
                last_error = last_error or TimeoutError("deadline expired")
                break
            try:
                server = self.redirector.locate(
                    path, exclude=exclude, health=self.health
                )
            except RedirectError as e:
                last_error = e
                break
            try:
                with server.open(path, "w") as fh:
                    fh.write(data)
                self._bytes_written.add(len(data))
                self._report(server.name, ok=True)
                return server.name
            except FileSystemError as e:
                last_error = e
                self._report(server.name, ok=False)
                self.redirector.invalidate(path)
        raise RedirectError(f"write to {path!r} failed: {last_error}")

    # -- transaction 2: result collection -----------------------------------------

    def read_file(
        self,
        path: str,
        server_name: str | None = None,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        """Open-read-close on ``path``.

        With ``server_name`` the read goes to that specific server (the
        worker that accepted the chunk query); otherwise the redirector
        resolves the path.
        """
        policy = self.retry_policy
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt and not policy.sleep_before(attempt, path, deadline):
                last_error = last_error or TimeoutError("deadline expired")
                break
            if deadline is not None and deadline.expired:
                last_error = last_error or TimeoutError("deadline expired")
                break
            try:
                if server_name is not None:
                    server: DataServer = self.redirector.server(server_name)
                else:
                    server = self.redirector.locate(path, health=self.health)
            except RedirectError as e:
                if server_name is not None:
                    # The pinned worker is gone entirely; its cached
                    # locations must not be re-resolved by later queries.
                    self.redirector.invalidate_server(server_name)
                raise RedirectError(f"read of {path!r} failed: {e}") from e
            try:
                with server.open(path, "r") as fh:
                    data = fh.read()
                self._bytes_read.add(len(data))
                if server_name is None:
                    # A pinned read is the second half of a pair whose
                    # write just reported this server's success.
                    self._report(server.name, ok=True)
                return data
            except FileSystemError as e:
                last_error = e
                self._report(server.name, ok=False)
                # Mirror the write side: a failed read means this
                # server's cached locations are suspect.  (Read-side
                # fail-over bugfix: previously only the write path
                # invalidated, so a dead server's cached location kept
                # being re-resolved.)
                self.redirector.invalidate(path)
                self.redirector.invalidate_server(server.name)
                if server_name is not None:
                    break  # a pinned read has no replica to fail over to
        raise RedirectError(f"read of {path!r} failed: {last_error}")

    def exists(self, path: str) -> bool:
        """True when some live server exports ``path``."""
        try:
            self.redirector.locate(path)
            return True
        except RedirectError:
            return False
