"""The Xrootd client API used by the Qserv master.

Wraps the redirector handshake and the two file-level transactions of
paper section 5.4.  ``write_file`` returns the name of the data server
that accepted the write because the second transaction (result read)
goes to *that worker directly* -- the paper's result URL carries
``<worker ip:port>``, not the manager.

Each transaction is one shot: locate, open, write or read, close.  Its
outcome is told to the optional
:class:`~repro.xrd.health.HealthTracker`, whose circuit breaker steers
the redirector away from flapping replicas, and a failure drops the
redirector's cached location and raises :class:`RedirectError`.  Trying
again on another replica (section 5.6) is the caller's loop --
:meth:`ChunkDispatch._retry <repro.qserv.dispatch.ChunkDispatch._retry>`
-- which re-resolves through the redirector this client has just told.
"""

from __future__ import annotations

from typing import Optional

from ..obs import metrics as obs_metrics
from .filesystem import FileSystemError
from .health import HealthTracker
from .redirector import RedirectError, Redirector

__all__ = ["XrdClient"]


class XrdClient:
    """A client session against one redirector."""

    def __init__(self, redirector: Redirector, health: Optional[HealthTracker] = None):
        self.redirector = redirector
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

    def write_file(self, path: str, data: bytes | str, exclude=()) -> str:
        """Open-write-close on ``path``; returns the accepting server's name.

        ``exclude`` steers the write away from named servers (hedged
        dispatch).
        """
        if isinstance(data, str):
            data = data.encode()
        try:
            server = self.redirector.locate(path, exclude=exclude, health=self.health)
        except RedirectError as e:
            raise RedirectError(f"write to {path!r} failed: {e}") from e
        try:
            with server.open(path, "w") as fh:
                fh.write(data)
        except FileSystemError as e:
            self._report(server.name, ok=False)
            self.redirector.invalidate(path)
            raise RedirectError(f"write to {path!r} failed: {e}") from e
        self._bytes_written.add(len(data))
        self._report(server.name, ok=True)
        return server.name

    # -- transaction 2: result collection -----------------------------------------

    def read_file(self, path: str, server_name: str | None = None) -> bytes:
        """Open-read-close on ``path``.

        With ``server_name`` the read goes to that specific server (the
        worker that accepted the chunk query); otherwise the redirector
        resolves the path.
        """
        try:
            if server_name is not None:
                server = self.redirector.server(server_name)
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
        except FileSystemError as e:
            self._report(server.name, ok=False)
            # A failed read means this server's cached locations are
            # suspect, as a failed write does.
            self.redirector.invalidate(path)
            self.redirector.invalidate_server(server.name)
            raise RedirectError(f"read of {path!r} failed: {e}") from e
        self._bytes_read.add(len(data))
        if server_name is None:
            # A pinned read is the second half of a pair whose write
            # just reported this server's success.
            self._report(server.name, ok=True)
        return data

    def exists(self, path: str) -> bool:
        """True when some live server exports ``path``."""
        try:
            self.redirector.locate(path)
            return True
        except RedirectError:
            return False
