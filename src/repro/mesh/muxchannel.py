"""Multiplexed sidecar channels (§3.6's SST suggestion, in the mesh).

With ``MeshConfig(transport=TransportSpec(mux=True))``, sidecars carry
*all* requests to an upstream over a single multiplexed connection
instead of a connection-per-request pool. Streams are priority-scheduled
from the request's provenance (the ``request_priority`` policy hook), so a
latency-sensitive response is never head-of-line blocked behind a batch
response on the shared connection.

:class:`MuxChannel` is the client side: it correlates responses to
requests by the response's ``request_id``. The server side lives in the
sidecar's accept path (it wraps mux-negotiated connections and serves
streams concurrently).
"""

from __future__ import annotations

from ..http.message import HttpResponse
from ..sim import Simulator
from ..transport import ConnectionEnd, MuxConnection


class MuxChannel:
    """Client-side multiplexed request channel over one connection."""

    def __init__(self, sim: Simulator, conn: ConnectionEnd, chunk_bytes: int = 16_000):
        self.sim = sim
        self.conn = conn
        self.mux = MuxConnection(conn, chunk_bytes=chunk_bytes, scheduler="priority")
        self._pending: dict[int, object] = {}   # request message_id -> Event
        self.orphaned_responses = 0
        sim.process(self._dispatch(), name=f"mux-channel-{conn.flow_id}")

    @property
    def closed(self) -> bool:
        return self.conn.closed

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def request(self, request, size: int, priority) -> object:
        """Send ``request`` on its own stream; returns an event that
        fires with the response."""
        event = self.sim.event(name=f"mux-response-{request.message_id}")
        self._pending[request.message_id] = event
        self.mux.send(request, size, priority=priority)
        return event

    def abandon(self, request) -> None:
        """Stop waiting for a response (per-try timeout). The stream is
        not reset — a late response is discarded on arrival — so the
        channel stays usable, unlike a timed-out plain connection."""
        self._pending.pop(request.message_id, None)

    def _dispatch(self):
        while not self.conn.closed:
            message, _size = yield self.mux.receive()
            if not isinstance(message, HttpResponse):
                raise TypeError(
                    f"unexpected message on mux channel: {message!r}"
                )
            event = self._pending.pop(message.request_id, None)
            if event is None:
                self.orphaned_responses += 1   # late reply after timeout
                continue
            event.succeed(message)
