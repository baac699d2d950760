"""Reliable, congestion-controlled, message-carrying connections.

A :class:`ConnectionEnd` is one endpoint of a full-duplex byte stream.
Application messages (of declared size) are serialized onto the stream;
the far end delivers each message once all its bytes have arrived in
order. Loss recovery is NewReno-flavoured: fast retransmit on three
duplicate ACKs, go-back-N on retransmission timeout.

Sizes are application bytes; every segment adds ``header_bytes`` on the
wire, so the simulated network sees realistic packet sizes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right, insort
from dataclasses import dataclass, field

from ..net.packet import Packet, Tos
from ..sim import Simulator, Store
from .cc import CongestionControl, make_cc
from .model import (
    DEFAULT_CONTENTION_BACKLOG_BYTES,
    DEFAULT_CONTENTION_THRESHOLD,
    DEFAULT_UTILIZATION_WINDOW,
    FIDELITY_MODES,
    FIDELITY_PACKET,
    TransportSpec,
)

_flow_ids = itertools.count(1)


@dataclass
class TransportConfig:
    """Knobs shared by every connection on a stack.

    Runtime companion of the declarative
    :class:`~repro.transport.model.TransportSpec`: specs are frozen and
    comparable (they feed config digests), while this carries the same
    transport knobs plus mutable runtime state (the metrics hook).
    Build one from a spec with :meth:`from_spec`.
    """

    mss: int = 1460                 # payload bytes per segment
    header_bytes: int = 40          # per-segment header overhead
    ack_bytes: int = 40             # ACK packet size
    initial_cwnd_segments: int = 10
    min_rto: float = 0.010
    max_rto: float = 2.0
    dupack_threshold: int = 3
    receive_buffer_messages: int | None = None
    ecn_enabled: bool = True
    #: Fidelity mode ("packet" | "fluid" | "hybrid") plus the hybrid
    #: switching criterion — see :class:`~repro.transport.model.FidelityPolicy`.
    fidelity: str = FIDELITY_PACKET
    contention_threshold: float = DEFAULT_CONTENTION_THRESHOLD
    utilization_window: float = DEFAULT_UTILIZATION_WINDOW
    contention_backlog_bytes: int = DEFAULT_CONTENTION_BACKLOG_BYTES
    #: Optional :class:`repro.obs.MetricsRegistry`.  When set, every
    #: connection sharing this config streams RTT samples and
    #: retransmit/RTO/ECN counters into it (the observability plane
    #: sets this on the cluster's shared transport config).
    metrics: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mss <= 0 or self.header_bytes < 0:
            raise ValueError("invalid mss/header size")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError("invalid RTO bounds")
        if self.fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; known: {FIDELITY_MODES}"
            )

    @classmethod
    def from_spec(cls, spec: TransportSpec, metrics: object = None) -> "TransportConfig":
        """Materialize the runtime config a frozen spec describes."""
        return cls(
            mss=spec.mss,
            header_bytes=spec.header_bytes,
            ack_bytes=spec.ack_bytes,
            initial_cwnd_segments=spec.initial_cwnd_segments,
            min_rto=spec.min_rto,
            max_rto=spec.max_rto,
            ecn_enabled=spec.ecn_enabled,
            fidelity=spec.fidelity,
            contention_threshold=spec.contention_threshold,
            utilization_window=spec.utilization_window,
            contention_backlog_bytes=spec.contention_backlog_bytes,
            metrics=metrics,
        )


@dataclass
class SegmentInfo:
    """Payload attached to a data packet."""

    length: int
    boundaries: list = field(default_factory=list)  # [(end_offset, message)]


@dataclass
class AckInfo:
    """Payload attached to an ACK packet.

    ``ece`` echoes an ECN congestion-experienced mark back to the
    sender (RFC 3168's ECE flag).
    """

    ack: int
    ece: bool = False


class ConnectionEnd:
    """One side of an established (or establishing) connection."""

    def __init__(
        self,
        sim: Simulator,
        network,
        local: str,
        remote: str,
        flow_id: int | None = None,
        cc: CongestionControl | None = None,
        cc_name: str = "reno",
        tos: Tos = Tos.NORMAL,
        config: TransportConfig | None = None,
        name: str = "",
    ):
        self.sim = sim
        self.network = network
        self.local = local
        self.remote = remote
        self.flow_id = flow_id if flow_id is not None else next(_flow_ids)
        self.config = config if config is not None else TransportConfig()
        self.cc = cc if cc is not None else make_cc(
            cc_name, self.config.mss, clock=lambda: sim.now
        )
        self.cc_name = self.cc.name
        self.tos = tos
        self.name = name or f"conn-{self.flow_id}"
        self.alpn = "message"   # negotiated application protocol
        self.established = sim.event(name=f"{self.name}-established")
        self.closed = False

        # -- sender state --
        self._snd_total = 0          # bytes enqueued by the application
        self._snd_nxt = 0            # next fresh byte to transmit
        self._snd_una = 0            # oldest unacknowledged byte
        self._boundary_offsets: list[int] = []   # sorted message end offsets
        self._boundary_messages: dict[int, object] = {}
        self._dup_acks = 0
        self._recover = 0            # NewReno recovery point
        self._in_recovery = False
        self._rtt_probe: tuple[int, float] | None = None
        self._srtt: float | None = None
        self._rttvar = 0.0
        self._rto = self.config.min_rto * 4
        self._rto_deadline = float("inf")
        self._rto_backoff = 1.0
        #: Heap key the current deadline claimed when it was armed
        #: (None while nothing is in flight), and the key of the one
        #: RTO timer on the heap (None if there is none).
        self._rto_key: tuple[float, int] | None = None
        self._rto_timer: tuple[float, int] | None = None

        # -- receiver state --
        self._rcv_nxt = 0
        self._ooo: dict[int, int] = {}           # offset -> length
        self._pending_boundaries: dict[int, object] = {}
        self.inbox: Store = Store(sim, capacity=self.config.receive_buffer_messages)

        # -- upper-layer flow control (used by the stream multiplexer) --
        # When set, ``on_writable()`` fires after sending whenever the
        # unsent backlog is at or below ``writable_low_water`` bytes.
        self.on_writable = None
        self.writable_low_water = 0

        # -- ECN state --
        self._last_ecn_cut = float("-inf")

        # -- telemetry --
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.retransmits = 0
        self.timeouts = 0
        self.ecn_reductions = 0

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def send(self, message, size: int) -> None:
        """Queue ``message`` (``size`` app bytes) for in-order delivery."""
        if self.closed:
            raise RuntimeError(f"{self.name}: send on closed connection")
        if size <= 0:
            raise ValueError("message size must be positive")
        self._snd_total += int(size)
        insort(self._boundary_offsets, self._snd_total)
        self._boundary_messages[self._snd_total] = message
        self.messages_sent += 1
        if self.established.processed:
            self._pump()

    def receive(self):
        """Event carrying the next ``(message, size)`` pair."""
        return self.inbox.get()

    def close(self) -> None:
        """Mark closed; no FIN exchange is modelled (mesh connections are
        pooled and long-lived)."""
        self.closed = True

    @property
    def bytes_in_flight(self) -> int:
        return self._snd_nxt - self._snd_una

    @property
    def unsent_bytes(self) -> int:
        return self._snd_total - self._snd_nxt

    @property
    def srtt(self) -> float | None:
        return self._srtt

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------
    def _on_established(self) -> None:
        if not self.established.triggered:
            self.established.succeed(self)
        self.sim.call_later(0.0, self._pump)

    def _segment_at(self, offset: int) -> tuple[int, list]:
        """(payload length, boundary list) for a segment starting at offset."""
        limit = min(self.config.mss, self._snd_total - offset)
        # Boundaries falling inside (offset, offset+limit].
        start = bisect_right(self._boundary_offsets, offset)
        boundaries = []
        for idx in range(start, len(self._boundary_offsets)):
            end = self._boundary_offsets[idx]
            if end > offset + limit:
                break
            boundaries.append((end, self._boundary_messages[end]))
        return limit, boundaries

    def _emit_segment(self, offset: int, fresh: bool) -> int:
        length, boundaries = self._segment_at(offset)
        if length <= 0:
            return 0
        packet = Packet(
            src=self.local,
            dst=self.remote,
            size=length + self.config.header_bytes,
            flow_id=self.flow_id,
            seq=offset,
            kind="data",
            tos=self.tos,
            payload=SegmentInfo(length=length, boundaries=boundaries),
        )
        self.network.send(packet)
        self.bytes_sent += length
        if fresh and self._rtt_probe is None:
            self._rtt_probe = (offset + length, self.sim.now)
        if not fresh:
            self.retransmits += 1
            if self.config.metrics is not None:
                self.config.metrics.counter("transport_retransmits_total").inc()
            # Karn: a retransmission overlapping the probe invalidates it.
            if self._rtt_probe is not None and offset < self._rtt_probe[0]:
                self._rtt_probe = None
        return length

    def _pump(self) -> None:
        """Send fresh data while the congestion window allows."""
        if self.closed or not self.established.triggered:
            return
        while self._snd_nxt < self._snd_total and (
            self.bytes_in_flight < self.cc.cwnd
        ):
            sent = self._emit_segment(self._snd_nxt, fresh=True)
            if sent == 0:
                break
            self._snd_nxt += sent
        self._arm_rto()
        if (
            self.on_writable is not None
            and self.unsent_bytes <= self.writable_low_water
        ):
            self.on_writable()

    # -- RTO timer --------------------------------------------------------
    # One pending timer per connection.  Every arm moves the deadline and
    # claims the heap key a timer of its own would have had; a timer is
    # pushed only when that key is earlier than the pending timer's (the
    # RTO shrank after an RTT sample).  A timer that finds the deadline
    # moved later re-arms once, under the key the deadline claimed, so a
    # timeout fires at the same instant and in the same same-instant
    # order as when every arm pushed a timer and stale ones were dropped.
    def _arm_rto(self) -> None:
        if self._snd_una >= self._snd_nxt:
            self._rto_deadline = float("inf")
            self._rto_key = None
            return
        sim = self.sim
        now = sim.now
        deadline = now + self._rto * self._rto_backoff
        if (
            deadline == self._rto_deadline
            and self._rto_key[0] <= now + (deadline - now)
        ):
            return  # the first arm of an unchanged deadline fires first
        self._rto_deadline = deadline
        key = self._rto_key = sim.reserve(deadline - now)
        timer = self._rto_timer
        if timer is None or key < timer:
            self._rto_timer = key
            sim.call_reserved(key, self._rto_fire, key)

    def _rto_fire(self, key: tuple[float, int]) -> None:
        if key is not self._rto_timer:
            return  # superseded by an earlier timer
        self._rto_timer = None
        current = self._rto_key
        if self.closed or current is None:
            return
        if current is not key:
            # The deadline moved later since this timer was pushed.
            self._rto_timer = current
            self.sim.call_reserved(current, self._rto_fire, current)
            return
        if self._snd_una < self._snd_nxt:
            self._timeout()

    def _timeout(self) -> None:
        """Retransmission timeout: collapse and go back to snd_una."""
        self.timeouts += 1
        if self.config.metrics is not None:
            self.config.metrics.counter("transport_rto_total").inc()
        self.cc.on_loss("timeout")
        self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
        self._in_recovery = False
        self._dup_acks = 0
        self._rtt_probe = None
        self._snd_nxt = self._snd_una
        self._pump()

    def _update_rtt(self, ack: int) -> float | None:
        if self._rtt_probe is None:
            return None
        probe_end, sent_at = self._rtt_probe
        if ack < probe_end:
            return None
        sample = self.sim.now - sent_at
        self._rtt_probe = None
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(
            self.config.max_rto,
            max(self.config.min_rto, self._srtt + 4.0 * self._rttvar),
        )
        if self.config.metrics is not None:
            self.config.metrics.histogram("transport_rtt_seconds").record(sample)
        return sample

    def _handle_ack(self, info: AckInfo) -> None:
        if info.ece and self.config.ecn_enabled:
            # RFC 3168 semantics, simplified: react like a fast-retransmit
            # loss at most once per RTT.
            interval = self._srtt if self._srtt is not None else self._rto
            if self.sim.now - self._last_ecn_cut >= interval:
                self._last_ecn_cut = self.sim.now
                self.ecn_reductions += 1
                if self.config.metrics is not None:
                    self.config.metrics.counter(
                        "transport_ecn_reductions_total"
                    ).inc()
                self.cc.on_loss("dupack")
        ack = info.ack
        if ack > self._snd_una:
            bytes_acked = ack - self._snd_una
            self._snd_una = ack
            self._dup_acks = 0
            self._rto_backoff = 1.0
            sample = self._update_rtt(ack)
            if self._in_recovery and ack >= self._recover:
                self._in_recovery = False
            self.cc.on_ack(bytes_acked, sample)
            self._prune_boundaries(ack)
            self._pump()
        elif ack == self._snd_una and self.bytes_in_flight > 0:
            self._dup_acks += 1
            if (
                self._dup_acks == self.config.dupack_threshold
                and not self._in_recovery
            ):
                # Fast retransmit of the missing head segment.
                self._in_recovery = True
                self._recover = self._snd_nxt
                self.cc.on_loss("dupack")
                self._emit_segment(self._snd_una, fresh=False)
                self._arm_rto()

    def _prune_boundaries(self, ack: int) -> None:
        """Forget boundary bookkeeping for fully acknowledged messages."""
        while self._boundary_offsets and self._boundary_offsets[0] <= ack:
            end = self._boundary_offsets.pop(0)
            self._boundary_messages.pop(end, None)

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _handle_data(self, packet: Packet) -> None:
        info: SegmentInfo = packet.payload
        for end, message in info.boundaries:
            if end > self._rcv_nxt:
                self._pending_boundaries[end] = message
        seq, length = packet.seq, info.length
        if seq <= self._rcv_nxt < seq + length:
            self._rcv_nxt = seq + length
            # Merge any contiguous out-of-order data.
            while self._rcv_nxt in self._ooo:
                self._rcv_nxt += self._ooo.pop(self._rcv_nxt)
            self._deliver_ready()
        elif seq > self._rcv_nxt:
            existing = self._ooo.get(seq, 0)
            self._ooo[seq] = max(existing, length)
        # else: duplicate of already received data; just re-ACK.
        self._send_ack(ece=packet.ecn)

    def _deliver_ready(self) -> None:
        ready = sorted(
            end for end in self._pending_boundaries if end <= self._rcv_nxt
        )
        previous = None
        for end in ready:
            message = self._pending_boundaries.pop(end)
            self.messages_delivered += 1
            self.inbox.put((message, end))
            previous = end
        if previous is not None:
            self.bytes_delivered = self._rcv_nxt

    def _send_ack(self, ece: bool = False) -> None:
        packet = Packet(
            src=self.local,
            dst=self.remote,
            size=self.config.ack_bytes,
            flow_id=self.flow_id,
            kind="ack",
            tos=self.tos,
            payload=AckInfo(ack=self._rcv_nxt, ece=ece),
        )
        self.network.send(packet)

    # ------------------------------------------------------------------
    # Demux entry (called by the stack)
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        if packet.kind == "data":
            self._handle_data(packet)
        elif packet.kind == "ack":
            self._handle_ack(packet.payload)
        else:
            raise ValueError(f"{self.name}: unexpected packet kind {packet.kind!r}")

    def __repr__(self):
        return (
            f"<ConnectionEnd {self.name} {self.local}->{self.remote} "
            f"cc={self.cc_name} inflight={self.bytes_in_flight}>"
        )
