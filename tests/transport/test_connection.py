"""End-to-end transport tests over a simulated two-host network."""

import numpy as np
import pytest

from repro.net import FifoQdisc, LossyQdisc, Network, Tos
from repro.sim import Simulator
from repro.transport import ConnectionEnd, TransportConfig, TransportStack


def build_net(sim, rate_bps=8_000_000, delay=0.001, qdisc_a=None, config=None):
    """Two hosts, one link; returns (net, stack_a, stack_b)."""
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", rate_bps=rate_bps, delay=delay, qdisc_a=qdisc_a)
    config = config or TransportConfig()
    stack_a = TransportStack(sim, net, "a", "10.1.0.1", config=config)
    stack_b = TransportStack(sim, net, "b", "10.1.0.2", config=config)
    net.build_routes()
    return net, stack_a, stack_b


def start_echo_server(sim, stack, port=80):
    """Echo every received message back at the same size."""

    def on_accept(conn):
        def serve():
            while True:
                message, size = yield conn.receive()
                conn.send(("echo", message), size)

        sim.process(serve(), name="echo")

    stack.listen(port, on_accept)


def start_sink_server(sim, stack, received, port=80):
    def on_accept(conn):
        def serve():
            while True:
                message, size = yield conn.receive()
                received.append((sim.now, message, size))

        sim.process(serve(), name="sink")

    stack.listen(port, on_accept)


class TestHandshake:
    def test_established_after_one_rtt(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim, delay=0.005)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        # SYN + SYN-ACK = one RTT (2 x 5ms) plus tiny serialization.
        assert 0.010 <= sim.now < 0.012

    def test_connect_to_dead_port_fails(self):
        sim = Simulator()
        _, stack_a, _stack_b = build_net(sim)
        conn = stack_a.connect("10.1.0.2", 9999)
        with pytest.raises(ConnectionError):
            sim.run(until=conn.established)

    def test_accept_callback_runs(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        accepted = []
        stack_b.listen(80, accepted.append)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        assert len(accepted) == 1
        assert accepted[0].remote == "10.1.0.1"
        assert stack_b.connections_accepted == 1
        assert stack_a.connections_opened == 1

    def test_duplicate_listener_rejected(self):
        sim = Simulator()
        _, _stack_a, stack_b = build_net(sim)
        stack_b.listen(80, lambda conn: None)
        with pytest.raises(ValueError):
            stack_b.listen(80, lambda conn: None)

    def test_server_inherits_cc_and_tos_from_syn(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        accepted = []
        stack_b.listen(80, accepted.append)
        conn = stack_a.connect(
            "10.1.0.2", 80, tos=Tos.SCAVENGER, cc_name="ledbat"
        )
        sim.run(until=conn.established)
        assert accepted[0].cc_name == "ledbat"
        assert accepted[0].tos == Tos.SCAVENGER


class TestMessageDelivery:
    def test_small_message_round_trip(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        got = []

        def client(sim):
            yield conn.established
            conn.send("hello", 100)
            message, size = yield conn.receive()
            got.append((message, size, sim.now))

        sim.process(client(sim))
        sim.run()
        assert len(got) == 1
        assert got[0][0] == ("echo", "hello")

    def test_identity_of_message_objects_preserved(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        received = []
        start_sink_server(sim, stack_b, received)
        payload = {"unique": object()}
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send(payload, 5000)

        sim.process(client(sim))
        sim.run()
        assert received[0][1] is payload

    def test_messages_delivered_in_order(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            for i in range(20):
                conn.send(i, 3000)

        sim.process(client(sim))
        sim.run()
        assert [message for _, message, _ in received] == list(range(20))

    def test_large_transfer_saturates_link(self):
        sim = Simulator()
        # 8 Mbps = 1 MB/s; 500 KB should take just over 0.5 s.
        _, stack_a, stack_b = build_net(sim, rate_bps=8_000_000, delay=0.001)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 500_000)

        sim.process(client(sim))
        sim.run()
        assert len(received) == 1
        finish = received[0][0]
        assert 0.5 <= finish <= 0.65  # rate-bound plus handshake/headers

    def test_send_before_established_is_buffered(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)
        conn.send("early", 1000)  # no yield on established
        sim.run()
        assert [m for _, m, _ in received] == ["early"]

    def test_bidirectional_concurrent_transfer(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        got_at_a, got_at_b = [], []

        def on_accept(conn):
            def serve():
                message, _size = yield conn.receive()
                got_at_b.append(message)
                conn.send("reply-blob", 200_000)

            sim.process(serve())

        stack_b.listen(80, on_accept)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("req-blob", 200_000)
            message, _size = yield conn.receive()
            got_at_a.append(message)

        sim.process(client(sim))
        sim.run()
        assert got_at_b == ["req-blob"]
        assert got_at_a == ["reply-blob"]

    def test_send_on_closed_connection_raises(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send("x", 10)

    def test_zero_size_message_rejected(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        with pytest.raises(ValueError):
            conn.send("x", 0)


class TestLossRecovery:
    def test_transfer_completes_despite_tail_drops(self):
        sim = Simulator()
        # Tiny egress buffer at the sender: guaranteed drops under slow start.
        _, stack_a, stack_b = build_net(
            sim, rate_bps=8_000_000, qdisc_a=FifoQdisc(limit_bytes=6000)
        )
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 300_000)

        sim.process(client(sim))
        sim.run(until=60.0)
        assert [m for _, m, _ in received] == ["blob"]
        assert conn.retransmits > 0

    def test_fast_retransmit_engages(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(
            sim, rate_bps=8_000_000, qdisc_a=FifoQdisc(limit_bytes=20_000)
        )
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 400_000)

        sim.process(client(sim))
        sim.run(until=60.0)
        assert received, "transfer did not complete"
        assert conn.retransmits > 0

    def test_rtt_estimate_tracks_path(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim, delay=0.010)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 50_000)

        sim.process(client(sim))
        sim.run()
        assert conn.srtt is not None
        assert conn.srtt >= 0.020  # at least the two-way propagation delay
        assert conn.srtt < 0.080


class TestFairnessAndScavenging:
    def run_pair(self, cc_a, cc_b, size=400_000, rate=8_000_000):
        """Two flows from one host through the shared bottleneck; returns
        (finish_a, finish_b)."""
        sim = Simulator()
        net = Network(sim)
        net.add_host("src")
        net.add_host("dst")
        net.connect("src", "dst", rate_bps=rate, delay=0.002)
        config = TransportConfig()
        src1 = TransportStack(sim, net, "src", "10.1.0.1", config=config)
        src2 = TransportStack(sim, net, "src", "10.1.0.3", config=config)
        dst = TransportStack(sim, net, "dst", "10.1.0.2", config=config)
        net.build_routes()
        finishes = {}

        def on_accept(conn):
            def serve():
                message, _size = yield conn.receive()
                finishes[message] = sim.now

            sim.process(serve())

        dst.listen(80, on_accept)

        def client(sim, stack, label, cc):
            conn = stack.connect("10.1.0.2", 80, cc_name=cc)
            yield conn.established
            conn.send(label, size)

        sim.process(client(sim, src1, "a", cc_a))
        sim.process(client(sim, src2, "b", cc_b))
        sim.run(until=120.0)
        assert set(finishes) == {"a", "b"}, f"missing flows: {finishes}"
        return finishes["a"], finishes["b"]

    def test_reno_pair_roughly_fair(self):
        finish_a, finish_b = self.run_pair("reno", "reno")
        assert finish_a == pytest.approx(finish_b, rel=0.5)

    def test_ledbat_yields_to_reno(self):
        reno_vs_ledbat, _ = self.run_pair("reno", "ledbat")
        reno_vs_reno, _ = self.run_pair("reno", "reno")
        # Against a scavenger the foreground flow finishes markedly sooner.
        assert reno_vs_ledbat < reno_vs_reno * 0.8

    def test_tcplp_yields_to_reno(self):
        reno_vs_lp, _ = self.run_pair("reno", "tcplp")
        reno_vs_reno, _ = self.run_pair("reno", "reno")
        assert reno_vs_lp < reno_vs_reno * 0.85


def blackhole(net):
    """Drop every packet sent from now on (shadows ``Network.send``)."""
    net.send = lambda packet: False


def record_losses(sim, conn):
    """(instant, reason, backoff before the loss) for each ``on_loss``."""
    stamps = []
    on_loss = conn.cc.on_loss

    def spy(reason):
        stamps.append((sim.now, reason, conn._rto_backoff))
        on_loss(reason)

    conn.cc.on_loss = spy
    return stamps


def rto_entries(sim, conn):
    """The connection's ``_rto_fire`` timers on the kernel heap."""
    return [
        entry
        for _when, _seq, entry in sim._queue
        if getattr(entry, "fn", None) == conn._rto_fire
    ]


def per_arm_rto(monkeypatch):
    """Reinstate the reference RTO timer the single timer replaced:
    every arm pushes its own timer, and a timer acts only if the
    deadline it was armed for is still current."""

    def arm(self):
        if self._snd_una >= self._snd_nxt:
            self._rto_deadline = float("inf")
            return
        deadline = self.sim.now + self._rto * self._rto_backoff
        self._rto_deadline = deadline
        self.sim.call_at(deadline, fire, self, deadline)

    def fire(self, deadline):
        if self.closed or deadline != self._rto_deadline:
            return
        if self._snd_una < self._snd_nxt:
            self._timeout()

    monkeypatch.setattr(ConnectionEnd, "_arm_rto", arm)


def lossy_exchange(seed):
    """Four request/response clients over a lossy zero-delay link, where
    the RTO sits at its floor and timeouts of different connections
    fall on the same instant.  Returns every delivery and each client's
    loss counters."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")

    def lossy():
        stream = np.random.default_rng(int(rng.integers(1 << 30)))
        return LossyQdisc(FifoQdisc(limit_packets=50), 0.1, stream)

    net.connect("a", "b", rate_bps=20e6, delay=0.0,
                qdisc_a=lossy(), qdisc_b=lossy())
    stack_a = TransportStack(sim, net, "a", "10.1.0.1")
    stack_b = TransportStack(sim, net, "b", "10.1.0.2")
    net.build_routes()
    start_echo_server(sim, stack_b)
    log, conns = [], []
    for client in range(4):
        conn = stack_a.connect("10.1.0.2", 80)
        conns.append(conn)

        def run(conn=conn, client=client):
            yield conn.established
            for k in range(15):
                conn.send((client, k), int(rng.integers(200, 20_000)))
                yield sim.timeout(float(rng.choice([0.0, 0.001, 0.01])))

        def read(conn=conn, client=client):
            while True:
                message, size = yield conn.receive()
                log.append((sim.now, client, message, size))

        sim.process(run())
        sim.process(read())
    sim.run(until=10.0)
    counters = [(c.timeouts, c.retransmits, c._rto_backoff) for c in conns]
    return log, counters


class TestRetransmissionTimer:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lossy_exchange_matches_per_arm_timers(self, seed, monkeypatch):
        log, counters = lossy_exchange(seed)
        per_arm_rto(monkeypatch)
        reference_log, reference_counters = lossy_exchange(seed)
        assert sum(timeouts for timeouts, _, _ in counters) > 10
        assert counters == reference_counters
        assert log == reference_log

    def test_blackholed_path_times_out_on_schedule(self):
        sim = Simulator()
        net, stack_a, stack_b = build_net(sim, delay=0.001)
        stack_b.listen(80, lambda conn: None)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        assert sim.now == 0.00212
        blackhole(net)
        stamps = record_losses(sim, conn)
        conn.send("first", 3000)
        # A second send moves the deadline 5 ms later before it is due.
        sim.call_later(0.005, conn.send, "second", 3000)
        sim.run(until=2.0)
        # Exact instants: initial RTO 40 ms from the second send, then
        # doubling back-off (80, 160, 320, 640 ms).
        assert stamps == [
            (0.04712, "timeout", 1.0),
            (0.12712, "timeout", 2.0),
            (0.28712000000000004, "timeout", 4.0),
            (0.6071200000000001, "timeout", 8.0),
            (1.2471200000000002, "timeout", 16.0),
        ]
        assert conn.timeouts == 5
        assert conn._rto_backoff == 32.0

    def test_same_instant_timeouts_keep_arming_order(self):
        sim = Simulator()
        net, stack_a, stack_b = build_net(sim, delay=0.001)
        stack_b.listen(80, lambda conn: None)
        first = stack_a.connect("10.1.0.2", 80)
        second = stack_a.connect("10.1.0.2", 80)
        sim.run(until=sim.all_of([first.established, second.established]))
        blackhole(net)
        order = []
        for conn in (first, second):
            on_loss = conn.cc.on_loss

            def spy(reason, conn=conn, on_loss=on_loss):
                order.append((sim.now, conn.name))
                on_loss(reason)

            conn.cc.on_loss = spy
        sent_at = sim.now
        # Both deadlines fall on one instant; the first connection arms
        # before the second and then re-arms the same deadline after it.
        first.send("a", 1000)
        second.send("b", 1000)
        first.send("c", 1000)
        deadline = first._rto_deadline
        assert second._rto_deadline == deadline
        sim.run(until=sent_at + 0.05)
        due = sent_at + (deadline - sent_at)
        assert order[:2] == [(due, first.name), (due, second.name)]

    def test_rto_shrunk_by_rtt_sample_fires_at_earlier_deadline(self):
        sim = Simulator()
        net, stack_a, stack_b = build_net(sim, delay=0.001)
        stack_b.listen(80, lambda conn: None)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        initial_rto = conn._rto
        conn.send("probe", 1000)
        first_deadline = conn._rto_deadline
        while conn.bytes_in_flight:
            sim.step()
        assert conn._rto < initial_rto  # the RTT sample shrank it
        assert sim.peek() <= first_deadline  # the probe's timer is pending
        blackhole(net)
        stamps = record_losses(sim, conn)
        sent_at = sim.now
        conn.send("lost", 1000)
        deadline = sent_at + conn._rto
        sim.run(until=first_deadline + 0.001)
        assert deadline < first_deadline
        assert stamps[0] == (sent_at + (deadline - sent_at), "timeout", 1.0)

    def test_bulk_transfer_keeps_one_rto_timer_per_connection(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim, delay=0.001)
        accepted = []

        def on_accept(conn):
            accepted.append(conn)

            def serve():
                yield conn.receive()
                conn.send("reply-blob", 200_000)

            sim.process(serve())

        stack_b.listen(80, on_accept)
        conn = stack_a.connect("10.1.0.2", 80)
        conn.send("req-blob", 200_000)
        most = {}

        def sample():
            for end in [conn, *accepted]:
                entries = rto_entries(sim, end)
                live = [e for e in entries if e.args[0] is end._rto_timer]
                assert len(live) <= 1
                most[end.name] = max(most.get(end.name, 0), len(entries))
            if sim.peek() != float("inf"):
                sim.call_later(0.0005, sample)

        sim.call_later(0.0005, sample)
        sim.run()
        assert conn.bytes_delivered == accepted[0].bytes_delivered == 200_000
        # Stale timers no longer pile up: besides the live one, the heap
        # holds at most a timer superseded when the RTO shrank.
        assert len(most) == 2
        assert all(1 <= count <= 2 for count in most.values())
