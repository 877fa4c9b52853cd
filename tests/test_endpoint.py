"""Tests for the TCP sender/receiver machinery.

A controllable lossy gate between sender and receiver lets each test drop
exactly the packets it wants, exercising SACK recovery, RACK re-marking,
TLP probes and the RTO backstop deterministically.
"""

import pytest

from repro.cc.base import CongestionControl
from repro.cc.endpoint import FlowDemux, TcpReceiver, TcpSender
from repro.cc.reno import NewReno
from repro.net.packet import FlowId, Packet
from repro.net.pipe import Pipe
from repro.sim.simulator import Simulator

FLOW = FlowId(0, 0)


class FixedWindow(CongestionControl):
    """A controller with a constant window — isolates sender mechanics."""

    name = "fixed"

    def on_ack(self, sample):
        pass


class LossyGate:
    """Forwards packets through a delay pipe, dropping selected seqs once."""

    def __init__(self, sim, delay, sink):
        self._pipe = Pipe(sim, delay, sink)
        self.drop_once: set[int] = set()
        self.drop_all = False
        self.forwarded: list[int] = []
        self.dropped: list[int] = []

    def receive(self, packet: Packet) -> None:
        if self.drop_all or packet.seq in self.drop_once:
            self.drop_once.discard(packet.seq)
            self.dropped.append(packet.seq)
            return
        self.forwarded.append(packet.seq)
        self._pipe.receive(packet)


def make_connection(sim, *, cc=None, total=None, rtt=0.1):
    """sender -> gate -> receiver -> pipe -> sender, RTT = rtt."""
    parts = {}
    fwd_sink = lambda p: parts["receiver"].receive(p)  # noqa: E731

    class _Sink:
        def receive(self, p):
            fwd_sink(p)

    gate = LossyGate(sim, rtt / 2, _Sink())
    sender = TcpSender(sim, FLOW, cc or FixedWindow(initial_cwnd=10),
                       gate, total_packets=total)
    reverse = Pipe(sim, rtt / 2, sender)
    receiver = TcpReceiver(sim, reverse)
    parts["receiver"] = receiver
    return sender, gate, receiver


class TestBasicTransfer:
    def test_finite_flow_completes(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(sim, total=50)
        sim.run(until=10.0)
        assert sender.done
        assert receiver.rcv_nxt == 50
        assert sender.retransmits == 0

    def test_completion_callback(self):
        sim = Simulator()
        done = []
        cc = FixedWindow(initial_cwnd=10)
        gate_sink = {}

        class _S:
            def receive(self, p):
                gate_sink["r"].receive(p)

        gate = LossyGate(sim, 0.05, _S())
        sender = TcpSender(sim, FLOW, cc, gate, total_packets=20,
                           on_complete=lambda s, t: done.append(t))
        reverse = Pipe(sim, 0.05, sender)
        gate_sink["r"] = TcpReceiver(sim, reverse)
        sim.run(until=10.0)
        assert len(done) == 1 and done[0] == sender.completed_at

    def test_window_limits_inflight(self):
        sim = Simulator()
        sender, gate, _ = make_connection(sim, cc=FixedWindow(initial_cwnd=5))
        sim.run(until=0.049)  # before first ACK returns
        assert sender.snd_nxt == 5

    def test_srtt_estimated(self):
        sim = Simulator()
        sender, _, _ = make_connection(sim, total=20, rtt=0.08)
        sim.run(until=5.0)
        assert sender.srtt == pytest.approx(0.08, rel=0.05)

    def test_start_time_respected(self):
        sim = Simulator()
        gate_sink = {}

        class _S:
            def receive(self, p):
                gate_sink["r"].receive(p)

        gate = LossyGate(sim, 0.01, _S())
        sender = TcpSender(sim, FLOW, FixedWindow(), gate,
                           total_packets=5, start_time=2.0)
        gate_sink["r"] = TcpReceiver(sim, Pipe(sim, 0.01, sender))
        sim.run(until=1.9)
        assert sender.packets_sent == 0
        sim.run(until=5.0)
        assert sender.done


class TestSackRecovery:
    def test_single_loss_recovered_without_rto(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(sim, total=100)
        gate.drop_once.add(20)
        sim.run(until=20.0)
        assert sender.done
        assert sender.timeouts == 0
        assert sender.retransmits >= 1
        assert receiver.rcv_nxt == 100

    def test_burst_loss_recovered_without_rto(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=40)
        sender, gate, receiver = make_connection(sim, cc=cc, total=300)
        gate.drop_once.update(range(50, 80))
        sim.run(until=30.0)
        assert sender.done
        assert sender.timeouts == 0
        assert receiver.rcv_nxt == 300

    def test_loss_event_counted_once_per_episode(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=30)
        sender, gate, _ = make_connection(sim, cc=cc, total=200)
        gate.drop_once.update(range(40, 50))
        sim.run(until=30.0)
        assert sender.loss_events == 1

    def test_lost_retransmission_recovered(self):
        """A retransmit that is dropped again is re-detected (RACK)."""
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=20)
        sender, gate, receiver = make_connection(sim, cc=cc, total=150)
        # Drop seq 30 twice: the gate counts its arrivals and drops the
        # original and the first retransmission.
        gate.drop_once.add(30)
        original_receive = gate.receive
        state = {"arrivals": 0, "dropped_retx": False}

        def counting_receive(packet):
            if packet.seq == 30:
                state["arrivals"] += 1
                if state["arrivals"] == 2 and packet.retransmit:
                    state["dropped_retx"] = True
                    gate.drop_once.add(30)
            original_receive(packet)

        gate.receive = counting_receive
        sim.run(until=30.0)
        assert sender.done
        assert state["dropped_retx"]
        assert gate.dropped.count(30) == 2
        assert receiver.rcv_nxt == 150

    def test_inflight_accounts_sacked_and_lost(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=10)
        sender, gate, _ = make_connection(sim, cc=cc, total=100)
        gate.drop_once.update({10, 11})
        sim.run(until=30.0)
        assert sender.done
        assert sender.inflight == 0


class TestTailLossProbe:
    def test_tail_loss_recovered_by_probe_not_rto(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=10)
        sender, gate, receiver = make_connection(sim, cc=cc, total=50)
        # Drop the last 3 packets of the flow: no later SACKs, so only a
        # probe (or an RTO) can recover them.
        gate.drop_once.update({47, 48, 49})
        sim.run(until=30.0)
        assert sender.done
        assert sender.tlp_probes >= 1
        assert sender.timeouts == 0

    def test_whole_flight_loss_survives(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=10)
        sender, gate, receiver = make_connection(sim, cc=cc, total=80)
        gate.drop_once.update(range(20, 30))  # a full window at the time
        sim.run(until=30.0)
        assert sender.done
        assert receiver.rcv_nxt == 80


class TestRtoBackstop:
    def test_blackout_triggers_rto_and_recovers(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(sim, total=60)
        sim.run(until=0.3)
        gate.drop_all = True
        sim.run(until=1.5)  # everything (incl. probes) is lost
        gate.drop_all = False
        sim.run(until=30.0)
        assert sender.timeouts >= 1
        assert sender.done
        assert receiver.rcv_nxt == 60

    def test_rto_backs_off_exponentially(self):
        sim = Simulator()
        sender, gate, _ = make_connection(sim, total=60)
        sim.run(until=0.3)
        base = sender.rto
        gate.drop_all = True
        sim.run(until=4.0)
        assert sender.rto >= 2 * base
        assert sender.timeouts >= 2


class TestRenoIntegration:
    def test_reno_flow_over_lossless_path(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(
            sim, cc=NewReno(initial_cwnd=10), total=400, rtt=0.05)
        sim.run(until=30.0)
        assert sender.done
        assert sender.retransmits == 0
        # Slow start should have grown the window well beyond the initial.
        assert sender.cc.cwnd > 10


class TestReceiver:
    def ack_collector(self, sim):
        acks = []

        class _Sink:
            def receive(self, p):
                acks.append(p)

        return TcpReceiver(sim, _Sink()), acks

    def test_cumulative_ack_advances(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        for seq in range(3):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert acks[-1].ack_next == 3

    def test_out_of_order_generates_sack(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 0, 0.0))
        recv.receive(Packet.data(FLOW, 2, 0.0))
        assert acks[-1].ack_next == 1
        assert acks[-1].sack == ((2, 3),)

    def test_hole_fill_drains_ooo(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        for seq in (0, 2, 3, 4, 1):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert acks[-1].ack_next == 5
        assert acks[-1].sack == ()

    def test_sack_triggering_block_first(self):
        """RFC 2018: the first block contains the triggering segment."""
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 5, 0.0))
        recv.receive(Packet.data(FLOW, 2, 0.0))
        assert acks[-1].sack[0] == (2, 3)
        recv.receive(Packet.data(FLOW, 6, 0.0))
        assert acks[-1].sack[0] == (5, 7)

    def test_range_merging(self):
        sim = Simulator()
        recv, _ = self.ack_collector(sim)
        for seq in (5, 7, 6):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert recv.sack_ranges == ((5, 8),)

    def test_duplicate_counted(self):
        sim = Simulator()
        recv, _ = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 0, 0.0))
        recv.receive(Packet.data(FLOW, 0, 0.0))
        assert recv.duplicates == 1

    def test_duplicate_inside_ooo_range(self):
        sim = Simulator()
        recv, _ = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 5, 0.0))
        recv.receive(Packet.data(FLOW, 5, 0.0))
        assert recv.duplicates == 1
        assert recv.sack_ranges == ((5, 6),)

    def test_max_three_sack_blocks(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        for seq in (2, 4, 6, 8, 10):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert len(acks[-1].sack) == 3


class TestFlowDemux:
    def test_routes_by_flow(self):
        demux = FlowDemux()
        got = []

        class _Sink:
            def __init__(self, tag):
                self.tag = tag

            def receive(self, p):
                got.append(self.tag)

        demux.register(FlowId(0, 0), _Sink("a"))
        demux.register(FlowId(0, 1), _Sink("b"))
        demux.receive(Packet.data(FlowId(0, 1), 0, 0.0))
        assert got == ["b"]

    def test_unroutable_counted(self):
        demux = FlowDemux()
        demux.receive(Packet.data(FlowId(9, 9), 0, 0.0))
        assert demux.unroutable == 1

    def test_unregister(self):
        demux = FlowDemux()
        demux.register(FLOW, None)  # type: ignore[arg-type]
        demux.unregister(FLOW)
        demux.receive(Packet.data(FLOW, 0, 0.0))
        assert demux.unroutable == 1
