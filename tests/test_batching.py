"""Coalesced delivery: drain limits, ordering and the packet pools.

The drain limit (``Simulator(batch_limit=K)``) is *bookkeeping*, not a
semantic unit: delivering several packets of a pipe/link FIFO from one
drain event must produce exactly the global event interleaving that one
heap event per packet (``K = 1``) produces.  These tests drive randomized
workloads of packet arrivals and competing timer events through a
:class:`~repro.net.pipe.Pipe` and a :class:`~repro.net.link.Link` under
every interesting drain limit (1, tiny caps that hand back to the heap
at awkward places, a drawn K, and the unbounded default) and require the
observed delivery/timer log to be *identical* across all of them.
"""

from __future__ import annotations

import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.impair import JitterPipe
from repro.net.link import Link
from repro.net.packet import FlowId, Packet
from repro.net.pipe import Pipe
from repro.sim.simulator import SimulationError, Simulator

pytestmark = pytest.mark.batch

#: Fixed drain limits under test besides the reference ``1``: a cap of 2
#: splits every burst into several drains, ``None`` is unbounded.  Each
#: property also draws one more cap K.
BATCH_LIMITS = (1, 2, None)

FLOW = FlowId(aggregate=0, slot=0)


class _Recorder:
    """Terminal sink logging each delivery as ("pkt", time, seq)."""

    def __init__(self, sim: Simulator, log: list) -> None:
        self._sim = sim
        self._log = log

    def receive(self, packet: Packet) -> None:
        self._log.append(("pkt", self._sim.now, packet.seq))


def _run_scenario(batch, arrivals, timers, delay, *, link=False):
    """One simulation: ``arrivals`` are (time, count) packet bursts into a
    pipe (or a link serializing at 1 packet/ms with propagation
    ``delay``), ``timers`` are competing pure events; returns the merged
    log."""
    sim = Simulator(batch_limit=batch)
    log: list = []
    if link:
        pipe = Link(sim, rate=1000 * 1500.0, delay=delay, sink=_Recorder(sim, log))
    else:
        pipe = Pipe(sim, delay, _Recorder(sim, log))
    seq = 0
    for time, count in arrivals:
        # Unique seq per packet, stable across batch limits.
        burst = [seq + i for i in range(count)]
        seq += count

        def fire(t=time, burst=tuple(burst)):
            for s in burst:
                pipe.receive(Packet.data(FLOW, seq=s, sent_at=t))

        sim.call_at(time, fire)
    for time in timers:
        sim.call_at(time, lambda t=time: log.append(("timer", t)))
    sim.run()
    return log


@given(
    arrivals=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=8,
    ),
    timers=st.lists(
        st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
        max_size=6,
    ),
    delay=st.sampled_from((0.0, 0.001, 0.0042)),
    cap=st.integers(min_value=3, max_value=12),
    link=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_batch_boundaries_preserve_global_event_order(
    arrivals, timers, delay, cap, link
):
    """Property: for random bursts of pipe (or link) arrivals interleaved
    with competing timer events — including exact time ties, where
    ordering falls to reserved seqs — every drain limit yields the
    identical globally-ordered log."""
    reference = _run_scenario(1, arrivals, timers, delay, link=link)
    for batch in BATCH_LIMITS[1:] + (cap,):
        assert (
            _run_scenario(batch, arrivals, timers, delay, link=link)
            == reference
        )


def test_drain_limit_one_fires_every_packet_as_its_own_event():
    """``batch_limit=1``: each delivery is a heap event of its own — no
    inline same-instant delivery, no inline clock advance."""
    sim = Simulator(batch_limit=1)
    log: list = []
    pipe = Pipe(sim, 0.001, _Recorder(sim, log))
    for i in range(10):
        pipe.receive(Packet.data(FLOW, seq=i, sent_at=0.0))
    sim.run()
    assert [entry[2] for entry in log] == list(range(10))
    assert sim.events_processed == 10
    assert sim.batched_deliveries == 0
    assert sim.inline_advances == 0


@pytest.mark.parametrize("limit, events", [(1, 10), (3, 4), (None, 1)])
def test_jitter_pipe_honours_the_drain_limit(limit, events):
    """The jittered delay stage obeys the same drain limit: a
    same-instant burst costs ceil(10 / K) drain events, and limit 1
    makes every packet its own heap event."""
    sim = Simulator(batch_limit=limit)
    seen: list[int] = []

    class SeqRecorder:
        def receive(self, packet: Packet) -> None:
            seen.append(packet.seq)

    pipe = JitterPipe(sim, 0.001, SeqRecorder(), rng=Random(1))
    for i in range(10):
        pipe.receive(Packet.data(FLOW, seq=i, sent_at=0.0))
    sim.run()
    assert seen == list(range(10))
    assert sim.events_processed == events


def test_unbounded_drain_delivers_same_instant_burst_from_one_event():
    """A same-instant burst behind a constant-delay pipe is delivered one
    packet at a time, all from one drain event, under the default
    unbounded limit."""
    sim = Simulator()
    seen: list[int] = []

    class SeqRecorder:
        def receive(self, packet: Packet) -> None:
            seen.append(packet.seq)

    pipe = Pipe(sim, 0.001, SeqRecorder())
    for i in range(10):
        pipe.receive(Packet.data(FLOW, seq=i, sent_at=0.0))
    sim.run()
    assert seen == list(range(10))
    assert sim.events_processed == 1
    assert sim.batched_deliveries == 9


@pytest.mark.parametrize("limit", [2.5, True, False, "3", 0, -1, 1.0])
def test_malformed_drain_limit_is_rejected_with_its_value(limit):
    with pytest.raises(SimulationError, match=re.escape(repr(limit))):
        Simulator(batch_limit=limit)


class TestDataPool:
    """DATA-packet free list: recycling and reissue invariants."""

    def setup_method(self) -> None:
        Packet._data_pool.clear()

    def teardown_method(self) -> None:
        Packet._data_pool.clear()

    def test_recycle_data_pools_only_data_and_latches(self):
        data = Packet.data(FLOW, seq=1, sent_at=0.5)
        ack = Packet.ack(FLOW, 2, 0.6, echo_ts=0.5, echo_retransmit=False)
        for packet in (data, ack, data):
            Packet.recycle_data(packet)
        assert Packet._data_pool == [data]
        assert data._in_pool and not ack._in_pool

    def test_reissue_reinitializes_data_fields_and_bumps_generation(self):
        data = Packet.data(
            FLOW, seq=7, sent_at=0.5, retransmit=True, ecn_capable=True
        )
        data.ce = True  # mid-flight AQM mark must not survive reissue
        old_uid, old_gen = data.uid, data.generation
        Packet.recycle_data(data)
        fresh = Packet.data(FlowId(1, 2), seq=9, sent_at=1.25)
        assert fresh is data
        assert fresh.generation == old_gen + 1
        assert fresh.uid != old_uid
        assert (fresh.flow, fresh.seq, fresh.sent_at) == (FlowId(1, 2), 9, 1.25)
        assert not (fresh.retransmit or fresh.ecn_capable or fresh.ce)
        assert not fresh._in_pool

    def test_pool_is_bounded(self):
        packets = [
            Packet.data(FLOW, seq=i, sent_at=0.0)
            for i in range(Packet._DATA_POOL_MAX + 10)
        ]
        for packet in packets:
            Packet.recycle_data(packet)
        assert len(Packet._data_pool) == Packet._DATA_POOL_MAX
