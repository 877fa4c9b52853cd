"""A serializing link with propagation delay and a drop-tail buffer."""

from __future__ import annotations

from collections import deque

from repro.net.fastpath import drain_coalesced
from repro.net.packet import Packet
from repro.net.sink import PacketSink
from repro.sim.simulator import SimulationError, Simulator


class Link:
    """A point-to-point link.

    Packets are serialized one at a time at ``rate`` bytes/second, then
    delivered to ``sink`` after ``delay`` seconds of propagation.  While the
    transmitter is busy, arrivals wait in a drop-tail buffer of
    ``buffer_bytes`` (``None`` = unbounded, the default, used for fast
    "infrastructure" hops that should never be the bottleneck).

    This is the element used to model secondary bottlenecks (e.g. the 8.5
    Mbps RAN hop in Figure 3).
    """

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        delay: float,
        sink: PacketSink,
        *,
        buffer_bytes: float | None = None,
        name: str = "link",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"link rate must be positive, got {rate!r}")
        if delay < 0:
            raise ValueError(f"link delay must be non-negative, got {delay!r}")
        self._sim = sim
        self._rate = rate
        self._delay = delay
        self._sink = sink
        self._buffer_limit = buffer_bytes
        self.name = name

        self._queue: deque[Packet] = deque()
        self._queued_bytes = 0
        self._busy = False
        # Coalesced propagation FIFO (same scheme as Pipe: constant delay
        # + in-order exit means N in-flight packets need only 1 heap
        # entry, with per-packet reserved seqs pinning the old engine's
        # exact firing order).
        self._prop: deque[tuple[float, int, Packet]] = deque()
        self._prop_armed = False

        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    @property
    def rate(self) -> float:
        """Serialization rate in bytes/second."""
        return self._rate

    @property
    def delay(self) -> float:
        """One-way propagation delay in seconds."""
        return self._delay

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting (not counting the packet in service)."""
        return self._queued_bytes

    def receive(self, packet: Packet) -> None:
        """Accept a packet: transmit now, queue, or drop."""
        if not self._busy:
            self._transmit(packet)
            return
        if (
            self._buffer_limit is not None
            and self._queued_bytes + packet.size > self._buffer_limit
        ):
            self.dropped_packets += 1
            self.dropped_bytes += packet.size
            # Drop-tail is a terminal consumer: the sender keeps only
            # scalar bookkeeping, never the packet object.
            Packet.recycle(packet)
            return
        self._queue.append(packet)
        self._queued_bytes += packet.size

    def _transmit(self, packet: Packet) -> None:
        self._busy = True
        tx_time = packet.size / self._rate
        # Serialization completions are strictly sequential and never
        # cancelled, so they ride the pooled fire-and-forget path.
        self._sim.call_after(tx_time, self._on_tx_done, packet)

    def _on_tx_done(self, packet: Packet) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        # Propagation: the packet pops out of the far end after `delay`.
        if self._delay > 0:
            sim = self._sim
            time = sim.now + self._delay
            prop = self._prop
            if prop and time < prop[-1][0]:
                raise SimulationError(
                    f"link {self.name!r}: non-monotone delivery time "
                    f"{time!r} after {prop[-1][0]!r} — the coalesced "
                    "FIFO assumes serialization order == delivery order"
                )
            seq = sim.reserve_seq()
            prop.append((time, seq, packet))
            if not self._prop_armed:
                self._prop_armed = True
                sim.call_at_reserved(time, seq, self._deliver)
        else:
            self._sink.receive(packet)
        if self._queue:
            nxt = self._queue.popleft()
            self._queued_bytes -= nxt.size
            self._transmit(nxt)
        else:
            self._busy = False

    def _deliver(self) -> None:
        """Drain the propagation FIFO (see
        :func:`repro.net.fastpath.drain_coalesced`)."""
        if drain_coalesced(self._sim, self._prop, self._sink, self._deliver):
            self._prop_armed = False
