"""An infinite-bandwidth, fixed-delay pipe.

Used for per-flow propagation delays (the reproduction's stand-in for
``netem`` latency injection) and for the ACK return path, which in the
paper's testbed does not traverse the rate-limiting middlebox.

Delivery is **coalesced**: because the delay is constant, arrivals leave
in arrival order, so the pipe keeps one internal FIFO and at most one
outstanding simulator event, re-armed for the new head after each drain.
N in-flight packets cost 1 heap entry instead of N.

Byte-identity with the per-packet-event engine is preserved by sequence
reservation: every arrival claims a global insertion seq (exactly where
the old engine consumed one by scheduling), the armed event carries the
head packet's reserved seq, and the drain loop hands delivery back to
the heap whenever another event's (time, seq) would have interleaved —
so the global firing order is bit-for-bit the old engine's.
"""

from __future__ import annotations

from collections import deque

from repro.net.fastpath import drain_coalesced
from repro.net.packet import Packet
from repro.net.sink import PacketSink
from repro.sim.simulator import SimulationError, Simulator


class Pipe:
    """Delivers every packet to ``sink`` exactly ``delay`` seconds later."""

    def __init__(
        self, sim: Simulator, delay: float, sink: PacketSink, *, name: str = "pipe"
    ) -> None:
        if delay < 0:
            raise ValueError(f"pipe delay must be non-negative, got {delay!r}")
        self._sim = sim
        self._delay = delay
        self._sink = sink
        self.name = name
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        #: In-flight packets as (deliver_time, reserved_seq, packet);
        #: arrival order == delivery order (constant delay).
        self._pending: deque[tuple[float, int, Packet]] = deque()
        self._armed = False

    @property
    def delay(self) -> float:
        """One-way delay in seconds."""
        return self._delay

    @property
    def in_flight(self) -> int:
        """Packets currently traversing the pipe."""
        return len(self._pending)

    def receive(self, packet: Packet) -> None:
        """Accept ``packet``; it leaves ``delay`` seconds from now.

        The clock read and the seq reservation (``reserve_seq``) are
        inlined: identical bookkeeping, fewer hops on the per-packet
        path.
        """
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        if self._delay > 0:
            sim = self._sim
            time = sim._now + self._delay
            pending = self._pending
            if pending and time < pending[-1][0]:
                raise SimulationError(
                    f"pipe {self.name!r}: non-monotone delivery time "
                    f"{time!r} after {pending[-1][0]!r} — the coalesced "
                    "FIFO assumes arrival order == delivery order"
                )
            seq = sim._seq
            sim._seq = seq + 1
            pending.append((time, seq, packet))
            if not self._armed:
                self._armed = True
                sim.call_at_reserved(time, seq, self._deliver)
        else:
            self._sink.receive(packet)

    def _deliver(self) -> None:
        """Drain the FIFO (see :func:`repro.net.fastpath.drain_coalesced`)."""
        if drain_coalesced(self._sim, self._pending, self._sink, self._deliver):
            self._armed = False
