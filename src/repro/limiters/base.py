"""Common base class for all rate-limiting mechanisms."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.churn import PolicyUpdate, UpdateRejected
from repro.limiters.costs import CostMeter
from repro.net.packet import Packet
from repro.net.sink import PacketSink
from repro.sim.simulator import Simulator


@dataclass
class LimiterStats:
    """Arrival/forward/drop accounting for one limiter."""

    arrived_packets: int = 0
    arrived_bytes: int = 0
    forwarded_packets: int = 0
    forwarded_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    per_queue_drops: dict[int, int] = field(default_factory=dict)

    @property
    def drop_rate(self) -> float:
        """Fraction of arrived packets dropped (0 when nothing arrived)."""
        if self.arrived_packets == 0:
            return 0.0
        return self.dropped_packets / self.arrived_packets


class RateLimiter(ABC):
    """A rate-enforcement element sitting in the forwarding path.

    Subclasses implement :meth:`_on_packet` and either forward the packet
    immediately (policers: :meth:`_forward`), drop it (:meth:`_drop`), or
    buffer it for later release (the shaper, which calls :meth:`_forward`
    from its dequeue timer).

    The downstream hop is attached with :meth:`connect` after construction
    so topology wiring order doesn't matter.
    """

    def __init__(self, sim: Simulator, *, name: str) -> None:
        self._sim = sim
        self.name = name
        self._downstream: PacketSink | None = None
        self.stats = LimiterStats()
        self.cost = CostMeter()
        validator = getattr(sim, "validator", None)
        if validator is not None:
            # The checker wraps instance-level bound methods (receive and,
            # for BC-PQP, the window sweep) and defers all introspection
            # to call time — subclass attributes don't exist yet here.
            validator.attach_limiter(self)

    def connect(self, downstream: PacketSink) -> None:
        """Attach the next hop packets are forwarded to."""
        self._downstream = downstream

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._sim.now

    def apply_update(self, update: PolicyUpdate) -> None:
        """Atomically apply a live reconfiguration (policy churn).

        Validation runs first and touches nothing: an invalid update
        raises :class:`~repro.churn.UpdateRejected` with the limiter's
        state byte-identical to before the call — the lazy drain is not
        even settled.  A valid update commits in full at the current
        simulation time and starts a new mutation epoch.  An all-``None``
        update is an accepted no-op that changes nothing, so applying it
        any number of times leaves the run bit-identical.
        """
        commit = self._stage_update(update)
        if commit is None:
            return
        commit()
        self._sim.reconfigurations += 1

    def _stage_update(self, update: PolicyUpdate) -> Callable[[], None] | None:
        """Validate ``update``; return the commit thunk (``None`` = no-op).

        Must be *pure*: subclasses may read any state but mutate nothing
        and settle nothing — rejection has to leave the limiter
        byte-identical.  The base limiter supports only the no-op.
        """
        if update.is_noop:
            return None
        raise UpdateRejected(
            self.name,
            f"{type(self).__name__} does not support live reconfiguration",
        )

    def receive(self, packet: Packet) -> None:
        """PacketSink entry point: account the arrival then decide."""
        stats = self.stats
        stats.arrived_packets += 1
        stats.arrived_bytes += packet.size
        self._on_packet(packet)

    @abstractmethod
    def _on_packet(self, packet: Packet) -> None:
        """Decide the packet's fate (forward / drop / buffer)."""

    def _forward(self, packet: Packet) -> None:
        if self._downstream is None:
            raise RuntimeError(f"{self.name}: no downstream connected")
        self.stats.forwarded_packets += 1
        self.stats.forwarded_bytes += packet.size
        self._downstream.receive(packet)

    def _drop(self, packet: Packet, queue: int = 0) -> None:
        self.stats.dropped_packets += 1
        self.stats.dropped_bytes += packet.size
        drops = self.stats.per_queue_drops
        drops[queue] = drops.get(queue, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"fwd={s.forwarded_packets}, drop={s.dropped_packets})"
        )
