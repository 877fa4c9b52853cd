"""The rate-enforcer middlebox: routes traffic aggregates to limiters."""

from __future__ import annotations

from repro.limiters.base import RateLimiter
from repro.net.packet import Packet
from repro.sim.simulator import Simulator


class Middlebox:
    """Hosts one rate limiter per traffic aggregate.

    Mirrors the paper's DPDK middlebox: each arriving packet is matched to
    its aggregate (e.g. subscriber) and handed to that aggregate's limiter.
    Packets of unknown aggregates are forwarded unmodified (the testbed
    only polices configured subscribers).
    """

    def __init__(self, sim: Simulator, *, name: str = "middlebox") -> None:
        self._sim = sim
        self.name = name
        self._limiters: dict[int, RateLimiter] = {}
        self._default = None
        self.unmatched_packets = 0
        validator = getattr(sim, "validator", None)
        if validator is not None:
            validator.attach_middlebox(self)

    def add_aggregate(self, aggregate: int, limiter: RateLimiter) -> None:
        """Register ``limiter`` for ``aggregate``; replacing is an error."""
        if aggregate in self._limiters:
            raise ValueError(f"aggregate {aggregate} already registered")
        self._limiters[aggregate] = limiter

    def limiter_for(self, aggregate: int) -> RateLimiter:
        """The limiter handling ``aggregate`` (KeyError if unknown)."""
        return self._limiters[aggregate]

    @property
    def aggregates(self) -> list[int]:
        """Registered aggregate ids, sorted."""
        return sorted(self._limiters)

    def receive(self, packet: Packet) -> None:
        limiter = self._limiters.get(packet.flow.aggregate)
        if limiter is None:
            self.unmatched_packets += 1
            return
        limiter.receive(packet)

    def total_cycles(self) -> float:
        """Modeled CPU cycles summed over all hosted limiters."""
        return sum(lim.cost.cycles() for lim in self._limiters.values())
