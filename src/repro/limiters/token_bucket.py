"""Token-bucket traffic policer (§2.2)."""

from __future__ import annotations

from typing import Callable

from repro.churn import PolicyUpdate, UpdateRejected
from repro.limiters.base import RateLimiter
from repro.limiters.costs import Op
from repro.net.packet import Packet
from repro.sim.simulator import Simulator


class TokenBucketPolicer(RateLimiter):
    """A classic TBF: tokens accrue at ``rate`` into a bucket of
    ``bucket_bytes``; a packet passes iff it can consume its size in tokens.

    Token generation is batched lazily on arrival (the efficiency trick
    §6.2 credits policers with): no timers, just two counter updates per
    packet.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        rate: float,
        bucket_bytes: float,
        initially_full: bool = True,
        name: str = "policer",
    ) -> None:
        super().__init__(sim, name=name)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if bucket_bytes <= 0:
            raise ValueError(f"bucket must be positive, got {bucket_bytes!r}")
        self._rate = rate
        self._bucket = float(bucket_bytes)
        self._tokens = float(bucket_bytes) if initially_full else 0.0
        self._last_refill = sim.now

    @property
    def rate(self) -> float:
        """Enforced rate in bytes/second."""
        return self._rate

    @property
    def bucket_bytes(self) -> float:
        """Bucket capacity in bytes."""
        return self._bucket

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the current time)."""
        self._refill()
        return self._tokens

    def _stage_update(self, update: PolicyUpdate) -> Callable[[], None] | None:
        """A token bucket can change rate and bucket size, nothing else."""
        if update.is_noop:
            return None
        if (
            update.policy is not None
            or update.weights is not None
            or update.priorities is not None
        ):
            raise UpdateRejected(
                self.name, "a token-bucket policer has no sharing policy"
            )
        rate = update.rate
        if rate is not None and not rate > 0:
            raise UpdateRejected(
                self.name, f"rate must be positive, got {rate!r}"
            )
        bucket: float | None = None
        caps = update.capacities
        if caps is not None:
            if not isinstance(caps, (int, float)):
                if len(caps) != 1:
                    raise UpdateRejected(
                        self.name,
                        f"a policer has one bucket, got {len(caps)} capacities",
                    )
                caps = caps[0]
            bucket = float(caps)
            if not bucket > 0:
                raise UpdateRejected(
                    self.name, f"bucket must be positive, got {bucket!r}"
                )

        def commit() -> None:
            # Settle accrual at the old rate up to the mutation instant,
            # then switch; a shrunk bucket clamps stored tokens.
            self._refill()
            if rate is not None:
                self._rate = rate
            if bucket is not None:
                self._bucket = bucket
                if self._tokens > bucket:
                    self._tokens = bucket

        return commit

    def _refill(self) -> None:
        now = self._sim.now
        if now > self._last_refill:
            self._tokens = min(
                self._bucket, self._tokens + self._rate * (now - self._last_refill)
            )
            self._last_refill = now

    def _on_packet(self, packet: Packet) -> None:
        self._refill()
        # Finding this aggregate's bucket is a flow-table lookup (every
        # scheme pays it), then refill + compare + decrement are a handful
        # of cache-hot ALU ops.
        self.cost.charge(Op.MAP, 1)
        self.cost.charge(Op.ALU, 3)
        if self._tokens >= packet.size:
            self._tokens -= packet.size
            self._forward(packet)
        else:
            self._drop(packet)
