"""Congestion-control plugin interface.

All quantities are in MSS-sized packets: ``cwnd`` is a float window in
packets, pacing rates are packets per second.  The sender owns loss
detection and recovery bookkeeping; controllers only react to the events
below.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


@dataclass(slots=True)
class AckSample:
    """What the sender learned from one cumulative ACK.

    The sample is consumed synchronously inside
    :meth:`CongestionControl.on_ack`; the sender's ACK path reuses
    one scratch instance across ACKs, so controllers must not retain a
    reference past the call (copy the fields out if needed).

    Attributes
    ----------
    newly_acked:
        Packets newly acknowledged by this ACK.
    rtt:
        Round-trip sample in seconds, or ``None`` when the sample is
        invalid (Karn's rule: the acked packet was retransmitted).
    delivery_rate:
        Delivery-rate sample in packets/second (BBR-style rate sampling),
        or ``None`` when the controller didn't request sampling.
    inflight:
        Sender's in-flight estimate *after* this ACK, in packets.
    now:
        Simulation time of the ACK.
    """

    newly_acked: int
    rtt: float | None
    delivery_rate: float | None
    inflight: float
    now: float


class CongestionControl(ABC):
    """Base class for congestion controllers.

    Subclasses maintain :attr:`cwnd` (in packets) and may expose a pacing
    rate.  The sender calls:

    * :meth:`on_ack` for each ACK advancing ``snd_una`` outside recovery,
    * :meth:`on_loss_event` once per fast-retransmit loss event,
    * :meth:`on_recovery_exit` when recovery completes,
    * :meth:`on_timeout` on a retransmission timeout.
    """

    #: Human-readable algorithm name; subclasses override.
    name = "base"

    #: Floor for the congestion window, in packets.
    MIN_CWND = 2.0

    #: Whether the sender should compute per-packet delivery-rate samples
    #: (costs a dict entry per in-flight packet; only BBR needs it).
    needs_rate_samples = False

    def __init__(self, *, initial_cwnd: float = 10.0) -> None:
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float("inf")

    @abstractmethod
    def on_ack(self, sample: AckSample) -> None:
        """React to an ACK that advanced the window (not in recovery)."""

    def on_loss_event(self, now: float, inflight: float) -> None:
        """A fast-retransmit loss event: cut ssthresh/cwnd (once per event).

        The reduction is based on ``cwnd`` at the time of the loss, as in
        Linux — using the post-loss-marking pipe would let one mass drop
        (e.g. a policer exhausting its bucket under a slow-start burst)
        collapse the window to its floor in a single event.
        """
        del now, inflight
        self.ssthresh = max(self.cwnd / 2.0, self.MIN_CWND)
        self.cwnd = self.ssthresh

    def on_recovery_exit(self, now: float) -> None:
        """Recovery completed; restore cwnd to ssthresh."""
        del now
        self.cwnd = max(self.ssthresh, self.MIN_CWND)

    def on_timeout(self, now: float, flight: float) -> None:
        """Retransmission timeout: collapse to one packet, halve ssthresh.

        ``flight`` is the RFC 5681 FlightSize (all outstanding data).
        """
        del now
        self.ssthresh = max(max(flight, self.cwnd) / 2.0, self.MIN_CWND)
        self.cwnd = 1.0

    def pacing_rate(self, now: float) -> float | None:
        """Packets/second pacing rate, or ``None`` for pure ACK clocking."""
        del now
        return None

    @property
    def in_slow_start(self) -> bool:
        """True while cwnd is below ssthresh."""
        return self.cwnd < self.ssthresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cwnd={self.cwnd:.2f})"


def make_cc(name: str, **kwargs: object) -> CongestionControl:
    """Instantiate a controller by name: reno/newreno, cubic, bbr, vegas."""
    from repro.cc.bbr import Bbr
    from repro.cc.cubic import Cubic
    from repro.cc.reno import NewReno
    from repro.cc.vegas import Vegas

    registry: dict[str, type[CongestionControl]] = {
        "reno": NewReno,
        "newreno": NewReno,
        "cubic": Cubic,
        "bbr": Bbr,
        "vegas": Vegas,
    }
    key = name.lower()
    if key not in registry:
        raise ValueError(f"unknown congestion control {name!r}; "
                         f"choose from {sorted(registry)}")
    return registry[key](**kwargs)  # type: ignore[arg-type]
