"""Packet and flow-identity types.

Data packets carry one MSS of payload; sequence numbers count packets (not
bytes), which matches the paper's MSS-granularity analysis and keeps TCP
bookkeeping simple.  ACKs are separate 40-byte packets carrying a cumulative
``ack_next`` (the next packet number the receiver expects).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

from repro.units import ACK_SIZE, MSS


class PacketKind(Enum):
    """Whether a packet carries data or a pure acknowledgement."""

    DATA = "data"
    ACK = "ack"


@dataclass(frozen=True, slots=True)
class FlowId:
    """Identity of one transport flow.

    ``aggregate`` names the rate-limited traffic aggregate (e.g. one ISP
    subscriber); ``slot`` is a stable index within the aggregate used for
    queue classification (an on-off flow that restarts keeps its slot);
    ``incarnation`` distinguishes successive flows in the same slot.
    """

    aggregate: int
    slot: int
    incarnation: int = 0
    #: Cached hash — flow ids key every per-packet dict lookup
    #: (classifier, demux, middlebox), so the tuple-hash is paid once at
    #: construction instead of per lookup.  Same formula as the
    #: dataclass-generated hash (compare fields only), so dict iteration
    #: orders are unchanged.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.aggregate, self.slot, self.incarnation))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"agg{self.aggregate}.s{self.slot}.i{self.incarnation}"


_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One simulated packet.

    Attributes
    ----------
    flow:
        Owning flow identity.
    kind:
        DATA or ACK.
    seq:
        For DATA: packet number within the flow.  For ACK: unused (0).
    size:
        Wire size in bytes (MSS for data, 40 for ACKs).
    sent_at:
        Time the packet was (last) transmitted by the sender; echoed back in
        ACKs for RTT sampling.
    ack_next:
        For ACK packets: cumulative next-expected packet number.
    echo_ts:
        For ACK packets: ``sent_at`` of the data packet that triggered this
        ACK (Karn-friendly RTT sampling uses it only for non-retransmits).
    retransmit:
        True if this transmission is a retransmission.
    ecn_capable:
        Data packets: sender negotiated ECN (ECT codepoint).
    ce:
        Data packets: Congestion Experienced mark set by an AQM.
    ecn_echo:
        ACK packets: the receiver saw CE on the triggering segment.
    sack:
        For ACK packets: up to three SACK ranges ``(start, end)`` (end
        exclusive, in packet numbers) above ``ack_next``, lowest first —
        the receiver's out-of-order blocks, as Linux TCP reports them.
    corrupt:
        Set by an impairment channel (:mod:`repro.net.impair`) to model
        a failed checksum: a corrupted DATA packet is dropped by the
        receiver (no ACK), a corrupted ACK by the sender.  Reset on
        every pooled reissue like the other mid-flight mutations.
    uid:
        Globally unique packet id, handy for tracing.  A pooled ACK gets
        a *fresh* uid on every reissue, so uid semantics are unchanged by
        pooling.
    generation:
        Reissue count for pooled ACK packets (0 for a fresh allocation).
        Holding a packet across its recycle point is a bug; comparing
        generations detects the resurrection (exercised under
        ``--validate`` and by the pool property tests).  Excluded from
        ``repr``/``eq`` so pooling is invisible to traces and digests.
    """

    flow: FlowId
    kind: PacketKind
    seq: int
    size: int
    sent_at: float
    ack_next: int = 0
    echo_ts: float = 0.0
    echo_retransmit: bool = False
    retransmit: bool = False
    ecn_capable: bool = False
    ce: bool = False
    ecn_echo: bool = False
    sack: tuple[tuple[int, int], ...] = ()
    corrupt: bool = field(default=False, repr=False, compare=False)
    uid: int = field(default_factory=lambda: next(_packet_ids))
    generation: int = field(default=0, repr=False, compare=False)
    _in_pool: bool = field(default=False, repr=False, compare=False)

    #: Free list for ACK packets — the one allocation per data packet the
    #: receiver cannot avoid.  ACKs terminate synchronously at the sender
    #: (nothing queues or retains them), so :meth:`recycle_ack` at the
    #: point of consumption is sound.  Bounded so a pathological burst
    #: cannot pin memory.
    _ack_pool: ClassVar[list["Packet"]] = []
    _ACK_POOL_MAX: ClassVar[int] = 2048

    #: Free list for DATA packets.  The receiver is the terminal consumer
    #: of a data packet (downstream components keep only scalar columns),
    #: so it recycles each one it absorbs.  Drop points
    #: (impairment gates, the link's drop-tail buffer, the receiver's
    #: corrupt-packet discard) are terminal consumers too and recycle
    #: what they drop via :meth:`recycle`; pooling stays value-invisible
    #: (fresh uid per reissue).
    _data_pool: ClassVar[list["Packet"]] = []
    _DATA_POOL_MAX: ClassVar[int] = 4096

    @classmethod
    def data(
        cls,
        flow: FlowId,
        seq: int,
        sent_at: float,
        *,
        size: int = MSS,
        retransmit: bool = False,
        ecn_capable: bool = False,
    ) -> "Packet":
        """Construct a data packet.

        Draws from the DATA free list when possible; a reissued packet is
        fully re-initialised (fresh uid included) and bumps its
        ``generation``.
        """
        pool = cls._data_pool
        if pool:
            # The pool holds only DATA packets, and no component ever
            # writes the ACK-only fields (ack_next/echo_*/ecn_echo/sack)
            # of a data packet — those still hold their construction
            # defaults, so only the data-path fields are re-initialised.
            # ``ce`` is the one mid-flight mutation (AQM marking).
            pkt = pool.pop()
            pkt._in_pool = False
            pkt.generation += 1
            pkt.flow = flow
            pkt.seq = seq
            pkt.size = size
            pkt.sent_at = sent_at
            pkt.retransmit = retransmit
            pkt.ecn_capable = ecn_capable
            pkt.ce = False
            pkt.corrupt = False
            pkt.uid = next(_packet_ids)
            return pkt
        return cls(
            flow=flow,
            kind=PacketKind.DATA,
            seq=seq,
            size=size,
            sent_at=sent_at,
            retransmit=retransmit,
            ecn_capable=ecn_capable,
        )

    @classmethod
    def ack(
        cls,
        flow: FlowId,
        ack_next: int,
        sent_at: float,
        *,
        echo_ts: float,
        echo_retransmit: bool,
        sack: tuple[tuple[int, int], ...] = (),
        ecn_echo: bool = False,
    ) -> "Packet":
        """Construct a pure ACK for ``flow`` (sent receiver → sender).

        Draws from the ACK free list when possible; a reissued packet is
        fully re-initialised (fresh uid included) and bumps its
        ``generation``.
        """
        pool = cls._ack_pool
        if pool:
            # The pool holds only ACK packets, and nothing ever writes a
            # pure ACK's data-path fields (seq/size/retransmit/
            # ecn_capable), so those still hold the ACK construction
            # values and are skipped; ``ce`` is reset defensively (AQMs
            # mark only ECN-capable data, but the field is mutable
            # mid-flight by contract).
            pkt = pool.pop()
            pkt._in_pool = False
            pkt.generation += 1
            pkt.flow = flow
            pkt.ce = False
            pkt.corrupt = False
            pkt.sent_at = sent_at
            pkt.ack_next = ack_next
            pkt.echo_ts = echo_ts
            pkt.echo_retransmit = echo_retransmit
            pkt.ecn_echo = ecn_echo
            pkt.sack = sack
            pkt.uid = next(_packet_ids)
            return pkt
        return cls(
            flow=flow,
            kind=PacketKind.ACK,
            seq=0,
            size=ACK_SIZE,
            sent_at=sent_at,
            ack_next=ack_next,
            echo_ts=echo_ts,
            echo_retransmit=echo_retransmit,
            sack=sack,
            ecn_echo=ecn_echo,
        )

    @classmethod
    def recycle(cls, packet: "Packet") -> None:
        """Return one consumed packet (either kind) to its free list.

        The single-packet form used by drop points — impairment gates,
        drop-tail buffers, corrupt-packet discards — where the dropper is
        the packet's terminal consumer.  The ``_in_pool`` latch makes a
        second recycle a no-op, so a packet can only ever enter its pool
        once per reissue.
        """
        if packet._in_pool:
            return
        if packet.kind is PacketKind.ACK:
            pool = cls._ack_pool
            limit = cls._ACK_POOL_MAX
        else:
            pool = cls._data_pool
            limit = cls._DATA_POOL_MAX
        if len(pool) < limit:
            packet._in_pool = True
            pool.append(packet)

    @classmethod
    def recycle_ack(cls, packet: "Packet") -> None:
        """Return a consumed ACK to the free list.

        Only pure ACKs are pooled; recycling the same packet twice is a
        no-op (the ``_in_pool`` latch), so sinks may recycle defensively.
        """
        if packet.kind is not PacketKind.ACK or packet._in_pool:
            return
        pool = cls._ack_pool
        if len(pool) < cls._ACK_POOL_MAX:
            packet._in_pool = True
            pool.append(packet)

    @classmethod
    def recycle_data(cls, packet: "Packet") -> None:
        """Return a consumed DATA packet to the free list.

        Callers must be the terminal consumer (nothing downstream retains
        a reference); non-DATA packets are skipped and the ``_in_pool``
        latch makes double-recycling a no-op, mirroring
        :meth:`recycle_ack`.
        """
        if packet.kind is not PacketKind.DATA or packet._in_pool:
            return
        pool = cls._data_pool
        if len(pool) < cls._DATA_POOL_MAX:
            packet._in_pool = True
            pool.append(packet)

    @property
    def is_data(self) -> bool:
        """True for data packets."""
        return self.kind is PacketKind.DATA

    @property
    def is_ack(self) -> bool:
        """True for pure ACKs."""
        return self.kind is PacketKind.ACK
