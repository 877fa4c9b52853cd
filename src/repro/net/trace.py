"""Packet traces: lightweight observation points for experiments and tests.

The trace stores its observations as parallel columns (one plain list per
field) instead of one :class:`PacketRecord` object per packet.  A multi-
minute aggregate run records hundreds of thousands of packets; columns cut
both the per-packet allocation on the simulator's hot path and the memory
footprint, and let the metrics layer (:mod:`repro.metrics.throughput`) bin
bytes by indexing columns directly without materializing records.
:attr:`Trace.records` remains available as a compatibility view that
builds :class:`PacketRecord` objects on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, overload

from repro.net.packet import FlowId, Packet, PacketKind
from repro.net.sink import PacketSink
from repro.sim.simulator import Simulator


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One observed packet: arrival time, flow, size and data/ack flag."""

    time: float
    flow: FlowId
    size: int
    is_data: bool
    seq: int


class TraceRecords:
    """Sequence view over a :class:`Trace`'s columns.

    Indexing and iteration materialize :class:`PacketRecord` objects on
    demand, so code written against the record-list API keeps working; the
    underlying columns stay exposed (``times``/``flow_ids``/``sizes``) for
    the metrics fast path.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    @property
    def times(self) -> list[float]:
        """Arrival-time column (same object as ``trace.times``)."""
        return self._trace.times

    @property
    def flow_ids(self) -> list[FlowId]:
        """Flow-identity column."""
        return self._trace.flow_ids

    @property
    def sizes(self) -> list[int]:
        """Wire-size column."""
        return self._trace.sizes

    def __len__(self) -> int:
        return len(self._trace.times)

    @overload
    def __getitem__(self, index: int) -> PacketRecord: ...

    @overload
    def __getitem__(self, index: slice) -> list[PacketRecord]: ...

    def __getitem__(self, index):
        t = self._trace
        if isinstance(index, slice):
            rng = range(*index.indices(len(t.times)))
            return [self._make(t, i) for i in rng]
        return self._make(t, index)

    @staticmethod
    def _make(t: "Trace", i: int) -> PacketRecord:
        return PacketRecord(
            time=t.times[i],
            flow=t.flow_ids[i],
            size=t.sizes[i],
            is_data=t.data_flags[i],
            seq=t.seqs[i],
        )

    def __iter__(self) -> Iterator[PacketRecord]:
        t = self._trace
        for time, flow, size, is_data, seq in zip(
            t.times, t.flow_ids, t.sizes, t.data_flags, t.seqs
        ):
            yield PacketRecord(
                time=time, flow=flow, size=size, is_data=is_data, seq=seq
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecords({len(self)} records of {self._trace.name!r})"


class Trace:
    """Records packets flowing through a point and forwards them downstream.

    The recorded columns are the raw material for windowed throughput
    series, fairness indices and burst measurements (see
    :mod:`repro.metrics`).  Pass ``data_only=True`` to ignore ACKs (the
    usual case for throughput measured at the receiver).
    """

    def __init__(
        self,
        sim: Simulator,
        sink: PacketSink | None = None,
        *,
        data_only: bool = True,
        name: str = "trace",
    ) -> None:
        self._sim = sim
        self._sink = sink
        self._data_only = data_only
        self.name = name
        self.times: list[float] = []
        self.flow_ids: list[FlowId] = []
        self.sizes: list[int] = []
        self.data_flags: list[bool] = []
        self.seqs: list[int] = []
        self._total_bytes = 0
        # Pre-bound appends keep receive() to plain calls on the hot path.
        self._append_time = self.times.append
        self._append_flow = self.flow_ids.append
        self._append_size = self.sizes.append
        self._append_data = self.data_flags.append
        self._append_seq = self.seqs.append

    def receive(self, packet: Packet) -> None:
        # Corrupted packets consume capacity upstream but fail their
        # checksum at the endpoint, so they never count toward goodput.
        is_data = packet.kind is PacketKind.DATA
        if (is_data or not self._data_only) and not packet.corrupt:
            size = packet.size
            self._append_time(self._sim._now)
            self._append_flow(packet.flow)
            self._append_size(size)
            self._append_data(is_data)
            self._append_seq(packet.seq)
            self._total_bytes += size
        if self._sink is not None:
            self._sink.receive(packet)

    @property
    def records(self) -> TraceRecords:
        """Compatibility record view (lazy :class:`PacketRecord` objects)."""
        return TraceRecords(self)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    @property
    def total_bytes(self) -> int:
        """Sum of recorded packet sizes (maintained incrementally)."""
        return self._total_bytes

    def flows(self) -> set[FlowId]:
        """Distinct flows observed."""
        return set(self.flow_ids)
