"""Columnar in-flight measurement for fleet shards.

One :class:`FleetRecorder` replaces the *per-aggregate*
:class:`~repro.net.trace.Trace` objects a naive N-aggregate shard would
carry.  A trace materializes five columns **per packet** (a
10^4-aggregate shard would hold millions of entries just to be binned
and thrown away after the run); the recorder bins bytes *as they
arrive* into flat per-aggregate arrays — O(aggregates x bins) memory,
independent of packet count — which is what lets a single shard hold
10^4+ aggregates.

Binning semantics are byte-identical to recording a per-aggregate trace
and running :func:`~repro.metrics.throughput.aggregate_throughput_series`
afterwards: the same :func:`~repro.metrics.throughput.bin_layout`, the
same in-range check ``warmup <= t < horizon``, the same last-bin clamp,
and float accumulation in the same (arrival) order.  Pinned by
``tests/test_fleet.py``.

The recorder sits where the per-aggregate traces sat: every limiter in
the shard connects to it, it records data packets and forwards the whole
stream to the shard's shared :class:`~repro.cc.endpoint.FlowDemux`.
"""

from __future__ import annotations

from array import array

from repro.metrics.throughput import bin_layout
from repro.net.packet import Packet, PacketKind
from repro.net.sink import PacketSink
from repro.sim.simulator import Simulator

__all__ = ["FleetRecorder"]


class FleetRecorder:
    """Streamed per-aggregate measurement columns for one shard.

    Parameters
    ----------
    lo:
        First aggregate id hosted by this shard; row = ``aggregate - lo``.
    slot_counts:
        Flow-slot count per aggregate (row order) — sizes the ragged
        per-slot goodput column.
    """

    def __init__(
        self,
        sim: Simulator,
        sink: PacketSink,
        *,
        lo: int,
        slot_counts: list[int],
        window: float,
        warmup: float,
        horizon: float,
        name: str = "fleet-recorder",
    ) -> None:
        n = len(slot_counts)
        nbins, last_width = bin_layout(window, warmup, horizon)
        self._sim = sim
        self._sink = sink
        self.name = name
        self.lo = lo
        self.window = window
        self.warmup = warmup
        self.horizon = horizon
        self.nbins = nbins
        self.last_width = last_width
        self._inv_window = 1.0 / window
        self._last_bin = nbins - 1
        self.goodput_bytes = array("d", bytes(8 * n))
        self.binned_bytes = array("d", bytes(8 * n * nbins))
        offsets = array("q", [0] * (n + 1))
        for i, count in enumerate(slot_counts):
            offsets[i + 1] = offsets[i] + count
        self.slot_offsets = offsets
        self.slot_goodput = array("d", bytes(8 * offsets[-1]))
        self.recorded_packets = 0

    def _record(self, packet: Packet, t: float) -> None:
        if not (self.warmup <= t < self.horizon):
            return
        flow = packet.flow
        row = flow.aggregate - self.lo
        size = packet.size
        index = int((t - self.warmup) * self._inv_window)
        if index > self._last_bin:
            # Same clamp as trace binning: a record one ULP below the
            # horizon (or in a trailing partial window) lands in the
            # last bin.
            index = self._last_bin
        self.binned_bytes[row * self.nbins + index] += size
        self.goodput_bytes[row] += size
        self.slot_goodput[self.slot_offsets[row] + flow.slot] += size
        self.recorded_packets += 1

    def receive(self, packet: Packet) -> None:
        if packet.kind is PacketKind.DATA:
            self._record(packet, self._sim._now)
        self._sink.receive(packet)

