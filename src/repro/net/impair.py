"""Impairment channels: lossy, bursty, jittery and trace-driven links.

Every element in the reproduction's clean topology is a serializing
FIFO, so loss recovery (SACK/RACK/TLP/RTO), coalesced delivery and
the packet pools had never been exercised under hostile conditions.
This module provides composable, ``Pipe``-compatible impairment
wrappers:

* :class:`LossGate` — i.i.d. random loss.
* :class:`GilbertElliottGate` — two-state bursty loss (good/bad Markov
  chain with per-state loss probabilities).
* :class:`Duplicator` — forwards a *clone* alongside the original with
  some probability (never the same object twice: downstream terminal
  consumers recycle what they absorb, so a shared object would be
  returned to the free list while still in flight).
* :class:`Corrupter` — marks packets ``corrupt``; a corrupted DATA
  packet is dropped by the receiver (no ACK), a corrupted ACK by the
  sender.
* :class:`JitterPipe` — a delay element whose per-packet delay is drawn
  at arrival (uniform jitter plus an exponential extra-delay tail for
  reordering).  Variable delay breaks the coalesced ``Pipe``'s
  arrival-order == delivery-order assumption, so delivery here is
  backed by an internal heap with correct per-arrival sequence
  reservation (see the class docstring).
* :class:`TraceLink` — a Mahimahi-style variable-rate bottleneck whose
  service rate follows a looping :class:`CapacityTrace`.

Determinism: every random decision draws from a caller-supplied
``random.Random`` seeded from the simulator's root seed (per flow, in
the scenario layer), and draws happen per packet in arrival order —
which the engine guarantees is identical across drain limits and
shard counts — so impaired runs are byte-identical across every engine.
With all impairments disabled no wrapper is constructed and no draw is
made, so clean runs stay byte-identical to the unimpaired code.

Dropped packets are recycled at the gate (the gate is the terminal
consumer of a dropped packet); the ``_in_pool`` latch makes a double
recycle a no-op and the :class:`JitterPipe` generation guard turns a
recycle-while-in-flight into a :class:`~repro.sim.simulator.SimulationError`
instead of silent pool corruption.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from random import Random

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.pipe import Pipe
from repro.net.sink import PacketSink
from repro.sim.simulator import SimulationError, Simulator
from repro.units import MSS, mbps

__all__ = [
    "CapacityTrace",
    "Corrupter",
    "Duplicator",
    "GilbertElliottGate",
    "ImpairmentSpec",
    "JitterPipe",
    "LossGate",
    "TraceLink",
    "build_ack_path",
    "build_data_path",
]

#: Floor applied to trace-file rates so an outage interval serializes in
#: finite (if very long) time instead of dividing by zero.
_MIN_TRACE_RATE = float(MSS)


@dataclass(frozen=True)
class ImpairmentSpec:
    """Declarative impairment configuration, JSON-friendly primitives.

    Frozen and hashable so it can ride on
    :class:`~repro.runner.aggregate.AggregateConfig` (cache token,
    pickling) and round-trip through the fuzzer's ``--case`` JSON.
    All fields default to "disabled"; :attr:`enabled` is False for the
    default instance, in which case the wiring layer constructs no
    wrapper objects at all.
    """

    #: i.i.d. loss probability on the data path.
    loss: float = 0.0
    #: Gilbert-Elliott bursty loss: ``(p_gb, p_bg, loss_good, loss_bad)``
    #: — transition probabilities good->bad / bad->good and the per-state
    #: loss probabilities.  ``None`` disables the gate.
    ge: tuple[float, float, float, float] | None = None
    #: i.i.d. loss probability on the ACK return path.
    ack_loss: float = 0.0
    #: Uniform extra delay in ``[0, jitter)`` seconds per data packet.
    jitter: float = 0.0
    #: Probability a data packet draws an extra-delay tail (reordering).
    reorder: float = 0.0
    #: Mean of the exponential extra-delay tail, seconds (required > 0
    #: when ``reorder`` > 0).
    reorder_extra: float = 0.0
    #: Probability a data packet is duplicated (a clone follows it).
    duplicate: float = 0.0
    #: Probability a data packet is corrupted (dropped at the receiver).
    corrupt: float = 0.0
    #: Variable-rate bottleneck: ``(duration_s, rate_bytes_per_s)``
    #: segments, looping (see :class:`CapacityTrace`).  ``None`` disables
    #: the :class:`TraceLink`.
    trace_rates: tuple[tuple[float, float], ...] | None = None
    #: Drop-tail buffer of the trace link (``None`` = unbounded).
    trace_buffer: float | None = None
    #: Propagation delay of the trace link, seconds.
    trace_delay: float = 0.0

    def __post_init__(self) -> None:
        # JSON round-trips tuples as lists; normalize back so the spec
        # stays hashable and `--case` lines reproduce exactly.
        if self.ge is not None and not isinstance(self.ge, tuple):
            object.__setattr__(self, "ge", tuple(self.ge))
        if self.trace_rates is not None:
            object.__setattr__(
                self,
                "trace_rates",
                tuple(tuple(seg) for seg in self.trace_rates),
            )
        for name in ("loss", "ack_loss", "reorder", "duplicate", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        if self.jitter < 0.0 or self.reorder_extra < 0.0:
            raise ValueError("jitter and reorder_extra must be non-negative")
        if self.reorder > 0.0 and self.reorder_extra <= 0.0:
            raise ValueError("reorder needs a positive reorder_extra")
        if self.ge is not None:
            p_gb, p_bg, loss_g, loss_b = self.ge
            for name, value in (
                ("p_gb", p_gb), ("p_bg", p_bg),
                ("loss_good", loss_g), ("loss_bad", loss_b),
            ):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"ge {name} must be a probability, got {value!r}"
                    )
        if self.trace_rates is not None:
            if not self.trace_rates:
                raise ValueError("trace_rates must have at least one segment")
            for duration, rate in self.trace_rates:
                if duration <= 0.0 or rate <= 0.0:
                    raise ValueError(
                        "trace segments need positive duration and rate, "
                        f"got ({duration!r}, {rate!r})"
                    )
        if self.trace_delay < 0.0:
            raise ValueError("trace_delay must be non-negative")

    @property
    def data_path_enabled(self) -> bool:
        """Any per-flow data-direction impairment active."""
        return (
            self.loss > 0.0
            or self.ge is not None
            or self.jitter > 0.0
            or self.reorder > 0.0
            or self.duplicate > 0.0
            or self.corrupt > 0.0
        )

    @property
    def ack_path_enabled(self) -> bool:
        """Any ACK-direction impairment active (corruption applies to
        both directions: a corrupted ACK is dropped by the sender)."""
        return self.ack_loss > 0.0 or self.corrupt > 0.0

    @property
    def flow_enabled(self) -> bool:
        """Any per-flow impairment active (either direction)."""
        return self.data_path_enabled or self.ack_path_enabled

    @property
    def trace_enabled(self) -> bool:
        """Variable-rate trace-driven bottleneck active."""
        return self.trace_rates is not None

    @property
    def enabled(self) -> bool:
        """Any impairment at all active."""
        return self.flow_enabled or self.trace_enabled


def _clone(packet: Packet) -> Packet:
    """A fresh packet carrying the same wire-visible content.

    Never forwards the original object twice: the receiver/sender are
    terminal consumers that recycle what they absorb, so a shared object
    would be returned to the free list while its twin is still in
    flight.  Clones draw through the pooled constructors (fresh uid,
    bumped generation) like any other packet.
    """
    if packet.kind is PacketKind.DATA:
        twin = Packet.data(
            packet.flow,
            packet.seq,
            packet.sent_at,
            size=packet.size,
            retransmit=packet.retransmit,
            ecn_capable=packet.ecn_capable,
        )
        twin.ce = packet.ce
    else:
        twin = Packet.ack(
            packet.flow,
            packet.ack_next,
            packet.sent_at,
            echo_ts=packet.echo_ts,
            echo_retransmit=packet.echo_retransmit,
            sack=packet.sack,
            ecn_echo=packet.ecn_echo,
        )
        twin.ce = packet.ce
    twin.corrupt = packet.corrupt
    return twin


class _Gate:
    """Shared shape of the per-packet impairment gates.

    Gates draw their randomness per packet in arrival order, so the RNG
    draw order — and therefore every downstream seq reservation — is
    identical across drain limits.
    """

    __slots__ = ("_sink", "_rng", "forwarded_packets", "dropped_packets",
                 "dropped_bytes")

    def __init__(self, sink: PacketSink, rng: Random) -> None:
        self._sink = sink
        self._rng = rng
        self.forwarded_packets = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    def receive(self, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError

    def _drop(self, packet: Packet) -> None:
        """Absorb a dropped packet: count it and return it to its pool
        (the gate is the terminal consumer of what it drops)."""
        self.dropped_packets += 1
        self.dropped_bytes += packet.size
        Packet.recycle(packet)


class LossGate(_Gate):
    """Drops each packet independently with probability ``prob``."""

    __slots__ = ("_prob",)

    def __init__(self, prob: float, sink: PacketSink, rng: Random) -> None:
        super().__init__(sink, rng)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"loss probability out of range: {prob!r}")
        self._prob = prob

    def receive(self, packet: Packet) -> None:
        if self._rng.random() < self._prob:
            self._drop(packet)
            return
        self.forwarded_packets += 1
        self._sink.receive(packet)


class GilbertElliottGate(_Gate):
    """Two-state bursty loss (Gilbert-Elliott).

    The chain starts in the good state; each packet first advances the
    state (one draw), then tests the current state's loss probability
    (one draw) — always exactly two draws per packet, so the stream
    position is a pure function of the arrival count.

    Stationary loss rate: ``pi_B = p_gb / (p_gb + p_bg)`` and
    ``loss = (1 - pi_B) * loss_good + pi_B * loss_bad`` (pinned by a
    property test in ``tests/test_impair.py``).
    """

    __slots__ = ("_p_gb", "_p_bg", "_loss_good", "_loss_bad", "bad")

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        loss_good: float,
        loss_bad: float,
        sink: PacketSink,
        rng: Random,
    ) -> None:
        super().__init__(sink, rng)
        for name, value in (
            ("p_gb", p_gb), ("p_bg", p_bg),
            ("loss_good", loss_good), ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value!r}")
        self._p_gb = p_gb
        self._p_bg = p_bg
        self._loss_good = loss_good
        self._loss_bad = loss_bad
        self.bad = False

    @staticmethod
    def stationary_loss(
        p_gb: float, p_bg: float, loss_good: float, loss_bad: float
    ) -> float:
        """Long-run loss rate of the chain (good-state start forgotten)."""
        if p_gb + p_bg == 0.0:
            return loss_good  # chain never leaves the good state
        pi_bad = p_gb / (p_gb + p_bg)
        return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad

    def receive(self, packet: Packet) -> None:
        rng = self._rng
        transition = rng.random()
        if self.bad:
            if transition < self._p_bg:
                self.bad = False
        elif transition < self._p_gb:
            self.bad = True
        prob = self._loss_bad if self.bad else self._loss_good
        if rng.random() < prob:
            self._drop(packet)
            return
        self.forwarded_packets += 1
        self._sink.receive(packet)


class Duplicator(_Gate):
    """Forwards every packet; with probability ``prob`` a clone follows.

    The clone is a *fresh* packet (see :func:`_clone`) so terminal
    consumers can recycle both copies independently.
    """

    __slots__ = ("_prob", "duplicated_packets")

    def __init__(self, prob: float, sink: PacketSink, rng: Random) -> None:
        super().__init__(sink, rng)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"duplicate probability out of range: {prob!r}")
        self._prob = prob
        self.duplicated_packets = 0

    def receive(self, packet: Packet) -> None:
        dup = self._rng.random() < self._prob
        self.forwarded_packets += 1
        self._sink.receive(packet)
        if dup:
            self.duplicated_packets += 1
            self._sink.receive(_clone(packet))


class Corrupter(_Gate):
    """Marks packets ``corrupt`` with probability ``prob``.

    Corruption is detected (checksum) at the endpoint: a corrupted DATA
    packet is dropped by the receiver without an ACK, a corrupted ACK is
    dropped by the sender — both still recycle the packet, and the
    receiver trace skips corrupted packets so goodput excludes them.
    """

    __slots__ = ("_prob", "corrupted_packets")

    def __init__(self, prob: float, sink: PacketSink, rng: Random) -> None:
        super().__init__(sink, rng)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"corrupt probability out of range: {prob!r}")
        self._prob = prob
        self.corrupted_packets = 0

    def receive(self, packet: Packet) -> None:
        if self._rng.random() < self._prob:
            self.corrupted_packets += 1
            packet.corrupt = True
        self.forwarded_packets += 1
        self._sink.receive(packet)


class JitterPipe:
    """A delay element with per-packet random delay, heap-backed.

    The coalesced :class:`~repro.net.pipe.Pipe` assumes constant delay
    (arrival order == delivery order) and keeps one FIFO plus at most one
    armed simulator event.  With jittered delays, packet ``B`` arriving
    after ``A`` may leave first, so the pending set lives in an internal
    heap keyed by ``(deliver_time, reserved_seq)``.

    Sequence reservation works exactly like the coalesced pipe's: every
    arrival claims the global insertion seq that a one-event-per-packet
    engine would have consumed by scheduling its delivery, and each
    delivery executes at heap position ``(time, seq)`` — so the global
    firing order is bit-for-bit what per-packet scheduling would produce,
    in every engine.

    Arming follows the :class:`~repro.sim.timer.Timer` pattern: at most
    one wake is *adopted* at a time (``_armed_seq``); a wake that
    surfaces after being superseded by an earlier arrival discards
    itself by seq mismatch.  One extra wrinkle a timer doesn't have: a
    superseded wake's ``(time, seq)`` can become the head again after
    earlier packets drain, and pushing a second event at the same
    ``(time, seq)`` would create an ordering tie the heap cannot break —
    so in-flight wake seqs are tracked in ``_outstanding`` and re-arming
    at one of them simply re-adopts the wake already in the heap.

    Deliveries are strictly per packet, like every other stage's single
    ``receive``.  Each heap entry snapshots the packet's pool ``generation``
    at arrival and delivery re-checks it, so a packet recycled while in
    flight (a pool-lifecycle bug upstream) raises
    :class:`~repro.sim.simulator.SimulationError` instead of delivering
    a resurrected object.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: PacketSink,
        *,
        jitter: float = 0.0,
        reorder: float = 0.0,
        reorder_extra: float = 0.0,
        rng: Random,
        name: str = "jitter-pipe",
    ) -> None:
        if delay < 0.0:
            raise ValueError(f"base delay must be non-negative, got {delay!r}")
        if jitter < 0.0:
            raise ValueError(f"jitter must be non-negative, got {jitter!r}")
        if not 0.0 <= reorder <= 1.0:
            raise ValueError(f"reorder probability out of range: {reorder!r}")
        if reorder > 0.0 and reorder_extra <= 0.0:
            raise ValueError("reorder needs a positive reorder_extra")
        self._sim = sim
        self._base = delay
        self._jitter = jitter
        self._reorder = reorder
        self._reorder_extra = reorder_extra
        self._rng = rng
        self._sink = sink
        self.name = name
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        self.reordered_packets = 0
        #: Pending deliveries: (deliver_time, reserved_seq, generation,
        #: packet).  (time, seq) is globally unique, so the heap never
        #: compares the trailing fields.
        self._heap: list[tuple[float, int, int, Packet]] = []
        self._armed_time = 0.0
        self._armed_seq = -1
        #: Seqs with a wake still in the simulator heap (adopted or
        #: superseded) — re-arming at one of these re-adopts it instead
        #: of pushing a duplicate (time, seq) key.
        self._outstanding: set[int] = set()

    @property
    def delay(self) -> float:
        """Base one-way delay in seconds (before jitter draws)."""
        return self._base

    @property
    def in_flight(self) -> int:
        """Packets currently traversing the pipe."""
        return len(self._heap)

    def receive(self, packet: Packet) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        rng = self._rng
        delay = self._base
        if self._jitter > 0.0:
            delay += rng.random() * self._jitter
        if self._reorder > 0.0 and rng.random() < self._reorder:
            self.reordered_packets += 1
            delay += rng.expovariate(1.0 / self._reorder_extra)
        sim = self._sim
        time = sim._now + delay
        seq = sim.reserve_seq()
        heapq.heappush(self._heap, (time, seq, packet.generation, packet))
        # A fresh arrival's seq exceeds every earlier reservation, so it
        # only preempts the adopted wake when strictly earlier in time.
        if self._armed_seq < 0 or time < self._armed_time:
            self._arm(time, seq)

    def _arm(self, time: float, seq: int) -> None:
        self._armed_time = time
        self._armed_seq = seq
        if seq not in self._outstanding:
            self._outstanding.add(seq)
            self._sim.call_at_reserved(time, seq, self._fire, seq)

    def _fire(self, wake_seq: int) -> None:
        self._outstanding.discard(wake_seq)
        if wake_seq != self._armed_seq:
            return  # superseded by an earlier arrival's wake
        self._armed_seq = -1
        heap = self._heap
        sim = self._sim
        sim_heap = sim._heap
        cap = sim._batch_cap
        receive = self._sink.receive
        n = 0
        while True:
            _time, _seq, generation, packet = heapq.heappop(heap)
            if packet.generation != generation or packet._in_pool:
                raise SimulationError(
                    f"{self.name}: packet uid={packet.uid} was recycled "
                    "while in flight (generation "
                    f"{generation} -> {packet.generation}, "
                    f"in_pool={packet._in_pool})"
                )
            receive(packet)
            if not heap:
                return
            n += 1
            head = heap[0]
            time = head[0]
            seq = head[1]
            # Same drain limit and inline-continuation guard as the
            # coalesced pipe: the next pending delivery may run without a
            # heap round-trip iff it is exactly the event the heap would
            # fire next.
            if n != cap and time <= sim._now and (
                not sim_heap
                or sim_heap[0][0] > time
                or (sim_heap[0][0] == time and sim_heap[0][1] > seq)
            ):
                continue
            self._arm(time, seq)
            return


class CapacityTrace:
    """A looping piecewise-constant capacity schedule.

    ``segments`` are ``(duration_s, rate_bytes_per_s)`` pairs; the
    schedule repeats with period ``cycle``.  Used by :class:`TraceLink`
    to model Mahimahi-style cellular capacity traces.
    """

    __slots__ = ("segments", "cycle", "mean_rate")

    def __init__(self, segments) -> None:
        segs = tuple((float(d), float(r)) for d, r in segments)
        if not segs:
            raise ValueError("capacity trace needs at least one segment")
        for duration, rate in segs:
            if duration <= 0.0 or rate <= 0.0:
                raise ValueError(
                    "trace segments need positive duration and rate, "
                    f"got ({duration!r}, {rate!r})"
                )
        self.segments = segs
        self.cycle = sum(d for d, _ in segs)
        self.mean_rate = sum(d * r for d, r in segs) / self.cycle

    @classmethod
    def from_file(cls, path: str) -> "CapacityTrace":
        """Parse a capacity trace file.

        Two formats are recognised (``#`` comments and blank lines are
        skipped):

        * **Two-column**: ``duration_seconds rate_mbps`` per line, each
          line one segment.
        * **Mahimahi single-column**: one integer millisecond timestamp
          per line, each marking the delivery opportunity of one
          1500-byte MTU (the ``mm-link`` packed-trace format).  The
          timestamps are binned into 100 ms intervals and each bin
          becomes a segment at its implied rate, floored at one MTU/s so
          outage bins stay serializable.
        """
        two_col: list[tuple[float, float]] = []
        stamps: list[float] = []
        columns = 0
        with open(path) as handle:
            for line in handle:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                fields = text.split()
                if columns == 0:
                    columns = min(len(fields), 2)
                if columns >= 2:
                    two_col.append((float(fields[0]), mbps(float(fields[1]))))
                else:
                    stamps.append(float(fields[0]))
        if columns >= 2:
            return cls(two_col)
        if not stamps:
            raise ValueError(f"capacity trace {path!r} is empty")
        return cls(cls._bins_from_stamps(stamps))

    @staticmethod
    def _bins_from_stamps(
        stamps: list[float], *, bin_ms: float = 100.0
    ) -> list[tuple[float, float]]:
        """Mahimahi ms timestamps -> (duration, rate) segments."""
        span = max(stamps[-1], bin_ms)
        nbins = max(1, int(span / bin_ms + (1 if span % bin_ms else 0)))
        counts = [0] * nbins
        for stamp in stamps:
            index = min(int(stamp / bin_ms), nbins - 1)
            counts[index] += 1
        width = bin_ms / 1000.0
        return [
            (width, max(count * MSS / width, _MIN_TRACE_RATE))
            for count in counts
        ]

    def tx_time(self, start: float, size: float) -> float:
        """Seconds to serialize ``size`` bytes beginning at absolute
        time ``start``, integrating the rate across segment (and cycle)
        boundaries."""
        segments = self.segments
        position = start % self.cycle
        index = 0
        acc = 0.0
        for index, (duration, _rate) in enumerate(segments):
            if position < acc + duration:
                break
            acc += duration
        offset = position - acc
        remaining = float(size)
        total = 0.0
        while True:
            duration, rate = segments[index]
            window = duration - offset
            capacity = rate * window
            if capacity >= remaining:
                return total + remaining / rate
            remaining -= capacity
            total += window
            offset = 0.0
            index += 1
            if index == len(segments):
                index = 0


class TraceLink(Link):
    """A serializing link whose rate follows a :class:`CapacityTrace`.

    Identical to :class:`~repro.net.link.Link` (drop-tail buffer,
    coalesced propagation FIFO) except that each packet's serialization
    time is integrated over the trace starting at its transmit instant.
    Serialization stays strictly sequential, so propagation exit times
    remain monotone and the coalesced FIFO drains stay valid.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: CapacityTrace,
        delay: float,
        sink: PacketSink,
        *,
        buffer_bytes: float | None = None,
        name: str = "trace-link",
    ) -> None:
        super().__init__(
            sim,
            trace.mean_rate,
            delay,
            sink,
            buffer_bytes=buffer_bytes,
            name=name,
        )
        self._trace = trace

    @property
    def trace(self) -> CapacityTrace:
        """The driving capacity schedule."""
        return self._trace

    def _transmit(self, packet: Packet) -> None:
        self._busy = True
        tx_time = self._trace.tx_time(self._sim.now, packet.size)
        self._sim.call_after(tx_time, self._on_tx_done, packet)


def build_data_path(
    sim: Simulator,
    delay: float,
    sink: PacketSink,
    spec: ImpairmentSpec,
    rng: Random,
    *,
    name: str = "impair",
) -> PacketSink:
    """The sender-side data chain for one flow.

    Composition (entry first): Gilbert-Elliott loss -> i.i.d. loss ->
    duplication -> corruption -> delay element (a :class:`JitterPipe`
    when jitter/reordering is on, else the plain coalesced
    :class:`~repro.net.pipe.Pipe`) -> ``sink``.  Gates the spec leaves
    disabled are not constructed at all.
    """
    entry: PacketSink
    if spec.jitter > 0.0 or spec.reorder > 0.0:
        entry = JitterPipe(
            sim,
            delay,
            sink,
            jitter=spec.jitter,
            reorder=spec.reorder,
            reorder_extra=spec.reorder_extra,
            rng=rng,
            name=f"{name}-jitter",
        )
    else:
        entry = Pipe(sim, delay, sink, name=f"{name}-pipe")
    if spec.corrupt > 0.0:
        entry = Corrupter(spec.corrupt, entry, rng)
    if spec.duplicate > 0.0:
        entry = Duplicator(spec.duplicate, entry, rng)
    if spec.loss > 0.0:
        entry = LossGate(spec.loss, entry, rng)
    if spec.ge is not None:
        entry = GilbertElliottGate(*spec.ge, entry, rng)
    return entry


def build_ack_path(
    sim: Simulator,
    delay: float,
    sink: PacketSink,
    spec: ImpairmentSpec,
    rng: Random,
    *,
    name: str = "impair-ack",
) -> PacketSink:
    """The receiver-side ACK return chain for one flow: i.i.d. ACK loss
    and corruption in front of the plain reverse delay pipe."""
    entry: PacketSink = Pipe(sim, delay, sink, name=f"{name}-pipe")
    if spec.corrupt > 0.0:
        entry = Corrupter(spec.corrupt, entry, rng)
    if spec.ack_loss > 0.0:
        entry = LossGate(spec.ack_loss, entry, rng)
    return entry
