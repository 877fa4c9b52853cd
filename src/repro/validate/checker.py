"""In-simulator invariant checking.

The checker is a passive observer: components self-register at
construction (``Simulator(validate=checker)`` makes ``sim.validator``
non-None, and each limiter / TCP sender / middlebox ``__init__`` calls
the matching ``attach_*``).  Attachment wraps *instance-level* bound
methods (``receive``, BC-PQP's ``_on_window_sweep``, the phantom set's
enqueue/fill/reclaim), so:

* with validation off nothing is wrapped and the hot path is untouched —
  the disabled cost is exactly one ``getattr`` per component construction;
* with validation on, every probe goes through pure-read accessors
  (:meth:`PhantomQueueSet.peek_length`, ``raw_magic``,
  ``gps_virtual_times``) that never settle lazy drain state, so a
  validated run stays **bit-identical** to an unvalidated one.

Enforced invariants (paper anchors in parentheses):

* byte/packet conservation per limiter: arrived = forwarded + dropped
  (+ backlog and the in-service packet, for the shaper);
* ``per_queue_drops`` sums to the total drop count;
* token buckets: ``0 <= tokens <= B`` (§2.2), FairPolicer per-flow
  buckets and spare pool within ``[0, B]``;
* phantom occupancy: ``0 <= length_i <= capacity_i`` and magic
  watermarks never negative (§3.1, §3.5 sizing);
* phantom byte ledger: bytes in - reclaims - drained - evicted = total
  occupancy, within a crumb tolerance scaled by drain-piece count (§3.1
  lazy batched dequeues; the evicted leg accounts bytes removed by live
  reconfigurations — see ``repro.churn``);
* epoch boundaries (live policy churn): the mutation epoch and
  ``evicted_bytes`` are monotone, occupancy respects the *new*
  capacities immediately after a commit (the seam check runs inside the
  wrapped ``reconfigure``), GPS virtual-time baselines are re-seeded
  across engine rebuilds, no phantom event ever targets a queue outside
  the current queue count (removed-queue events never fire), the
  policy's share/flat caches hold no key from a stale tree version, and
  BC-PQP's window arrays are re-sized and freshly started at the seam;
* ``drained_bytes`` / ``drain_recomputes`` monotone non-decreasing and
  GPS virtual times monotone per (node, priority) group (§3.2 fluid
  idealization);
* BC-PQP window accounting: accepted <= arrived per window, and the
  window a packet just arrived into is younger than the period (§4
  thresholds / tumbling windows);
* TCP senders: ``snd_una <= snd_nxt``, non-negative scoreboard pipe,
  cwnd and ssthresh >= 1 MSS, RTO clamped to ``[_MIN_RTO, _MAX_RTO]``;
* middlebox dispatch conservation (assumes limiters receive traffic
  only through their middlebox);
* modeled op counts (§6.2 cost model) never negative;
* event-engine accounting: raw heap length equals live events plus the
  cancelled backlog, all engine counters non-negative, and the
  backlog / heap high-water marks never below their current values
  (``Simulator(validate=checker)`` self-registers the simulator);
* packet free lists (at finalize): pools within their size bounds, no
  object pooled twice, every pooled packet's ``_in_pool`` latch set and
  its kind matching its pool — the invariant the impairment drop points
  (gates, drop-tail buffers, corrupt discards) must preserve while
  recycling at arbitrary interleavings.
"""

from __future__ import annotations

from typing import Any

from repro.cc import endpoint as _endpoint
from repro.core.bcpqp import BCPQP
from repro.core.pqp import PQP
from repro.limiters.fair_policer import FairPolicer
from repro.limiters.shaper import Shaper
from repro.limiters.token_bucket import TokenBucketPolicer

#: Absolute float slack for single-value comparisons (bytes / tokens).
_EPS = 1e-6
#: Relative slack factor for capacity-scaled bounds.
_REL = 1e-9


class InvariantViolation(AssertionError):
    """An enforced simulation invariant did not hold."""


class InvariantChecker:
    """Collects (or raises on) invariant violations during a run.

    Parameters
    ----------
    fail_fast:
        When True (default) the first violation raises
        :class:`InvariantViolation` at the exact event that broke the
        invariant — the most useful behaviour under a debugger.  When
        False, violations accumulate in :attr:`violations` and the run
        continues (the fuzzer's mode: one scenario can report several).
    """

    def __init__(self, *, fail_fast: bool = True) -> None:
        self.fail_fast = fail_fast
        #: Human-readable description of every violation seen.
        self.violations: list[str] = []
        #: Number of individual invariant evaluations performed.
        self.checks = 0
        self._limiters: list[tuple[Any, dict[str, Any]]] = []
        self._senders: list[Any] = []
        self._middleboxes: list[tuple[Any, dict[str, Any]]] = []
        self._simulators: list[Any] = []

    # ------------------------------------------------------------------
    # Attachment (called from component __init__)
    # ------------------------------------------------------------------

    def attach_limiter(self, limiter: Any) -> None:
        """Wrap ``limiter`` for per-packet checking.

        Called from ``RateLimiter.__init__`` — subclass attributes do not
        exist yet, so everything type-specific is deferred to the first
        wrapped call.  The BC-PQP sweep must be wrapped *now*, before the
        subclass ``__init__`` schedules ``self._on_window_sweep`` (the
        timer captures the instance attribute, i.e. our wrapper).
        """
        state: dict[str, Any] = {"ready": False}
        self._limiters.append((limiter, state))

        original_receive = limiter.receive

        def wrapped_receive(packet: Any) -> None:
            if not state["ready"]:
                self._init_limiter(limiter, state)
            # Read before delivery: a terminal consumer downstream may
            # recycle the packet (and a sender reissue it) before the
            # receive returns.
            flow = packet.flow
            original_receive(packet)
            self._check_limiter(limiter, state, flow)

        limiter.receive = wrapped_receive

        original_apply = limiter.apply_update

        def wrapped_apply(update: Any) -> None:
            # Epoch-seam probe: run the full limiter check at the exact
            # commit instant — after state migration, before any further
            # event — so "occupancy <= the new capacities immediately
            # after a resize" is asserted at the seam itself, not at the
            # next packet.  A rejected update raises before the probe;
            # the staging contract guarantees it mutated nothing, and the
            # next regular check re-verifies that.
            if not state["ready"]:
                self._init_limiter(limiter, state)
            original_apply(update)
            self._check_limiter(limiter, state, None)

        limiter.apply_update = wrapped_apply

        sweep = getattr(type(limiter), "_on_window_sweep", None)
        if sweep is not None:
            original_sweep = sweep.__get__(limiter)

            def wrapped_sweep() -> None:
                if not state["ready"]:
                    self._init_limiter(limiter, state)
                original_sweep()
                self._check_limiter(limiter, state, None)
                self._check_post_sweep(limiter)

            limiter._on_window_sweep = wrapped_sweep

    def attach_simulator(self, sim: Any) -> None:
        """Register the simulator itself for engine-counter probing.

        Called from ``Simulator.__init__`` when constructed with
        ``validate=``.  Nothing is wrapped — the engine counters are
        plain attributes — so the event loop stays untouched; the probes
        run piggybacked on every limiter check and once at finalize.
        """
        self._simulators.append(sim)

    def attach_sender(self, sender: Any) -> None:
        """Wrap a TCP sender's ACK entry point for per-ACK checking."""
        self._senders.append(sender)
        original_receive = sender.receive

        def wrapped_receive(packet: Any) -> None:
            original_receive(packet)
            self._check_sender(sender)

        sender.receive = wrapped_receive

    def attach_middlebox(self, middlebox: Any) -> None:
        """Wrap dispatch accounting.  Assumes registered limiters receive
        traffic only through this middlebox (the repo's wiring)."""
        state: dict[str, Any] = {
            "packets": 0,
            "bytes": 0,
            "unmatched_bytes": 0,
            "baselines": {},
        }
        self._middleboxes.append((middlebox, state))

        original_add = middlebox.add_aggregate

        def wrapped_add(aggregate: int, limiter: Any) -> None:
            original_add(aggregate, limiter)
            state["baselines"][aggregate] = (
                limiter,
                limiter.stats.arrived_packets,
                limiter.stats.arrived_bytes,
            )

        middlebox.add_aggregate = wrapped_add

        original_receive = middlebox.receive

        def wrapped_receive(packet: Any) -> None:
            state["packets"] += 1
            state["bytes"] += packet.size
            if packet.flow.aggregate not in middlebox._limiters:
                state["unmatched_bytes"] += packet.size
            original_receive(packet)
            self._check_middlebox(middlebox, state)

        middlebox.receive = wrapped_receive

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.fail_fast:
            raise InvariantViolation(message)

    def _ensure(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self._fail(message)

    def finalize(self, *, traces: tuple[Any, ...] = ()) -> None:
        """Run end-of-simulation checks.

        Re-checks every attached component once more and flags empty
        receiver traces (a run whose receiver saw nothing almost always
        means mis-wired topology, not a quiet workload).
        """
        for limiter, state in self._limiters:
            if state["ready"]:
                self._check_limiter(limiter, state, None)
        for sender in self._senders:
            self._check_sender(sender)
        for middlebox, state in self._middleboxes:
            self._check_middlebox(middlebox, state)
        for sim in self._simulators:
            self._check_simulator(sim)
        for trace in traces:
            self._ensure(
                len(trace.times) > 0,
                f"trace {getattr(trace, 'name', '?')!r}: no records at end "
                "of run (empty receiver trace)",
            )
        self._check_packet_pools()

    def _check_packet_pools(self) -> None:
        """Free-list integrity: every drop point that recycles must leave
        the pools bounded, duplicate-free and correctly latched."""
        from repro.net.packet import Packet, PacketKind

        for label, pool, limit, kind in (
            ("ack", Packet._ack_pool, Packet._ACK_POOL_MAX, PacketKind.ACK),
            ("data", Packet._data_pool, Packet._DATA_POOL_MAX,
             PacketKind.DATA),
        ):
            self._ensure(
                len(pool) <= limit,
                f"packet pool {label}: {len(pool)} entries exceed the "
                f"{limit} bound",
            )
            self._ensure(
                len({id(p) for p in pool}) == len(pool),
                f"packet pool {label}: duplicate object pooled "
                "(double recycle slipped past the latch)",
            )
            for packet in pool:
                if not packet._in_pool:
                    self._fail(
                        f"packet pool {label}: pooled packet "
                        f"uid={packet.uid} has _in_pool unset"
                    )
                    break
                if packet.kind is not kind:
                    self._fail(
                        f"packet pool {label}: pooled packet "
                        f"uid={packet.uid} has kind {packet.kind}"
                    )
                    break
            else:
                self.checks += 2


    # ------------------------------------------------------------------
    # Limiter checks
    # ------------------------------------------------------------------

    def _init_limiter(self, limiter: Any, state: dict[str, Any]) -> None:
        """Type-specific setup, deferred to the first wrapped call so the
        subclass ``__init__`` has finished."""
        state["ready"] = True
        if isinstance(limiter, PQP):
            queues = limiter.queues
            name = limiter.name
            state["ledger_in"] = 0.0
            state["ledger_reclaimed"] = 0.0
            state["drained_base"] = queues.drained_bytes
            state["evicted_base"] = queues.evicted_bytes
            state["recompute_base"] = queues.drain_recomputes
            state["prev_drained"] = queues.drained_bytes
            state["prev_evicted"] = queues.evicted_bytes
            state["prev_epoch"] = queues.epoch
            state["prev_recomputes"] = queues.drain_recomputes
            state["prev_vtimes"] = queues.gps_virtual_times()

            def check_queue(queue: int) -> None:
                # Removed-queue events must never fire: after a shrink,
                # nothing may enqueue/fill/reclaim past the new count.
                self._ensure(
                    0 <= queue < queues.num_queues,
                    f"{name}: phantom event on queue {queue} outside the "
                    f"current {queues.num_queues}-queue set "
                    "(removed-queue event fired after reconfiguration)",
                )

            original_enqueue = queues.try_enqueue

            def wrapped_enqueue(queue: int, size: float) -> bool:
                check_queue(queue)
                accepted = original_enqueue(queue, size)
                if accepted:
                    state["ledger_in"] += size
                return accepted

            queues.try_enqueue = wrapped_enqueue

            original_fill = queues.fill_with_magic

            def wrapped_fill(queue: int) -> float:
                check_queue(queue)
                added = original_fill(queue)
                state["ledger_in"] += added
                return added

            queues.fill_with_magic = wrapped_fill

            original_reclaim = queues.reclaim_magic

            def wrapped_reclaim(queue: int) -> float:
                check_queue(queue)
                reclaimed = original_reclaim(queue)
                state["ledger_reclaimed"] += reclaimed
                return reclaimed

            queues.reclaim_magic = wrapped_reclaim

    def _check_simulator(self, sim: Any) -> None:
        """Engine-counter probes (satellite of the event-engine overhaul):
        the live/cancelled split introduced for ``Simulator.pending`` must
        always tile the raw heap exactly."""
        self._ensure(
            sim.pending >= 0,
            f"simulator: negative live-event count {sim.pending}",
        )
        self._ensure(
            sim.cancelled_backlog >= 0,
            f"simulator: negative cancelled backlog {sim.cancelled_backlog}",
        )
        self._ensure(
            sim.heap_size == sim.pending + sim.cancelled_backlog,
            f"simulator: heap accounting broken: heap_size={sim.heap_size}"
            f" != pending={sim.pending} + "
            f"cancelled_backlog={sim.cancelled_backlog}",
        )
        self._ensure(
            sim.cancelled_backlog_hwm >= sim.cancelled_backlog,
            f"simulator: backlog HWM {sim.cancelled_backlog_hwm} below "
            f"current backlog {sim.cancelled_backlog}",
        )
        self._ensure(
            sim.peak_heap_size >= sim.heap_size,
            f"simulator: peak heap {sim.peak_heap_size} below current "
            f"heap size {sim.heap_size}",
        )

    def _check_limiter(
        self, limiter: Any, state: dict[str, Any], flow: Any
    ) -> None:
        """Per-limiter invariants; ``flow`` is the arriving packet's flow
        (``None`` for checks outside an arrival)."""
        sim = getattr(limiter, "_sim", None)
        if sim is not None and sim in self._simulators:
            self._check_simulator(sim)
        stats = limiter.stats
        name = limiter.name

        self._ensure(
            sum(stats.per_queue_drops.values()) == stats.dropped_packets,
            f"{name}: per_queue_drops sums to "
            f"{sum(stats.per_queue_drops.values())}, not "
            f"dropped_packets={stats.dropped_packets}",
        )
        for op, count in limiter.cost.snapshot().items():
            self._ensure(
                count >= 0,
                f"{name}: negative op count {op}={count}",
            )

        if isinstance(limiter, Shaper):
            self._check_shaper(limiter)
        else:
            # Policers never buffer: conservation is exact, in packets
            # and in bytes.
            self._ensure(
                stats.arrived_packets
                == stats.forwarded_packets + stats.dropped_packets,
                f"{name}: packet conservation broken: arrived="
                f"{stats.arrived_packets} != forwarded="
                f"{stats.forwarded_packets} + dropped={stats.dropped_packets}",
            )
            self._ensure(
                stats.arrived_bytes
                == stats.forwarded_bytes + stats.dropped_bytes,
                f"{name}: byte conservation broken: arrived="
                f"{stats.arrived_bytes} != forwarded={stats.forwarded_bytes}"
                f" + dropped={stats.dropped_bytes}",
            )

        if isinstance(limiter, TokenBucketPolicer):
            tokens = limiter._tokens
            self._ensure(
                -_EPS <= tokens <= limiter._bucket + _EPS,
                f"{name}: tokens {tokens!r} outside "
                f"[0, {limiter._bucket!r}]",
            )
        elif isinstance(limiter, FairPolicer):
            bucket = limiter._bucket
            for i, flow_tokens in enumerate(limiter._flow_tokens):
                self._ensure(
                    -_EPS <= flow_tokens <= bucket + _EPS,
                    f"{name}: flow {i} tokens {flow_tokens!r} outside "
                    f"[0, {bucket!r}]",
                )
            self._ensure(
                -_EPS <= limiter._spare <= bucket + _EPS,
                f"{name}: spare {limiter._spare!r} outside [0, {bucket!r}]",
            )
        elif isinstance(limiter, PQP):
            self._check_phantom(limiter, state)
            if isinstance(limiter, BCPQP):
                self._check_bcpqp(limiter, flow)

    def _check_shaper(self, shaper: Shaper) -> None:
        stats = shaper.stats
        buffered = sum(len(q) for q in shaper._queues)
        in_service = 1 if shaper._busy else 0
        self._ensure(
            stats.arrived_packets
            == stats.forwarded_packets
            + stats.dropped_packets
            + buffered
            + in_service,
            f"{shaper.name}: packet conservation broken: arrived="
            f"{stats.arrived_packets}, forwarded={stats.forwarded_packets},"
            f" dropped={stats.dropped_packets}, buffered={buffered},"
            f" in_service={in_service}",
        )
        # The in-service packet's bytes are in neither the backlog nor the
        # forwarded count while it serializes, so the byte slack is one
        # packet at most (zero when idle).
        slack = (
            stats.arrived_bytes
            - stats.forwarded_bytes
            - stats.dropped_bytes
            - shaper.backlog_bytes()
        )
        self._ensure(
            slack >= -_EPS and (shaper._busy or slack <= _EPS),
            f"{shaper.name}: byte conservation broken: unaccounted "
            f"slack {slack!r} (busy={shaper._busy})",
        )

    def _check_phantom(self, limiter: PQP, state: dict[str, Any]) -> None:
        queues = limiter.queues
        name = limiter.name
        total_peeked = 0.0
        for qi in range(queues.num_queues):
            length = queues.peek_length(qi)
            capacity = queues.capacity(qi)
            self._ensure(
                -_EPS <= length <= capacity + _EPS + _REL * capacity,
                f"{name}: phantom queue {qi} occupancy {length!r} outside "
                f"[0, capacity={capacity!r}]",
            )
            self._ensure(
                queues.raw_magic(qi) >= 0.0,
                f"{name}: phantom queue {qi} magic watermark "
                f"{queues.raw_magic(qi)!r} negative",
            )
            total_peeked += length

        drained = queues.drained_bytes - state["drained_base"]
        evicted = queues.evicted_bytes - state["evicted_base"]
        recomputes = queues.drain_recomputes - state["recompute_base"]
        # Lazy engines shed sub-epsilon "crumbs" when a queue empties
        # (fluid additionally zeroes them without crediting drained_bytes),
        # so conservation holds to a tolerance scaled by how many linear
        # pieces / phantom dequeues have run.
        tolerance = _EPS * (recomputes + 10) + _REL * state["ledger_in"]
        ledger_total = (
            state["ledger_in"] - state["ledger_reclaimed"] - drained - evicted
        )
        running_total = queues.total_length()
        self._ensure(
            abs(ledger_total - running_total) <= tolerance,
            f"{name}: phantom ledger broken: in={state['ledger_in']!r} - "
            f"reclaimed={state['ledger_reclaimed']!r} - drained={drained!r}"
            f" - evicted={evicted!r} = {ledger_total!r}, but "
            f"total_length()={running_total!r} (tolerance {tolerance!r})",
        )
        self._ensure(
            abs(running_total - total_peeked) <= tolerance,
            f"{name}: total_length()={running_total!r} disagrees with "
            f"sum of per-queue occupancies {total_peeked!r} "
            f"(tolerance {tolerance!r})",
        )
        self._ensure(
            queues.drained_bytes >= state["prev_drained"],
            f"{name}: drained_bytes went backwards: "
            f"{queues.drained_bytes!r} < {state['prev_drained']!r}",
        )
        self._ensure(
            queues.drain_recomputes >= state["prev_recomputes"],
            f"{name}: drain_recomputes went backwards: "
            f"{queues.drain_recomputes} < {state['prev_recomputes']}",
        )
        self._ensure(
            queues.evicted_bytes >= state["prev_evicted"] - _EPS,
            f"{name}: evicted_bytes went backwards: "
            f"{queues.evicted_bytes!r} < {state['prev_evicted']!r}",
        )
        self._ensure(
            queues.epoch >= state["prev_epoch"],
            f"{name}: mutation epoch went backwards: "
            f"{queues.epoch} < {state['prev_epoch']}",
        )
        epoch_changed = queues.epoch != state["prev_epoch"]
        state["prev_drained"] = queues.drained_bytes
        state["prev_evicted"] = queues.evicted_bytes
        state["prev_epoch"] = queues.epoch
        state["prev_recomputes"] = queues.drain_recomputes

        # No stale-mask cache hits: every memo key must carry the live
        # tree version (``Policy.invalidate`` bumps it and clears both
        # caches; a key from an older version means some path computed
        # shares against a replaced tree).
        policy = queues.policy
        version = policy.version
        stale = [k for k in policy._share_cache if k[0] != version] + [
            k for k in policy._flat_cache if k[0] != version
        ]
        self._ensure(
            not stale,
            f"{name}: stale policy memo keys {stale[:4]!r} survive at "
            f"tree version {version} (cache not invalidated)",
        )

        virtual_times = queues.gps_virtual_times()
        if virtual_times is not None:
            previous = state["prev_vtimes"]
            if epoch_changed or previous is None:
                # A committed reconfiguration rebuilds the GPS engine:
                # group count and virtual clocks re-seed, so monotonicity
                # restarts from the fresh baseline.
                state["prev_vtimes"] = virtual_times
            else:
                for gi, (v_now, v_prev) in enumerate(
                    zip(virtual_times, previous)
                ):
                    self._ensure(
                        v_now >= v_prev,
                        f"{name}: GPS virtual time of group {gi} went "
                        f"backwards: {v_now!r} < {v_prev!r}",
                    )
                state["prev_vtimes"] = virtual_times

    def _check_bcpqp(self, limiter: BCPQP, flow: Any) -> None:
        name = limiter.name
        self._ensure(
            len(limiter._accepted_window) == limiter.num_queues
            and len(limiter._arrived_window) == limiter.num_queues
            and len(limiter._window_start) == limiter.num_queues,
            f"{name}: window arrays sized "
            f"({len(limiter._accepted_window)}, "
            f"{len(limiter._arrived_window)}, "
            f"{len(limiter._window_start)}) for {limiter.num_queues} queues "
            "(accounting windows not migrated at the epoch seam)",
        )
        for qi in range(limiter.num_queues):
            accepted = limiter.accepted_window_bytes(qi)
            arrived = limiter.arrived_window_bytes(qi)
            self._ensure(
                accepted <= arrived + _EPS,
                f"{name}: window accounting broken on queue {qi}: "
                f"accepted={accepted!r} > arrived={arrived!r}",
            )
            self._ensure(
                accepted >= 0.0 and arrived >= 0.0,
                f"{name}: negative window counter on queue {qi}: "
                f"accepted={accepted!r}, arrived={arrived!r}",
            )
        self._ensure(
            limiter.magic_fills >= 0 and limiter.magic_reclaims >= 0,
            f"{name}: negative magic counter: fills={limiter.magic_fills},"
            f" reclaims={limiter.magic_reclaims}",
        )
        if flow is not None:
            # The arrival rolled (or reset) this packet's window, so
            # post-packet the arriving queue's window is younger than T.
            qi = limiter._classifier.queue_of(flow)
            age = limiter.window_age(qi, limiter._sim.now)
            self._ensure(
                age < limiter.period + _EPS,
                f"{name}: queue {qi} window age {age!r} >= period "
                f"{limiter.period!r} after an arrival",
            )

    def _check_post_sweep(self, limiter: Any) -> None:
        """After a window sweep every queue's window was rolled if stale."""
        if not isinstance(limiter, BCPQP):
            return
        now = limiter._sim.now
        for qi in range(limiter.num_queues):
            age = limiter.window_age(qi, now)
            self._ensure(
                age < limiter.period + _EPS,
                f"{limiter.name}: queue {qi} window age {age!r} >= period "
                f"{limiter.period!r} after the sweep",
            )

    # ------------------------------------------------------------------
    # Sender checks
    # ------------------------------------------------------------------

    def _check_sender(self, sender: Any) -> None:
        name = getattr(sender, "name", "sender")
        self._ensure(
            sender.snd_una <= sender.snd_nxt,
            f"{name}: snd_una={sender.snd_una} > snd_nxt={sender.snd_nxt}",
        )
        pipe = (
            (sender.snd_nxt - sender.snd_una)
            - len(sender._sacked)
            - len(sender._lost_set)
            + len(sender._retx_out)
        )
        self._ensure(
            pipe >= 0,
            f"{name}: negative scoreboard pipe {pipe} "
            f"(snd_nxt={sender.snd_nxt}, snd_una={sender.snd_una}, "
            f"sacked={len(sender._sacked)}, lost={len(sender._lost_set)}, "
            f"retx={len(sender._retx_out)})",
        )
        cc = sender.cc
        self._ensure(
            cc.cwnd >= 1.0 - _EPS,
            f"{name}: cwnd {cc.cwnd!r} below 1 MSS",
        )
        self._ensure(
            cc.ssthresh >= 1.0 - _EPS,
            f"{name}: ssthresh {cc.ssthresh!r} below 1 MSS",
        )
        self._ensure(
            _endpoint._MIN_RTO - _EPS
            <= sender.rto
            <= _endpoint._MAX_RTO + _EPS,
            f"{name}: RTO {sender.rto!r} outside "
            f"[{_endpoint._MIN_RTO}, {_endpoint._MAX_RTO}]",
        )
        if sender.srtt is not None:
            self._ensure(
                sender.srtt > 0.0,
                f"{name}: non-positive srtt {sender.srtt!r}",
            )
            self._ensure(
                sender._rttvar >= 0.0,
                f"{name}: negative rttvar {sender._rttvar!r}",
            )

    # ------------------------------------------------------------------
    # Middlebox checks
    # ------------------------------------------------------------------

    def _check_middlebox(self, middlebox: Any, state: dict[str, Any]) -> None:
        name = middlebox.name
        delivered_packets = 0
        delivered_bytes = 0
        for _agg, (limiter, base_packets, base_bytes) in state[
            "baselines"
        ].items():
            delivered_packets += limiter.stats.arrived_packets - base_packets
            delivered_bytes += limiter.stats.arrived_bytes - base_bytes
        self._ensure(
            state["packets"]
            == middlebox.unmatched_packets + delivered_packets,
            f"{name}: dispatch conservation broken: received="
            f"{state['packets']} packets, unmatched="
            f"{middlebox.unmatched_packets}, delivered={delivered_packets}",
        )
        self._ensure(
            state["bytes"] == state["unmatched_bytes"] + delivered_bytes,
            f"{name}: dispatch byte conservation broken: received="
            f"{state['bytes']}, unmatched={state['unmatched_bytes']}, "
            f"delivered={delivered_bytes}",
        )
