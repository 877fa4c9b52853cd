"""BC-PQP: burst-controlled phantom-queue policing (§4).

Each phantom queue tracks the bytes it *accepted* during the current
tumbling window of length ``T``.  On every acceptance the queue's expected
dequeue ``X_i = r*_i x T`` is computed from the policy tree over the
currently active queues; if accepted bytes exceed ``theta_plus x X_i`` the
queue is vacuously filled to capacity with *magic* bytes, forcing early
drops and pushing the flow into its steady state without the slow-start
burst.  At window boundaries, a queue that accepted less than
``theta_minus x X_i`` has its magic bytes reclaimed so a finishing flow's
share is immediately reusable.

Because ``r*_i`` tracks the set of active queues, the scheme auto-tunes:
no per-flow bucket sizing is ever needed (§4's design insights).
"""

from __future__ import annotations

from repro.classify.classifier import FlowClassifier
from repro.core.pqp import PQP
from repro.limiters.costs import Op
from repro.net.packet import Packet
from repro.policy.tree import Policy
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer
from repro.units import MSS, ms

_TWO_MSS = 2.0 * MSS


class BCPQP(PQP):
    """Burst-controlled PQP.

    Parameters (beyond :class:`~repro.core.pqp.PQP`)
    ------------------------------------------------
    theta_plus:
        Upper threshold multiplier (paper default 1.5 — Reno's 4r/3 upper
        steady-state bound with margin).
    theta_minus:
        Lower threshold multiplier (paper default 0.5 — Reno's 2r/3 bound
        with margin).
    period:
        Window length ``T`` (paper default 100 ms ≈ p99 RTT).
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        rate: float,
        policy: Policy,
        classifier: FlowClassifier,
        queue_bytes: float | list[float],
        theta_plus: float = 1.5,
        theta_minus: float = 0.5,
        period: float = ms(100),
        service: str = "fluid",
        ecn_mark_fraction: float | None = None,
        name: str = "bcpqp",
    ) -> None:
        super().__init__(
            sim,
            rate=rate,
            policy=policy,
            classifier=classifier,
            queue_bytes=queue_bytes,
            service=service,
            ecn_mark_fraction=ecn_mark_fraction,
            name=name,
        )
        if not 0 <= theta_minus < theta_plus:
            raise ValueError(
                f"need 0 <= theta_minus < theta_plus, got "
                f"{theta_minus!r}, {theta_plus!r}"
            )
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.theta_plus = theta_plus
        self.theta_minus = theta_minus
        self.period = period

        n = self.num_queues
        self._accepted_window = [0.0] * n
        self._arrived_window = [0.0] * n
        self._window_start = [sim.now] * n
        self.magic_fills = 0
        self.magic_reclaims = 0
        # A repeating sweep both rolls the windows and applies the lower
        # threshold even when a queue stops receiving packets entirely —
        # that immediacy is why BC-PQP reallocates a finished flow's share
        # faster than a plain PQP with huge queues (§4 "Why do we need to
        # drain the magic packets?").  The callback binds the instance
        # attribute so a validate-wrapped _on_window_sweep is honoured.
        self._sweep_timer = Timer(sim, lambda: self._on_window_sweep())
        self._sweep_timer.schedule_after(self.period)

    def stop(self) -> None:
        """Cancel the periodic window sweep (for teardown in tests)."""
        self._sweep_timer.cancel()

    def _after_reconfigure(self, now: float) -> None:
        """Close the accounting windows at the mutation instant.

        A committed reconfiguration invalidates every window's budget
        basis (``X_i = r*_i x T`` changes with the rate, the tree and
        the queue count), so the partial windows are discarded and all
        queues restart a fresh window at ``now`` — sized for the new
        queue count.  The periodic sweep keeps running untouched.
        """
        n = self.num_queues
        self._accepted_window = [0.0] * n
        self._arrived_window = [0.0] * n
        self._window_start = [now] * n

    def expected_window_bytes(self, queue: int) -> float:
        """``X_i = r*_i x T`` under the current active set."""
        return self.queues.fluid_rate_of(queue) * self.period

    def accepted_window_bytes(self, queue: int) -> float:
        """Bytes accepted by ``queue`` in the current window."""
        return self._accepted_window[queue]

    def arrived_window_bytes(self, queue: int) -> float:
        """Bytes that arrived for ``queue`` in the current window."""
        return self._arrived_window[queue]

    def window_age(self, queue: int, now: float) -> float:
        """Age of ``queue``'s current tumbling window at time ``now``.

        Windows roll on the queue's own clock (arrivals and the periodic
        sweep), so immediately after either event every touched queue's
        age is below ``period`` — the accounting invariant the checker
        asserts.
        """
        return now - self._window_start[queue]

    def _maybe_roll_window(self, queue: int, now: float) -> None:
        """Tumble the queue's window once it is a full period old, applying
        the lower-threshold (reclaim) check to the elapsed window.  Windows
        roll on the queue's own clock — fills restart them mid-sweep, and a
        stale window would compare a full period's worth of traffic against
        a single-period budget, triggering spurious fills at steady state.
        """
        elapsed = now - self._window_start[queue]
        if elapsed < self.period:
            return
        rate_i = self.queues.fluid_rate_of(queue)
        floor = self.theta_minus * rate_i * elapsed
        if (
            self._arrived_window[queue] < floor
            and self.queues.magic_bytes(queue) > 0
        ):
            self.queues.reclaim_magic(queue)
            self.magic_reclaims += 1
        self._window_start[queue] = now
        self._accepted_window[queue] = 0.0
        self._arrived_window[queue] = 0.0
        self.cost.charge(Op.ALU, 3)

    def _on_packet(self, packet: Packet) -> None:
        """PQP's decision with the burst-control window accounting
        inlined.

        An arrival first rolls its queue's window on the queue's own
        clock (:meth:`_maybe_roll_window`) and counts toward the window's
        arrivals.  An acceptance counts toward the window's accepted
        bytes and applies the upper threshold: past
        ``max(theta_plus x X_i, X_i + 2 MSS)`` the queue is filled with
        magic bytes and its window restarts at the fill.
        """
        now = self._sim._now
        qi = self._classifier.queue_of(packet.flow)
        queues = self.queues
        before = queues.drain_recomputes
        queues.advance(now)
        alu = 3 + 2 * (queues.drain_recomputes - before)
        if now - self._window_start[qi] >= self.period:
            self._maybe_roll_window(qi, now)
        size = packet.size
        self._arrived_window[qi] += size
        cost = self.cost
        cost.charge(Op.MAP, 1)
        if queues.try_enqueue(qi, size):
            accepted_window = self._accepted_window
            accepted = accepted_window[qi] + size
            accepted_window[qi] = accepted
            # X_i = r*_i x T from the active set (the packet just
            # enqueued guarantees this queue is active).
            x_i = queues.fluid_rate_of(qi) * self.period
            alu += 3
            # Keep at least two packets of slack above the window budget
            # so low-rate queues (X_i of a packet or two) don't trip on
            # packetization granularity — the same reason token buckets
            # are never sized below a couple of MTUs.
            ceiling = self.theta_plus * x_i
            slack = x_i + _TWO_MSS
            if ceiling < slack:
                ceiling = slack
            if accepted > ceiling:
                if queues.fill_with_magic(qi) > 0:
                    self.magic_fills += 1
                    alu += 2
                # Restart this queue's window at the fill so the next
                # lower-threshold check sees a full window of post-fill
                # behaviour (the queue now admits exactly at its drain
                # rate).
                self._window_start[qi] = now
                accepted_window[qi] = 0.0
                self._arrived_window[qi] = 0.0
            cost.charge(Op.ALU, alu)
            if self._ecn_mark_fraction is not None:
                self._mark_ecn(qi, packet)
            self._forward(packet)
        else:
            cost.charge(Op.ALU, alu)
            self._drop(packet, queue=qi)

    def _on_window_sweep(self) -> None:
        now = self._sim.now
        self.queues.advance(now)
        self.cost.charge(Op.TIMER, 1)
        # The reclaim watches the flow's *sending* rate (arrivals at the
        # queue, §4: "its sending rate falls below a lower threshold") — a
        # flow whose packets are being dropped at a magic-full queue is
        # still active; only a quiet one is finishing.  The sweep exists
        # for exactly the queues that stopped receiving packets (their
        # windows would otherwise never roll).
        for qi in range(self.num_queues):
            self._maybe_roll_window(qi, now)
        self.cost.charge(Op.ALU, 2 * self.num_queues)
        self._sweep_timer.schedule_after(self.period)
