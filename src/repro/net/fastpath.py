"""The drain shared by :class:`~repro.net.pipe.Pipe` and
:class:`~repro.net.link.Link`.

``drain_coalesced`` is the single delivery loop of the packet path.
Each invocation pops the head of a coalesced FIFO, hands it to the
sink's ``receive``, and then decides what to do with the new head: deliver
it inline at the same instant (when its reserved ``(time, seq)`` still
precedes every other heap event), advance the simulation clock inline
(strictly later instant, still globally next, and an un-budgeted
``run()`` is driving — see ``Simulator._advance_bound``), or re-arm a heap
event for it.  ``Simulator(batch_limit=K)`` caps the deliveries per drain
event at K (``1``: every packet is its own heap event).

Byte-identity argument
----------------------
Every arrival reserves the global seq a one-event-per-packet engine
would have consumed by scheduling its delivery, and a re-armed drain
carries the head's reserved ``(time, seq)``, so the heap fires it exactly
where that engine would have fired the packet's own event.  Inline
continuation is guarded by the same comparison: the next pending packet
is delivered without a heap round-trip only when it precedes the heap
head.  Every event pushed while a packet is being delivered carries
``time >= now`` and a seq greater than every seq reserved before it, so
it can never slip in front of a same-instant pending packet; cancelled
tuples stay in the heap (lazy deletion), so the guard's comparison target
is stable too.  Inline clock advancement fires the exact event the run
loop would have popped next, at the same ``(time, seq)``, with the same
clock value — only the heap round-trip (push, sift, pop, handle recycle)
is skipped, none of which is observable to components.  The drain limit
only moves where the loop hands back to the heap, never the order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.sim.simulator import EventHandle, Simulator


def drain_coalesced(
    sim: Simulator,
    pending: Any,
    sink: Any,
    rearm: Callable[[], None],
) -> bool:
    """Drain ``pending`` (a deque of ``(time, seq, packet)``) into
    ``sink.receive`` one packet at a time.

    Returns ``True`` when the deque is empty (the caller must clear its
    armed flag) and ``False`` when a heap event was re-armed for the
    remaining head via ``rearm``.
    """
    heap = sim._heap
    cap = sim._batch_cap
    receive = sink.receive
    heappop = heapq.heappop
    n = 0
    while True:
        receive(pending.popleft()[2])
        if not pending:
            return True
        n += 1
        nxt = pending[0]
        t1 = nxt[0]
        s1 = nxt[1]
        if n != cap:
            if t1 <= sim._now:
                # Same instant (conservative: a cancelled heap top falls
                # back to the re-arm path).
                if not heap:
                    sim._batched_deliveries += 1
                    continue
                top = heap[0]
                ht = top[0]
                if ht > t1 or (ht == t1 and top[1] > s1):
                    sim._batched_deliveries += 1
                    continue
            else:
                bound = sim._advance_bound
                if bound is not None and t1 <= bound:
                    # Strictly later instant: discard cancelled tops
                    # exactly like the run loop would, then check whether
                    # our head is the globally next live event.  If so,
                    # fire it inline.
                    while heap and heap[0][2].cancelled:
                        heappop(heap)
                        sim._cancelled_backlog -= 1
                    if not heap:
                        sim._now = t1
                        sim._inline_advances += 1
                        continue
                    top = heap[0]
                    ht = top[0]
                    if ht > t1 or (ht == t1 and top[1] > s1):
                        sim._now = t1
                        sim._inline_advances += 1
                        continue
        # call_at_reserved(t1, s1, rearm), inlined: pooled-handle draw,
        # push, and counter updates — identical bookkeeping, no call.
        pool = sim._handle_pool
        if pool:
            handle = pool.pop()
            handle.generation += 1
            handle.callback = rearm
            handle.args = ()
        else:
            handle = EventHandle(0.0, 0, rearm, (), sim)
            handle.pooled = True
        handle.time = t1
        handle.seq = s1
        heapq.heappush(heap, (t1, s1, handle))
        sim._heap_pushes += 1
        sim._live += 1
        if len(heap) > sim._peak_heap:
            sim._peak_heap = len(heap)
        return False
