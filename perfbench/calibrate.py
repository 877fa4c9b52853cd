"""Machine-speed calibration for the benchmark's timings.

On a shared 2-vCPU VM the same cell's speed was seen to drift by up to
2x within minutes, far more than the changes the benchmark must
resolve.  So every timing is scaled to a reference machine speed:
:class:`Scaled` times a fixed pure-Python kernel (object attributes,
method calls, a dict and a heap of tuples, float arithmetic -- the
operations the simulator is made of) just before and after the measured
work, and the measured time is multiplied by
``REFERENCE_KERNEL_S / kernel time``.  A reported
second is then a second on a machine where the kernel takes exactly
``REFERENCE_KERNEL_S``.

The kernel uses nothing from ``repro``, so no change to the program can
move it.  Do not edit it: every recorded number is scaled by it.
"""

from __future__ import annotations

import heapq
import time

#: Kernel time of the reference machine speed (seconds).
REFERENCE_KERNEL_S = 0.02
#: Kernel runs per calibration; the fastest is kept.
REPEATS = 3


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def bump(self, x: float) -> float:
        self.value = self.value * 0.999 + x
        return self.value


def kernel(n: int = 30000) -> float:
    """The fixed calibration workload."""
    heap: list = []
    table: dict[int, _Node] = {}
    acc = 0.0
    for i in range(n):
        key = (i * 7919) % 4099
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, 0.0)
        acc += node.bump(i * 1e-3)
        heapq.heappush(heap, (acc % 97.0, i, node))
        if len(heap) > 64:
            t, _, other = heapq.heappop(heap)
            acc -= other.value * 1e-6 + t * 1e-9
    return acc


def kernel_seconds() -> float:
    """Fastest of ``REPEATS`` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Scaled:
    """Times a stretch of work and scales it to the reference speed.

    ``with Scaled() as s: ...`` calibrates on entry and exit; ``s.factor``
    then converts this machine's seconds to reference seconds.
    """

    def __init__(self, before: float | None = None) -> None:
        self.before = kernel_seconds() if before is None else before
        self.after = self.before

    def __enter__(self) -> "Scaled":
        return self

    def __exit__(self, *exc) -> None:
        self.after = kernel_seconds()

    @property
    def kernel_s(self) -> float:
        return (self.before + self.after) / 2

    @property
    def factor(self) -> float:
        return REFERENCE_KERNEL_S / self.kernel_s
