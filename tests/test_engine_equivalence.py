"""Pinned full-simulation outcomes across the event-engine overhaul.

The soft-timer / coalesced-delivery / pooled-handle engine must be
*byte-identical* to the one-event-per-packet engine it replaced: same
(time, seq) firing order, hence the same packets dropped, the same RTT
samples, the same figures.  These cells were measured under both engines
(float-for-float equal) and are pinned **exactly** — no tolerances.  A
change to event ordering anywhere (timer wake seqs, link/pipe delivery
interleaving, pool reuse) shows up here as a hard failure.

The cells deliberately stress the order-sensitive paths: mixed CC
algorithms with different RTTs (RTO/TLP timer ties — PTO clamps produce
*constant* deadlines, so cross-flow same-instant ties are common, not
measure-zero), loss-heavy policers (retransmission scheduling), and the
shaper (its own serialization events interleaving with pipe delivery).
"""

import pytest

from repro.experiments import common
from repro.units import mbps, ms
from repro.workload.spec import FlowSpec

# scheme -> (cc mix, pinned (mean_xr, peak_xr, drop_rate, jain)) at
# rate=5 Mbps, max_rtt=80 ms, horizon=6 s, warmup=1 s, RTTs 20+15i ms.
PINNED = {
    ("policer", ("reno", "cubic", "bbr", "reno")): (
        1.0003200000000003, 1.0464, 0.37987730061349695, 0.41787186941706134,
    ),
    ("bcpqp", ("reno", "cubic", "bbr", "reno")): (
        0.99312, 1.1712, 0.31256830601092894, 0.9997862986363284,
    ),
    ("pqp", ("cubic", "bbr")): (
        0.99312, 1.104, 0.46503496503496505, 0.9999885535681331,
    ),
    ("shaper", ("reno", "cubic")): (
        0.9998400000000001, 1.008, 0.0436418359668924, 0.9999997695263074,
    ),
    ("fairpolicer", ("bbr", "reno")): (
        0.99696, 1.1328, 0.4185340802987862, 0.9999942048524393,
    ),
}


@pytest.mark.parametrize(
    "scheme,ccs", sorted(PINNED), ids=lambda v: v if isinstance(v, str) else "+".join(v)
)
def test_outcomes_identical_to_pre_overhaul_engine(scheme, ccs):
    specs = [
        FlowSpec(slot=i, cc=cc, rtt=ms(20 + 15 * i)) for i, cc in enumerate(ccs)
    ]
    result = common.run_aggregate(
        scheme, specs, rate=mbps(5), max_rtt=ms(80), horizon=6.0, warmup=1.0
    )
    expected = PINNED[(scheme, ccs)]
    got = (
        result.mean_normalized_throughput,
        result.peak_normalized_throughput,
        result.drop_rate,
        result.fairness,
    )
    # Exact equality is the contract: the engines are the same simulation.
    assert got == expected


@pytest.mark.batch
@pytest.mark.parametrize(
    "scheme,ccs", sorted(PINNED), ids=lambda v: v if isinstance(v, str) else "+".join(v)
)
def test_batched_engine_matches_unbatched(scheme, ccs):
    """The drain limit is the same simulation at a different delivery
    granularity: every outcome metric must be bit-for-bit equal between
    drain limit 1 (every packet its own heap event) and the unbounded
    default, across all five schemes."""
    specs = [
        FlowSpec(slot=i, cc=cc, rtt=ms(20 + 15 * i)) for i, cc in enumerate(ccs)
    ]
    results = [
        common.run_aggregate(
            scheme, specs, rate=mbps(5), max_rtt=ms(80), horizon=6.0,
            warmup=1.0, batch=batch,
        )
        for batch in (1, None)
    ]
    unbatched, batched = results
    assert (
        unbatched.mean_normalized_throughput,
        unbatched.peak_normalized_throughput,
        unbatched.drop_rate,
        unbatched.fairness,
    ) == (
        batched.mean_normalized_throughput,
        batched.peak_normalized_throughput,
        batched.drop_rate,
        batched.fairness,
    )
    # And both match the pre-overhaul pinned figures.
    assert (
        batched.mean_normalized_throughput,
        batched.peak_normalized_throughput,
        batched.drop_rate,
        batched.fairness,
    ) == PINNED[(scheme, ccs)]
