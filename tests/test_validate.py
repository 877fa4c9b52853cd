"""Tests for the runtime invariant checker (repro.validate)."""

import pytest

from repro.cc.endpoint import TcpSender
from repro.core.bcpqp import BCPQP
from repro.core.pqp import PQP
from repro.classify.classifier import SlotClassifier
from repro.limiters.token_bucket import TokenBucketPolicer
from repro.net.impair import ImpairmentSpec
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.policy.tree import Policy
from repro.runner.aggregate import AggregateConfig, build_scenario
from repro.sim.simulator import Simulator
from repro.units import MSS, mbps, ms
from repro.validate import InvariantChecker, InvariantViolation
from repro.workload.spec import FlowSpec


def data_packet(slot=0, size=MSS, aggregate=0):
    return Packet.data(FlowId(aggregate, slot), seq=0, sent_at=0.0,
                       size=size)


def _checked_sim(**kwargs):
    checker = InvariantChecker(**kwargs)
    return checker, Simulator(validate=checker)


def _pqp(sim, *, cls=PQP, num_queues=2, rate=mbps(5), queue_bytes=40 * MSS,
         **kwargs):
    return cls(
        sim,
        rate=rate,
        policy=Policy.fair(num_queues),
        classifier=SlotClassifier(num_queues),
        queue_bytes=queue_bytes,
        **kwargs,
    )


class TestAttachment:
    def test_disabled_simulator_has_no_validator(self):
        assert Simulator().validator is None

    def test_components_self_register(self):
        checker, sim = _checked_sim()
        limiter = _pqp(sim)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        assert checker.checks > 0
        assert checker.violations == []

    def test_checks_cover_every_receive(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        before = checker.checks
        for _ in range(5):
            limiter.receive(data_packet())
        assert checker.checks > before


class TestViolationDetection:
    def test_token_bucket_overflow_flagged(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter._tokens = 20 * MSS  # corrupt: above bucket capacity
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())
        assert checker.violations

    def test_negative_tokens_flagged(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        limiter._tokens = -1.0
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())

    def test_phantom_overfill_flagged(self):
        checker, sim = _checked_sim()
        limiter = _pqp(sim)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        # Corrupt the phantom counter past its capacity (bypassing
        # try_enqueue's bound check, fluid-ref engine for direct access).
        limiter.queues._gps = None
        limiter.queues._length = [limiter.queues.capacity(0) * 2, 0.0]
        limiter.queues._total = limiter.queues._length[0]
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())

    def test_forwarding_mismatch_flagged(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        limiter.stats.forwarded_packets += 1  # corrupt conservation
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())

    def test_collect_mode_accumulates(self):
        checker, sim = _checked_sim(fail_fast=False)
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter._tokens = 99 * MSS
        limiter.receive(data_packet())  # no raise
        assert len(checker.violations) >= 1

    def test_finalize_flags_empty_trace(self):
        class FakeTrace:
            name = "receiver"
            times: list = []

        checker = InvariantChecker(fail_fast=False)
        checker.finalize(traces=(FakeTrace(),))
        assert any("empty receiver trace" in v for v in checker.violations)


class TestWholeRunValidation:
    @pytest.mark.parametrize("scheme", ["pqp", "bcpqp", "shaper",
                                        "policer", "fairpolicer"])
    def test_clean_run_has_no_violations(self, scheme):
        checker, sim = _checked_sim()
        config = AggregateConfig(
            scheme=scheme,
            specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                   FlowSpec(slot=1, cc="cubic", rtt=ms(60))),
            rate=mbps(5), max_rtt=ms(100), horizon=1.0, warmup=0.25, seed=3,
        )
        limiter, scenario = build_scenario(config, sim)
        scenario.run()
        checker.finalize(traces=(scenario.trace,))
        assert checker.violations == []
        assert checker.checks > 100

    def test_bcpqp_sweep_is_checked(self):
        # The wrapped _on_window_sweep must actually fire: a 100 ms period
        # over a 1 s horizon sweeps ~10 times even with no packets at all.
        checker, sim = _checked_sim()
        limiter = _pqp(sim, cls=BCPQP)
        limiter.connect(NullSink())
        sim.run(until=1.0)
        limiter.stop()
        assert checker.checks > 0


class TestCheckerCoverage:
    """Every ACK a sender receives and every limiter arrival passes
    through the checker exactly once: a packet path that reached a
    sender's ACK body or a limiter's decision around the checked
    ``receive`` entry points would make these counts disagree."""

    @pytest.mark.parametrize("impair", [
        None,
        ImpairmentSpec(loss=0.01, ack_loss=0.01, corrupt=0.005,
                       duplicate=0.01, jitter=0.002),
    ], ids=["clean", "impaired"])
    def test_one_check_per_ack_and_per_arrival(self, impair, monkeypatch):
        calls = {"ack_body": 0, "sender": 0, "arrival": 0}
        process_ack = TcpSender._process_ack

        def counted_process_ack(sender, packet):
            calls["ack_body"] += 1
            process_ack(sender, packet)

        monkeypatch.setattr(TcpSender, "_process_ack", counted_process_ack)
        checker, sim = _checked_sim()
        check_sender = checker._check_sender
        check_limiter = checker._check_limiter

        def counted_check_sender(sender):
            calls["sender"] += 1
            check_sender(sender)

        def counted_check_limiter(limiter, state, flow):
            if flow is not None:
                calls["arrival"] += 1
            check_limiter(limiter, state, flow)

        checker._check_sender = counted_check_sender
        checker._check_limiter = counted_check_limiter
        config = AggregateConfig(
            scheme="bcpqp",
            specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                   FlowSpec(slot=1, cc="cubic", rtt=ms(50)),
                   FlowSpec(slot=2, cc="bbr", rtt=ms(80))),
            rate=mbps(5), max_rtt=ms(100), horizon=2.0, warmup=0.25,
            seed=5, impair=impair,
        )
        limiter, scenario = build_scenario(config, sim)
        scenario.run()
        assert checker.violations == []

        senders = checker._senders
        assert not any(s.done for s in senders)  # no ACK skips the body
        corrupt = sum(s.corrupt_acks_dropped for s in senders)
        assert calls["ack_body"] > 500
        assert calls["sender"] == calls["ack_body"] + corrupt
        assert calls["arrival"] == limiter.stats.arrived_packets
        if impair is None:
            # Independent ledgers: ACKs the receivers emitted minus the
            # ones still on the return pipes; data the senders sent
            # minus the packets still on the forward pipes.
            receivers = list(scenario.demux._sinks.values())
            assert calls["sender"] == sum(
                r.data_packets - r._ack_path.in_flight for r in receivers
            )
            assert calls["arrival"] == sum(
                s.packets_sent - s._egress.in_flight for s in senders
            )
        else:
            assert corrupt > 0
        checker.finalize(traces=(scenario.trace,))
        assert checker.violations == []


class TestZeroPerturbation:
    """A validated run must be byte-identical to an unvalidated one —
    the property that makes fluid vs fluid-ref strict diffing (and the
    pinned cost model) safe under validation."""

    @pytest.mark.parametrize("scheme,service", [
        ("pqp", "fluid"), ("pqp", "quantum"),
        ("bcpqp", "fluid"), ("bcpqp", "fluid-ref"),
    ])
    def test_validated_run_byte_identical(self, scheme, service):
        def run(validate):
            checker = InvariantChecker() if validate else None
            sim = Simulator(validate=checker)
            config = AggregateConfig(
                scheme=scheme,
                specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                       FlowSpec(slot=1, cc="bbr", rtt=ms(50))),
                rate=mbps(5), max_rtt=ms(100), horizon=1.0, warmup=0.25,
                seed=7, phantom_service=service,
            )
            limiter, scenario = build_scenario(config, sim)
            scenario.run()
            stats = limiter.stats
            return (
                stats.arrived_packets, stats.forwarded_packets,
                stats.dropped_packets, stats.forwarded_bytes,
                stats.dropped_bytes, dict(stats.per_queue_drops),
                limiter.queues.drained_bytes,
                limiter.cost.snapshot(),
                tuple(scenario.trace.times),
                sim.events_processed,
            )

        assert run(False) == run(True)
