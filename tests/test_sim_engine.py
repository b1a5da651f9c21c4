"""Event queue, entities, collectors."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.sim import EventQueue, GroupState, MissionRecord, NodeState, ReplicationStats


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.schedule(5.0, "b")
        q.schedule(1.0, "a")
        q.schedule(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "c", "b"]
        assert q.now_s == 5.0

    def test_stable_tie_break(self):
        q = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_cancellation(self):
        q = EventQueue()
        e = q.schedule(1.0, "dead")
        q.schedule(2.0, "alive")
        e.cancel()
        assert q.pop().kind == "alive"
        assert len(q) == 0

    def test_schedule_at(self):
        q = EventQueue()
        q.schedule_at(10.0, "x")
        assert q.peek_time() == 10.0
        with pytest.raises(SimulationError):
            q.pop()
            q.schedule_at(5.0, "y")

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, "x")

    def test_pop_empty(self):
        assert EventQueue().pop() is None

    def test_clear(self):
        q = EventQueue()
        q.schedule(1.0, "x")
        q.clear()
        assert q.pop() is None

    def test_payloads(self):
        q = EventQueue()
        q.schedule(1.0, "x", payload={"node": 3})
        assert q.pop().payload == {"node": 3}

    def test_len_counts_live_events(self):
        q = EventQueue()
        events = [q.schedule(float(i + 1), "e") for i in range(5)]
        assert len(q) == 5
        events[1].cancel()
        events[3].cancel()
        assert len(q) == 3
        q.pop()
        assert len(q) == 2

    def test_len_is_constant_time(self):
        # The counter, not a heap scan: len() must not depend on the
        # number of dead events still sitting in the heap.
        q = EventQueue()
        events = [q.schedule(float(i + 1), "e") for i in range(1000)]
        for e in events[:-1]:
            e.cancel()
        assert len(q) == 1
        assert len(q._heap) == 1000  # lazily cancelled, not removed

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.schedule(1.0, "x")
        q.schedule(2.0, "y")
        e.cancel()
        e.cancel()  # double-cancel must not double-decrement
        assert len(q) == 1

    def test_cancel_after_pop_is_noop(self):
        q = EventQueue()
        q.schedule(1.0, "x")
        q.schedule(2.0, "y")
        popped = q.pop()
        popped.cancel()
        assert len(q) == 1

    def test_cancel_after_clear_is_noop(self):
        q = EventQueue()
        e = q.schedule(1.0, "x")
        q.clear()
        e.cancel()
        assert len(q) == 0
        q.schedule(1.5, "z")
        assert len(q) == 1


class TestGroupState:
    def test_fresh_all_trusted(self):
        g = GroupState.fresh(5)
        assert g.t == 5 and g.u == 0 and g.d == 0
        assert sorted(g.trusted) == [0, 1, 2, 3, 4]
        assert g.live_members == g.trusted

    def test_lifecycle(self):
        g = GroupState.fresh(3)
        g.compromise(1)
        assert g.of(1) is NodeState.COMPROMISED
        assert g.u == 1 and g.t == 2
        g.detect(1)
        assert g.d == 1 and g.u == 0
        g.evict(1)
        assert g.of(1) is NodeState.EVICTED
        assert 1 not in g.live_members

    def test_false_accusation_path(self):
        g = GroupState.fresh(3)
        g.detect(0)  # trusted -> detected is legal (false accusation)
        assert g.t == 2 and g.d == 1

    def test_invalid_transitions(self):
        g = GroupState.fresh(3)
        g.compromise(0)
        with pytest.raises(SimulationError):
            g.compromise(0)
        with pytest.raises(SimulationError):
            g.evict(0)  # must be detected first
        with pytest.raises(SimulationError):
            g.of(99)


class TestReplicationStats:
    def test_from_samples(self):
        s = ReplicationStats.from_samples([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.count == 3

    def test_interval_contains(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 1.0, size=200)
        s = ReplicationStats.from_samples(samples)
        assert s.contains(10.0)
        assert not s.contains(12.0)
        lo, hi = s.interval
        assert lo < s.mean < hi

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_half_width_is_the_normal_quantile(self, confidence):
        from scipy.stats import norm

        samples = np.random.default_rng(1).normal(10.0, 2.0, size=40)
        s = ReplicationStats.from_samples(samples, confidence=confidence)
        z = norm.ppf(0.5 + confidence / 2.0)
        assert s.half_width == float(z * s.std / math.sqrt(s.count))

    def test_single_sample_infinite_ci(self):
        s = ReplicationStats.from_samples([5.0])
        assert s.half_width == float("inf")

    def test_validation(self):
        with pytest.raises(ParameterError):
            ReplicationStats.from_samples([])
        with pytest.raises(ParameterError):
            ReplicationStats.from_samples([1.0], confidence=1.5)

    def test_describe(self):
        assert "n=2" in ReplicationStats.from_samples([1.0, 2.0]).describe()


class TestMissionRecord:
    def test_mean_cost_rate(self):
        r = MissionRecord(
            ttsf_s=100.0,
            failure_mode="c1_data_leak",
            accumulated_cost_hop_bits=500.0,
            num_compromises=1,
            num_detections=0,
            num_false_evictions=0,
            num_leak_attempts=1,
        )
        assert r.mean_cost_rate == pytest.approx(5.0)
