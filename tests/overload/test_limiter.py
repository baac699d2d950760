"""The bounded leveling queue and the PriorityStore max-end helpers."""

import pytest

from repro.overload import QUEUED, REJECTED, LevelingQueue
from repro.sim import PriorityStore, Simulator


def by_rank(item):
    return item[0]


class TestPriorityStoreMaxEnd:
    def test_peek_max_empty_is_none(self):
        store = PriorityStore(Simulator())
        assert store.peek_max() is None

    def test_pop_max_empty_raises(self):
        store = PriorityStore(Simulator())
        with pytest.raises(IndexError):
            store.pop_max()

    def test_peek_max_is_worst_key(self):
        store = PriorityStore(Simulator(), key=by_rank)
        for item in [(1, "a"), (3, "c"), (2, "b")]:
            store.put(item)
        assert store.peek_max() == (3, "c")

    def test_max_end_ties_prefer_youngest(self):
        store = PriorityStore(Simulator(), key=by_rank)
        store.put((2, "old"))
        store.put((2, "young"))
        assert store.peek_max() == (2, "young")
        assert store.pop_max() == (2, "young")
        assert store.peek_max() == (2, "old")

    def test_pop_max_keeps_min_order_intact(self):
        sim = Simulator()
        store = PriorityStore(sim, key=by_rank)
        for item in [(4, "d"), (1, "a"), (3, "c"), (2, "b")]:
            store.put(item)
        assert store.pop_max() == (4, "d")
        drained = []

        def consumer():
            while len(store):
                drained.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert drained == [(1, "a"), (2, "b"), (3, "c")]


class TestLevelingQueue:
    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            LevelingQueue(Simulator(), depth=0)

    def test_queues_below_depth(self):
        queue = LevelingQueue(Simulator(), depth=3, key=by_rank)
        for rank in (3, 1, 2):
            outcome, displaced = queue.offer((rank, f"r{rank}"))
            assert outcome == QUEUED
            assert displaced is None
        assert len(queue) == 3

    def test_full_rejects_equal_rank(self):
        # An equal-rank newcomer does NOT displace: FIFO within a class
        # means the incumbent keeps its place.
        queue = LevelingQueue(Simulator(), depth=1, key=by_rank)
        queue.offer((2, "incumbent"))
        outcome, displaced = queue.offer((2, "newcomer"))
        assert outcome == REJECTED
        assert displaced is None
        assert queue.items == [(2, "incumbent")]

    def test_full_rejects_worse_rank(self):
        queue = LevelingQueue(Simulator(), depth=1, key=by_rank)
        queue.offer((1, "good"))
        outcome, displaced = queue.offer((2, "worse"))
        assert outcome == REJECTED
        assert displaced is None

    def test_full_better_rank_displaces_worst(self):
        queue = LevelingQueue(Simulator(), depth=2, key=by_rank)
        queue.offer((2, "victim-old"))
        queue.offer((2, "victim-young"))
        outcome, displaced = queue.offer((1, "vip"))
        assert outcome == QUEUED
        # The youngest entry of the worst class makes room.
        assert displaced == (2, "victim-young")
        assert sorted(queue.items) == [(1, "vip"), (2, "victim-old")]

    def test_unbounded_depth_never_rejects(self):
        queue = LevelingQueue(Simulator(), depth=None, key=by_rank)
        for i in range(100):
            outcome, displaced = queue.offer((i % 3, i))
            assert outcome == QUEUED
            assert displaced is None
        assert len(queue) == 100
        assert queue.rejected == 0

    def test_reject_only_never_displaces(self):
        # Without displacement a full buffer turns away even a newcomer
        # that outranks every queued entry.
        queue = LevelingQueue(Simulator(), depth=2, key=by_rank, displace=False)
        queue.offer((2, "low-old"))
        queue.offer((2, "low-young"))
        outcome, displaced = queue.offer((0, "vip"))
        assert outcome == REJECTED
        assert displaced is None
        assert queue.items == [(2, "low-old"), (2, "low-young")]
        assert queue.evicted == 0

    def test_depth_bound_holds_under_churn(self):
        queue = LevelingQueue(Simulator(), depth=4, key=by_rank)
        for i in range(64):
            queue.offer((i % 7, i))
            assert len(queue) <= 4

    def test_conservation_counters(self):
        queue = LevelingQueue(Simulator(), depth=4, key=by_rank)
        for i in range(64):
            queue.offer((i % 7, i))
        assert queue.offered == 64
        assert queue.offered == queue.queued + queue.rejected
        assert len(queue) == queue.queued - queue.evicted

    def test_get_serves_best_first(self):
        sim = Simulator()
        queue = LevelingQueue(sim, depth=4, key=by_rank)
        for item in [(3, "c"), (1, "a"), (2, "b")]:
            queue.offer(item)
        served = []

        def consumer():
            while len(served) < 3:
                served.append((yield queue.get()))

        sim.process(consumer())
        sim.run()
        assert served == [(1, "a"), (2, "b"), (3, "c")]
