"""Tests for the §7 future-work extensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    count_window,
    time_window,
)
from repro.errors import ConfigurationError, TimeError
from repro.ext import (
    AdaptiveBatchTracker,
    GapThresholdLearner,
    KeyedMapper,
    SimilarItemSketch,
    TokenPrefixMapper,
)


class TestMappers:
    def test_keyed_mapper(self):
        mapper = KeyedMapper({"beef": "meat", "steak": "meat"})
        assert mapper("beef") == mapper("steak") == "meat"
        assert mapper("soap") == "soap"

    def test_token_prefix_mapper(self):
        mapper = TokenPrefixMapper(1)
        assert mapper("meat/beef") == "meat"
        assert mapper("meat") == "meat"
        assert mapper(42) == 42

    def test_token_prefix_depth(self):
        mapper = TokenPrefixMapper(2)
        assert mapper("a/b/c") == "a/b"


class TestSimilarItemSketch:
    def test_similar_items_share_batches(self):
        base = ClockBloomFilter(n=512, k=3, s=2, window=count_window(32))
        sk = SimilarItemSketch(base, KeyedMapper({"beef": "meat",
                                                  "steak": "meat"}))
        sk.insert("beef")
        assert sk.contains("steak")

    def test_dissimilar_items_do_not(self):
        base = ClockBloomFilter(n=4096, k=3, s=2, window=count_window(32))
        sk = SimilarItemSketch(base, KeyedMapper({}))
        sk.insert("soap")
        assert not sk.contains("milk")

    def test_size_of_class_batch(self):
        base = ClockCountMin(width=256, depth=2, s=4, window=count_window(32))
        sk = SimilarItemSketch(base, TokenPrefixMapper(1))
        for item in ["meat/beef", "meat/steak", "meat/lamb"]:
            sk.insert(item)
        assert sk.query("meat/anything") == 3

    def test_attribute_passthrough(self):
        base = ClockBitmap(n=128, s=4, window=count_window(16))
        sk = SimilarItemSketch(base, KeyedMapper({}))
        assert sk.memory_bits() == base.memory_bits()
        sk.insert("x")
        assert sk.estimate().value > 0


class TestGapThresholdLearner:
    def test_learns_cadence(self):
        learner = GapThresholdLearner(multiplier=4.0, min_threshold=2.0,
                                      max_threshold=100.0)
        for _ in range(3):
            learner.update("fast", 1.0)
        assert learner.threshold("fast") == 4.0

    def test_clamping(self):
        learner = GapThresholdLearner(multiplier=10.0, min_threshold=5.0,
                                      max_threshold=20.0)
        learner.update("fast", 0.1)
        assert learner.threshold("fast") == 5.0  # clamped up to the floor
        learner.update("slow", 19.0)
        assert learner.threshold("slow") == 20.0  # clamped to the ceiling

    def test_silences_excluded_from_cadence(self):
        learner = GapThresholdLearner(multiplier=3.0, min_threshold=1.0,
                                      max_threshold=1000.0)
        for _ in range(5):
            learner.update("k", 2.0)
        before = learner.threshold("k")
        learner.update("k", 500.0)  # a silence, not cadence
        assert learner.threshold("k") == before

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GapThresholdLearner(multiplier=1.0)
        with pytest.raises(ConfigurationError):
            GapThresholdLearner(alpha=0.0)
        with pytest.raises(ConfigurationError):
            GapThresholdLearner(min_threshold=10, max_threshold=1)
        learner = GapThresholdLearner()
        with pytest.raises(ConfigurationError):
            learner.update("k", -1.0)


class TestAdaptiveBatchTracker:
    def test_long_pause_splits(self):
        tracker = AdaptiveBatchTracker(GapThresholdLearner(
            multiplier=3.0, min_threshold=1.0, max_threshold=50.0))
        for t in [1.0, 2.0, 3.0, 30.0]:
            tracker.observe("k", t)
        assert tracker.batches_seen("k") == 2
        assert tracker.size("k") == 1

    def test_slow_key_not_split_by_its_own_cadence(self):
        tracker = AdaptiveBatchTracker(GapThresholdLearner(
            multiplier=4.0, min_threshold=1.0, max_threshold=1000.0))
        for t in np.arange(1.0, 100.0, 10.0):
            tracker.observe("slow", float(t))
        assert tracker.batches_seen("slow") == 1

    def test_per_key_thresholds_differ(self):
        tracker = AdaptiveBatchTracker(GapThresholdLearner(
            multiplier=4.0, min_threshold=0.5, max_threshold=1000.0))
        events = [(float(t), "fast") for t in range(1, 100)]
        events += [(0.5 + 9.0 * k, "slow") for k in range(11)]
        for t, key in sorted(events):
            tracker.observe(key, t)
        assert tracker.threshold("fast") < tracker.threshold("slow")

    def test_activeness_uses_learned_threshold(self):
        tracker = AdaptiveBatchTracker(GapThresholdLearner(
            multiplier=3.0, min_threshold=1.0, max_threshold=50.0))
        for t in [1.0, 2.0, 3.0]:
            tracker.observe("k", t)
        assert tracker.is_active("k", now=4.0)
        assert not tracker.is_active("k", now=30.0)

    def test_time_monotonicity(self):
        tracker = AdaptiveBatchTracker(GapThresholdLearner())
        tracker.observe("k", 5.0)
        with pytest.raises(TimeError):
            tracker.observe("k", 4.0)

    def test_unseen_key(self):
        tracker = AdaptiveBatchTracker(GapThresholdLearner())
        assert tracker.size("ghost") is None
        assert tracker.batches_seen("ghost") == 0
        assert not tracker.is_active("ghost")


def _aligned_pair(factory, **kwargs):
    return factory(**kwargs), factory(**kwargs)


class TestMerge:
    def test_bloom_union(self):
        w = time_window(100.0)
        a, b = _aligned_pair(ClockBloomFilter, n=256, k=3, s=2, window=w,
                             seed=5)
        a.insert("left", t=1.0)
        b.insert("right", t=2.0)
        a.contains("x", t=3.0)
        b.contains("x", t=3.0)
        merged = a.merge(b)
        assert merged.contains("left")
        assert merged.contains("right")

    def test_merge_requires_same_shape(self):
        w = time_window(100.0)
        a = ClockBloomFilter(n=256, k=3, s=2, window=w, seed=5)
        b = ClockBloomFilter(n=128, k=3, s=2, window=w, seed=5)
        with pytest.raises(ConfigurationError, match="n differs"):
            a.merge(b)

    def test_merge_requires_aligned_pointers(self):
        w = time_window(100.0)
        a, b = _aligned_pair(ClockBloomFilter, n=256, k=3, s=2, window=w,
                             seed=5)
        a.insert("x", t=50.0)
        with pytest.raises(ConfigurationError, match="pointers disagree"):
            a.merge(b)

    @given(st.lists(st.integers(0, 40), max_size=60),
           st.lists(st.integers(0, 40), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_bloom_union_property(self, left, right):
        """Anything either side reports active, the union reports active."""
        w = time_window(1000.0)
        a, b = _aligned_pair(ClockBloomFilter, n=512, k=2, s=4, window=w,
                             seed=7)
        for t, key in enumerate(left, start=1):
            a.insert(key, t=float(t))
        for t, key in enumerate(right, start=1):
            b.insert(key, t=float(t))
        barrier = float(max(len(left), len(right)) + 1)
        a.contains(0, t=barrier)
        b.contains(0, t=barrier)
        before_a = [a.contains(key) for key in range(41)]
        before_b = [b.contains(key) for key in range(41)]
        merged = a.merge(b)
        for key in range(41):
            if before_a[key] or before_b[key]:
                assert merged.contains(key)

    def test_bitmap_union_counts_both_sides(self):
        w = time_window(1000.0)
        a, b = _aligned_pair(ClockBitmap, n=2048, s=8, window=w, seed=3)
        for t, key in enumerate(range(50), start=1):
            a.insert(key, t=float(t))
        for t, key in enumerate(range(50, 100), start=1):
            b.insert(key, t=float(t))
        a.estimate(t=60.0)
        b.estimate(t=60.0)
        merged = a.merge(b)
        assert merged.estimate().value == pytest.approx(100, rel=0.15)

    def test_count_min_sums(self):
        w = time_window(1000.0)
        a, b = _aligned_pair(ClockCountMin, width=128, depth=2, s=8,
                             window=w, seed=4)
        for t in range(1, 6):
            a.insert("key", t=float(t))
        for t in range(1, 4):
            b.insert("key", t=float(t))
        a.query("x", t=10.0)
        b.query("x", t=10.0)
        merged = a.merge(b)
        assert merged.query("key") == 8

    def test_count_min_saturates(self):
        w = time_window(1000.0)
        a, b = _aligned_pair(ClockCountMin, width=64, depth=1, s=8,
                             window=w, counter_bits=4, seed=4)
        for t in range(1, 13):
            a.insert("key", t=float(t))
            b.insert("key", t=float(t))
        merged = a.merge(b)
        assert merged.query("key") == 15  # 12 + 12 clamped to 2^4 - 1
