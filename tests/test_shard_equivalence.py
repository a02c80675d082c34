"""Sharded-vs-plain equivalence: the §7 mergeability guarantees.

Two layers of proof:

- **P=1 bit-identity** — a single-shard :class:`ShardedSketch` routes
  every item to its one replica with the item's global arrival time, so
  the merged view must equal a plain sketch *exactly*: same cells, same
  cleaning position, same estimates, for all four sketch kinds and
  every sweep mode, over randomised streams.
- **P>1 analytic accuracy** — with identical per-shard configuration
  and a barrier-aligned merge, the clock-only kinds stay bit-identical
  to the plain sketch at any shard count, and every merged estimate
  stays within the §5 analytic error bands (from
  :class:`~repro.obs.audit.AnalyticPredictor`) of the exact
  :class:`~repro.streams.BatchTracker` truth.
"""

import numpy as np
import pytest

from repro import (
    BatchTracker,
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    ConfigurationError,
    ItemBatchMonitor,
    ShardedSketch,
    count_window,
    time_window,
)
from repro.core.params import error_window_length
from repro.obs.audit import AnalyticPredictor

WINDOW = 256
SWEEP_MODES = ("vector", "scalar", "deferred", "deferred-scalar")


def _stream(seed, size=2500, keys=400):
    rng = np.random.default_rng(seed)
    return [f"key-{v}" for v in rng.integers(0, keys, size=size)]


def _probe(keys=400):
    return [f"key-{i}" for i in range(keys)]


def _insert_chunks(sketch, items, times=None, chunk=311):
    for lo in range(0, len(items), chunk):
        if times is None:
            sketch.insert_many(items[lo:lo + chunk])
        else:
            sketch.insert_many(items[lo:lo + chunk], times[lo:lo + chunk])


MAKERS = {
    "bloom": lambda mode: ClockBloomFilter(
        n=2048, k=3, s=2, window=count_window(WINDOW), sweep_mode=mode),
    "bitmap": lambda mode: ClockBitmap(
        n=1024, s=2, window=count_window(WINDOW), sweep_mode=mode),
    "countmin": lambda mode: ClockCountMin(
        width=512, depth=3, s=2, window=count_window(WINDOW),
        sweep_mode=mode),
    "timespan": lambda mode: ClockTimeSpanSketch(
        n=2048, k=3, s=3, window=time_window(40.0), sweep_mode=mode),
}


def _queries(kind, sketch, probe):
    if kind == "bloom":
        return np.asarray(sketch.contains_many(probe))
    if kind == "bitmap":
        return np.asarray([sketch.estimate().value])
    if kind == "countmin":
        return np.asarray(sketch.query_many(probe))
    result = sketch.query_many(probe)
    return np.stack([np.asarray(result.span), np.asarray(result.begin)])


class TestSingleShardBitIdentity:
    """P=1 sharded must be indistinguishable from the plain sketch."""

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_p1_bit_identical(self, kind, mode):
        for seed in (0, 7):
            make = MAKERS[kind]
            plain = make(mode)
            sharded = ShardedSketch(lambda: make(mode), shards=1,
                                    router="serial")
            items = _stream(seed)
            if kind == "timespan":
                rng = np.random.default_rng(seed + 99)
                times = np.cumsum(rng.random(len(items)))
                _insert_chunks(plain, items, times)
                _insert_chunks(sharded, items, times)
            else:
                _insert_chunks(plain, items)
                _insert_chunks(sharded, items)
            merged = sharded.merged()
            # identical cells AND identical sweep state — not just
            # identical answers
            assert np.array_equal(merged.clock.values, plain.clock.values)
            assert merged.clock.steps_done == plain.clock.steps_done
            assert merged.now == plain.now
            assert merged.items_inserted == plain.items_inserted
            assert np.array_equal(_queries(kind, sharded, _probe()),
                                  _queries(kind, plain, _probe()),
                                  equal_nan=True)

    def test_p1_scalar_inserts_match_plain(self):
        plain = MAKERS["bloom"]("vector")
        sharded = ShardedSketch(lambda: MAKERS["bloom"]("vector"),
                                shards=1, router="serial")
        for item in _stream(3, size=600):
            plain.insert(item)
            sharded.insert(item)
        assert np.array_equal(sharded.merged().clock.values,
                              plain.clock.values)


TIMED_MAKERS = {
    "bloom-time": lambda mode: ClockBloomFilter(
        n=2048, k=3, s=2, window=time_window(40.0), sweep_mode=mode),
    "bitmap-time": lambda mode: ClockBitmap(
        n=1024, s=2, window=time_window(40.0), sweep_mode=mode),
}


class TestMultiShardExactness:
    """Clock-only kinds stay bit-identical to plain at any shard count."""

    @pytest.mark.parametrize("kind, query_between_chunks", [
        pytest.param("bloom", False, id="bloom"),
        pytest.param("bitmap", False, id="bitmap"),
        pytest.param("bloom-time", False, id="bloom-time"),
        pytest.param("bitmap-time", False, id="bitmap-time"),
        pytest.param("bloom-time", True, id="bloom-time-queried"),
        pytest.param("bitmap-time", True, id="bitmap-time-queried"),
    ])
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_merged_cells_equal_plain(self, kind, query_between_chunks,
                                      shards):
        make = MAKERS.get(kind) or TIMED_MAKERS[kind]
        family = kind.split("-")[0]
        plain = make("vector")
        sharded = ShardedSketch(lambda: make("vector"), shards=shards,
                                router="serial")
        # The same stream into a twin that is never queried: its
        # replicas are the reference for the queried facade's replicas.
        twin = ShardedSketch(lambda: make("vector"), shards=shards,
                             router="serial")
        items = _stream(shards)
        times = None
        if kind in TIMED_MAKERS:
            rng = np.random.default_rng(shards + 99)
            times = np.cumsum(rng.random(len(items)))
        for lo in range(0, len(items), 311):
            chunk = slice(lo, lo + 311)
            chunk_times = None if times is None else times[chunk]
            plain.insert_many(items[chunk], chunk_times)
            sharded.insert_many(items[chunk], chunk_times)
            twin.insert_many(items[chunk], chunk_times)
            if query_between_chunks:
                # A merged view mid-stream must leave every replica
                # private: later chunks still land as if never queried.
                _queries(family, sharded, _probe())
        # Replicas first, synchronised by a bare barrier (no merge).
        for facade in (sharded, twin):
            facade.router.barrier(facade.now)
        for mine, theirs in zip(sharded.replicas, twin.replicas):
            assert mine.items_inserted == theirs.items_inserted
            assert np.array_equal(mine.clock.values, theirs.clock.values)
        merged = sharded.merged()
        assert np.array_equal(merged.clock.values, plain.clock.values)
        assert merged.clock.steps_done == plain.clock.steps_done
        assert np.array_equal(_queries(family, sharded, _probe()),
                              _queries(family, plain, _probe()))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_countmin_bracketed_by_truth_and_plain(self, shards):
        make = MAKERS["countmin"]
        plain = make("vector")
        sharded = ShardedSketch(lambda: make("vector"), shards=shards,
                                router="serial")
        items = _stream(shards + 10)
        _insert_chunks(plain, items)
        _insert_chunks(sharded, items)
        truth = BatchTracker(count_window(WINDOW))
        for item in items:
            truth.observe(item)
        active = truth.active_keys()
        exact = np.asarray([truth.size(key) for key in active])
        mine = np.asarray(sharded.query_many(active))
        theirs = np.asarray(plain.query_many(active))
        # Per-shard collisions are a subset of the plain sketch's, so
        # the merged estimate sits between the truth and the plain one.
        assert np.all(exact <= mine)
        assert np.all(mine <= theirs)


class TestMultiShardAnalyticBands:
    """P>1 merged estimates vs exact truth, within the §5 bands."""

    SHARDS = (2, 4, 8)
    MEMORY = "8KB"
    SEED = 5

    def _workload(self):
        # Uniform churn: enough keys that a meaningful fraction expires,
        # enough repetition that batches build real sizes/spans.
        return _stream(self.SEED, size=4000, keys=600)

    def _monitors(self, shards):
        window = count_window(WINDOW)
        plain = ItemBatchMonitor(window, memory=self.MEMORY, seed=self.SEED)
        sharded = ItemBatchMonitor.sharded(
            window, memory=self.MEMORY, seed=self.SEED, shards=shards)
        return plain, sharded

    @pytest.mark.parametrize("shards", SHARDS)
    def test_merged_estimates_within_bands(self, shards):
        plain, sharded = self._monitors(shards)
        items = self._workload()
        truth = BatchTracker(count_window(WINDOW))
        for lo in range(0, len(items), 500):
            chunk = items[lo:lo + 500]
            plain.observe_many(chunk)
            sharded.observe_many(chunk)
        for item in items:
            truth.observe(item)

        # The §5 bands are per-shard-sized: predictions come from the
        # plain monitor, whose structures match one shard exactly.
        predictions = AnalyticPredictor(plain).predict()
        now = truth.now
        residual = error_window_length(WINDOW, plain.activeness.s)
        active, _, stale = truth.partition_keys(now, residual=residual)

        # Activeness: zero false negatives (hard contract) and a stale
        # false-positive rate within the predicted band. Sharded
        # activeness is bit-identical to plain, so both are checked at
        # once by comparing against the plain monitor too.
        for key in active:
            assert sharded.is_active(key)
        if stale:
            fp = sum(sharded.is_active(key) for key in stale) / len(stale)
            band = max(predictions["activeness"].expected, 0.01)
            assert fp <= 3.0 * band + 0.02
        assert np.array_equal(
            sharded.activeness.merged().clock.values,
            plain.activeness.clock.values)

        # Cardinality: relative error within the predicted δ-bound.
        exact = truth.active_cardinality(now)
        estimate = sharded.active_batches()
        re_bound = predictions["cardinality"].expected
        assert abs(estimate - exact) / exact <= re_bound + 0.05

        # Size: never underestimates; overshoot beyond the analytic
        # absolute threshold on at most the predicted exceed fraction
        # (with slack for the small sample).
        sizes_exact = np.asarray([truth.size(key) for key in active])
        sizes = np.asarray([sharded.batch_size(key) for key in active])
        assert np.all(sizes >= sizes_exact)
        threshold = predictions["size"].detail["abs_threshold"]
        exceed = float(np.mean(sizes - sizes_exact > threshold))
        assert exceed <= predictions["size"].expected + 0.1

        # Span: never underestimates beyond float noise (hard
        # contract), and the fraction of keys overestimated beyond the
        # residual error window — collision-induced errors, what §5.4's
        # model predicts as a rate — stays within the predicted band.
        overshoots = 0
        for key in active:
            span_true = truth.span(key, now)
            result = sharded.batch_span(key)
            assert result.active
            assert result.span >= span_true - 1e-9
            if result.span > span_true + residual + 1e-9:
                overshoots += 1
        err_rate = overshoots / len(active)
        assert err_rate <= predictions["span"].expected + 0.1


class TestFacadeValidation:
    def test_rejects_non_pristine_prototype(self):
        proto = MAKERS["bloom"]("vector")
        proto.insert("already-used")
        with pytest.raises(ConfigurationError):
            ShardedSketch(proto, shards=2)

    def test_rejects_bad_shard_count_and_router(self):
        with pytest.raises(ConfigurationError):
            ShardedSketch(lambda: MAKERS["bloom"]("vector"), shards=0)
        with pytest.raises(ConfigurationError):
            ShardedSketch(lambda: MAKERS["bloom"]("vector"), shards=2,
                          router="carrier-pigeon")

    def test_rejects_foreign_prototype(self):
        with pytest.raises(ConfigurationError):
            ShardedSketch(object(), shards=2)

    def test_memory_accounting_scales_with_shards(self):
        sharded = ShardedSketch(lambda: MAKERS["bloom"]("vector"), shards=4)
        assert sharded.memory_bits() == 4 * sharded.shard_memory_bits()
        metrics = sharded.metrics()
        assert metrics["shards"] == 4
        assert metrics["router"] == "serial"
        assert len(metrics["queue_depths"]) == 4

    def test_routing_is_deterministic_and_covers_shards(self):
        sharded = ShardedSketch(lambda: MAKERS["bloom"]("vector"), shards=8)
        first = [sharded.selector.shard_of(f"key-{i}") for i in range(500)]
        again = [sharded.selector.shard_of(f"key-{i}") for i in range(500)]
        assert first == again
        assert set(first) == set(range(8))
